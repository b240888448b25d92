//! Text renderers: print the regenerated tables and figure series in the
//! paper's row format (used by the `repro` harness and EXPERIMENTS.md).
//!
//! Every grid here is one report-model table whose typed columns read the
//! rows for every output: the `render_*` functions print its text, and
//! the `sixscope run --json` document built here prints the same rows as
//! JSON. Table 4 (TCP and UDP side by side), Table 5b, the overview, the
//! headline prose, the growth samples and the nibble art are not grids and
//! stay hand-written.

use crate::figures::{BiweeklySeries, GrowthCurve, NibbleMatrix, TaxonomyCell};
use crate::json::Json;
use crate::report::{col, text, Cell, Table};
use crate::tables::ToolRow;
use crate::tables::{self, AddressTypeRow, ClassRow, NetworkTypeRow, PortRow, ProtocolRow};
use crate::tables::{CorpusOverview, Headline, Table2, Table4, Table5, Table5aColumn, Table6};
use crate::Analyzed;
use std::fmt::Write;

/// Renders the §4 corpus overview.
pub fn render_overview(label: &str, o: &CorpusOverview) -> String {
    format!(
        "Corpus overview ({label}): {} packets from {} /128 sources ({} /64 subnets), \
         {} (/128) / {} (/64) sessions, {} ASes, {} countries\n",
        o.packets, o.sources128, o.sources64, o.sessions128, o.sessions64, o.ases, o.countries
    )
}

/// The tables of `sixscope run --json`: the grids' rows plus the headline
/// numbers. It has no overview and no Table 5b.
pub(crate) fn tables_json(a: &Analyzed) -> Json {
    let (t4, t6) = (tables::table4(a), tables::table6(a));
    let ports = Json::obj([("tcp", TABLE4.json(&t4.tcp)), ("udp", TABLE4.json(&t4.udp))]);
    let classes = table6_sections(&t6).map(|(key, _, rows)| (key, TABLE6.json(rows)));
    Json::obj([
        TABLE2.entry(&tables::table2(a).rows),
        TABLE3.entry(&tables::table3(a)),
        (TABLE4.key, ports),
        TABLE5A.entry(&tables::table5(a).a),
        (TABLE6.key, Json::obj(classes)),
        TABLE7.entry(&tables::table7(a)),
        TABLE8.entry(&tables::table8(a)),
        ("headline", headline_json(&tables::headline(a))),
    ])
}

const TABLE2: Table<ProtocolRow> = Table {
    key: "table2",
    title: "Table 2 — packets, sessions, sources per transport protocol",
    columns: &[
        col("protocol", "Protocol", "<8", |r| text(r.protocol.name())),
        col("packets", "Packets", ">12", |r| Cell::Int(r.packets)),
        col("packet_pct", "[%]", ">6.1", |r| Cell::Float(r.packet_pct)),
        col("sessions", "Sessions", ">10", |r| Cell::Int(r.sessions)),
        col("session_pct", "[%]", ">6.1", |r| Cell::Float(r.session_pct)),
        col("sources", "Sources", ">10", |r| Cell::Int(r.sources)),
        col("source_pct", "[%]", ">6.1", |r| Cell::Float(r.source_pct)),
    ],
};

/// Renders Table 2.
pub fn render_table2(t: &Table2) -> String {
    let mut out = TABLE2.text(&t.rows);
    writeln!(
        out,
        "total    {:>12}        {:>10}        {:>10}",
        t.total_packets, t.total_sessions, t.total_sources
    )
    .unwrap();
    out
}

const TABLE3: Table<AddressTypeRow> = Table {
    key: "table3",
    title: "Table 3 — distribution of target address types",
    columns: &[
        col("address_type", "Address Type", "<15", |r| {
            text(r.address_type)
        }),
        col("packets", "Packets", ">12", |r| Cell::Int(r.packets)),
        col("packet_pct", "[%]", ">7.2", |r| Cell::Float(r.packet_pct)),
        col("sources", "Sources", ">10", |r| Cell::Int(r.sources)),
        col("source_pct", "[%]", ">7.2", |r| Cell::Float(r.source_pct)),
    ],
};

/// Renders Table 3.
pub fn render_table3(rows: &[AddressTypeRow]) -> String {
    TABLE3.text(rows)
}

/// Table 4's rows for the JSON, which has no rank; the text sets TCP and
/// UDP side by side by rank.
const TABLE4: Table<PortRow> = Table {
    key: "table4",
    title: "",
    columns: &[
        col("port", "", "<", |r| text(r.port)),
        col("sessions", "", ">", |r| Cell::Int(r.sessions)),
        col("pct", "", ">", |r| Cell::Float(r.pct)),
    ],
};

/// Renders Table 4.
pub fn render_table4(t: &Table4) -> String {
    let mut out = String::new();
    writeln!(out, "Table 4 — top 5 ports by /64 sessions").unwrap();
    writeln!(
        out,
        "{:<5} {:<12} {:>9} {:>6}   {:<12} {:>9} {:>6}",
        "Rank", "TCP Port", "[#]", "[%]", "UDP Port", "[#]", "[%]"
    )
    .unwrap();
    for i in 0..5 {
        let tcp = t.tcp.get(i);
        let udp = t.udp.get(i);
        writeln!(
            out,
            "#{:<4} {:<12} {:>9} {:>6.1}   {:<12} {:>9} {:>6.1}",
            i + 1,
            tcp.map_or(String::new(), |r| r.port.to_string()),
            tcp.map_or(0, |r| r.sessions),
            tcp.map_or(0.0, |r| r.pct),
            udp.map_or(String::new(), |r| r.port.to_string()),
            udp.map_or(0, |r| r.sessions),
            udp.map_or(0.0, |r| r.pct),
        )
        .unwrap();
    }
    writeln!(
        out,
        "distinct ports: {} TCP, {} UDP (traceroute range aggregated)",
        t.distinct_tcp_ports, t.distinct_udp_ports
    )
    .unwrap();
    out
}

/// Table 5a, one row per telescope; the text prints it transposed.
const TABLE5A: Table<Table5aColumn> = Table {
    key: "table5a",
    title: "Table 5a — telescope comparison, initial period",
    columns: &[
        col("telescope", "Telescope", ">12", |c| text(c.telescope)),
        col("sources128", "/128 sources", ">12", |c| {
            Cell::Int(c.sources128)
        }),
        col("sources64", "/64 sources", ">12", |c| {
            Cell::Int(c.sources64)
        }),
        col("asns", "ASN", ">12", |c| Cell::Int(c.asns)),
        col("destinations", "Destination addr.", ">12", |c| {
            Cell::Int(c.destinations)
        }),
        col("packets", "Packets", ">12", |c| Cell::Int(c.packets)),
    ],
};

/// Renders Table 5 (both halves).
pub fn render_table5(t: &Table5) -> String {
    let mut out = TABLE5A.transposed_text(&t.a, 18);
    writeln!(out, "\nTable 5b — distinct sources per protocol").unwrap();
    for c in &t.b {
        write!(out, "{:<4}", c.telescope.to_string()).unwrap();
        for (proto, n, p) in &c.rows {
            write!(out, "  {}: {} ({:.1}%)", proto.name(), n, p).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

const TABLE6: Table<ClassRow> = Table {
    key: "table6",
    title: "Table 6 — taxonomy classification (T1, split period)",
    columns: &[
        col("label", "Classification", "<26", |r| text(&r.label)),
        col("scanners", "Scanners", ">9", |r| Cell::Int(r.scanners)),
        col("scanner_pct", "[%]", ">7.2", |r| Cell::Float(r.scanner_pct)),
        col("sessions", "Sessions", ">9", |r| Cell::Int(r.sessions)),
        col("session_pct", "[%]", ">7.2", |r| Cell::Float(r.session_pct)),
    ],
};

/// Table 6's sections: JSON key, text heading, rows.
fn table6_sections(t: &Table6) -> [(&'static str, &'static str, &[ClassRow]); 2] {
    [
        ("temporal", "Temporal behavior", &t.temporal),
        ("network", "Network selection", &t.network),
    ]
}

/// Renders Table 6.
pub fn render_table6(t: &Table6) -> String {
    let mut out = TABLE6.text(&[]);
    for (_, heading, rows) in table6_sections(t) {
        out.push_str(heading);
        out.push('\n');
        TABLE6.rows_text(&mut out, rows, 2);
    }
    out
}

const TABLE7: Table<ToolRow> = Table {
    key: "table7",
    title: "Table 7 — identified scan tools (T1, split period)",
    columns: &[
        col("tool", "Scan Tool", "<16", |r| text(r.tool)),
        col("scanners", "Scanners", ">9", |r| Cell::Int(r.scanners)),
        col("scanner_pct", "[%]", ">7.2", |r| Cell::Float(r.scanner_pct)),
        col("sessions", "Sessions", ">9", |r| Cell::Int(r.sessions)),
        col("session_pct", "[%]", ">7.2", |r| Cell::Float(r.session_pct)),
    ],
};

/// Renders Table 7.
pub fn render_table7(rows: &[ToolRow]) -> String {
    TABLE7.text(rows)
}

/// The JSON keeps the network type and the heavy-hitter flag apart and
/// has no shares; the text folds the two into one label.
const TABLE8: Table<NetworkTypeRow> = Table {
    key: "table8",
    title: "Table 8 — network types of scan sources (T1, split period)",
    columns: &[
        col("network_type", "", "<", |r| text(r.network_type)),
        col("without_heavy_hitters", "", "<", |r| {
            Cell::Bool(r.without_heavy_hitters)
        }),
        col("", "Network", "<12", |r| {
            if r.without_heavy_hitters {
                text("  w/o Hit.")
            } else {
                text(r.network_type)
            }
        }),
        col("scanners", "Scanners", ">9", |r| Cell::Int(r.scanners)),
        col("", "[%]", ">7.2", |r| Cell::Float(r.scanner_pct)),
        col("sessions", "Sessions", ">9", |r| Cell::Int(r.sessions)),
        col("", "[%]", ">7.2", |r| Cell::Float(r.session_pct)),
        col("packets", "Packets", ">12", |r| Cell::Int(r.packets)),
        col("", "[%]", ">7.2", |r| Cell::Float(r.packet_pct)),
    ],
};

/// Renders Table 8.
pub fn render_table8(rows: &[NetworkTypeRow]) -> String {
    TABLE8.text(rows)
}

/// Renders the §7.1 headline numbers.
pub fn render_headline(h: &Headline) -> String {
    let mut out = String::new();
    writeln!(out, "Headline findings (§7.1)").unwrap();
    writeln!(
        out,
        "  packets, split /33 vs companion /33:   {:+.0}%   (paper: +286%)",
        h.split_vs_companion_packets_pct
    )
    .unwrap();
    writeln!(
        out,
        "  weekly sources growth (split period):  {:+.0}%   (paper: +275%)",
        h.weekly_sources_growth_pct
    )
    .unwrap();
    writeln!(
        out,
        "  weekly sessions growth (split period): {:+.0}%   (paper: +555%)",
        h.weekly_sessions_growth_pct
    )
    .unwrap();
    writeln!(
        out,
        "  one-off scanner share:                 {:.1}%  (paper: 69.7%)",
        h.one_off_scanner_pct
    )
    .unwrap();
    writeln!(
        out,
        "  final-cycle /48 session share:         {:.1}%  (paper: 15.7%)",
        h.final_48_session_pct
    )
    .unwrap();
    writeln!(
        out,
        "  heavy hitters: {} sources, {:.0}% of packets, {:.2}% of sessions (paper: 10 / 73% / 0.04%)",
        h.heavy_hitters.len(),
        h.heavy_packet_pct,
        h.heavy_session_pct
    )
    .unwrap();
    out
}

/// The §7.1 headline numbers as JSON.
fn headline_json(h: &Headline) -> Json {
    Json::obj([
        (
            "split_vs_companion_packets_pct",
            Json::Num(h.split_vs_companion_packets_pct),
        ),
        (
            "weekly_sources_growth_pct",
            Json::Num(h.weekly_sources_growth_pct),
        ),
        (
            "weekly_sessions_growth_pct",
            Json::Num(h.weekly_sessions_growth_pct),
        ),
        ("one_off_scanner_pct", Json::Num(h.one_off_scanner_pct)),
        ("final_48_session_pct", Json::Num(h.final_48_session_pct)),
        ("heavy_hitters", Json::u(h.heavy_hitters.len() as u64)),
        ("heavy_packet_pct", Json::Num(h.heavy_packet_pct)),
        ("heavy_session_pct", Json::Num(h.heavy_session_pct)),
    ])
}

const TAXONOMY: Table<TaxonomyCell> = Table {
    key: "taxonomy",
    title: "",
    columns: &[
        col("telescope", "Tel", "<4", |c| text(c.telescope)),
        col("temporal", "Temporal", "<14", |c| text(c.temporal)),
        col("addr_selection", "AddrSel", "<12", |c| {
            text(c.addr_selection)
        }),
        col("sessions", "Sessions", ">9", |c| Cell::Int(c.sessions)),
    ],
};

/// Renders a taxonomy cell grid (Figs. 7b / 15).
pub fn render_taxonomy(cells: &[TaxonomyCell]) -> String {
    TAXONOMY.text(cells)
}

/// Renders growth curves (Fig. 4) at a few sample points.
pub fn render_growth(curves: &[GrowthCurve]) -> String {
    let mut out = String::new();
    for c in curves {
        let n = c.points.len();
        let samples: Vec<String> = [0, n / 4, n / 2, 3 * n / 4, n.saturating_sub(1)]
            .iter()
            .filter(|&&i| i < n)
            .map(|&i| format!("{:.2}", c.points[i].1))
            .collect();
        writeln!(out, "{:<14} {}", c.label, samples.join(" → ")).unwrap();
    }
    out
}

/// Fig. 11 rows: bi-week, T1 sessions, sessions at the other telescopes.
const BIWEEKLY: Table<[u64; 3]> = Table {
    key: "fig11",
    title: "",
    columns: &[
        col("biweek", "bi-week", "<8", |r| Cell::Int(r[0])),
        col("t1_sessions", "T1 sessions", ">12", |r| Cell::Int(r[1])),
        col("rest_sessions", "rest sessions", ">12", |r| Cell::Int(r[2])),
    ],
};

/// Renders the bi-weekly T1-vs-rest series (Fig. 11).
pub fn render_biweekly(s: &BiweeklySeries) -> String {
    let rest: std::collections::BTreeMap<u64, u64> =
        s.others.iter().map(|&(b, n, _)| (b, n)).collect();
    let rows: Vec<[u64; 3]> =
        s.t1.iter()
            .map(|&(b, n, _)| [b, n, rest.get(&b).copied().unwrap_or(0)])
            .collect();
    BIWEEKLY.text(&rows)
}

/// Renders a nibble matrix as hex art (down-sampled to at most `max_rows`).
pub fn render_nibbles(m: &NibbleMatrix, max_rows: usize) -> String {
    let mut out = String::new();
    writeln!(out, "session from {} — {} targets", m.source, m.rows.len()).unwrap();
    let step = (m.rows.len() / max_rows.max(1)).max(1);
    for row in m.rows.iter().step_by(step).take(max_rows) {
        for &n in row {
            write!(out, "{n:x}").unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{ClassRow, ProtocolRow};
    use sixscope_telescope::Protocol;

    #[test]
    fn table2_renders_all_rows() {
        let t = Table2 {
            rows: vec![ProtocolRow {
                protocol: Protocol::Icmpv6,
                packets: 1000,
                packet_pct: 66.2,
                sessions: 10,
                session_pct: 20.1,
                sources: 5,
                source_pct: 56.5,
            }],
            total_packets: 1000,
            total_sessions: 10,
            total_sources: 5,
        };
        let s = render_table2(&t);
        assert!(s.contains("ICMPv6"));
        assert!(s.contains("66.2"));
        assert!(s.contains("total"));
    }

    #[test]
    fn table6_renders_sections() {
        let row = ClassRow {
            label: "One-off".into(),
            scanners: 10,
            scanner_pct: 69.7,
            sessions: 10,
            session_pct: 8.9,
        };
        let t = Table6 {
            temporal: vec![row.clone()],
            network: vec![ClassRow {
                label: "Single-prefix scanning".into(),
                ..row
            }],
        };
        let s = render_table6(&t);
        assert!(s.contains("Temporal behavior"));
        assert!(s.contains("Network selection"));
        assert!(s.contains("One-off"));
        assert!(s.contains("Single-prefix"));
    }

    #[test]
    fn nibble_rendering_downsamples() {
        let m = NibbleMatrix {
            source: sixscope_telescope::SourceKey::new(
                "2001:db8::1".parse().unwrap(),
                sixscope_telescope::AggLevel::Addr128,
            ),
            rows: vec![[0xa; 32]; 1000],
        };
        let s = render_nibbles(&m, 10);
        let hex_lines = s.lines().filter(|l| l.starts_with('a')).count();
        assert!(hex_lines <= 10);
        assert!(s.contains("1000 targets"));
    }
}
