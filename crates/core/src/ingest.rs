//! Real-capture ingestion — the `sixscope ingest` pipeline.
//!
//! A telescope operator points [`crate::Pipeline::from_pcaps`] at classic
//! pcap files (`tcpdump -y RAW` output) and gets the same analysis the
//! simulated experiment runs: hardened per-record reading with
//! skip-and-count recovery (the pipeline streams each file through a
//! [`sixscope_telescope::PcapFeed`]), sessionization with the paper's
//! 1-hour timeout, temporal and address-selection classification, and
//! tool fingerprinting — rendered as one markdown report by
//! [`render_report`].
//!
//! The report is byte-identical at any `SIXSCOPE_THREADS` setting: the
//! per-scanner rows are computed through the order-preserving
//! [`map_indexed`], and every aggregation iterates in a deterministic
//! order.

use crate::report::{col, text, Cell, Table};
use sixscope_analysis::classify::{addr_selection, profile_scanners, AddrSelection, TemporalClass};
use sixscope_analysis::fingerprint::identify;
use sixscope_telescope::{
    Capture, IngestStats, Protocol, ScanSession, SourceKey, TelescopeConfig, TelescopeId,
    TelescopeKind,
};
use sixscope_types::{map_indexed, num_threads, Ipv6Prefix};
use std::collections::BTreeMap;

/// How many destination ports the report lists.
const TOP_PORTS: usize = 10;

/// The passive telescope configuration real-capture ingestion uses: plain
/// prefix filtering, no productive subnet, no DNS attractor. `::/0`
/// accepts every packet in the file.
pub fn passive_config(prefix: Ipv6Prefix) -> TelescopeConfig {
    TelescopeConfig {
        id: TelescopeId::T1,
        kind: TelescopeKind::Passive,
        prefix,
        separately_announced: true,
        dns_exposed: None,
        productive_subnet: None,
    }
}

/// Renders the full markdown ingest report: recovery statistics, traffic
/// overview, and the per-scanner classification table.
///
/// `sessions` must be the /128 paper-timeout sessionization of `capture`
/// (the [`crate::Pipeline`] computes it incrementally while streaming).
pub fn render_report(
    capture: &Capture,
    sessions: &[ScanSession],
    stats: &IngestStats,
    source_label: &str,
) -> String {
    let mut out = format!("# sixscope ingest report\n\nInput: {source_label}\n\n");
    out.push_str("## Recovery\n\n");
    out.push_str(&RECOVERY.markdown(&recovery_rows(stats)));
    out.push('\n');
    render_traffic(capture, &mut out);
    render_scanners(capture, sessions, &mut out);
    out
}

/// The recovery counters in report order: JSON key, report label, value.
/// `cli::stats_json` and the report's recovery table both read them here.
pub(crate) fn stats_fields(s: &IngestStats) -> [(&'static str, &'static str, Cell); 6] {
    [
        ("records_read", "records read", Cell::Int(s.records_read)),
        ("parsed", "parsed into capture", Cell::Int(s.parsed)),
        (
            "filtered",
            "filtered (outside prefix)",
            Cell::Int(s.filtered),
        ),
        (
            "malformed_packets",
            "malformed IPv6 packets",
            Cell::Int(s.malformed_packets),
        ),
        (
            "skipped",
            "skipped pcap records",
            Cell::Int(s.skipped_total()),
        ),
        (
            "truncated_tail",
            "truncated tail",
            Cell::Bool(s.truncated_tail),
        ),
    ]
}

/// The recovery table's rows: every counter, and under the skipped total
/// the skip reasons that occurred.
fn recovery_rows(stats: &IngestStats) -> Vec<(String, Cell)> {
    let fields = stats_fields(stats).into_iter();
    let mut rows: Vec<_> = fields.map(|(_, label, n)| (label.into(), n)).collect();
    let truncated_tail = rows.pop();
    for (reason, n) in stats.skip_reasons().filter(|&(_, n)| n > 0) {
        rows.push((format!("&nbsp;&nbsp;{reason}"), Cell::Int(n)));
    }
    rows.extend(truncated_tail);
    rows
}

const RECOVERY: Table<(String, Cell)> = Table {
    key: "recovery",
    title: "",
    columns: &[
        col("metric", "metric", "<", |r| text(&r.0)),
        col("count", "count", ">", |r| r.1.clone()),
    ],
};

/// Packets per protocol.
const PROTOCOLS: Table<(String, u64)> = Table {
    key: "protocols",
    title: "",
    columns: &[
        col("protocol", "protocol", "<", |r| text(&r.0)),
        col("packets", "packets", ">", |r| Cell::Int(r.1)),
    ],
};

/// Packets per destination port, the busiest first.
const PORTS: Table<(String, u64)> = Table {
    key: "ports",
    title: "",
    columns: &[
        col("port", "top destination port", "<", |r| text(&r.0)),
        col("packets", "packets", ">", |r| Cell::Int(r.1)),
    ],
};

fn render_traffic(capture: &Capture, out: &mut String) {
    out.push_str("## Traffic\n\n");
    let packets = capture.packets();
    if packets.is_empty() {
        out.push_str("No packets inside the telescope prefix.\n\n");
        return;
    }
    let (mut lo, mut hi) = (packets[0].ts, packets[0].ts);
    let mut by_proto: BTreeMap<Protocol, u64> = BTreeMap::new();
    let mut by_port: BTreeMap<u16, u64> = BTreeMap::new();
    let mut sources: Vec<u128> = Vec::with_capacity(packets.len());
    for p in packets {
        lo = lo.min(p.ts);
        hi = hi.max(p.ts);
        *by_proto.entry(p.protocol).or_default() += 1;
        if let Some(port) = p.dst_port {
            *by_port.entry(port).or_default() += 1;
        }
        sources.push(u128::from(p.src));
    }
    sources.sort_unstable();
    sources.dedup();
    out.push_str(&format!(
        "{} packets from {} distinct /128 sources, t = {}..{}\n\n",
        packets.len(),
        sources.len(),
        lo.as_secs(),
        hi.as_secs(),
    ));
    let protocols: Vec<_> = by_proto
        .iter()
        .map(|(p, &n)| (p.name().into(), n))
        .collect();
    out.push_str(&PROTOCOLS.markdown(&protocols));
    out.push('\n');
    if !by_port.is_empty() {
        let mut ports: Vec<(u16, u64)> = by_port.into_iter().collect();
        ports.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ports.truncate(TOP_PORTS);
        let ports: Vec<_> = ports
            .iter()
            .map(|(port, n)| (port.to_string(), *n))
            .collect();
        out.push_str(&PORTS.markdown(&ports));
        out.push('\n');
    }
}

fn render_scanners(capture: &Capture, sessions: &[ScanSession], out: &mut String) {
    out.push_str("## Scanners\n\n");
    let scanners = scanner_rows(capture, sessions, true);
    out.push_str(&format!(
        "{} scan sessions (/128, 1-hour timeout) from {} scanners\n\n",
        sessions.len(),
        scanners.len()
    ));
    if !scanners.is_empty() {
        out.push_str(&SCANNERS.markdown(&scanners));
        out.push('\n');
    }
}

/// One scanner of the per-scanner table, classified by its first session.
pub(crate) struct Scanner {
    source: SourceKey,
    sessions: u64,
    packets: u64,
    temporal: TemporalClass,
    selection: AddrSelection,
    /// The tool its first payload matches ("" unless asked for).
    tool: String,
}

/// The per-scanner table that `analyze`, `merge`, `serve` and `ingest` all
/// print. The `tool` column is markdown only: the ingest report is the one
/// output that pays for its payload scan.
pub(crate) const SCANNERS: Table<Scanner> = Table {
    key: "scanners",
    title: "",
    columns: &[
        col("source", "source", "<42", |r| text(r.source)),
        col("sessions", "sess", ">6", |r: &Scanner| {
            Cell::Int(r.sessions)
        })
        .md("sessions"),
        col("packets", "packets", ">8", |r| Cell::Int(r.packets)),
        col("temporal", "temporal", "<13", |r: &Scanner| {
            text(r.temporal)
        })
        .sep("  "),
        col(
            "addr_selection",
            "addr-selection (first session)",
            "<",
            |r: &Scanner| text(r.selection),
        )
        .md("address selection"),
        col("", "", "<", |r: &Scanner| text(&r.tool)).md("tool"),
    ],
};

/// The per-scanner rows of a /128 sessionization of `capture`, in profile
/// order. With `tool`, each row also identifies its first payload's tool;
/// that scan runs in parallel, and the order-preserving [`map_indexed`]
/// keeps the rows identical at any thread count.
pub(crate) fn scanner_rows(
    capture: &Capture,
    sessions: &[ScanSession],
    tool: bool,
) -> Vec<Scanner> {
    let prefix_len = capture.config().prefix.len();
    let threads = if tool { num_threads(None) } else { 1 };
    map_indexed(threads, &profile_scanners(sessions), |_, profile| {
        let first = &sessions[profile.session_indices[0]];
        let tool = if tool {
            let payload = first
                .packets(capture)
                .find(|p| !p.payload.is_empty())
                .map(|p| p.payload.clone())
                .unwrap_or_default();
            identify(&payload, None).to_string()
        } else {
            String::new()
        };
        Scanner {
            source: profile.source,
            sessions: profile.session_indices.len() as u64,
            packets: profile.packets,
            temporal: profile.temporal,
            selection: addr_selection(first, capture, prefix_len),
            tool,
        }
    })
}
