//! Golden pins of every report the toolkit prints: the `run`-style tables
//! report, the `analyze`-style per-scanner report, and the markdown ingest
//! report, each in every format it has. A pin is the output's length plus
//! its FNV-1a hash, so a change to a single byte of any report fails here
//! rather than only against another output of the same build.
//!
//! After an intentional output change, a failing test prints the new pins
//! in the syntax of the tables below.

use sixscope::sim::ScenarioConfig;
use sixscope::{ingest, serve, Analyzed, Pipeline};
use sixscope_telescope::{IngestStats, TelescopeId};
use std::sync::OnceLock;

/// FNV-1a, 64 bit: a compact stand-in for a report's bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The `(length, hash)` pin of one report.
fn pin(report: &str) -> (usize, u64) {
    (report.len(), fnv(report.as_bytes()))
}

fn assert_pins(actual: &[(String, (usize, u64))], expected: &[(&str, usize, u64)]) {
    let actual: Vec<(&str, usize, u64)> = actual
        .iter()
        .map(|(name, (len, hash))| (name.as_str(), *len, *hash))
        .collect();
    let listing: String = actual
        .iter()
        .map(|(name, len, hash)| format!("    ({name:?}, {len}, {hash:#x}),\n"))
        .collect();
    assert_eq!(actual, expected, "report pins changed; actual:\n{listing}");
}

const CORPUS: [&str; 4] = [
    "clean.pcap",
    "lying_lengths.pcap",
    "mixed.pcap",
    "truncated_header.pcap",
];

fn corpus_path(name: &str) -> String {
    format!("{}/corpus/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The simulated study at the serve golden's seed and scale.
fn simulated() -> &'static Analyzed {
    static CELL: OnceLock<Analyzed> = OnceLock::new();
    CELL.get_or_init(|| {
        Pipeline::simulate(ScenarioConfig::new(20230824, 0.004))
            .threads(2)
            .run()
            .unwrap()
    })
}

/// The markdown ingest report over the named corpus files, labelled with
/// their names the way `sixscope ingest` labels its inputs.
fn ingest_report(names: &[&str]) -> String {
    let out = Pipeline::from_pcaps(names.iter().map(|n| corpus_path(n)))
        .run_detailed()
        .unwrap();
    ingest::render_report(
        out.analyzed.capture(TelescopeId::T1),
        out.analyzed.sessions128(TelescopeId::T1),
        &out.stats,
        &names.join(", "),
    )
}

#[test]
fn tables_report_is_pinned() {
    let a = simulated();
    let pins =
        [false, true].map(|json| (format!("json={json}"), pin(&serve::tables_report(a, json))));
    assert_pins(
        &pins,
        &[
            ("json=false", 4226, 0xbb5a9b5272175a68),
            ("json=true", 4843, 0xedba5cba5bef17ec),
        ],
    );
}

#[test]
fn analysis_report_is_pinned_on_every_corpus_file() {
    let mut pins = Vec::new();
    for name in CORPUS {
        let out = Pipeline::from_pcaps([corpus_path(name)])
            .run_detailed()
            .unwrap();
        for json in [false, true] {
            let report = serve::analysis_report(&out.analyzed, &out.stats, json);
            pins.push((format!("{name} json={json}"), pin(&report)));
        }
    }
    assert_pins(
        &pins,
        &[
            ("clean.pcap json=false", 410, 0x2ffc4e479ee9e165),
            ("clean.pcap json=true", 455, 0xbec603524b83b868),
            ("lying_lengths.pcap json=false", 240, 0x5cbe8137458096e7),
            ("lying_lengths.pcap json=true", 252, 0xb0a12566e001fe24),
            ("mixed.pcap json=false", 410, 0x2ffc4e479ee9e165),
            ("mixed.pcap json=true", 454, 0xb2c0cd8bc243170a),
            ("truncated_header.pcap json=false", 325, 0x3dac64de3cd6dfed),
            ("truncated_header.pcap json=true", 353, 0x3911bcad8a5c6a50),
        ],
    );
}

#[test]
fn ingest_report_is_pinned_on_every_corpus_file_and_a_multi_file_run() {
    let mut pins: Vec<_> = CORPUS
        .iter()
        .map(|name| (name.to_string(), pin(&ingest_report(&[name]))))
        .collect();
    let multi = ["clean.pcap", "mixed.pcap"];
    pins.push((multi.join(", "), pin(&ingest_report(&multi))));
    assert_pins(
        &pins,
        &[
            ("clean.pcap", 823, 0x71394b11bc5f8d5d),
            ("lying_lengths.pcap", 644, 0xc9fe3c66aa5ea6b2),
            ("mixed.pcap", 933, 0x28064bf6aef86923),
            ("truncated_header.pcap", 713, 0x86d1965a9038a024),
            ("clean.pcap, mixed.pcap", 959, 0x655bca97ca492016),
        ],
    );
}

/// The corpus files hold a handful of scanners each; the simulated T1
/// capture holds dozens, across temporal classes, address-selection
/// classes and tools.
#[test]
fn per_scanner_reports_are_pinned_on_the_simulated_t1_capture() {
    let a = simulated();
    let stats = IngestStats::default();
    let mut pins: Vec<_> = [false, true]
        .map(|json| {
            let report = serve::analysis_report(a, &stats, json);
            (format!("analysis json={json}"), pin(&report))
        })
        .into();
    let report = ingest::render_report(
        a.capture(TelescopeId::T1),
        a.sessions128(TelescopeId::T1),
        &stats,
        "simulated T1",
    );
    pins.push(("ingest".to_string(), pin(&report)));
    assert_pins(
        &pins,
        &[
            ("analysis json=false", 5412, 0xdc852c85e5a41a36),
            ("analysis json=true", 6987, 0x24600d85a323cd21),
            ("ingest", 5217, 0x977cb741fdc11728),
        ],
    );
}
