//! The `sixscope` binary end to end: exit codes for rejected arguments
//! and the exact stdout of `ingest --json`.

use std::process::Command;

#[test]
fn zero_snapshot_interval_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
        .args(["serve", "--sim", "0.001", "--snapshot-every", "0"])
        .output()
        .expect("run sixscope");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--snapshot-every"), "{stderr}");
}

/// The `ingest --json` summary, byte for byte. The file name is printed
/// as given, so the command runs from the workspace root.
#[test]
fn ingest_json_summary_is_pinned() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
        .args(["ingest", "--json", "tests/corpus/mixed.pcap"])
        .current_dir(root)
        .output()
        .expect("run sixscope");
    assert!(out.status.success(), "{out:?}");
    let stats = r#"{"records_read":4,"parsed":3,"filtered":0,"malformed_packets":1,"skipped":3,"truncated_tail":true}"#;
    let expected = format!(
        r#"{{"stats":{stats},"files":[{{"file":"tests/corpus/mixed.pcap","stats":{stats}}}],"packets":3,"sessions_128":3,"scanners":3,"peak_open_sessions":3}}"#
    ) + "\n";
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}
