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

/// `merge` over shard files that cannot be gathered: a group out of
/// capture order or with mismatched configurations exits 6, a corrupt
/// file exits 7, and each names the offending file.
#[test]
fn shard_merge_errors_exit_with_their_codes_and_name_the_file() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let dir = std::env::temp_dir().join(format!(
        "sixscope-cli-{}-shard-merge-errors",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_sixscope"))
            .args(args)
            .current_dir(root)
            .output()
            .expect("run sixscope")
    };
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (a, b, c) = (path("a.sixshard"), path("b.sixshard"), path("c.sixshard"));
    let clean = "tests/corpus/clean.pcap";
    assert!(run(&["shard", clean, "--out", &a]).status.success());
    let other_prefix = ["shard", clean, "--prefix", "2001:db8::/32", "--out", &b];
    assert!(run(&other_prefix).status.success());
    std::fs::write(&c, b"SIXSHARD\x03\0\0\0").unwrap();
    for (files, code, needle) in [
        ([&a, &a], 6, "out-of-order"),
        ([&a, &b], 6, "configuration"),
        ([&a, &c], 7, "c.sixshard"),
    ] {
        let out = run(&["merge", files[0], files[1]]);
        assert_eq!(out.status.code(), Some(code), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(files[1].as_str()), "{stderr}");
        assert!(stderr.contains(needle), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
