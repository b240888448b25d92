//! Exit codes of the `sixscope` binary for rejected arguments.

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
