//! Held-out-seed smoke test: all four workloads at tiny scale on a seed
//! other than the canonical 20230824, every correctness gate on, plus the
//! traced run. Uses `$SIXSCOPE_BIN` when set, else builds the shipped
//! binary from this repository first.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn sixscope_binary() -> PathBuf {
    if let Some(bin) = std::env::var_os("SIXSCOPE_BIN") {
        return PathBuf::from(bin);
    }
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // A target directory of its own, so the nested build never waits on
    // the lock of the build running this test.
    let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("binary lives in <target>/<profile>/")
        .join("smoke-sixscope");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet"])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .args(["-p", "sixscope", "--bin", "sixscope", "--target-dir"])
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building sixscope failed");
    target.join("release").join("sixscope")
}

#[test]
fn all_workloads_pass_their_gates_on_a_held_out_seed() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--sixscope")
        .arg(sixscope_binary())
        .args(["--smoke", "--seed", "7"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        out.status.success() && last.starts_with("{\"correct\": true,"),
        "smoke run failed ({}):\n{last}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
}

#[test]
fn refuses_to_run_without_the_program() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--sixscope", "no-such-binary", "--workload", "repro"])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
