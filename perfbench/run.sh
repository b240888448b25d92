#!/usr/bin/env bash
# Builds the benchmark and the shipped `sixscope` binary from source, then
# runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash perfbench/run.sh --smoke        # all four workloads, tiny scale
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); inputs live in a per-invocation directory under
# .perfbench-tmp that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p sixscope --bin sixscope >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --sixscope "$CARGO_TARGET_DIR/release/sixscope" "$@"
