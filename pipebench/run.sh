#!/usr/bin/env bash
# Builds focus-cli and the benchmark from source, then runs one benchmark
# run. Run from the repository root:
#   bash pipebench/run.sh --workload lits_pair --seed 1 --seconds 25 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml -p focus-cli >&2
cargo build --release --quiet --manifest-path pipebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/pipebench" --cli "$CARGO_TARGET_DIR/release/focus-cli" "$@"
