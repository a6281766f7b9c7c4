#!/usr/bin/env bash
# Builds the benchmark offline and runs it; see benchmark/README.md.
#
#   benchmark/run.sh --workload wc-zipf --seed 1 --seconds 10 --trace 0
#   benchmark/run.sh [--seed N] [--trace] [--smoke] [--runs K] [--out FILE]
#   benchmark/run.sh compare A.json B.json
#
# Always runs from the repository root, so BENCHMARK.json, benchmark/out/
# and a relative CARGO_TARGET_DIR mean the same thing from anywhere.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ramr-benchmark" "$@"
