#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it; see README.md.
#   benchmark/run.sh                          the whole set, one process per workload
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --aa | --trace | --quick | --bless | --list
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
A2A_BENCH_RUSTC="$(rustc -V)"
A2A_BENCH_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export A2A_BENCH_RUSTC A2A_BENCH_REV A2A_BENCH_DIR="$here"
exec "${CARGO_TARGET_DIR:-$here/target}/release/a2a-benchmark" "$@"
