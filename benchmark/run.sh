#!/usr/bin/env bash
# Builds the benchmark (--release) and runs it.
#
#   benchmark/run.sh                          the suite: every workload, both passes
#   benchmark/run.sh --workload gnn_sim       one workload of the suite
#   benchmark/run.sh --twice                  noise self-test: the suite twice, compared with the bounds
#   benchmark/run.sh --quick                  smoke: 1 rep at 1/10 counts, checks only, writes no numbers
#   benchmark/run.sh --seed 7                 another input seed (default 11)
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                             one pass; last line of stdout is the result object
#
# Run it from the repository root or from anywhere: paths are resolved
# from this file. Needs ../crates (the benchmark links the repo's
# libraries); without them the build fails and nothing is printed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo reads a relative CARGO_TARGET_DIR against the directory it is
# started in; pin it so the binary is found again below.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/het-benchmark" --out "$here/out" "$@"
