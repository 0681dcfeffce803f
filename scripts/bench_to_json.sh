#!/usr/bin/env bash
# Solver perf trajectory: times the serial engine spine, the portfolio,
# and the decomposed search, writing machine-readable records to
# BENCH_solver.json at the repo root (schema documented in EXPERIMENTS.md
# §"Perf trajectory").
# Usage: scripts/bench_to_json.sh [--quick] [--check]
#   --quick  REX_QUICK=1: smallest size only, scaled iterations (CI smoke)
#   --check  do not rewrite the snapshot; compare the fresh measurement
#            against the committed BENCH_solver.json and fail on a >10%
#            wall ns_per_iter regression for any matching (bench, size,
#            threads) — except `engine_spine` records, which gate on the
#            noise-immune cpu_ns_per_iter metric at a strict 2%
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
for arg in "$@"; do
    case "$arg" in
        --quick) export REX_QUICK=1 ;;
        --check) check=1 ;;
        *)
            echo "usage: $0 [--quick] [--check]" >&2
            exit 2
            ;;
    esac
done

# The acceptance measurement is taken at 8 threads (the rayon shim's
# REX_THREADS knob); the result is bit-identical at any thread count, only
# the wall clock varies.
export REX_THREADS="${REX_THREADS:-8}"

# The records measure the runtime-dispatched SIMD scan kernels `rex` runs
# (bit-identical to the scalar oracle, so only timing differs); kernel_scan
# records compare the two paths directly.
cargo build --release -q -p rex-bench --bin bench_json

if [ "$check" = 1 ]; then
    ./target/release/bench_json --check BENCH_solver.json >/dev/null
else
    ./target/release/bench_json > BENCH_solver.json
    echo "wrote BENCH_solver.json:"
    cat BENCH_solver.json
fi
