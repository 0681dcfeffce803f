#!/usr/bin/env bash
# The repo benchmark: builds `rex` and the harness from source, runs the
# workloads, checks every output, prints every metric by name with its unit.
#
#   benchmark/run.sh                          every workload, end-to-end + traced
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                             one run; last stdout line is the
#                                             result object BENCHMARK.json's
#                                             driver reads
#   benchmark/run.sh spread [--runs 10]       run-to-run spread of every
#                                             end-to-end metric over N seeds
#   benchmark/run.sh compare A.json B.json    two --report files of one build
#
# Reads and writes only inside the checkout: build output under
# $CARGO_TARGET_DIR (default target/), everything else under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR (the driver sets `.bench_build`) is relative
# to the directory the benchmark is started from; pin it before any cd.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# The benchmark builds the program from the checkout's own sources; without
# them there is nothing to measure (and cargo must not wander into a parent
# directory's workspace).
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "run.sh: $root holds no rex sources (Cargo.toml, crates/): nothing to benchmark" >&2
    exit 3
fi

# Build chatter goes to stderr: stdout carries the metrics.
(cd "$root" && cargo build --release --offline --quiet --bin rex) >&2
(cd "$here" && cargo build --release --offline --quiet) >&2

case "${1:-}" in
    compare) exec "$target/release/rexbench" "$@" ;;
    spread) shift; set -- spread --rex "$target/release/rex" --out-dir "$here/out" "$@" ;;
    *) set -- --rex "$target/release/rex" --out-dir "$here/out" "$@" ;;
esac
exec "$target/release/rexbench" "$@"
