#!/usr/bin/env bash
# Runs the whole benchmark twice on the same build and the same seed and
# fails unless every deterministic metric (peak_load, migration_traffic,
# sim_p99_latency, every count) is identical and every gated timing agrees
# within its bound. Prints the observed difference of every metric, so the
# bounds can be tightened later. Arguments are passed to run.sh
# (e.g. --seed 12 --workload closed_loop --seconds 5).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$here/out"
"$here/run.sh" --report "$here/out/repeat-1.json" "$@" | tee "$here/out/repeat-1.txt"
"$here/run.sh" --report "$here/out/repeat-2.json" "$@" | tee "$here/out/repeat-2.txt"
exec "$here/run.sh" compare "$here/out/repeat-1.json" "$here/out/repeat-2.json"
