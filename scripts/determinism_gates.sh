#!/usr/bin/env bash
# The byte-identity gates, in one list. CI's closed-loop job and
# scripts/run_experiments.sh both call this file.
#
# Usage: scripts/determinism_gates.sh [--against PATH/TO/PARENT/rex]
#
# Every gate below is one command run with REX_THREADS=1 and REX_THREADS=8
# by the binaries in target/release (build them first: `cargo build
# --release --bin rex && cargo build --release -p rex-bench --bin exp`).
# For `rex converge` that is also sequential against parallel: its two
# engines run one after the other at 1 thread and side by side above.
# Each file the command writes (--out, --trace, --record-trace) and each
# captured stdout must be non-empty and `cmp`-identical across the two
# thread counts — which is also the same-seed-twice check. `same A B` lines
# add the cross-command identities (tracing and recording never perturb, a
# replay reproduces its recording).
#
# --against: the parent-commit mode for behaviour-preserving refactors.
# Each command additionally runs under the other build (the given `rex`,
# and the `exp` binary beside it) and every artifact must be
# `cmp`-identical to this build's.
#
# A failing gate does not stop the run: every artifact that differs (with
# cmp's first differing byte), is empty, or whose command exits non-zero
# is printed as one `determinism gate FAILED:` line on stderr, and the
# script exits 1 at the end if there was any.
set -euo pipefail
cd "$(dirname "$0")/.."

parent=""
case "${1:-}" in
    --against)
        parent=${2:?--against needs the path of the parent build\'s rex}
        [ -x "$parent" ] || { echo "not executable: $parent" >&2; exit 2; }
        parent_dir=$(cd "$(dirname "$parent")" && pwd)
        ;;
    "") ;;
    *)
        echo "usage: $0 [--against PATH/TO/PARENT/rex]" >&2
        exit 2
        ;;
esac

bin_dir=$PWD/target/release
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/t1" "$work/t8" "$work/parent"
gates=0
failures=0

# run_variant THREADS BIN_DIR VARIANT NAME BIN ARGS...: runs BIN_DIR/BIN
# with REX_THREADS=THREADS; artifacts go to $work/VARIANT/. In ARGS, `@out`
# / `@trace` / `@rec` name this gate's artifacts and `@rec:OTHER` /
# `@out:OTHER` another gate's; stdout is captured as `NAME.stdout`. Commands
# see the variant directory through one symlink, so a path echoed to stdout is the
# same string in every variant.
run_variant() {
    local threads=$1 dir=$2 variant=$3 name=$4 bin=$5
    shift 5
    ln -sfn "$work/$variant" "$work/cur"
    local d=$work/cur args=() a
    for a in "$@"; do
        case $a in
            @out | @trace | @rec) a=$d/$name.${a#@} ;;
            @rec:*) a=$d/${a#@rec:}.rec ;;
            @out:*) a=$d/${a#@out:}.out ;;
        esac
        args+=("$a")
    done
    REX_THREADS=$threads "$dir/$bin" "${args[@]}" >"$d/$name.stdout"
}

# gate NAME BIN ARGS...
gate() {
    local name=$1 f
    run_variant 1 "$bin_dir" t1 "$@" || fail "$name: exit status $? at REX_THREADS=1"
    run_variant 8 "$bin_dir" t8 "$@" || fail "$name: exit status $? at REX_THREADS=8"
    [ -z "$parent" ] || run_variant 1 "$parent_dir" parent "$@" ||
        fail "$name: exit status $? under $parent"
    for f in "$work/t1/$name".*; do
        f=${f##*/}
        # A --quiet run prints nothing; everything else must have content.
        [ "${f##*.}" = stdout ] || test -s "$work/t1/$f" || fail "$f is empty"
        check "$work/t1/$f" "$work/t8/$f" "$f: REX_THREADS 1 vs 8"
        [ -z "$parent" ] || check "$work/t1/$f" "$work/parent/$f" "$f: vs $parent"
    done
    gates=$((gates + 1))
}

# same A B: two artifacts of different gates hold the same bytes.
same() {
    check "$work/t1/$1" "$work/t1/$2" "$1 vs $2"
}

# check A B WHAT: A and B hold the same bytes, else a failure naming WHAT
# and where they first differ.
check() {
    local diff
    diff=$(cmp "$1" "$2" 2>&1) || fail "$3: ${diff##*: }"
}

fail() {
    echo "determinism gate FAILED: $*" >&2
    failures=$((failures + 1))
}

echo "=== rex generate, rex solve ==="
# The paper's regime: stringency 0.90 with copy overhead, where would-be
# bests are rejected by the plannability gate and the planner livelocks.
gen="--family correlated --placement hotspot"
gate gen-stringent rex generate $gen --machines 100 --exchange 8 --shards 1000 --stringency 0.90 --alpha 0.1 --seed 11 --out @out
gate gen-small rex generate $gen --machines 32 --exchange 3 --shards 320 --stringency 0.90 --seed 4 --out @out
# Evacuating a machine is infeasible at 0.90; the drain gate gets room.
gate gen-roomy rex generate $gen --machines 32 --exchange 3 --shards 320 --stringency 0.50 --seed 4 --out @out
# The generator's placements: the benchmark's `solve_decomposed` shape and
# a balanced two-tier fleet find hosts through the load index and the
# hot-set summary; drift keeps its fleet scan.
gate gen-web rex generate $gen --machines 1000 --exchange 125 --shards 10000 --stringency 0.75 --seed 11000 --out @out
gate gen-web-85 rex generate $gen --machines 1000 --exchange 125 --shards 10000 --stringency 0.85 --seed 11006 --out @out
gate gen-balanced rex generate --placement balanced --profile two-tier --machines 64 --exchange 4 --shards 640 --seed 5 --out @out
gate gen-drift rex generate --placement drift --machines 64 --exchange 4 --shards 640 --seed 5 --out @out
gate solve-serial rex solve --inst @out:gen-stringent --iters 400 --seed 11 --out @out
# A longer serial search: more gate calls, and rejected targets proposed
# again (the gate's memo answers those).
gate solve-serial-long rex solve --inst @out:gen-stringent --iters 1200 --seed 11 --out @out
gate solve-small rex solve --inst @out:gen-small --iters 400 --seed 4 --out @out
# Decomposed solves whose ungated merges did not plan: the round-0 leaves
# search gated, the merge of gated leaves plans, and a round result becomes
# the best only through the gate, so the final plan replays the gate's.
gate solve-small-decomposed rex solve --inst @out:gen-small --partitions 4 --iters 400 --seed 4 --out @out
# The same at web scale, 1125×10000 at 0.85: gate and final plan share one
# planner.
gate solve-web-85 rex solve --inst @out:gen-web-85 --partitions 8 --iters 600 --seed 11 --out @out
# The partition tree two levels deep: at --partitions 2 the 1125 machines
# split into parts of about 562, above the 512-machine floor, so each part
# splits again.
gate solve-depth2 rex solve --inst @out:gen-web --partitions 2 --iters 400 --seed 11 --out @out
gate solve-drain rex solve --inst @out:gen-roomy --drain 3 --iters 400 --seed 4 --out @out
# A drained decomposed solve at web scale: its start is the greedy
# evacuation of eight machines, not the initial placement, and the
# decomposed rounds search from there.
gate solve-drain-decomposed rex solve --inst @out:gen-web --partitions 8 --iters 600 --seed 3 \
    --drain 10,20,30,40,50,60,70,80 --out @out
# The JSON read paths: a solution file back through `rex verify`, and the
# web-scale instance through `rex inspect` alone.
gate verify-serial rex verify --inst @out:gen-stringent --solution @out:solve-serial
gate verify-web-85 rex verify --inst @out:gen-web-85 --solution @out:solve-web-85
gate inspect-web rex inspect --inst @out:gen-web
# Both deployable baselines and the FFD repack (best-fit decreasing, the
# loop evacuation shares) on the two 0.90 files.
for m in greedy local-search ffd; do
    gate "baseline-$m" rex baseline --inst @out:gen-stringent --method $m
    gate "baseline-$m-small" rex baseline --inst @out:gen-small --method $m
done

echo "=== rex simulate ==="
gate sim rex simulate --ticks 2000 --seed 7 --quiet --out @out --trace @trace
gate sim-plain rex simulate --ticks 2000 --seed 7 --quiet --out @out
same sim.out sim-plain.out # tracing never perturbs
for c in off greedy sra; do
    gate "sim-$c" rex simulate --ticks 1500 --seed 13 --controller $c --quiet --out @out --trace @trace
done
gate sim-faults rex simulate --ticks 3000 --seed 13 --controller sra \
    --crash-at 1000 --recover-at 2000 --spike-at 1800 --quiet --out @out --trace @trace
# Hot-shard runs mutate the instance mid-flight (split/merge).
hs="--machines 8 --shards 48 --exchange 1 --ticks 800 --seed 5 --controller off
    --hotshard --split-threshold 0.4 --hotshard-poll 20 --spike-at 100
    --spike-duration 300 --spike-factor 2.5 --spike-fraction 0.02 --no-drift"
gate sim-hotshard rex simulate $hs --quiet --out @out --trace @trace
gate sim-hotshard-plain rex simulate $hs --quiet --out @out
same sim-hotshard.out sim-hotshard-plain.out
# Without --quiet: the printed roll-up is gated too — the trace roll-up,
# the hotshard block and the `trace written to` / `metrics written to`
# lines.
gate sim-hotshard-loud rex simulate $hs --out @out --trace @trace
same sim-hotshard.out sim-hotshard-loud.out # printing never perturbs
# Workload plane: record → replay. The trace header embeds the spec and
# the instance, so a replay is self-contained.
for wl in heterogeneous rackfault; do
    spec=examples/workload_$wl.json
    gate "sim-$wl" rex simulate --workload $spec --quiet --out @out --trace @trace --record-trace @rec
    gate "sim-$wl-plain" rex simulate --workload $spec --quiet --out @out
    same "sim-$wl.out" "sim-$wl-plain.out" # recording never perturbs
    gate "sim-$wl-replay" rex simulate --replay-trace "@rec:sim-$wl" --quiet --out @out --trace @trace
    same "sim-$wl.out" "sim-$wl-replay.out"
    same "sim-$wl.trace" "sim-$wl-replay.trace"
done
# The `workload trace (N events) written to` line of a recording simulate.
gate sim-rackfault-loud rex simulate --workload examples/workload_rackfault.json --out @out --record-trace @rec
same sim-rackfault.out sim-rackfault-loud.out

echo "=== rex converge ==="
cv="--ticks 600 --seed 11 --spike-at 100 --crash-at 150 --recover-at 200 --sra-every 400 --quiet"
gate conv rex converge $cv --out @out
gate conv-ewma rex converge $cv --ewma --out @out
for p in random round_robin power_of_d prequal token; do
    gate "conv-$p" rex converge --ticks 400 --seed 11 --policy $p --crash-at 150 --recover-at 200 --quiet --out @out
done
# The router's arrival schedule at its edges: a crowd from the earliest
# tick the gauge-parity check accepts (2) running past the horizon, a
# crash and recovery, and the controller fed router-observed latency.
gate conv-edge rex converge --ticks 300 --seed 11 --spike-at 2 --spike-duration 1000 \
    --crash-at 100 --recover-at 200 --ewma --quiet --out @out
# The same recorded stream drives both engines.
gate conv-rack rex converge --workload examples/workload_rackfault.json --quiet --out @out --record-trace @rec
gate conv-rack-replay rex converge --replay-trace @rec:conv-rack --quiet --out @out
same conv-rack.out conv-rack-replay.out
# Without --quiet: converge's report and its two `written to` lines.
gate conv-rack-loud rex converge --workload examples/workload_rackfault.json --out @out --record-trace @rec
same conv-rack.out conv-rack-loud.out

echo "=== rex route ==="
rt="--machines 12 --shards 96 --seed 11 --policy prequal --horizon 30000
    --qps 20000 --service 400 --spike-at 8000 --spike-duration 8000
    --sra --sra-every 7000 --sra-iters 200"
gate route rex route $rt --quiet --out @out --trace @trace
gate route-plain rex route $rt --quiet --out @out
same route.out route-plain.out
# Without --quiet: the report lines, prequal's probes line, the sra line
# and the `trace written to` / `report written to` lines.
gate route-loud rex route $rt --out @out --trace @trace
same route.out route-loud.out
# A poll every µs shares each µs with the arrival pump and runs after it.
gate route-sra-1 rex route --horizon 3000 --qps 100000 --sra --sra-every 1 \
    --sra-iters 20 --quiet --out @out
# Every policy on the same arrivals and crowd, with no SRA coupling.
for p in random round_robin power_of_d prequal token; do
    gate "route-$p" rex route --machines 12 --shards 96 --seed 11 --policy $p --horizon 30000 \
        --qps 20000 --service 400 --spike-at 8000 --spike-duration 8000 --quiet --out @out
done

echo "=== rex solve --trace ==="
gate trace-serial rex solve --seed 42 --iters 2000 --out @out --trace @trace
gate trace-partitions rex solve --seed 42 --partitions 4 --iters 2000 --out @out --trace @trace
# A search the stopping rule ends early (a `("lns", "stall")` event).
gate trace-stall rex solve --machines 24 --exchange 3 --shards 480 --iters 3000 --seed 11 \
    --out @out --trace @trace
# The drained decomposed solve above, narrated: its `decomposed` close
# carries the rounds the per-round rule let run.
gate trace-drain rex solve --inst @out:gen-web --partitions 8 --iters 600 --seed 3 \
    --drain 10,20,30,40,50,60,70,80 --out @out --trace @trace
same solve-drain-decomposed.out trace-drain.out # tracing never perturbs

echo "=== rex --help, experiment stdout ==="
gate help rex --help
export REX_QUICK=1
test -s "$work/t1/help.stdout" || fail "help.stdout is empty"
# E1's last row is the search-derived instance, so its stdout gates the
# whole bridge (corpus, index, parallel query replay, normalization). E5
# and E11 print `time_plan`'s makespans, E11 the in-flight latency profile.
# E3, E7, E8, E9 and E10 run every baseline or SRA's operators and print no
# wall-clock column (E2, E4 and E6 do, so they stay out).
for e in workloads exchange_sweep migration optgap stringency ablation alpha qos \
    closed_loop hotshard routing convergence heterogeneous longrun; do
    gate "exp_$e" exp "$e"
    test -s "$work/t1/exp_$e.stdout" || fail "exp_$e.stdout is empty"
done

if [ "$failures" -gt 0 ]; then
    echo "$failures determinism gate failure(s) in $gates gates" >&2
    exit 1
fi
echo "$gates gates byte-identical at REX_THREADS 1 and 8${parent:+, and against $parent}"
