#!/usr/bin/env bash
# The byte-identity gates, in one list. CI's closed-loop job and
# scripts/run_experiments.sh both call this file.
#
# Usage: scripts/determinism_gates.sh [--against PATH/TO/PARENT/rex]
#
# Every gate below is one command run with REX_THREADS=1 and REX_THREADS=8
# by the binaries in target/release (build them first: `cargo build
# --release --bin rex && cargo build --release -p rex-bench --bins`).
# Each file the command writes (--out, --trace, --record-trace) and each
# captured stdout must be non-empty and `cmp`-identical across the two
# thread counts — which is also the same-seed-twice check. `same A B` lines
# add the cross-command identities (tracing and recording never perturb, a
# replay reproduces its recording).
#
# --against: the parent-commit mode for behaviour-preserving refactors.
# Each command additionally runs under the other build (the given `rex`,
# and the `exp_*` binaries beside it) and every artifact must be
# `cmp`-identical to this build's.
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
    run_variant 1 "$bin_dir" t1 "$@"
    run_variant 8 "$bin_dir" t8 "$@"
    [ -z "$parent" ] || run_variant 1 "$parent_dir" parent "$@"
    for f in "$work/t1/$name".*; do
        f=${f##*/}
        # A --quiet run prints nothing; everything else must have content.
        [ "${f##*.}" = stdout ] || test -s "$work/t1/$f" || fail "$f is empty"
        cmp "$work/t1/$f" "$work/t8/$f" || fail "$f: REX_THREADS 1 vs 8"
        [ -z "$parent" ] || cmp "$work/t1/$f" "$work/parent/$f" || fail "$f: vs $parent"
    done
    gates=$((gates + 1))
}

# same A B: two artifacts of different gates hold the same bytes.
same() {
    cmp "$work/t1/$1" "$work/t1/$2" || fail "$1 vs $2"
}

fail() {
    echo "determinism gate FAILED: $*" >&2
    exit 1
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
gate gen-balanced rex generate --placement balanced --profile two-tier --machines 64 --exchange 4 --shards 640 --seed 5 --out @out
gate gen-drift rex generate --placement drift --machines 64 --exchange 4 --shards 640 --seed 5 --out @out
gate solve-serial rex solve --inst @out:gen-stringent --iters 400 --seed 11 --out @out
gate solve-small rex solve --inst @out:gen-small --iters 400 --seed 4 --out @out
# The merged best deadlocks the final plan: `solve` takes its fallback.
gate solve-fallback rex solve --inst @out:gen-small --partitions 4 --iters 400 --seed 4 --out @out
gate solve-depth2 rex solve --inst @out:gen-stringent --partitions 2 --depth 2 --iters 400 --seed 11 --out @out
gate solve-workers rex solve --inst @out:gen-stringent --workers 4 --iters 400 --seed 11 --out @out
gate solve-drain rex solve --inst @out:gen-roomy --drain 3 --iters 400 --seed 4 --out @out

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
    --spike-duration 300 --spike-factor 2.5 --spike-fraction 0.02 --no-drift --quiet"
gate sim-hotshard rex simulate $hs --out @out --trace @trace
gate sim-hotshard-plain rex simulate $hs --out @out
same sim-hotshard.out sim-hotshard-plain.out
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

echo "=== rex converge ==="
cv="--ticks 600 --seed 11 --spike-at 100 --crash-at 150 --recover-at 200 --sra-every 400 --quiet"
gate conv rex converge $cv --out @out
gate conv-ewma rex converge $cv --ewma --out @out
for p in random round_robin power_of_d prequal token; do
    gate "conv-$p" rex converge --ticks 400 --seed 11 --policy $p --crash-at 150 --recover-at 200 --quiet --out @out
done
# The same recorded stream drives both engines.
gate conv-rack rex converge --workload examples/workload_rackfault.json --quiet --out @out --record-trace @rec
gate conv-rack-replay rex converge --replay-trace @rec:conv-rack --quiet --out @out
same conv-rack.out conv-rack-replay.out

echo "=== rex route ==="
rt="--machines 12 --shards 96 --seed 11 --policy prequal --horizon 30000
    --qps 20000 --service 400 --spike-at 8000 --spike-duration 8000
    --sra --sra-every 7000 --sra-iters 200 --quiet"
gate route rex route $rt --out @out --trace @trace
gate route-plain rex route $rt --out @out
same route.out route-plain.out

echo "=== rex trace (solver) ==="
gate trace-serial rex trace --seed 42 --iters 2000 --out @out
gate trace-workers rex trace --seed 42 --workers 4 --iters 2000 --out @out
gate trace-partitions rex trace --seed 42 --partitions 4 --iters 2000 --out @out

echo "=== rex --help, experiment stdout ==="
gate help rex --help
export REX_QUICK=1
test -s "$work/t1/help.stdout"
for e in closed_loop hotshard routing convergence heterogeneous longrun; do
    gate "exp_$e" "exp_$e"
    test -s "$work/t1/exp_$e.stdout"
done

echo "$gates gates byte-identical at REX_THREADS 1 and 8${parent:+, and against $parent}"
