#!/usr/bin/env bash
# Regenerates every reconstructed table/figure into results/ (`exp <name>`
# writes results/exp_<name>.md) and checks each experiment's asserted shape.
# Usage: scripts/run_experiments.sh [--quick | --smoke]
#   --quick  REX_QUICK=1 (scaled-down instances), outputs still written
#   --smoke  like --quick, but outputs go to a scratch dir: a fast
#            everything-still-runs gate for CI that leaves results/ alone
set -euo pipefail
cd "$(dirname "$0")/.."

outdir=results mode=full
case "${1:-}" in
    --quick)
        export REX_QUICK=1
        mode=quick
        ;;
    --smoke)
        export REX_QUICK=1
        mode=quick
        outdir=$(mktemp -d)
        trap 'rm -rf "$outdir"' EXIT
        ;;
    "")
        ;;
    *)
        echo "usage: $0 [--quick | --smoke]" >&2
        exit 2
        ;;
esac

cargo build --release -p rex-bench --bin exp
cargo build --release --bin rex
mkdir -p "$outdir"

# Every experiment runs and writes its output under a one-line header
# naming the command and mode; one whose asserted shape breaks (or that
# fails otherwise) is listed at the end and fails the run.
failed=()
for exp in workloads headline exchange_sweep lns_convergence migration \
           scalability optgap stringency ablation alpha qos longrun \
           closed_loop hotshard routing convergence heterogeneous; do
    echo "=== exp ${exp} ==="
    out=$outdir/exp_${exp}.md
    echo "<!-- \`exp ${exp}\`, ${mode} mode, written by scripts/run_experiments.sh -->" >"$out"
    ./target/release/exp "$exp" | tee -a "$out" || failed+=("$exp")
done
if [ ${#failed[@]} -gt 0 ]; then
    echo "FAILED: exp ${failed[*]} (see output above)" >&2
    exit 1
fi

scripts/determinism_gates.sh

echo "All experiment outputs written to $outdir/."
