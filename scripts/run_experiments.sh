#!/usr/bin/env bash
# Regenerates every reconstructed table/figure into results/.
# Usage: scripts/run_experiments.sh [--quick | --smoke]
#   --quick  REX_QUICK=1 (scaled-down instances), outputs still written
#   --smoke  like --quick, but outputs go to a scratch dir: a fast
#            everything-still-runs gate for CI that leaves results/ alone
set -euo pipefail
cd "$(dirname "$0")/.."

outdir=results
case "${1:-}" in
    --quick)
        export REX_QUICK=1
        ;;
    --smoke)
        export REX_QUICK=1
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

cargo build --release -p rex-bench --bins
cargo build --release --bin rex
mkdir -p "$outdir"

for exp in workloads headline exchange_sweep lns_convergence migration \
           scalability optgap stringency ablation alpha qos longrun \
           closed_loop hotshard routing convergence heterogeneous; do
    echo "=== exp_${exp} ==="
    if ! ./target/release/exp_${exp} | tee "$outdir/exp_${exp}.md"; then
        echo "FAILED: exp_${exp} (see output above)" >&2
        exit 1
    fi
done

scripts/determinism_gates.sh

echo "All experiment outputs written to $outdir/."
