//! **E7 / Table 4 — optimality gap.**
//!
//! SRA vs the exact branch-and-bound on tiny instances (the only regime
//! where exactness is affordable). Reports the fractional lower bound,
//! the proven optimum, SRA's result, and the gaps. The order bound ≤
//! optimum ≤ SRA (the latter on proven-optimal rows) is asserted, so a
//! smoke run fails if it breaks.

use crate::{f4, instance, pct, scaled, sra_cfg, synth, yes_no, Table};
use rex_cluster::{plan_migration, PlannerConfig};
use rex_core::solve;
use rex_solver::{branch_and_bound, peak_lower_bound, ExactConfig};
use rex_workload::synthetic::{DemandFamily, Placement, SynthConfig};

pub fn run() {
    let iters = scaled(4_000) as u64;
    let shapes: Vec<(usize, usize, usize)> = vec![
        // (machines, exchange, shards)
        (3, 1, 8),
        (4, 1, 10),
        (4, 2, 12),
        (5, 1, 12),
        (5, 2, 14),
    ];

    let mut t = Table::new(
        "instance | LB (fractional) | optimal peak | proven | optimum deliverable | SRA peak | gap vs opt | B&B nodes",
    );

    for (i, &(m, x, s)) in shapes.iter().enumerate() {
        let seed = 100 + i as u64;
        let inst = instance(SynthConfig {
            family: DemandFamily::Uniform,
            placement: Placement::Hotspot(0.5),
            ..synth(m, x, s, 0.75, seed)
        });

        let lb = peak_lower_bound(&inst);
        let exact = branch_and_bound(
            &inst,
            &ExactConfig {
                max_nodes: 20_000_000,
                lambda: 0.0,
            },
        )
        .expect("exact");
        let sra = solve(&inst, &sra_cfg(iters, seed)).expect("sra");

        // The shape, asserted: bound ≤ optimum on every row, and no
        // solver beats a proven optimum.
        let name = format!("m={m},x={x},s={s}");
        assert!(
            lb <= exact.peak + 1e-9,
            "{name}: lower bound {lb} above the optimum {}",
            exact.peak
        );
        if exact.proven_optimal {
            assert!(
                exact.peak <= sra.final_report.peak + 1e-9,
                "{name}: SRA peak {} below the proven optimum {}",
                sra.final_report.peak,
                exact.peak
            );
        }

        let gap = (sra.final_report.peak - exact.peak) / exact.peak.max(1e-12);
        // The IP (like the paper's) optimizes the *target*; the optimum may
        // be unreachable by any transient-feasible schedule — SRA's gap on
        // such rows is the price of deliverability, not a search miss.
        let deliverable = plan_migration(
            &inst,
            &inst.initial,
            &exact.placement,
            &PlannerConfig::default(),
        )
        .is_ok();
        t.row(vec![
            name,
            f4(lb),
            f4(exact.peak),
            String::from(if exact.proven_optimal { "yes" } else { "no" }),
            yes_no(deliverable),
            f4(sra.final_report.peak),
            pct(gap),
            exact.nodes.to_string(),
        ]);
    }

    t.print("E7 / Table 4 — SRA vs exact optimum on tiny instances");
    println!(
        "\nExpected shape: SRA within a few percent of the proven optimum on deliverable rows."
    );
    println!("Note: the exact solver optimizes the target placement (the IP's scope); SRA additionally guarantees a verified migration schedule, so on rows whose optimum is NOT deliverable, SRA's \"gap\" is the price of transient feasibility, not a search miss.");
}
