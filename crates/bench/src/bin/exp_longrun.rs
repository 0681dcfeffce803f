//! **E12 — operating the fleet over many epochs.**
//!
//! Real rebalancing is a loop: traffic drifts nightly, the fleet goes out
//! of balance, the rebalancer runs, repeat. This experiment simulates T
//! epochs of multiplicative CPU drift and compares three operating
//! policies on the *same* drift sequence:
//!
//! * **eager** — SRA every epoch with the pure peak objective (λ = 0),
//! * **move-averse** — SRA every epoch with λ = 0.05 (moves are taxed),
//! * **threshold** — SRA only on epochs whose pre-balance peak exceeds
//!   0.9 (the classic alarm-driven playbook).
//!
//! Reported per policy: mean/worst post-policy peak across epochs and the
//! cumulative migration traffic — the balance-vs-churn trade-off an
//! operator actually tunes.

use rex_bench::{f2, f4, scaled, Table};
use rex_cluster::{Assignment, Instance, Objective};
use rex_core::{solve, SraConfig};
use rex_workload::evolve::{commit_exchange, next_epoch, DriftConfig};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

struct PolicyOutcome {
    peaks: Vec<f64>,
    traffic: f64,
    rebalances: usize,
}

fn run_policy(
    base: &Instance,
    epochs: usize,
    iters: u64,
    lambda: f64,
    threshold: Option<f64>,
) -> PolicyOutcome {
    let mut inst = base.clone();
    let mut out = PolicyOutcome {
        peaks: Vec::new(),
        traffic: 0.0,
        rebalances: 0,
    };
    for epoch in 0..epochs {
        let pre_peak = Assignment::from_initial(&inst).peak_load(&inst);
        let should_run = threshold.is_none_or(|t| pre_peak > t);
        if should_run {
            let cfg = SraConfig {
                iters,
                seed: 1000 + epoch as u64,
                objective: Objective { lambda },
                ..Default::default()
            };
            let res = solve(&inst, &cfg).expect("solve");
            out.traffic += res.migration.traffic;
            out.rebalances += 1;
            out.peaks.push(res.final_report.peak);
            // Membership commits: returned machines become the next loan.
            inst = commit_exchange(&inst, res.assignment.placement(), &res.returned_machines)
                .expect("exchange commit");
        } else {
            out.peaks.push(pre_peak);
        }
        // Drift into the next epoch (same seed sequence for every policy).
        let placement = inst.initial.clone();
        let (next, _) = next_epoch(
            &inst,
            &placement,
            &DriftConfig {
                sigma: 0.25,
                target_utilization: 0.78,
            },
            42 + epoch as u64,
        )
        .expect("drift");
        inst = next;
    }
    out
}

fn main() {
    let base = generate(&SynthConfig {
        n_machines: rex_bench::scaled_fleet(24),
        n_exchange: 3,
        n_shards: scaled(240),
        stringency: 0.78,
        alpha: 0.1,
        family: DemandFamily::Correlated,
        placement: Placement::Hotspot(0.4),
        seed: 51,
        ..Default::default()
    })
    .expect("generate");
    let epochs = if rex_bench::quick() { 4 } else { 20 };
    let iters = scaled(4_000) as u64;

    let mut t = Table::new(&[
        "policy",
        "rebalances",
        "mean peak",
        "worst peak",
        "cumulative traffic",
    ]);
    for (name, lambda, threshold) in [
        ("eager (λ=0)", 0.0, None),
        ("move-averse (λ=0.05)", 0.05, None),
        ("threshold (peak>0.9)", 0.0, Some(0.9)),
    ] {
        let o = run_policy(&base, epochs, iters, lambda, threshold);
        let mean = o.peaks.iter().sum::<f64>() / o.peaks.len() as f64;
        let worst = o.peaks.iter().cloned().fold(0.0f64, f64::max);
        t.row(vec![
            name.into(),
            o.rebalances.to_string(),
            f4(mean),
            f4(worst),
            f2(o.traffic),
        ]);
    }

    t.print(&format!(
        "E12 — {epochs} epochs of traffic drift under three operating policies"
    ));
    println!("\nAll policies see the identical drift sequence; they differ only in when/how they rebalance.");
    println!("Expected shape: eager holds the best balance at the highest churn; move-averse cuts traffic sharply for a small balance cost; threshold rides near the alarm line with the least frequent (but then large) migrations.");
}
