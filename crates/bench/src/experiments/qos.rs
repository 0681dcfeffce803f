//! **E11 — serving quality during the migration.**
//!
//! The schedule is not free while it runs: in-flight copies load both
//! endpoints, and queries fan out to *all* shards, so the straggler
//! machine sets the response time. This experiment compares, on the same
//! instance and the same final placement, how schedule shape trades
//! migration makespan against transient latency:
//!
//! * SRA with unlimited batch width (fastest),
//! * SRA with narrow batches (gentlest),
//! * the greedy baseline's one-move-at-a-time schedule.

use crate::{f2, instance, scaled, scaled_fleet, sra_cfg, synth, Table};
use rex_baselines::{GreedyRebalancer, Rebalancer};
use rex_cluster::migration::timeline::{latency_profile, time_plan, TimelineConfig};
use rex_cluster::{plan_migration, Instance, MigrationPlan, PlannerConfig};
use rex_core::solve;
use rex_workload::synthetic::SynthConfig;

pub fn run() {
    let inst = instance(SynthConfig {
        alpha: 0.2,
        ..synth(scaled_fleet(24), 3, scaled(240), 0.8, 37)
    });
    let iters = scaled(8_000) as u64;

    let mut t = Table::new(
        "schedule | final peak | batches | makespan (s) | latency before | worst during | p50 during | p99 during | latency after | degradation",
    );

    // SRA target, rescheduled under different batch caps.
    let res = solve(&inst, &sra_cfg(iters, 37)).expect("solve");
    for (name, cap) in [
        ("SRA (wide batches)", 0usize),
        ("SRA (single-move batches)", 1),
    ] {
        let cfg = PlannerConfig {
            max_batch_moves: cap,
            ..Default::default()
        };
        let plan = plan_migration(&inst, &inst.initial, res.assignment.placement(), &cfg)
            .expect("SRA's target stays plannable under a narrower batch cap");
        t.row(schedule_row(&inst, name, res.final_report.peak, &plan));
    }

    // Greedy's own (single-move) schedule toward its own, weaker target.
    let g = GreedyRebalancer.rebalance(&inst).expect("greedy");
    if let Some(plan) = &g.plan {
        let name = "greedy (its own target)";
        t.row(schedule_row(&inst, name, g.final_report.peak, plan));
    }

    t.print("E11 — query-latency profile while the migration runs");
    println!("\nLatencies are the relative straggler model 1/(1−ρ), fan-out over all machines.");
    println!("Expected shape: wide batches finish far sooner at a modestly higher transient worst-case; greedy degrades little but also fixes little (its final latency stays high).");
}

/// One schedule's row: its target's peak, batches, modelled makespan at one
/// traffic unit per second per NIC plus 2 s per batch, and its latency profile.
fn schedule_row(inst: &Instance, name: &str, peak: f64, plan: &MigrationPlan) -> Vec<String> {
    let q = latency_profile(inst, plan);
    let tl_cfg = TimelineConfig {
        machine_bandwidth: 1.0,
        batch_overhead_secs: 2.0,
    };
    let tl = time_plan(inst, plan, &tl_cfg);
    vec![
        name.into(),
        f2(peak),
        plan.n_batches().to_string(),
        f2(tl.makespan_secs),
        f2(q.before),
        f2(q.worst_during),
        f2(q.p50),
        f2(q.p99),
        f2(q.after),
        format!("{:.2}x", q.degradation()),
    ]
}
