//! **E16 — cross-engine convergence: tick aggregates vs query events.**
//!
//! The repo carries two engines over one cluster model
//! (`rex_cluster::service` + `ScenarioSpec`, DESIGN.md §14): the
//! tick-aggregated `rex_runtime::Simulation` and the query-level
//! `rex_router` event engine, embeddable as the simulation's arrival and
//! latency plane. This experiment quantifies how far apart the two
//! fidelities land on the *same* lowered scenario:
//!
//! * **Part 1 — scenario differential.** Steady, flash-crowd, and
//!   crash+SRA scenarios run through both engines. Machine-utilization
//!   gauges must be byte-identical (asserted — the mirrored control plane
//!   shares every placement decision); latency percentiles agree within a
//!   band because the service models differ: closed-form `1/(1−ρ)`
//!   sojourn draws against FIFO queueing at event granularity.
//! * **Part 2 — load sweep.** The tick model prices congestion entirely
//!   through `1/(1−ρ)`; the event engine additionally queues. The p99
//!   error band as qps grows measures where the tick approximation stops
//!   being cheap and starts being wrong.
//! * **Part 3 — policy sweep.** With real replica choice (R = 3,
//!   standalone router) the tick engine — which models no routing — is the
//!   no-choice baseline. The per-policy error band shows how much each
//!   routing policy moves the event-level tail away from the tick curve.
//! * **Part 4 — observed-signal control.** The event backend can feed the
//!   controller router-observed per-replica latency EWMAs (inverted
//!   through the shared service model) instead of ground-truth gauges;
//!   both modes run the crash+SRA scenario and the divergence in
//!   utilization and decisions is reported.
//!
//! Deterministic: same flags → byte-identical stdout (CI diffs two runs).

use crate::{f2, instance, pct, quick, scaled, Table};
use rex_cluster::{CrashSpec, Instance, ScenarioSpec, SpikeSpec, SraSpec};
use rex_router::PolicyKind;
use rex_runtime::{MetricsExport, Simulation};
use rex_workload::synthetic::{Placement, SynthConfig};

fn fleet(seed: u64) -> Instance {
    instance(SynthConfig {
        n_machines: 8,
        n_shards: 64,
        dims: 1,
        stringency: 0.4,
        placement: Placement::BalancedBfd,
        seed,
        ..Default::default()
    })
}

/// The machine hosting the least initial demand (the crash target: keeps
/// the clamp-degraded cohort below the p99 tail, see
/// `tests/differential_engines.rs`).
fn lightest_machine(inst: &Instance) -> usize {
    let asg = rex_cluster::Assignment::from_initial(inst);
    (0..inst.n_machines())
        .min_by(|&a, &b| {
            let ua = asg.usage(rex_cluster::MachineId::from(a)).as_slice()[0];
            let ub = asg.usage(rex_cluster::MachineId::from(b)).as_slice()[0];
            ua.total_cmp(&ub)
        })
        .expect("non-empty fleet")
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.max(b)
}

fn gauge_json(e: &MetricsExport) -> String {
    serde_json::to_string(&e.gauges).expect("gauges serialize")
}

pub fn run() {
    // ---- Part 1: scenario differential -------------------------------
    let short = scaled(600) as u64;
    let long = scaled(4_000) as u64;
    let steady = ScenarioSpec {
        ticks: short,
        qps_per_tick: 4.0,
        ..Default::default()
    };
    let flash = ScenarioSpec {
        ticks: short,
        qps_per_tick: 4.0,
        spike: Some(SpikeSpec {
            at_tick: short / 4,
            duration_ticks: short / 3,
            factor: 2.0,
            shard_fraction: 0.1,
        }),
        ..Default::default()
    };
    let crash_fleet = fleet(13);
    let crash_sra = ScenarioSpec {
        ticks: long,
        qps_per_tick: 3.0,
        crash: Some(CrashSpec {
            at_tick: long * 3 / 80,
            machine: lightest_machine(&crash_fleet),
            recover_at_tick: Some(long / 20),
        }),
        sra: Some(SraSpec {
            every_ticks: long / 20,
            iters: scaled(300) as u64,
        }),
        ..Default::default()
    };
    let scenarios = [
        ("steady", fleet(11), steady, PolicyKind::RoundRobin),
        ("flash", fleet(12), flash, PolicyKind::PowerOfD),
        ("crash+sra", crash_fleet, crash_sra, PolicyKind::PowerOfD),
    ];

    let mut t1 = Table::new(
        "scenario | util gauges | tick p50 | event p50 | tick p99 | event p99 | p99 error",
    );
    for (name, inst, spec, policy) in &scenarios {
        let tick = Simulation::from_scenario(inst.clone(), spec).run();
        let event = Simulation::from_scenario_event(inst.clone(), spec, *policy, false).run();
        let exact = gauge_json(&tick) == gauge_json(&event);
        assert!(exact, "{name}: utilization gauges must be byte-identical");
        let err = rel_diff(tick.latency.p99, event.latency.p99);
        if !quick() {
            assert!(err <= 0.15, "{name}: p99 error {err:.3} left the band");
        }
        t1.row(vec![
            name.to_string(),
            "exact".into(),
            f2(tick.latency.p50),
            f2(event.latency.p50),
            f2(tick.latency.p99),
            f2(event.latency.p99),
            pct(err),
        ]);
    }
    t1.print("E16 — tick vs event engine on one lowered scenario (latency in service units)");

    // ---- Part 2: load sweep ------------------------------------------
    let mut t2 = Table::new(
        "qps/tick | tick p50 | event p50 | p50 error | tick p99 | event p99 | p99 error",
    );
    let sweep_fleet = fleet(11);
    for qpt in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let spec = ScenarioSpec {
            ticks: short,
            qps_per_tick: qpt,
            ..Default::default()
        };
        let tick = Simulation::from_scenario(sweep_fleet.clone(), &spec).run();
        let event = Simulation::from_scenario_event(
            sweep_fleet.clone(),
            &spec,
            PolicyKind::RoundRobin,
            false,
        )
        .run();
        t2.row(vec![
            format!("{qpt}"),
            f2(tick.latency.p50),
            f2(event.latency.p50),
            pct(rel_diff(tick.latency.p50, event.latency.p50)),
            f2(tick.latency.p99),
            f2(event.latency.p99),
            pct(rel_diff(tick.latency.p99, event.latency.p99)),
        ]);
    }
    t2.print("E16 — error band vs offered load (event queueing the tick model does not price)");

    // ---- Part 3: policy sweep ----------------------------------------
    let spec = ScenarioSpec {
        ticks: short,
        qps_per_tick: 6.0,
        ..Default::default()
    };
    let policy_fleet = fleet(14);
    let tick = Simulation::from_scenario(policy_fleet.clone(), &spec).run();
    let mut t3 = Table::new("policy | event p50 | event p99 | p99 vs tick");
    for policy in [
        PolicyKind::Random,
        PolicyKind::RoundRobin,
        PolicyKind::PowerOfD,
        PolicyKind::Prequal,
        PolicyKind::Token,
    ] {
        let mut rcfg = rex_router::RouterConfig::from_scenario(&spec, policy);
        rcfg.replication = 3;
        let rep = rex_router::run(&policy_fleet, &rcfg);
        let (p50, p99) = (
            rep.p50_us / spec.base_service_us,
            rep.p99_us / spec.base_service_us,
        );
        t3.row(vec![
            format!("{policy:?}"),
            f2(p50),
            f2(p99),
            pct(rel_diff(tick.latency.p99, p99)),
        ]);
    }
    println!(
        "\n(tick baseline: p50 {} p99 {} — no routing dimension, replication 1)",
        f2(tick.latency.p50),
        f2(tick.latency.p99)
    );
    t3.print("E16 — per-policy event tail vs the tick baseline (standalone router, R = 3)");

    // ---- Part 4: observed-signal control ------------------------------
    let (name, inst, spec, policy) = &scenarios[2];
    let truth = Simulation::from_scenario_event(inst.clone(), spec, *policy, false).run();
    let ewma = Simulation::from_scenario_event(inst.clone(), spec, *policy, true).run();
    let max_peak_diff = truth
        .gauges
        .iter()
        .zip(&ewma.gauges)
        .map(|(a, b)| (a.peak_util - b.peak_util).abs())
        .fold(0.0f64, f64::max);
    let mut t4 = Table::new("controller signal | moves | rebalances | p99 | max abs Δ peak-util");
    for (label, e) in [("ground-truth gauges", &truth), ("router EWMA", &ewma)] {
        t4.row(vec![
            label.to_string(),
            e.counters.moves_committed.to_string(),
            e.counters.rebalances_completed.to_string(),
            f2(e.latency.p99),
            f2(max_peak_diff),
        ]);
    }
    t4.print(&format!(
        "E16 — observed-signal control on {name}: router latency EWMAs vs ground truth"
    ));
}
