//! Integration: schedule timing and serving-quality models on real
//! pipeline outputs.

use resource_exchange::baselines::{GreedyRebalancer, Rebalancer};
use resource_exchange::cluster::migration::timeline::{
    latency_profile, time_plan, QosReport, TimelineConfig,
};
use resource_exchange::cluster::{plan_migration, Instance, MigrationPlan, PlannerConfig};
use resource_exchange::core::{solve, SraConfig};
use resource_exchange::runtime::batch_durations;
use resource_exchange::workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

/// The latency profile under the default saturation clamp.
fn qos(inst: &Instance, plan: &MigrationPlan) -> QosReport {
    latency_profile(inst, plan)
}

fn instance(alpha: f64) -> Instance {
    generate(&SynthConfig {
        n_machines: 10,
        n_exchange: 2,
        n_shards: 80,
        stringency: 0.78,
        alpha,
        family: DemandFamily::Correlated,
        placement: Placement::Hotspot(0.4),
        seed: 77,
        ..Default::default()
    })
    .unwrap()
}

fn solve_77(inst: &Instance) -> resource_exchange::core::SraResult {
    let cfg = SraConfig {
        iters: 2_000,
        seed: 77,
        ..Default::default()
    };
    solve(inst, &cfg).unwrap()
}

fn solved() -> (Instance, resource_exchange::core::SraResult) {
    let inst = instance(0.15);
    let res = solve_77(&inst);
    (inst, res)
}

/// `solved()`'s target rescheduled one move per batch.
fn single_move_replan(inst: &Instance, res: &resource_exchange::core::SraResult) -> MigrationPlan {
    let cfg = PlannerConfig {
        max_batch_moves: 1,
        ..Default::default()
    };
    plan_migration(inst, &inst.initial, res.assignment.placement(), &cfg)
        .expect("single-move schedule to the same target")
}

#[test]
fn qos_improves_after_a_balancing_migration() {
    let (inst, res) = solved();
    let q = qos(&inst, &res.plan);
    assert!(
        q.after < q.before,
        "balancing must lower steady-state straggler latency: {} → {}",
        q.before,
        q.after
    );
    assert!(
        q.worst_during >= q.after,
        "transients cannot beat the final state"
    );
    assert_eq!(q.per_batch.len(), res.plan.n_batches());
    assert!(q.degradation() >= 1.0);
}

#[test]
fn narrower_batches_never_finish_faster() {
    let (inst, res) = solved();
    let tl_cfg = TimelineConfig {
        machine_bandwidth: 1.0,
        batch_overhead_secs: 1.0,
    };
    let wide = time_plan(&inst, &res.plan, &tl_cfg);

    let narrow_plan = single_move_replan(&inst, &res);
    let narrow = time_plan(&inst, &narrow_plan, &tl_cfg);

    assert!(narrow_plan.n_batches() >= res.plan.n_batches());
    assert!(
        narrow.makespan_secs >= wide.makespan_secs,
        "narrow {} vs wide {}",
        narrow.makespan_secs,
        wide.makespan_secs
    );
    // Both reach the same target, so the steady-state QoS agrees.
    let qw = qos(&inst, &res.plan);
    let qn = qos(&inst, &narrow_plan);
    assert!((qw.after - qn.after).abs() < 1e-9);
}

#[test]
fn timeline_serial_bound_holds() {
    let (inst, res) = solved();
    let tl = time_plan(&inst, &res.plan, &TimelineConfig::default());
    // Batched execution can never beat perfect overlap of everything:
    // makespan ≥ longest single transfer; and never exceed full serial.
    assert!(tl.makespan_secs <= tl.serial_secs + 1e-9);
    let longest = res
        .plan
        .moves()
        .map(|m| inst.shards[m.shard.idx()].move_cost)
        .fold(0.0f64, f64::max);
    assert!(tl.makespan_secs + 1e-9 >= longest);
}

fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of every `QosReport` field's bits.
fn qos_pin(q: &QosReport) -> u64 {
    let fields = [q.before, q.worst_during, q.after, q.p50, q.p95, q.p99];
    fnv1a(fields.iter().chain(&q.per_batch).map(|x| x.to_bits()))
}

/// FNV-1a of `time_plan`'s seconds and of `batch_durations`' ticks at
/// every bandwidth × overhead.
fn timing_pins(inst: &Instance, plan: &MigrationPlan) -> (u64, u64) {
    let (mut secs, mut ticks) = (Vec::new(), Vec::new());
    for bw in [0.05, 1.0, 250.0] {
        for oh in [0, 2] {
            let cfg = TimelineConfig {
                machine_bandwidth: bw,
                batch_overhead_secs: oh as f64,
            };
            let tl = time_plan(inst, plan, &cfg);
            let totals = [tl.makespan_secs, tl.serial_secs];
            secs.extend(tl.batch_secs.iter().chain(&totals).map(|x| x.to_bits()));
            ticks.extend(batch_durations(inst, plan, bw, oh));
        }
    }
    (fnv1a(secs.into_iter()), fnv1a(ticks.into_iter()))
}

/// `[latency, timeline, durations]` of the five plans below, in order.
/// The latency column of the four non-empty plans was re-recorded once
/// when `latency_profile`'s percentiles moved to the shared 2 % histogram
/// (bucket midpoints instead of exact per-batch samples).
const PINS: [[u64; 3]; 5] = [
    [0x3beceed83c43dc11, 0x658b844c9c529d50, 0x185936f6655b01f9],
    [0x085d6ff727a6b106, 0x192cca29b022b750, 0x4c570fa93bcdc601],
    [0x6262bae6fca58406, 0xdea7639ec266ae12, 0xc2f41541ebb38651],
    [0x7cb9282bdbc17c9f, 0x485d2b1fe7846268, 0xa8e9fd00c05a57d5],
    [0x4eea6da601e82aa5, 0x5467b0da1d106495, 0xcbf29ce484222325],
];

/// Frozen latency profile, timeline and tick durations of five plans:
/// `solved()`'s, its single-move replan, greedy's on the same instance, a
/// plan solved at α = 0, and the empty plan.
#[test]
fn profiles_and_timings_match_the_frozen_pins() {
    let (inst, res) = solved();
    let greedy = GreedyRebalancer.rebalance(&inst).unwrap();
    let inst0 = instance(0.0);
    let plans = [
        (&inst, res.plan.clone()),
        (&inst, single_move_replan(&inst, &res)),
        (&inst, greedy.plan.expect("greedy moves on this instance")),
        (&inst0, solve_77(&inst0).plan),
        (&inst, MigrationPlan::default()),
    ];
    let mut moved = Vec::new();
    for (i, (inst, plan)) in plans.into_iter().enumerate() {
        let (secs, ticks) = timing_pins(inst, &plan);
        let got = [qos_pin(&qos(inst, &plan)), secs, ticks];
        if got != PINS[i] {
            moved.push(format!("plan {i}: {got:#x?}"));
        }
    }
    assert!(
        moved.is_empty(),
        "[latency, timeline, durations]\n{}",
        moved.join("\n")
    );
}
