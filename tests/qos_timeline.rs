//! Integration: schedule timing and serving-quality models on real
//! pipeline outputs.

use resource_exchange::cluster::migration::timeline::{time_plan, TimelineConfig};
use resource_exchange::cluster::{plan_migration, PlannerConfig};
use resource_exchange::core::{solve, SraConfig};
use resource_exchange::workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};
use rex_searchsim::qos::{qos_of_plan, QosConfig};

fn solved() -> (
    resource_exchange::cluster::Instance,
    resource_exchange::core::SraResult,
) {
    let inst = generate(&SynthConfig {
        n_machines: 10,
        n_exchange: 2,
        n_shards: 80,
        stringency: 0.78,
        alpha: 0.15,
        family: DemandFamily::Correlated,
        placement: Placement::Hotspot(0.4),
        seed: 77,
        ..Default::default()
    })
    .unwrap();
    let res = solve(
        &inst,
        &SraConfig {
            iters: 2_000,
            seed: 77,
            ..Default::default()
        },
    )
    .unwrap();
    (inst, res)
}

#[test]
fn qos_improves_after_a_balancing_migration() {
    let (inst, res) = solved();
    let q = qos_of_plan(&inst, &res.plan, &QosConfig::default());
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

    let narrow_plan = plan_migration(
        &inst,
        &inst.initial,
        res.assignment.placement(),
        &PlannerConfig {
            max_batch_moves: 1,
            ..Default::default()
        },
    )
    .expect("single-move schedule to the same target");
    let narrow = time_plan(&inst, &narrow_plan, &tl_cfg);

    assert!(narrow_plan.n_batches() >= res.plan.n_batches());
    assert!(
        narrow.makespan_secs >= wide.makespan_secs,
        "narrow {} vs wide {}",
        narrow.makespan_secs,
        wide.makespan_secs
    );
    // Both reach the same target, so the steady-state QoS agrees.
    let qw = qos_of_plan(&inst, &res.plan, &QosConfig::default());
    let qn = qos_of_plan(&inst, &narrow_plan, &QosConfig::default());
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
