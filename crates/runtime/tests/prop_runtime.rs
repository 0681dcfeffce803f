//! Property tests for the runtime's transient semantics and determinism.
//!
//! Every batch of a planned migration takes at least one tick (the
//! executor's footprint is constant per batch, so `verify_schedule`'s
//! per-batch check — cross-examined against the planner in
//! `rex-cluster`'s proptests — covers every instant of the execution).
//!
//! The last property pins the determinism contract: a `Simulation` run is a
//! pure function of `(Instance, RuntimeConfig)`, byte for byte.

use proptest::prelude::*;
use rex_cluster::{
    plan_migration, Assignment, Instance, InstanceBuilder, MachineId, PlannerConfig, ShardId,
};
use rex_runtime::{
    batch_durations, ControllerConfig, ControllerPolicy, DriftSpec, FaultSpec, RuntimeConfig,
    Simulation,
};

/// Strategy: a random feasible instance (heterogeneous fleet, shards placed
/// greedily so the initial placement always validates).
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        2usize..6,      // loaded machines
        0usize..3,      // exchange machines
        1usize..14,     // shards
        1usize..3,      // dims
        0u64..u64::MAX, // seed
        prop_oneof![Just(0.0), Just(0.1), Just(0.4)],
    )
        .prop_map(|(nm, nx, ns, dims, seed, alpha)| build_instance(nm, nx, ns, dims, seed, alpha))
}

fn build_instance(nm: usize, nx: usize, ns: usize, dims: usize, seed: u64, alpha: f64) -> Instance {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(dims).alpha(alpha).label("prop-rt");
    let caps: Vec<Vec<f64>> = (0..nm)
        .map(|_| (0..dims).map(|_| rng.random_range(70.0..140.0)).collect())
        .collect();
    let machines: Vec<MachineId> = caps.iter().map(|c| b.machine(c)).collect();
    for _ in 0..nx {
        b.exchange_machine(&vec![100.0; dims]);
    }
    let mut usage = vec![vec![0.0f64; dims]; nm];
    for _ in 0..ns {
        let demand: Vec<f64> = (0..dims)
            .map(|_| rng.random_range(1.0..70.0 / (ns as f64).max(4.0)))
            .collect();
        let host = (0..nm)
            .find(|&m| (0..dims).all(|r| usage[m][r] + demand[r] <= caps[m][r]))
            .expect("demands sized to always fit somewhere");
        for r in 0..dims {
            usage[host][r] += demand[r];
        }
        b.shard(&demand, rng.random_range(0.5..10.0), machines[host]);
    }
    b.build().expect("constructed instance must validate")
}

/// A random capacity-feasible target derived by random feasible relocations.
fn random_target(inst: &Instance, seed: u64, moves: usize) -> Vec<MachineId> {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut asg = Assignment::from_initial(inst);
    for _ in 0..moves {
        let s = ShardId::from(rng.random_range(0..inst.n_shards()));
        let m = MachineId::from(rng.random_range(0..inst.n_machines()));
        if asg.fits(inst, s, m) {
            asg.move_shard(inst, s, m);
        }
    }
    asg.into_placement()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batches always take at least one tick, even when every shard in the
    /// batch is smaller than the per-tick copy bandwidth (sub-bandwidth
    /// shards must not commit at the instant they start, or their
    /// transient footprint would never be charged).
    #[test]
    fn batch_durations_are_never_zero(
        inst in arb_instance(),
        seed in 0u64..1_000_000,
        moves in 1usize..12,
        bandwidth in prop_oneof![Just(0.1), Just(1.0), Just(11.0), Just(1e6)],
        overhead in 0u64..3,
    ) {
        // move_cost is drawn from 0.5..10.0, so bandwidth 11.0 and 1e6 put
        // every shard (and whole batches) below one tick of copy capacity.
        let target = random_target(&inst, seed, moves);
        if let Ok(plan) = plan_migration(&inst, &inst.initial, &target, &PlannerConfig::default()) {
            let durations = batch_durations(&inst, &plan, bandwidth, overhead);
            prop_assert_eq!(durations.len(), plan.batches.len());
            prop_assert!(durations.iter().all(|&d| d >= 1),
                "a batch was scheduled to take zero ticks: {:?}", durations);
        }
    }
}

/// Strategy for a small but eventful runtime configuration.
fn arb_runtime_cfg() -> impl Strategy<Value = RuntimeConfig> {
    (
        any::<u64>(),
        prop_oneof![
            Just(ControllerPolicy::Off),
            Just(ControllerPolicy::Greedy),
            Just(ControllerPolicy::Sra),
        ],
        prop_oneof![Just(None), (50u64..250).prop_map(Some)], // crash tick
        prop_oneof![Just(None), (50u64..250).prop_map(Some)], // spike tick
        any::<bool>(),                                        // drift on/off
        // Copy bandwidth spanning both regimes: far below shard move
        // sizes (many ticks per batch) and far above them (sub-bandwidth
        // shards, where durations must still round up to ≥ 1 tick so the
        // transient footprint is charged for at least one event boundary).
        prop_oneof![Just(0.05), Just(1.0), Just(250.0)],
    )
        .prop_map(
            |(seed, policy, crash_at, spike_at, drift, copy_bandwidth)| {
                let mut faults = Vec::new();
                if let Some(at) = crash_at {
                    faults.push(FaultSpec::Crash {
                        at,
                        machine: 1,
                        recover_at: Some(at + 150),
                    });
                }
                if let Some(at) = spike_at {
                    faults.push(FaultSpec::Spike {
                        at,
                        duration: 100,
                        factor: 1.6,
                        shard_fraction: 0.12,
                    });
                }
                RuntimeConfig {
                    ticks: 400,
                    seed,
                    copy_bandwidth,
                    controller: ControllerConfig {
                        policy,
                        poll_interval: 20,
                        window: 2,
                        cooldown_ticks: 80,
                        sra_iters: 150,
                        ..Default::default()
                    },
                    faults,
                    drift: drift.then_some(DriftSpec {
                        every_ticks: 120,
                        sigma: 0.15,
                        target_utilization: 0.6,
                    }),
                    ..Default::default()
                }
            },
        )
}

fn sim_instance(seed: u64) -> Instance {
    use rex_workload::synthetic::{generate, Placement, SynthConfig};
    generate(&SynthConfig {
        n_machines: 8,
        n_exchange: 2,
        n_shards: 48,
        stringency: 0.6,
        alpha: 0.1,
        placement: Placement::Hotspot(0.35),
        seed,
        ..Default::default()
    })
    .expect("synthetic instance generates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The determinism contract under arbitrary configurations: same seed →
    /// byte-identical metrics JSON, and the executor's transient check
    /// never fires.
    #[test]
    fn same_seed_runs_export_identical_bytes(
        cfg in arb_runtime_cfg(),
        inst_seed in 0u64..1_000,
    ) {
        let a = Simulation::new(sim_instance(inst_seed), cfg.clone()).run();
        let b = Simulation::new(sim_instance(inst_seed), cfg.clone()).run();
        prop_assert_eq!(a.to_json(), b.to_json(), "same-seed runs diverged");
        prop_assert_eq!(a.counters.transient_violations, 0u64);
    }
}
