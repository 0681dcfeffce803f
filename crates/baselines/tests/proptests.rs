//! Property tests: every baseline's contract on random instances.

use proptest::prelude::*;
use rex_baselines::{
    FfdRepacker, GreedyRebalancer, LocalSearchRebalancer, RandomWalkRebalancer, Rebalancer,
};
use rex_cluster::{verify_schedule, Instance, InstanceBuilder, MachineId};

fn build(seed: u64, n_m: usize, n_x: usize, n_s: usize, alpha: f64) -> Option<Instance> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(2).alpha(alpha).label("prop");
    let machines: Vec<MachineId> = (0..n_m).map(|_| b.machine(&[10.0, 10.0])).collect();
    for _ in 0..n_x {
        b.exchange_machine(&[10.0, 10.0]);
    }
    let mut usage = vec![[0.0f64; 2]; n_m];
    for _ in 0..n_s {
        let d = [rng.random_range(0.3..2.5), rng.random_range(0.3..2.5)];
        let host = (0..n_m).find(|&m| usage[m][0] + d[0] <= 10.0 && usage[m][1] + d[1] <= 10.0)?;
        usage[host][0] += d[0];
        usage[host][1] += d[1];
        b.shard(&d, d[1], machines[host]);
    }
    b.build().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Deployable baselines: verified schedules, monotone peak, exchange
    /// machines untouched.
    #[test]
    fn deployable_baselines_contract(
        seed in any::<u64>(),
        n_m in 2usize..7,
        n_x in 0usize..3,
        n_s in 4usize..30,
        alpha in prop_oneof![Just(0.0), Just(0.15), Just(0.4)],
    ) {
        let Some(inst) = build(seed, n_m, n_x, n_s, alpha) else { return Ok(()) };
        let methods: Vec<Box<dyn Rebalancer>> = vec![
            Box::new(GreedyRebalancer),
            Box::new(LocalSearchRebalancer),
            Box::new(RandomWalkRebalancer { moves: 40, seed }),
        ];
        for m in methods {
            let r = m.rebalance(&inst).unwrap();
            let plan = r.plan.as_ref().expect("deployable baselines always plan");
            verify_schedule(&inst, &inst.initial, r.assignment.placement(), plan).unwrap();
            prop_assert!(r.assignment.is_capacity_feasible(&inst), "{}", m.name());
            for x in inst.exchange_machines() {
                prop_assert!(r.assignment.is_vacant(x), "{} used {x}", m.name());
            }
            if m.name() != "random-walk" {
                prop_assert!(
                    r.final_report.peak <= r.initial_report.peak + 1e-9,
                    "{} regressed",
                    m.name()
                );
            }
        }
    }

    /// FFD: capacity-feasible packing above the fractional bound; when it
    /// claims schedulability, the schedule verifies. (FFD is a repacking
    /// heuristic, not a guaranteed bound: on tiny instances the
    /// incremental methods occasionally beat it, so no cross-method
    /// inequality is asserted here — the benches report the comparison
    /// empirically instead.)
    #[test]
    fn ffd_contract(seed in any::<u64>(), n_s in 6usize..30) {
        let Some(inst) = build(seed, 4, 1, n_s, 0.1) else { return Ok(()) };
        let ffd = FfdRepacker.rebalance(&inst).unwrap();
        prop_assert!(ffd.assignment.is_capacity_feasible(&inst));
        if let Some(plan) = &ffd.plan {
            verify_schedule(&inst, &inst.initial, ffd.assignment.placement(), plan).unwrap();
            prop_assert!(ffd.schedulable);
        } else {
            prop_assert!(!ffd.schedulable);
        }
        for x in inst.exchange_machines() {
            prop_assert!(ffd.assignment.is_vacant(x));
        }
    }
}
