//! Random transiently-feasible moves: the sanity floor.

use crate::common::{eligible_machines, single_move_feasible, RebalanceResult, Rebalancer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rex_cluster::{
    verify_schedule, Assignment, ClusterError, Instance, MigrationPlan, Move, ShardId,
};
use std::time::Instant;

/// Applies `moves` random transiently-feasible shard moves among the
/// original fleet (exchange machines stay vacant). Any serious method must
/// beat it; it also doubles as a workload perturber in tests.
#[derive(Clone, Copy, Debug)]
pub struct RandomWalkRebalancer {
    /// Number of random moves attempted.
    pub moves: usize,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for RandomWalkRebalancer {
    fn default() -> Self {
        Self {
            moves: 100,
            seed: 0,
        }
    }
}

impl Rebalancer for RandomWalkRebalancer {
    fn name(&self) -> &str {
        "random-walk"
    }

    fn rebalance(&self, inst: &Instance) -> Result<RebalanceResult, ClusterError> {
        inst.validate()?;
        let start = Instant::now();
        let machines = eligible_machines(inst);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut asg = Assignment::from_initial(inst);
        let mut plan = MigrationPlan::default();

        for _ in 0..self.moves {
            let s = ShardId::from(rng.random_range(0..inst.n_shards()));
            let t = machines[rng.random_range(0..machines.len())];
            if asg.machine_of(s) != t
                && asg.fits(inst, s, t)
                && single_move_feasible(inst, &asg, s, t)
            {
                let from = asg.move_shard(inst, s, t);
                plan.batches.push(vec![Move {
                    shard: s,
                    from,
                    to: t,
                }]);
            }
        }

        verify_schedule(inst, &inst.initial, asg.placement(), &plan)?;
        Ok(RebalanceResult::finish(
            inst,
            asg,
            Some(plan),
            start.elapsed(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::{InstanceBuilder, MachineId};

    fn inst() -> Instance {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        for _ in 0..5 {
            b.shard(&[1.0], 1.0, m0);
        }
        b.build().unwrap()
    }

    #[test]
    fn produces_verified_schedule() {
        let r = RandomWalkRebalancer::default().rebalance(&inst()).unwrap();
        assert!(r.schedulable);
        assert!(r.final_report.peak <= 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RandomWalkRebalancer {
            seed: 7,
            ..Default::default()
        }
        .rebalance(&inst())
        .unwrap();
        let b = RandomWalkRebalancer {
            seed: 7,
            ..Default::default()
        }
        .rebalance(&inst())
        .unwrap();
        assert_eq!(a.assignment.placement(), b.assignment.placement());
        let c = RandomWalkRebalancer {
            seed: 8,
            ..Default::default()
        }
        .rebalance(&inst())
        .unwrap();
        // Different seeds usually differ (not guaranteed, but true here).
        assert_ne!(a.assignment.placement(), c.assignment.placement());
    }

    #[test]
    fn never_touches_exchange_machines() {
        let inst = inst();
        let r = RandomWalkRebalancer {
            moves: 500,
            ..Default::default()
        }
        .rebalance(&inst)
        .unwrap();
        assert!(r.assignment.is_vacant(MachineId(2)));
    }

    #[test]
    fn zero_moves_is_identity() {
        let inst = inst();
        let r = RandomWalkRebalancer {
            moves: 0,
            ..Default::default()
        }
        .rebalance(&inst)
        .unwrap();
        assert_eq!(r.assignment.placement(), &inst.initial[..]);
        assert_eq!(r.migration.total_moves, 0);
    }
}
