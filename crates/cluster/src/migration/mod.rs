//! Transient-resource-aware migration planning and verification.
//!
//! Given an initial and a target placement, the planner produces a
//! [`MigrationPlan`]: an ordered sequence of *batches* of shard moves such
//! that at every instant the transient constraint holds — while a shard with
//! demand `d` is in flight, the source bears `(1+α)·d` (it keeps serving the
//! shard, plus copy overhead `α·d`) and the target bears `(1+α)·d` (the
//! arriving replica plus copy overhead). Moves inside one batch execute
//! concurrently, so their transient footprints are summed.
//!
//! In stringent environments direct schedules often deadlock (every pending
//! move is transiently blocked). The planner then escalates through three
//! staging modes, in order:
//!
//! 1. **target-side staging** — park a pending shard on an intermediate
//!    machine with headroom (preferentially a vacant exchange machine, the
//!    mechanism the paper's resource exchange enables) and finish later;
//!    each shard is staged at most once,
//! 2. **source-side freeing** (only with copy overhead `α > 0`) — park a
//!    *co-resident* shard to create the `α·d` departure headroom a blocked
//!    move needs, scheduling its homecoming for after the blockage clears,
//! 3. **held-arrival release** — when every remaining blockage is a hold
//!    protecting a machine whose own departures cannot be freed anyway,
//!    execute the smallest physically feasible held arrival so the rest of
//!    the plan proceeds.
//!
//! Arrivals are additionally *held* away from machines with blocked
//! departures (departures first on congested machines), which prevents
//! arrivals from sealing a machine mid-schedule.
//!
//! [`verify_schedule`] is an *independent* re-implementation of the
//! transient-capacity semantics (a step simulator). Every plan the planner
//! emits is expected to verify; the property tests in this crate and the
//! integration suite check that on thousands of random instances.

mod plan;
mod sim;
pub mod timeline;

pub use plan::{plan_migration, Planner, PlannerConfig};
pub use sim::verify_schedule;
pub use timeline::{time_plan, Timeline, TimelineConfig};

use crate::machine::MachineId;
use crate::shard::ShardId;
use serde::{Deserialize, Serialize};

/// A single shard move.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Move {
    /// The shard being migrated.
    pub shard: ShardId,
    /// Machine the shard is copied from (must host it when the batch runs).
    pub from: MachineId,
    /// Machine the shard is copied to.
    pub to: MachineId,
}

/// An executable migration schedule.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// Batches execute in order; moves within a batch run concurrently.
    pub batches: Vec<Vec<Move>>,
}

impl MigrationPlan {
    /// Total number of individual shard moves (staging hops count).
    pub fn n_moves(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Number of batches — a proxy for migration makespan.
    pub fn n_batches(&self) -> usize {
        self.batches.len()
    }

    /// Total migration traffic: the sum of `move_cost` over every executed
    /// move. A shard staged through an intermediate machine pays twice.
    pub fn total_cost(&self, inst: &crate::instance::Instance) -> f64 {
        self.batches
            .iter()
            .flatten()
            .map(|mv| inst.shards[mv.shard.idx()].move_cost)
            .sum()
    }

    /// Number of moves that are staging hops beyond the minimum (shards
    /// moved more than once).
    pub fn extra_hops(&self) -> usize {
        use std::collections::HashMap;
        let mut counts: HashMap<ShardId, usize> = HashMap::new();
        for mv in self.batches.iter().flatten() {
            *counts.entry(mv.shard).or_insert(0) += 1;
        }
        counts.values().filter(|&&c| c > 1).map(|&c| c - 1).sum()
    }

    /// Iterates over all moves in execution order.
    pub fn moves(&self) -> impl Iterator<Item = &Move> {
        self.batches.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    #[test]
    fn plan_counters() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        b.shard(&[1.0], 3.0, m0);
        b.shard(&[1.0], 4.0, m0);
        let inst = b.build().unwrap();

        let plan = MigrationPlan {
            batches: vec![
                vec![Move {
                    shard: ShardId(0),
                    from: m0,
                    to: m1,
                }],
                vec![
                    Move {
                        shard: ShardId(1),
                        from: m0,
                        to: m1,
                    },
                    Move {
                        shard: ShardId(0),
                        from: m1,
                        to: m0,
                    },
                ],
            ],
        };
        assert_eq!(plan.n_moves(), 3);
        assert_eq!(plan.n_batches(), 2);
        assert_eq!(plan.total_cost(&inst), 3.0 + 4.0 + 3.0);
        assert_eq!(plan.extra_hops(), 1);
        assert_eq!(plan.moves().count(), 3);
    }

    #[test]
    fn empty_plan() {
        let plan = MigrationPlan::default();
        assert_eq!(plan.n_moves(), 0);
        assert_eq!(plan.n_batches(), 0);
        assert_eq!(plan.extra_hops(), 0);
    }
}
