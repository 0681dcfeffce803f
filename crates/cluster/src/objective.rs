//! Objective functions for the reassignment problem.
//!
//! The paper's IP minimizes the peak normalized load, optionally trading it
//! off against one-time migration cost with a weight `λ` (the "linearly
//! constrained" objective of the abstract).

use crate::assignment::Assignment;
use crate::instance::Instance;
use crate::machine::MachineId;
use serde::{Deserialize, Serialize};

/// A weighted objective: peak machine load (the paper's balance term) +
/// `lambda` × migration cost.
///
/// Migration cost is normalized by the total move cost of all shards, so
/// `lambda` is scale-free: `lambda = 0.1` means "moving *everything* is as
/// bad as 0.1 of load".
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// Weight of the normalized migration-cost term (>= 0).
    pub lambda: f64,
}

impl Default for Objective {
    fn default() -> Self {
        Self { lambda: 0.01 }
    }
}

impl Objective {
    /// A pure balance objective (no migration-cost term).
    pub fn pure() -> Self {
        Self { lambda: 0.0 }
    }

    /// Full objective value for `asg`, with migration cost measured against
    /// `reference` (normally the instance's initial placement).
    pub fn value(&self, inst: &Instance, asg: &Assignment, reference: &[MachineId]) -> f64 {
        let balance = asg.peak_load(inst);
        if self.lambda == 0.0 {
            return balance;
        }
        let total: f64 = inst.shards.iter().map(|s| s.move_cost).sum();
        let cost = if total > 0.0 {
            asg.migration_cost(inst, reference) / total
        } else {
            0.0
        };
        balance + self.lambda * cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::shard::ShardId;

    fn inst() -> Instance {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[8.0], 1.0, m0);
        b.shard(&[2.0], 1.0, m0);
        b.build().unwrap()
    }

    #[test]
    fn peak_objective_matches_peak_load() {
        let inst = inst();
        let asg = Assignment::from_initial(&inst);
        let obj = Objective::pure();
        assert!((obj.value(&inst, &asg, &inst.initial) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_penalizes_movement() {
        let inst = inst();
        let mut asg = Assignment::from_initial(&inst);
        asg.move_shard(&inst, ShardId(1), MachineId(1));
        let free = Objective { lambda: 0.0 };
        let taxed = Objective { lambda: 1.0 };
        let v0 = free.value(&inst, &asg, &inst.initial);
        let v1 = taxed.value(&inst, &asg, &inst.initial);
        // One of two shards moved, each with cost 1.0 → normalized cost 0.5.
        assert!((v1 - v0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_move_no_penalty() {
        let inst = inst();
        let asg = Assignment::from_initial(&inst);
        let taxed = Objective { lambda: 5.0 };
        let pure = Objective::pure();
        assert_eq!(
            taxed.value(&inst, &asg, &inst.initial),
            pure.value(&inst, &asg, &inst.initial)
        );
    }
}
