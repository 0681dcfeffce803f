//! Independent step simulator that verifies migration schedules.
//!
//! This module deliberately re-derives the transient-capacity semantics from
//! scratch rather than sharing code with the planner: the planner *reserves*
//! resources while constructing batches, the simulator *replays* a finished
//! schedule instant by instant. Agreement between the two is enforced by
//! property tests, which is how we gain confidence that the planner's
//! reservation arithmetic is right.

use super::MigrationPlan;
use crate::error::ClusterError;
use crate::instance::Instance;
use crate::machine::MachineId;
use crate::resources::ResourceVec;
use crate::shard::ShardId;

/// Replays `plan` from `initial`, checking every transient constraint, and
/// confirms the final state equals `target`.
///
/// Checks per batch:
/// * each move's `to` is a machine of `inst` ([`ClusterError::UnknownMachine`]
///   otherwise, as for an `initial` entry past the fleet),
/// * each move's `from` matches the shard's current location,
/// * no shard appears twice in one batch, and no move is a self-move,
/// * for every machine `m`:
///   `usage(m) + Σ_in (1+α)·d + Σ_out α·d ≤ C(m)` — sources still hold
///   their departing shards (inside `usage`), both sides pay copy overhead.
///
/// After the last batch, every shard must sit on its target machine and
/// machine usage must be capacity-feasible (implied, but re-checked).
pub fn verify_schedule(
    inst: &Instance,
    initial: &[MachineId],
    target: &[MachineId],
    plan: &MigrationPlan,
) -> Result<(), ClusterError> {
    let expected = inst.n_shards();
    if let Some(found) = [initial.len(), target.len()]
        .into_iter()
        .find(|&len| len != expected)
    {
        return Err(ClusterError::BadPlacementLength { expected, found });
    }
    let alpha = inst.alpha;
    let unknown = |shard: ShardId, machine: MachineId| {
        (machine.idx() >= inst.n_machines())
            .then_some(ClusterError::UnknownMachine { shard, machine })
    };
    let mut placement = initial.to_vec();
    let mut usage: Vec<ResourceVec> = vec![ResourceVec::zero(inst.dims); inst.n_machines()];
    for (i, &m) in placement.iter().enumerate() {
        if let Some(e) = unknown(ShardId::from(i), m) {
            return Err(e);
        }
        usage[m.idx()] += &inst.shards[i].demand;
    }

    for (bi, batch) in plan.batches.iter().enumerate() {
        // Consistency: known targets, sources match, no duplicates, no
        // self-moves.
        let mut seen: Vec<ShardId> = Vec::with_capacity(batch.len());
        for mv in batch {
            if let Some(e) = unknown(mv.shard, mv.to) {
                return Err(e);
            }
            if mv.from == mv.to
                || mv.shard.idx() >= inst.n_shards()
                || placement[mv.shard.idx()] != mv.from
                || seen.contains(&mv.shard)
            {
                return Err(ClusterError::InconsistentMove {
                    batch: bi,
                    shard: mv.shard,
                });
            }
            seen.push(mv.shard);
        }

        // Transient footprint of the batch.
        let mut extra: Vec<ResourceVec> = vec![ResourceVec::zero(inst.dims); inst.n_machines()];
        for mv in batch {
            let d = &inst.shards[mv.shard.idx()].demand;
            extra[mv.to.idx()] += &d.scaled(1.0 + alpha);
            extra[mv.from.idx()] += &d.scaled(alpha);
        }
        for m in 0..inst.n_machines() {
            if extra[m].is_zero() {
                continue;
            }
            let mut u = usage[m];
            u += &extra[m];
            if !u.fits_within(&inst.machines[m].capacity) {
                return Err(ClusterError::TransientViolation {
                    batch: bi,
                    machine: MachineId::from(m),
                });
            }
        }

        // Commit.
        for mv in batch {
            let d = inst.shards[mv.shard.idx()].demand;
            usage[mv.from.idx()].saturating_sub_assign(&d);
            usage[mv.to.idx()] += &d;
            placement[mv.shard.idx()] = mv.to;
        }
    }

    for (i, (&got, &want)) in placement.iter().zip(target).enumerate() {
        if got != want {
            return Err(ClusterError::WrongFinalPlacement {
                shard: ShardId::from(i),
            });
        }
    }
    for m in &inst.machines {
        if !usage[m.id.idx()].fits_within(&m.capacity) {
            return Err(ClusterError::TargetOverload { machine: m.id });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::migration::Move;

    fn two_machines(alpha: f64) -> Instance {
        let mut b = InstanceBuilder::new(1).alpha(alpha);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[6.0], 1.0, m0);
        b.shard(&[6.0], 1.0, MachineId(1));
        b.build().unwrap()
    }

    fn mv(s: u32, f: u32, t: u32) -> Move {
        Move {
            shard: ShardId(s),
            from: MachineId(f),
            to: MachineId(t),
        }
    }

    #[test]
    fn accepts_valid_single_move() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        b.shard(&[4.0], 1.0, m0);
        let inst = b.build().unwrap();
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1)]],
        };
        verify_schedule(&inst, &inst.initial, &[m1], &plan).unwrap();
    }

    #[test]
    fn a_too_long_target_reports_its_own_length() {
        let inst = two_machines(0.0);
        let target = vec![MachineId(0); 3];
        let empty = MigrationPlan { batches: vec![] };
        assert_eq!(
            verify_schedule(&inst, &inst.initial, &target, &empty),
            Err(ClusterError::BadPlacementLength {
                expected: 2,
                found: 3
            })
        );
    }

    #[test]
    fn rejects_transient_overload_in_swap() {
        // 6 + 6 = 12 > 10 on each side: a direct simultaneous swap violates.
        let inst = two_machines(0.0);
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1), mv(1, 1, 0)]],
        };
        let target = vec![MachineId(1), MachineId(0)];
        assert!(matches!(
            verify_schedule(&inst, &inst.initial, &target, &plan),
            Err(ClusterError::TransientViolation { batch: 0, .. })
        ));
    }

    #[test]
    fn rejects_wrong_source() {
        let inst = two_machines(0.0);
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 1, 0)]],
        };
        assert!(matches!(
            verify_schedule(&inst, &inst.initial, &inst.initial, &plan),
            Err(ClusterError::InconsistentMove { .. })
        ));
    }

    #[test]
    fn rejects_self_move() {
        let inst = two_machines(0.0);
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 0)]],
        };
        assert!(matches!(
            verify_schedule(&inst, &inst.initial, &inst.initial, &plan),
            Err(ClusterError::InconsistentMove { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_shard_in_batch() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _m2 = b.machine(&[10.0]);
        b.shard(&[1.0], 1.0, m0);
        let inst = b.build().unwrap();
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1), mv(0, 0, 2)]],
        };
        assert!(matches!(
            verify_schedule(&inst, &inst.initial, &[MachineId(2)], &plan),
            Err(ClusterError::InconsistentMove { .. })
        ));
    }

    #[test]
    fn rejects_moves_and_placements_past_the_fleet() {
        let inst = two_machines(0.0);
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 2)]],
        };
        let target = vec![MachineId(2), MachineId(1)];
        assert_eq!(
            verify_schedule(&inst, &inst.initial, &target, &plan),
            Err(ClusterError::UnknownMachine {
                shard: ShardId(0),
                machine: MachineId(2)
            })
        );
        let initial = vec![MachineId(0), MachineId(7)];
        assert_eq!(
            verify_schedule(&inst, &initial, &initial, &MigrationPlan::default()),
            Err(ClusterError::UnknownMachine {
                shard: ShardId(1),
                machine: MachineId(7)
            })
        );
    }

    #[test]
    fn rejects_wrong_final_placement() {
        let inst = two_machines(0.0);
        let plan = MigrationPlan::default();
        let target = vec![MachineId(1), MachineId(0)];
        assert!(matches!(
            verify_schedule(&inst, &inst.initial, &target, &plan),
            Err(ClusterError::WrongFinalPlacement { .. })
        ));
    }

    #[test]
    fn alpha_overhead_counted_on_both_sides() {
        // cap 10, source shard 6 moving with α=0.4: source bears 6+2.4=8.4 ok;
        // target bears existing 6 + 1.4*6 = 14.4 > 10 → violation.
        let inst = two_machines(0.4);
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1)]],
        };
        let target = vec![MachineId(1), MachineId(1)];
        assert!(matches!(
            verify_schedule(&inst, &inst.initial, &target, &plan),
            Err(ClusterError::TransientViolation { .. })
        ));
    }

    #[test]
    fn sequential_swap_through_vacancy_is_accepted() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        b.shard(&[8.0], 1.0, m0);
        b.shard(&[8.0], 1.0, m1);
        let inst = b.build().unwrap();
        let plan = MigrationPlan {
            batches: vec![
                vec![mv(0, 0, 2)], // park shard 0 on the exchange machine
                vec![mv(1, 1, 0)],
                vec![mv(0, 2, 1)],
            ],
        };
        let target = vec![MachineId(1), MachineId(0)];
        verify_schedule(&inst, &inst.initial, &target, &plan).unwrap();
    }
}
