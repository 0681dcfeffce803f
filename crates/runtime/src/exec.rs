//! Timed execution of migration plans inside the event loop.
//!
//! A plan's batches execute sequentially; a batch lasts as long as its
//! busiest NIC needs (`(bytes_in + bytes_out) / copy_bandwidth`, the same
//! half-duplex model as `rex_cluster::migration::timeline`) plus a fixed
//! coordination overhead. While a batch is in flight its transient
//! footprint — `(1+α)·d` on the target, `α·d` on the source — is added to
//! the machines' effective load, and the footprint is **constant for the
//! whole batch**: copies start at the batch boundary and the commit happens
//! at the next boundary. Event boundaries (batch starts and batch ends) are
//! therefore the only instants where the usage state changes, and checking
//! the transient constraint there checks it everywhere.
//!
//! [`verify_event_boundaries`] re-derives that check from scratch (a third
//! independent implementation of the transient semantics, next to the
//! planner's reservations and `verify_schedule`'s replay) so property tests
//! can cross-examine all three.

use rex_cluster::{Instance, MachineId, MigrationPlan, ResourceVec};

/// Why a migration plan was adopted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationKind {
    /// Load-driven rebalance decided by the controller.
    Load,
    /// Mandatory evacuation of failed machines.
    Evacuation,
    /// Delta migration issued by the hot-shard control plane (no exchange
    /// loan rotation on completion).
    HotShard,
}

impl MigrationKind {
    /// Stable lowercase name for trace events.
    pub fn name(&self) -> &'static str {
        match self {
            MigrationKind::Load => "load",
            MigrationKind::Evacuation => "evacuation",
            MigrationKind::HotShard => "hotshard",
        }
    }
}

/// A plan adopted for execution, with its timing precomputed.
#[derive(Clone, Debug)]
pub struct PlannedMigration {
    /// The batched schedule.
    pub plan: MigrationPlan,
    /// The placement the plan ends at.
    pub target: Vec<MachineId>,
    /// Machines the solver chose to hand back (empty for evacuations and
    /// for the greedy policy, which does not play the exchange game).
    pub returned: Vec<MachineId>,
    /// Duration of each batch in ticks (≥ 1).
    pub durations: Vec<u64>,
    /// Why this plan exists.
    pub kind: MigrationKind,
}

/// Per-batch durations in ticks: busiest NIC's bytes over `copy_bandwidth`,
/// rounded up, plus `overhead_ticks`, and at least one tick — a batch can
/// never commit at the instant it starts.
pub fn batch_durations(
    inst: &Instance,
    plan: &MigrationPlan,
    copy_bandwidth: f64,
    overhead_ticks: u64,
) -> Vec<u64> {
    assert!(copy_bandwidth > 0.0, "copy bandwidth must be positive");
    let mut out = Vec::with_capacity(plan.batches.len());
    let mut nic = vec![0.0f64; inst.n_machines()];
    for batch in &plan.batches {
        for x in nic.iter_mut() {
            *x = 0.0;
        }
        for mv in batch {
            let bytes = inst.shards[mv.shard.idx()].move_cost;
            nic[mv.from.idx()] += bytes;
            nic[mv.to.idx()] += bytes;
        }
        let busiest = nic.iter().cloned().fold(0.0f64, f64::max);
        let ticks = (busiest / copy_bandwidth).ceil() as u64 + overhead_ticks;
        out.push(ticks.max(1));
    }
    out
}

/// Writes the transient footprint of `batch` into `out` (which must be
/// zeroed, one entry per machine): `(1+α)·d` on each target, `α·d` on each
/// source.
pub fn batch_footprint(inst: &Instance, batch: &[rex_cluster::Move], out: &mut [ResourceVec]) {
    let alpha = inst.alpha;
    for mv in batch {
        let d = &inst.shards[mv.shard.idx()].demand;
        out[mv.to.idx()] += &d.scaled(1.0 + alpha);
        out[mv.from.idx()] += &d.scaled(alpha);
    }
}

/// A transient-capacity violation at an event boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundaryViolation {
    /// Batch index.
    pub batch: usize,
    /// Overloaded machine.
    pub machine: MachineId,
    /// True if the violation is at the batch's start boundary (copies
    /// beginning), false at its end boundary (state after commit).
    pub at_start: bool,
}

/// Replays `plan` from `initial` and checks the transient constraint at
/// **every event boundary**: at each batch start (steady usage plus the
/// batch's full footprint must fit every machine) and at each batch end
/// (the committed steady state must fit). Because the footprint is constant
/// between boundaries, this covers every instant of the execution.
pub fn verify_event_boundaries(
    inst: &Instance,
    initial: &[MachineId],
    plan: &MigrationPlan,
) -> Result<(), BoundaryViolation> {
    let n = inst.n_machines();
    let mut usage: Vec<ResourceVec> = vec![ResourceVec::zero(inst.dims); n];
    for (i, &m) in initial.iter().enumerate() {
        usage[m.idx()] += &inst.shards[i].demand;
    }
    let mut footprint: Vec<ResourceVec> = vec![ResourceVec::zero(inst.dims); n];
    for (bi, batch) in plan.batches.iter().enumerate() {
        for f in footprint.iter_mut() {
            *f = ResourceVec::zero(inst.dims);
        }
        batch_footprint(inst, batch, &mut footprint);
        // Start boundary: copies begin, footprint lands on top of usage.
        for m in 0..n {
            if !usage[m].fits_after_add(&footprint[m], &inst.machines[m].capacity) {
                return Err(BoundaryViolation {
                    batch: bi,
                    machine: MachineId::from(m),
                    at_start: true,
                });
            }
        }
        // End boundary: commit, then the steady state must fit.
        for mv in batch {
            let d = inst.shards[mv.shard.idx()].demand;
            usage[mv.from.idx()].saturating_sub_assign(&d);
            usage[mv.to.idx()] += &d;
        }
        for (m, u) in usage.iter().enumerate() {
            if !u.fits_within(&inst.machines[m].capacity) {
                return Err(BoundaryViolation {
                    batch: bi,
                    machine: MachineId::from(m),
                    at_start: false,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::{InstanceBuilder, Move, ShardId};

    fn mv(s: u32, f: u32, t: u32) -> Move {
        Move {
            shard: ShardId(s),
            from: MachineId(f),
            to: MachineId(t),
        }
    }

    #[test]
    fn durations_follow_the_busiest_nic() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _m2 = b.machine(&[10.0]);
        b.shard(&[1.0], 4.0, m0);
        b.shard(&[1.0], 2.0, m0);
        let inst = b.build().unwrap();
        // Both shards leave m0 concurrently: its NIC carries 6 bytes.
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1), mv(1, 0, 2)]],
        };
        assert_eq!(batch_durations(&inst, &plan, 2.0, 0), vec![3]);
        assert_eq!(batch_durations(&inst, &plan, 2.0, 2), vec![5]);
        // Fractional transfer rounds up; floor of one tick.
        assert_eq!(batch_durations(&inst, &plan, 100.0, 0), vec![1]);
    }

    #[test]
    fn footprint_charges_both_sides() {
        let mut b = InstanceBuilder::new(1).alpha(0.5);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[4.0], 1.0, m0);
        let inst = b.build().unwrap();
        let mut fp = vec![ResourceVec::zero(1); 2];
        batch_footprint(&inst, &[mv(0, 0, 1)], &mut fp);
        assert!((fp[0].as_slice()[0] - 2.0).abs() < 1e-12); // α·d
        assert!((fp[1].as_slice()[0] - 6.0).abs() < 1e-12); // (1+α)·d
    }

    #[test]
    fn boundary_check_accepts_staged_swap() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        b.shard(&[8.0], 1.0, m0);
        b.shard(&[8.0], 1.0, m1);
        let inst = b.build().unwrap();
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 2)], vec![mv(1, 1, 0)], vec![mv(0, 2, 1)]],
        };
        verify_event_boundaries(&inst, &inst.initial, &plan).unwrap();
    }

    #[test]
    fn boundary_check_rejects_simultaneous_swap() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[6.0], 1.0, m0);
        b.shard(&[6.0], 1.0, MachineId(1));
        let inst = b.build().unwrap();
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1), mv(1, 1, 0)]],
        };
        let v = verify_event_boundaries(&inst, &inst.initial, &plan).unwrap_err();
        assert!(v.at_start);
        assert_eq!(v.batch, 0);
    }

    #[test]
    fn boundary_check_charges_alpha() {
        // Target holds 6, incoming (1+0.4)·6 = 8.4 → 14.4 > 10.
        let mut b = InstanceBuilder::new(1).alpha(0.4);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[6.0], 1.0, m0);
        b.shard(&[6.0], 1.0, MachineId(1));
        let inst = b.build().unwrap();
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1)]],
        };
        assert!(verify_event_boundaries(&inst, &inst.initial, &plan).is_err());
    }
}
