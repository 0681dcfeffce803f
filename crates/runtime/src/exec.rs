//! Timed execution of migration plans inside the event loop.
//!
//! A plan's batches execute sequentially; a batch lasts as many ticks as
//! [`time_plan`] gives it seconds (busiest NIC's `(bytes_in + bytes_out) /
//! copy_bandwidth`), rounded up, plus a fixed coordination overhead. While
//! a batch is in flight its transient footprint
//! ([`batch_footprint`](rex_cluster::migration::batch_footprint):
//! `(1+α)·d` on the target, `α·d` on the source) is added to the machines'
//! effective load, and the footprint is **constant for the whole batch**:
//! copies start at the batch boundary and the commit happens at the next
//! boundary. Event boundaries (batch starts and batch ends) are
//! therefore the only instants where the usage state changes, and checking
//! the transient constraint there checks it everywhere — which is what
//! `rex_cluster::verify_schedule` does, batch by batch.

use rex_cluster::migration::{time_plan, TimelineConfig};
use rex_cluster::{Instance, MachineId, MigrationPlan};

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

impl PlannedMigration {
    /// Packages `plan`, which ends at `target`, for the executor; the one
    /// place a plan is timed ([`batch_durations`], which panics unless
    /// `copy_bandwidth` is positive).
    pub fn new(
        inst: &Instance,
        plan: MigrationPlan,
        target: Vec<MachineId>,
        returned: Vec<MachineId>,
        kind: MigrationKind,
        copy_bandwidth: f64,
        overhead_ticks: u64,
    ) -> Self {
        Self {
            durations: batch_durations(inst, &plan, copy_bandwidth, overhead_ticks),
            plan,
            target,
            returned,
            kind,
        }
    }
}

/// Per-batch durations in ticks: [`time_plan`]'s seconds at
/// `copy_bandwidth` (no per-batch overhead), rounded up, plus
/// `overhead_ticks`, and at least one tick — a batch can never commit at
/// the instant it starts.
///
/// # Panics
/// If `copy_bandwidth` is not positive.
pub fn batch_durations(
    inst: &Instance,
    plan: &MigrationPlan,
    copy_bandwidth: f64,
    overhead_ticks: u64,
) -> Vec<u64> {
    let cfg = TimelineConfig {
        machine_bandwidth: copy_bandwidth,
        batch_overhead_secs: 0.0,
    };
    let timeline = time_plan(inst, plan, &cfg);
    let ticks = |secs: f64| (secs.ceil() as u64 + overhead_ticks).max(1);
    timeline.batch_secs.into_iter().map(ticks).collect()
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
}
