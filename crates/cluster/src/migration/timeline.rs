//! What a migration schedule costs while it runs.
//!
//! Two models of one schedule, read by the experiments (E5, E11) and the
//! runtime executor alike:
//!
//! * [`time_plan`] — wall-clock. Batches execute sequentially; within a
//!   batch, moves run concurrently and every machine's NIC is
//!   half-duplex-shared by its incoming and outgoing copies. A batch
//!   therefore lasts as long as its most loaded NIC needs: `(bytes_in +
//!   bytes_out) / bandwidth`. This converts the planner's batch counts into
//!   the seconds an operator actually waits — the unit the paper's
//!   datacenter audience budgets in. The runtime's tick durations are these
//!   seconds rounded up (`rex_runtime::batch_durations`).
//! * [`latency_profile`] — serving quality. A machine copying shards bears
//!   its transient footprint ([`batch_footprint`]), and a loaded server
//!   answers slower: relative latency `1/(1 − ρ)` clamped at
//!   [`DEFAULT_RHO_MAX`] ([`latency_factor`]). A query fans out to all
//!   shards, so per-query latency is the **max** over occupied machines —
//!   the straggler sets the response time, which is exactly why peak load
//!   is the objective the paper minimizes.

use super::{batch_footprint, MigrationPlan};
use crate::instance::Instance;
use crate::resources::ResourceVec;
use crate::service::{latency_factor, DEFAULT_RHO_MAX};
use rex_obs::Histogram;

/// Timeline parameters.
#[derive(Clone, Copy, Debug)]
pub struct TimelineConfig {
    /// NIC bandwidth per machine, in move-cost units per second.
    pub machine_bandwidth: f64,
    /// Fixed per-batch coordination overhead in seconds (barrier, index
    /// swap, cache warm-up hand-off).
    pub batch_overhead_secs: f64,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        Self {
            machine_bandwidth: 1.0,
            batch_overhead_secs: 0.0,
        }
    }
}

/// Computed schedule timing.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// Duration of each batch in seconds.
    pub batch_secs: Vec<f64>,
    /// Total schedule duration.
    pub makespan_secs: f64,
    /// Duration if every move ran alone, serially (the naive operator
    /// playbook: one move, one coordination round, repeat) — the
    /// parallelism headroom the batched schedule exploits.
    pub serial_secs: f64,
}

/// Times a migration plan.
///
/// # Panics
/// If `machine_bandwidth` is not positive.
pub fn time_plan(inst: &Instance, plan: &MigrationPlan, cfg: &TimelineConfig) -> Timeline {
    assert!(cfg.machine_bandwidth > 0.0, "bandwidth must be positive");
    let mut batch_secs = Vec::with_capacity(plan.batches.len());
    let mut serial = 0.0;
    let mut nic = vec![0.0f64; inst.n_machines()];
    for batch in &plan.batches {
        nic.fill(0.0);
        for mv in batch {
            let bytes = inst.shards[mv.shard.idx()].move_cost;
            nic[mv.from.idx()] += bytes;
            nic[mv.to.idx()] += bytes;
            serial += bytes / cfg.machine_bandwidth + cfg.batch_overhead_secs;
        }
        let busiest = nic.iter().copied().fold(0.0f64, f64::max);
        batch_secs.push(busiest / cfg.machine_bandwidth + cfg.batch_overhead_secs);
    }
    let makespan_secs = batch_secs.iter().sum();
    Timeline {
        batch_secs,
        makespan_secs,
        serial_secs: serial,
    }
}

/// Latency profile of a migration.
#[derive(Clone, Debug)]
pub struct QosReport {
    /// Relative fan-out latency before the migration starts.
    pub before: f64,
    /// Relative fan-out latency per batch (while that batch's copies are
    /// in flight).
    pub per_batch: Vec<f64>,
    /// Worst latency observed during the migration.
    pub worst_during: f64,
    /// Relative fan-out latency after the migration completes.
    pub after: f64,
    /// Median latency over the migration timeline (the per-batch samples'
    /// [`Histogram`] percentile; equals `before` for empty plans).
    pub p50: f64,
    /// 95th percentile of the timeline.
    pub p95: f64,
    /// 99th percentile of the timeline.
    pub p99: f64,
}

impl QosReport {
    /// How much worse the worst in-flight moment is than steady state
    /// before the migration (1.0 = no degradation).
    pub fn degradation(&self) -> f64 {
        if self.before > 0.0 {
            self.worst_during / self.before
        } else {
            1.0
        }
    }
}

/// Straggler latency of a usage state: `max_m 1/(1 − min(load_m, ρ_max))`.
/// A vacant machine serves nothing; its factor is exactly the 1.0 floor,
/// so it never sets the max.
fn fanout_latency(inst: &Instance, usage: &[ResourceVec]) -> f64 {
    usage.iter().zip(&inst.machines).fold(1.0, |worst, (u, m)| {
        worst.max(latency_factor(u.max_ratio(&m.capacity), DEFAULT_RHO_MAX))
    })
}

/// Replays `plan` from the instance's initial placement and reports the
/// latency profile. The plan must be consistent (same contract as
/// [`super::verify_schedule`] — verify first; this function only models
/// latency and assumes moves are applicable).
///
/// Each batch is one sample of the timeline (batches are the executor's
/// time steps), and `p50`/`p95`/`p99` are its [`Histogram`] percentiles
/// (nearest rank, to the bucket's 2 %). An empty plan has a one-point
/// timeline at the steady-state latency `before`, so all three collapse to
/// it.
pub fn latency_profile(inst: &Instance, plan: &MigrationPlan) -> QosReport {
    let mut usage: Vec<ResourceVec> = vec![ResourceVec::zero(inst.dims); inst.n_machines()];
    for (i, &m) in inst.initial.iter().enumerate() {
        usage[m.idx()] += &inst.shards[i].demand;
    }
    let before = fanout_latency(inst, &usage);

    let mut per_batch = Vec::with_capacity(plan.batches.len());
    for batch in &plan.batches {
        // Transient state: sources keep their shards and add copy
        // overhead; targets host the arriving replicas plus overhead.
        let mut transient = usage.clone();
        batch_footprint(inst, batch, &mut transient);
        per_batch.push(fanout_latency(inst, &transient));
        // Commit.
        for mv in batch {
            let d = inst.shards[mv.shard.idx()].demand;
            usage[mv.from.idx()].saturating_sub_assign(&d);
            usage[mv.to.idx()] += &d;
        }
    }
    let after = fanout_latency(inst, &usage);
    let worst_during = per_batch.iter().copied().fold(before, f64::max);
    let (p50, p95, p99) = if per_batch.is_empty() {
        (before, before, before)
    } else {
        let mut h = Histogram::default();
        for &l in &per_batch {
            h.record(l);
        }
        (h.percentile(50.0), h.percentile(95.0), h.percentile(99.0))
    };
    QosReport {
        before,
        per_batch,
        worst_during,
        after,
        p50,
        p95,
        p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::machine::MachineId;
    use crate::migration::Move;
    use crate::shard::ShardId;

    fn inst() -> Instance {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _m2 = b.machine(&[10.0]);
        b.shard(&[1.0], 4.0, m0); // 4 bytes
        b.shard(&[1.0], 2.0, m0); // 2 bytes
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
    fn single_move_duration() {
        let inst = inst();
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1)]],
        };
        let tl = time_plan(
            &inst,
            &plan,
            &TimelineConfig {
                machine_bandwidth: 2.0,
                ..Default::default()
            },
        );
        assert_eq!(tl.batch_secs, vec![2.0]); // 4 bytes at 2 B/s
        assert_eq!(tl.makespan_secs, 2.0);
        assert_eq!(tl.serial_secs, 2.0); // zero overhead configured
    }

    #[test]
    fn concurrent_moves_share_the_source_nic() {
        let inst = inst();
        // Both shards leave m0 in one batch: m0's NIC carries 6 bytes.
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1), mv(1, 0, 2)]],
        };
        let tl = time_plan(&inst, &plan, &TimelineConfig::default());
        assert_eq!(tl.makespan_secs, 6.0);
        // Serial execution would also take 6.0 here (same NIC bottleneck).
        assert_eq!(tl.serial_secs, 6.0);
    }

    #[test]
    fn disjoint_moves_overlap() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let _m2 = b.machine(&[10.0]);
        let _m3 = b.machine(&[10.0]);
        b.shard(&[1.0], 4.0, m0);
        b.shard(&[1.0], 3.0, m1);
        let inst = b.build().unwrap();
        // m0→m2 and m1→m3 touch disjoint NICs: batch = max(4, 3) = 4.
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 2), mv(1, 1, 3)]],
        };
        let tl = time_plan(&inst, &plan, &TimelineConfig::default());
        assert_eq!(tl.makespan_secs, 4.0);
        assert_eq!(tl.serial_secs, 7.0);
        assert!(tl.makespan_secs < tl.serial_secs);
    }

    #[test]
    fn batch_overhead_accumulates() {
        let inst = inst();
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1)], vec![mv(1, 0, 2)]],
        };
        let cfg = TimelineConfig {
            machine_bandwidth: 1.0,
            batch_overhead_secs: 0.5,
        };
        let tl = time_plan(&inst, &plan, &cfg);
        assert_eq!(tl.batch_secs, vec![4.5, 2.5]);
        assert_eq!(tl.makespan_secs, 7.0);
        // Serial pays the overhead per move: 4 + 2 + 2×0.5.
        assert_eq!(tl.serial_secs, 7.0);
    }

    #[test]
    fn empty_plan_is_instant() {
        let inst = inst();
        let tl = time_plan(&inst, &MigrationPlan::default(), &TimelineConfig::default());
        assert_eq!(tl.makespan_secs, 0.0);
        assert!(tl.batch_secs.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        let inst = inst();
        let cfg = TimelineConfig {
            machine_bandwidth: 0.0,
            ..Default::default()
        };
        let _ = time_plan(&inst, &MigrationPlan::default(), &cfg);
    }

    /// Two 10-unit machines; shards of 8 and 2 units both on machine 0.
    fn hot_pair(alpha: f64) -> Instance {
        let mut b = InstanceBuilder::new(1).alpha(alpha);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[8.0], 1.0, m0);
        b.shard(&[2.0], 1.0, m0);
        b.build().unwrap()
    }

    #[test]
    fn balancing_lowers_steady_state_latency() {
        let inst = hot_pair(0.0);
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1)]],
        };
        let q = latency_profile(&inst, &plan);
        // Before: straggler at 1.0 load → clamped: 1/(1-0.98) = 50.
        assert!(q.before > 10.0);
        // After: loads 0.2 and 0.8 → straggler 1/(1-0.8) = 5.
        assert!((q.after - 5.0).abs() < 1e-9);
        assert!(q.after < q.before);
    }

    #[test]
    fn transient_latency_is_worst() {
        // Moving the 2-shard onto m1 while m0 still carries everything:
        // during the batch m1 bears 2·(1+α) and m0 keeps 10 → straggler
        // stays the clamped source, and degradation ≥ 1.
        let inst = hot_pair(0.2);
        let plan = MigrationPlan {
            batches: vec![vec![mv(1, 0, 1)]],
        };
        let q = latency_profile(&inst, &plan);
        assert!(q.worst_during >= q.before);
        assert!(q.degradation() >= 1.0);
        assert_eq!(q.per_batch.len(), 1);
    }

    #[test]
    fn percentiles_ignore_before_unless_the_plan_is_empty() {
        // Machine 0 at 0.8 (latency 5; the vacant m1 and m2 do not count);
        // the 6-shard leaves first, then the 2-shard parks on m2 and comes
        // home: per-batch [5, 2.5, 2.5].
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _m2 = b.machine(&[10.0]);
        b.shard(&[6.0], 1.0, m0);
        b.shard(&[2.0], 1.0, m0);
        let inst = b.build().unwrap();
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1)], vec![mv(1, 0, 2)], vec![mv(1, 2, 0)]],
        };
        let q = latency_profile(&inst, &plan);
        assert!((q.before - 5.0).abs() < 1e-9);
        assert_eq!(q.per_batch[0], q.before);
        assert!(q.per_batch[1..].iter().all(|&l| (l - 2.5).abs() < 1e-9));
        // Non-empty: the batches alone are the samples, so the median falls
        // below the steady state it started from.
        assert!(q.p50 < q.before);
        assert!((q.p50 / 2.5 - 1.0).abs() <= 0.02, "within one bucket");
        // Empty: a one-point timeline at the steady-state latency.
        let q = latency_profile(&inst, &MigrationPlan::default());
        assert_eq!((q.p50, q.p95, q.p99), (q.before, q.before, q.before));
    }

    #[test]
    fn bigger_batches_hurt_more_transiently() {
        // Two shards of 2.0 each on m0 (cap 10) plus filler; moving both at
        // once loads the target more than one at a time.
        let mut b = InstanceBuilder::new(1).alpha(0.5);
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        b.shard(&[2.0], 1.0, m0);
        b.shard(&[2.0], 1.0, m0);
        b.shard(&[4.0], 1.0, m1); // target pre-load
        let inst = b.build().unwrap();
        let together = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1), mv(1, 0, 1)]],
        };
        let apart = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1)], vec![mv(1, 0, 1)]],
        };
        let qt = latency_profile(&inst, &together);
        let qa = latency_profile(&inst, &apart);
        assert!(
            qt.worst_during > qa.worst_during,
            "together {} vs apart {}",
            qt.worst_during,
            qa.worst_during
        );
        assert!((qt.after - qa.after).abs() < 1e-9, "same destination state");
    }
}
