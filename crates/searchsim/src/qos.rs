//! Serving quality **during** a migration.
//!
//! Rebalancing is not free while it runs: a machine copying shards bears
//! its transient load, and a loaded server answers queries slower. This
//! module replays a migration schedule batch by batch and tracks a
//! queueing-style latency proxy per machine, so schedules can be compared
//! by what users experience, not just by how the fleet ends up.
//!
//! The latency model is the standard single-server heuristic: relative
//! latency `1 / (1 − ρ)` at utilization `ρ` (clamped at `ρ_max` to keep
//! saturated transients finite). A query fans out to all shards, so
//! per-query latency is the **max** over machines hosting any shard — the
//! straggler machine sets the response time, which is exactly why peak
//! load is the objective the paper minimizes.

use rex_cluster::metrics::nearest_rank_percentiles;
use rex_cluster::{Instance, MigrationPlan, ResourceVec};
use serde::Serialize;

/// QoS model parameters.
#[derive(Clone, Copy, Debug)]
pub struct QosConfig {
    /// Utilization clamp: loads are capped here before `1/(1−ρ)` so
    /// transiently saturated machines yield a large-but-finite latency.
    pub rho_max: f64,
}

impl Default for QosConfig {
    fn default() -> Self {
        Self { rho_max: 0.98 }
    }
}

/// Latency profile of a migration.
#[derive(Clone, Debug, Serialize)]
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
    /// Median latency over the migration timeline (nearest-rank over the
    /// per-batch samples; equals `before` for empty plans).
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

/// Straggler latency of a usage state: `max_m 1/(1 − min(load_m, ρ_max))`
/// over occupied machines.
fn fanout_latency(inst: &Instance, usage: &[ResourceVec], cfg: &QosConfig) -> f64 {
    let mut worst: f64 = 1.0;
    for (m, u) in usage.iter().enumerate() {
        if u.is_zero() {
            continue; // vacant machines serve nothing
        }
        let rho = u.max_ratio(&inst.machines[m].capacity).min(cfg.rho_max);
        worst = worst.max(1.0 / (1.0 - rho));
    }
    worst
}

/// Replays `plan` from the instance's initial placement and reports the
/// latency profile. The plan must be consistent (same contract as
/// [`rex_cluster::verify_schedule`] — verify first; this function only
/// models timing and assumes moves are applicable).
pub fn qos_of_plan(inst: &Instance, plan: &MigrationPlan, cfg: &QosConfig) -> QosReport {
    let alpha = inst.alpha;
    let mut usage: Vec<ResourceVec> = vec![ResourceVec::zero(inst.dims); inst.n_machines()];
    for (i, &m) in inst.initial.iter().enumerate() {
        usage[m.idx()] += &inst.shards[i].demand;
    }
    let before = fanout_latency(inst, &usage, cfg);

    let mut per_batch = Vec::with_capacity(plan.batches.len());
    for batch in &plan.batches {
        // Transient state: sources keep their shards and add copy
        // overhead; targets host the arriving replicas plus overhead.
        let mut transient = usage.clone();
        for mv in batch {
            let d = &inst.shards[mv.shard.idx()].demand;
            transient[mv.to.idx()] += &d.scaled(1.0 + alpha);
            transient[mv.from.idx()] += &d.scaled(alpha);
        }
        per_batch.push(fanout_latency(inst, &transient, cfg));
        // Commit.
        for mv in batch {
            let d = inst.shards[mv.shard.idx()].demand;
            usage[mv.from.idx()].saturating_sub_assign(&d);
            usage[mv.to.idx()] += &d;
        }
    }
    let after = fanout_latency(inst, &usage, cfg);
    let worst_during = per_batch.iter().cloned().fold(before, f64::max);
    let (p50, p95, p99) = timeline_percentiles(&per_batch, before);
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

/// Nearest-rank `(p50, p95, p99)` percentiles of the migration timeline
/// ([`nearest_rank_percentiles`]). Each batch is one sample (batches are
/// the executor's time steps); an empty plan has a one-point timeline at
/// the steady-state latency `before`, so all three percentiles collapse to
/// it. Public so the property-test suite can exercise the boundary cases
/// directly.
pub fn timeline_percentiles(per_batch: &[f64], before: f64) -> (f64, f64, f64) {
    if per_batch.is_empty() {
        (before, before, before)
    } else {
        nearest_rank_percentiles(per_batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::{InstanceBuilder, MachineId, Move, ShardId};

    fn inst(alpha: f64) -> Instance {
        let mut b = InstanceBuilder::new(1).alpha(alpha);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[8.0], 1.0, m0);
        b.shard(&[2.0], 1.0, m0);
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
    fn balancing_lowers_steady_state_latency() {
        let inst = inst(0.0);
        let plan = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1)]],
        };
        let q = qos_of_plan(&inst, &plan, &QosConfig::default());
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
        let inst = inst(0.2);
        let plan = MigrationPlan {
            batches: vec![vec![mv(1, 0, 1)]],
        };
        let q = qos_of_plan(&inst, &plan, &QosConfig::default());
        assert!(q.worst_during >= q.before);
        assert!(q.degradation() >= 1.0);
        assert_eq!(q.per_batch.len(), 1);
    }

    #[test]
    fn vacant_machines_do_not_set_latency() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]); // stays vacant
        b.shard(&[5.0], 1.0, m0);
        let inst = b.build().unwrap();
        let q = qos_of_plan(&inst, &MigrationPlan::default(), &QosConfig::default());
        assert!((q.before - 2.0).abs() < 1e-9); // 1/(1-0.5)
        assert_eq!(q.before, q.after);
        assert!(q.per_batch.is_empty());
        // Empty timeline: every percentile is the steady-state latency.
        assert_eq!(q.p50, q.before);
        assert_eq!(q.p99, q.before);
    }

    #[test]
    fn timeline_percentiles_are_ordered_and_nearest_rank() {
        // A long staged plan: shuffle one small shard back and forth so the
        // timeline has many batches with two distinct latency levels.
        let mut b = InstanceBuilder::new(1).alpha(0.0);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[2.0], 1.0, m0);
        b.shard(&[6.0], 1.0, m0);
        let inst = b.build().unwrap();
        // 10 batches ping-ponging shard 0; machine 0 keeps shard 1 (load
        // 0.6 → latency 2.5 when shard 0 is away, higher when present).
        let mut batches = Vec::new();
        for i in 0..10u32 {
            let (f, t) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
            batches.push(vec![mv(0, f, t)]);
        }
        let q = qos_of_plan(&inst, &MigrationPlan { batches }, &QosConfig::default());
        assert_eq!(q.per_batch.len(), 10);
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99);
        assert!(q.p99 <= q.worst_during);
        // Nearest-rank: p99 of 10 samples is the max sample.
        let max_batch = q.per_batch.iter().cloned().fold(0.0, f64::max);
        assert_eq!(q.p99, max_batch);
        // p50 of 10 samples is the 5th smallest.
        let mut sorted = q.per_batch.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(q.p50, sorted[4]);
    }

    #[test]
    fn bigger_batches_hurt_more_transiently() {
        // Two shards of 2.0 each on m0 (cap 10) plus filler; moving both at
        // once loads the target NIC-equivalent more than one at a time.
        let mut b = InstanceBuilder::new(1).alpha(0.5);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[2.0], 1.0, m0);
        b.shard(&[2.0], 1.0, m0);
        b.shard(&[4.0], 1.0, MachineId(1)); // target pre-load
        let inst = b.build().unwrap();
        let together = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1), mv(1, 0, 1)]],
        };
        let apart = MigrationPlan {
            batches: vec![vec![mv(0, 0, 1)], vec![mv(1, 0, 1)]],
        };
        let qt = qos_of_plan(&inst, &together, &QosConfig::default());
        let qa = qos_of_plan(&inst, &apart, &QosConfig::default());
        assert!(
            qt.worst_during > qa.worst_during,
            "together {} vs apart {}",
            qt.worst_during,
            qa.worst_during
        );
        assert!((qt.after - qa.after).abs() < 1e-9, "same destination state");
    }
}
