//! Balance and migration metrics, as reported in the paper-style tables.

use crate::assignment::Assignment;
use crate::instance::Instance;
use crate::migration::MigrationPlan;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Summary statistics of a cluster's load distribution.
///
/// Loads are peak normalized utilizations per machine (see
/// [`Assignment::machine_load`]). Machines that are vacant *and* exceed the
/// return quota still count — a vacant machine kept in service is wasted
/// capacity and should show up in the imbalance numbers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BalanceReport {
    /// Highest machine load (the primary objective).
    pub peak: f64,
    /// Lowest machine load.
    pub min: f64,
    /// Mean machine load.
    pub mean: f64,
    /// Population standard deviation of machine loads.
    pub stddev: f64,
    /// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 = perfectly balanced.
    pub jain: f64,
    /// Peak-to-mean ratio, the "imbalance factor" (1.0 = perfect).
    pub imbalance: f64,
    /// Number of machines included.
    pub n_machines: usize,
}

impl BalanceReport {
    /// Computes the report over all machines of the instance.
    pub fn compute(inst: &Instance, asg: &Assignment) -> Self {
        Self::from_loads(&asg.loads(inst))
    }

    /// Computes the report from a precomputed load vector, in one chunked
    /// [`crate::kernels`] pass.
    pub fn from_loads(loads: &[f64]) -> Self {
        assert!(!loads.is_empty(), "cannot summarize zero machines");
        let n = loads.len() as f64;
        let s = crate::kernels::scan(loads);
        let (sum, sumsq) = (s.sum, s.sumsq);
        let mean = sum / n;
        let var = (sumsq / n - mean * mean).max(0.0);
        let (peak, min) = (s.peak, s.min);
        let jain = if sumsq > 0.0 {
            sum * sum / (n * sumsq)
        } else {
            1.0
        };
        let imbalance = if mean > 0.0 { peak / mean } else { 1.0 };
        Self {
            peak,
            min,
            mean,
            stddev: var.sqrt(),
            jain,
            imbalance,
            n_machines: loads.len(),
        }
    }

    /// Relative improvement of `self` over `other` in peak load
    /// (positive = `self` is better/lower).
    pub fn peak_improvement_over(&self, other: &BalanceReport) -> f64 {
        if other.peak > 0.0 {
            (other.peak - self.peak) / other.peak
        } else {
            0.0
        }
    }
}

impl fmt::Display for BalanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peak={:.4} mean={:.4} std={:.4} jain={:.4} imb={:.3} (n={})",
            self.peak, self.mean, self.stddev, self.jain, self.imbalance, self.n_machines
        )
    }
}

/// Cost summary of executing a migration plan.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MigrationStats {
    /// Shards moved at least once.
    pub shards_moved: usize,
    /// Total individual moves (staging hops included).
    pub total_moves: usize,
    /// Moves beyond one per relocated shard (staging overhead).
    pub extra_hops: usize,
    /// Total migration traffic in `move_cost` units.
    pub traffic: f64,
    /// Number of batches (makespan proxy).
    pub batches: usize,
}

impl MigrationStats {
    /// Summarizes a plan against the instance.
    pub fn compute(inst: &Instance, plan: &MigrationPlan) -> Self {
        use std::collections::HashSet;
        let moved: HashSet<_> = plan.moves().map(|m| m.shard).collect();
        Self {
            shards_moved: moved.len(),
            total_moves: plan.n_moves(),
            extra_hops: plan.extra_hops(),
            traffic: plan.total_cost(inst),
            batches: plan.n_batches(),
        }
    }
}

impl fmt::Display for MigrationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "moved={} moves={} hops+{} traffic={:.1} batches={}",
            self.shards_moved, self.total_moves, self.extra_hops, self.traffic, self.batches
        )
    }
}

/// Nearest-rank `(p50, p95, p99)` of latency samples in any order; all
/// zero for an empty slice.
///
/// Nearest-rank means `samples_sorted[ceil(p/100 · n) − 1]` with the rank
/// clamped to at least 1 — every returned value is an actual sample, never
/// an interpolation, and `p50 ≤ p95 ≤ p99 ≤ max` always holds.
///
/// # Panics
/// If a sample is NaN.
pub fn nearest_rank_percentiles(samples: &[f64]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut samples = samples.to_vec();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pick = |p: f64| {
        let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
        samples[rank - 1]
    };
    (pick(50.0), pick(95.0), pick(99.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::machine::MachineId;
    use crate::migration::Move;
    use crate::shard::ShardId;

    #[test]
    fn perfectly_balanced_loads() {
        let r = BalanceReport::from_loads(&[0.5, 0.5, 0.5]);
        assert_eq!(r.peak, 0.5);
        assert_eq!(r.min, 0.5);
        assert!((r.mean - 0.5).abs() < 1e-12);
        assert!(r.stddev < 1e-12);
        assert!((r.jain - 1.0).abs() < 1e-12);
        assert!((r.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_loads() {
        let r = BalanceReport::from_loads(&[1.0, 0.0]);
        assert_eq!(r.peak, 1.0);
        assert_eq!(r.min, 0.0);
        assert!((r.mean - 0.5).abs() < 1e-12);
        assert!((r.jain - 0.5).abs() < 1e-12);
        assert!((r.imbalance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn all_idle_cluster() {
        let r = BalanceReport::from_loads(&[0.0, 0.0]);
        assert!((r.jain - 1.0).abs() < 1e-12);
        assert!((r.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_loads_panic() {
        BalanceReport::from_loads(&[]);
    }

    #[test]
    fn improvement_sign() {
        let good = BalanceReport::from_loads(&[0.5, 0.5]);
        let bad = BalanceReport::from_loads(&[1.0, 0.0]);
        assert!(good.peak_improvement_over(&bad) > 0.0);
        assert!(bad.peak_improvement_over(&good) < 0.0);
    }

    #[test]
    fn compute_matches_assignment_loads() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        b.shard(&[8.0], 1.0, m0);
        let inst = b.build().unwrap();
        let asg = crate::assignment::Assignment::from_initial(&inst);
        let r = BalanceReport::compute(&inst, &asg);
        assert!((r.peak - 0.8).abs() < 1e-12);
        assert!((r.mean - 0.4).abs() < 1e-12);
    }

    #[test]
    fn migration_stats_counts() {
        let mut b = InstanceBuilder::new(1);
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _m2 = b.machine(&[10.0]);
        b.shard(&[1.0], 2.5, m0);
        b.shard(&[1.0], 1.5, m0);
        let inst = b.build().unwrap();
        let plan = MigrationPlan {
            batches: vec![
                vec![Move {
                    shard: ShardId(0),
                    from: MachineId(0),
                    to: MachineId(2),
                }],
                vec![Move {
                    shard: ShardId(1),
                    from: MachineId(0),
                    to: MachineId(1),
                }],
                vec![Move {
                    shard: ShardId(0),
                    from: MachineId(2),
                    to: MachineId(1),
                }],
            ],
        };
        let s = MigrationStats::compute(&inst, &plan);
        assert_eq!(s.shards_moved, 2);
        assert_eq!(s.total_moves, 3);
        assert_eq!(s.extra_hops, 1);
        assert!((s.traffic - (2.5 + 1.5 + 2.5)).abs() < 1e-12);
        assert_eq!(s.batches, 3);
    }

    // `nearest_rank_percentiles` serves the query-level router
    // (`rex-router`), which feeds it *event-level* latency samples — one
    // per completed query, in completion order, values nowhere near
    // tick-aligned and frequently duplicated (many queries finish with the
    // same service time). The tests below pin the function's behavior on
    // exactly those stream shapes, independent of any migration plan.

    #[test]
    fn percentiles_of_a_single_event_stream_collapse_to_it() {
        // One completed query: every percentile IS that sample.
        let (p50, p95, p99) = nearest_rank_percentiles(&[137.25]);
        assert_eq!((p50, p95, p99), (137.25, 137.25, 137.25));
        // No completed query: all zero, like the router's mean and max.
        assert_eq!(nearest_rank_percentiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn percentiles_of_duplicate_heavy_streams_stay_exact() {
        // Duplicate completion latencies — e.g. idle-server queries all
        // finishing in exactly the base service time — must not confuse
        // the rank arithmetic: ranks fall *inside* the duplicate run and
        // return the duplicated value.
        let mut s = vec![400.0; 97];
        s.extend_from_slice(&[812.5, 1203.0, 9001.0]); // 3 stragglers
        let (p50, p95, p99) = nearest_rank_percentiles(&s);
        assert_eq!(p50, 400.0);
        assert_eq!(p95, 400.0); // rank 95 of 100 is still in the run
        assert_eq!(p99, 1203.0); // rank 99: second straggler
        let (p50, _, p99) = nearest_rank_percentiles(&[7.5; 64]); // all duplicates
        assert_eq!((p50, p99), (7.5, 7.5));
    }

    #[test]
    fn percentiles_of_unaligned_event_streams_are_order_free() {
        // Non-tick-aligned micro-latency samples in completion order (the
        // router pushes them as queries finish, not sorted): the result
        // must match the same multiset sorted, and every returned value
        // must be an actual sample (nearest-rank never interpolates).
        let stream = [
            1000.7, 402.3, 401.9, 403.1, 17234.6, 402.3, 980.0, 402.3, 55.1, 402.4,
        ];
        let mut sorted = stream.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (p50, p95, p99) = nearest_rank_percentiles(&stream);
        assert_eq!((p50, p95, p99), nearest_rank_percentiles(&sorted));
        for v in [p50, p95, p99] {
            assert!(stream.contains(&v), "{v} is not a sample");
        }
        assert!(p50 <= p95 && p95 <= p99);
        // 10 samples: rank(50) = 5 → 5th smallest; rank(95|99) = 10 → max.
        assert_eq!(p50, sorted[4]);
        assert_eq!(p95, sorted[9]);
        assert_eq!(p99, sorted[9]);
    }

    #[test]
    fn nearest_rank_boundaries_at_round_counts() {
        // n = 100 puts every rank exactly on a sample index: pXX is the
        // XX-th smallest, with no off-by-one in the ceil.
        let stream: Vec<f64> = (1..=100).rev().map(|i| i as f64 + 0.5).collect();
        let (p50, p95, p99) = nearest_rank_percentiles(&stream);
        assert_eq!((p50, p95, p99), (50.5, 95.5, 99.5));
        // n = 101 tips each rank over to the next sample.
        let stream: Vec<f64> = (1..=101).rev().map(|i| i as f64).collect();
        let (p50, p95, p99) = nearest_rank_percentiles(&stream);
        assert_eq!((p50, p95, p99), (51.0, 96.0, 100.0));
    }

    #[test]
    fn display_formats() {
        let r = BalanceReport::from_loads(&[0.25, 0.75]);
        let s = format!("{r}");
        assert!(s.contains("peak=0.75"));
    }
}
