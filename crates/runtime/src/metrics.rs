//! The metrics bus: counters, gauges, and the latency summary.
//!
//! Everything here serializes to JSON through fixed-order struct fields and
//! `Vec`s — no hash maps anywhere — so two runs with the same seed produce
//! **byte-identical** exports. That is a hard contract (tested), because the
//! experiment harness diffs metric files across runs.
//!
//! Latency samples go into the arrival plane's [`Histogram`] (the
//! workspace's one percentile type, in rex-obs); the export carries its
//! [`LatencySummary`].

use rex_cluster::BalanceReport;
use rex_obs::Histogram;
use serde::Serialize;

/// Percentile summary of a latency histogram.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median (bucket-resolution).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

impl LatencySummary {
    /// Table-ready summary of `h`.
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }
}

/// Monotonic event counters.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Counters {
    /// Queries that arrived (exact, not sampled).
    pub queries_arrived: u64,
    /// Queries whose latency was sampled into the histogram.
    pub queries_sampled: u64,
    /// Queries that arrived while a failed machine still hosted shards.
    pub queries_degraded: u64,
    /// Load-driven rebalances the controller triggered.
    pub rebalances_triggered: u64,
    /// Load-driven rebalances that ran to completion.
    pub rebalances_completed: u64,
    /// Plans aborted mid-flight (crash forced replanning).
    pub rebalances_aborted: u64,
    /// Planning attempts that produced no executable plan.
    pub plans_failed: u64,
    /// Mandatory evacuations of failed machines.
    pub evacuations: u64,
    /// Migration batches executed.
    pub batches_executed: u64,
    /// Individual shard moves committed (staging hops included).
    pub moves_committed: u64,
    /// Migration traffic committed, in move-cost units.
    pub migration_traffic: f64,
    /// Transient-constraint violations observed by the executor's
    /// independent per-batch check (must stay 0).
    pub transient_violations: u64,
    /// Machine crashes.
    pub crashes: u64,
    /// Machine recoveries.
    pub recoveries: u64,
    /// Flash crowds started.
    pub spikes_started: u64,
    /// Flash crowds ended.
    pub spikes_ended: u64,
    /// Demand-drift epochs applied.
    pub drift_epochs: u64,
    /// Popularity-drift epochs applied (the workload plane's load script).
    pub popularity_epochs: u64,
    /// Hot shards split by the hot-shard control plane.
    pub shard_splits: u64,
    /// Cold sibling pairs merged back by the hot-shard control plane.
    pub shard_merges: u64,
    /// Delta migrations the hot-shard control plane ran to completion.
    pub hotshard_migrations: u64,
    /// Hot-shard operators that expired in the pending queue.
    pub hotshard_expired: u64,
    /// Hot-shard operators cancelled by a machine crash.
    pub hotshard_cancelled: u64,
}

/// One gauge sample.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GaugeSample {
    /// Sample tick.
    pub tick: u64,
    /// Steady peak utilization (no diurnal multiplier, no transient).
    pub peak_util: f64,
    /// Steady mean utilization over occupied machines.
    pub mean_util: f64,
    /// Steady imbalance (peak / mean over occupied machines).
    pub imbalance: f64,
    /// Peak effective ρ (diurnal + spikes + in-flight copy overhead).
    pub effective_peak_rho: f64,
    /// Moves still pending in the in-flight plan.
    pub in_flight_moves: usize,
    /// Machines currently failed.
    pub failed_machines: usize,
    /// Total shards in the instance (changes when hot-shard splits/merges
    /// run; constant otherwise).
    pub shards: usize,
}

/// Run identification echoed into the export.
#[derive(Clone, Debug, Serialize)]
pub struct RunMeta {
    /// Instance label.
    pub instance: String,
    /// Controller policy name.
    pub policy: String,
    /// Master seed.
    pub seed: u64,
    /// Simulated ticks.
    pub ticks: u64,
}

/// The full metrics export of one run.
#[derive(Clone, Debug, Serialize)]
pub struct MetricsExport {
    /// Run identification.
    pub meta: RunMeta,
    /// Event counters.
    pub counters: Counters,
    /// Query fan-out latency percentiles.
    pub latency: LatencySummary,
    /// Balance report of the initial placement.
    pub initial_report: BalanceReport,
    /// Balance report of the final placement.
    pub final_report: BalanceReport,
    /// Gauge time series.
    pub gauges: Vec<GaugeSample>,
}

impl MetricsExport {
    /// Deterministic JSON rendering (fixed field order, `float_roundtrip`
    /// formatting): byte-identical across same-seed runs.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics serialize")
    }

    /// Mean `peak_util` over the last third of gauge samples — the
    /// steady-state balance once the controller has had time to act.
    pub fn steady_state_peak(&self) -> f64 {
        let n = self.gauges.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.gauges[n - n / 3 - 1..];
        tail.iter().map(|g| g.peak_util).sum::<f64>() / tail.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_peak_uses_tail() {
        let gauges = (0..9)
            .map(|i| GaugeSample {
                tick: i,
                peak_util: if i < 6 { 1.0 } else { 0.5 },
                mean_util: 0.5,
                imbalance: 1.0,
                effective_peak_rho: 0.5,
                in_flight_moves: 0,
                failed_machines: 0,
                shards: 1,
            })
            .collect();
        let e = MetricsExport {
            meta: RunMeta {
                instance: "t".into(),
                policy: "off".into(),
                seed: 0,
                ticks: 9,
            },
            counters: Counters::default(),
            latency: LatencySummary::of(&Histogram::default()),
            initial_report: BalanceReport::from_loads(&[0.5]),
            final_report: BalanceReport::from_loads(&[0.5]),
            gauges,
        };
        // Last third (plus one) of 9 samples: ticks 5..9 → (1+0.5·3)/4.
        assert!((e.steady_state_peak() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn export_json_is_deterministic() {
        let mk = || {
            let mut h = Histogram::default();
            h.record(2.0);
            h.record(3.5);
            MetricsExport {
                meta: RunMeta {
                    instance: "x".into(),
                    policy: "sra".into(),
                    seed: 7,
                    ticks: 100,
                },
                counters: Counters {
                    queries_arrived: 10,
                    migration_traffic: 1.5,
                    ..Default::default()
                },
                latency: LatencySummary::of(&h),
                initial_report: BalanceReport::from_loads(&[0.9, 0.1]),
                final_report: BalanceReport::from_loads(&[0.5, 0.5]),
                gauges: vec![GaugeSample {
                    tick: 0,
                    peak_util: 0.9,
                    mean_util: 0.5,
                    imbalance: 1.8,
                    effective_peak_rho: 0.95,
                    in_flight_moves: 0,
                    failed_machines: 0,
                    shards: 2,
                }],
            }
        };
        assert_eq!(mk().to_json(), mk().to_json());
    }
}
