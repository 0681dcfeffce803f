//! Engine-neutral scenario and workload descriptions.
//!
//! A [`ScenarioSpec`] pins down one cluster experiment — arrival rate,
//! fan-out, service time, and the fault script — in units both simulation
//! engines can lower losslessly:
//!
//! * `rex-runtime` lowers it to a [`RuntimeConfig`] where one simulator
//!   tick spans `tick_us` microseconds and sees `qps_per_tick` queries,
//! * `rex-router` lowers it to a [`RouterConfig`] with
//!   `horizon_us = ticks · tick_us` and `qps = qps_per_tick · 10⁶ / tick_us`.
//!
//! Fault timing is expressed in ticks and multiplies out to microseconds
//! exactly, so both engines flip the same spike/crash at the same instant.
//! The differential harness (`tests/differential_engines.rs`, E16) runs
//! one spec through both engines and asserts the utilization and latency
//! curves agree.
//!
//! A [`WorkloadSpec`] composes a scenario with the cluster-shape planes
//! the scenario alone cannot express (DESIGN.md §16):
//!
//! * a **fleet table** ([`FleetSpec`]) — machine generations with 2–4×
//!   capacity spread plus a rack topology,
//! * **rack-scoped crash clauses** ([`RackCrashSpec`]) — correlated
//!   failures that expand to one [`CrashSpec`] per rack member,
//! * a **load script** ([`LoadScriptSpec`]) — diurnal base load times a
//!   drifting Zipfian shard-popularity walk.
//!
//! Every plane is optional: a workload with all of them absent is the
//! *degenerate case* and lowers to exactly the same engine configs as its
//! embedded scenario, byte for byte.
//!
//! [`RuntimeConfig`]: https://docs.rs/rex-runtime
//! [`RouterConfig`]: https://docs.rs/rex-router

use crate::instance::Instance;
use crate::shard::ShardId;
use serde::{Deserialize, Serialize};

/// A flash crowd: the hottest `shard_fraction` of shards see their CPU
/// demand multiplied by `factor` for `duration_ticks`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikeSpec {
    /// Tick the crowd arrives.
    pub at_tick: u64,
    /// Ticks the crowd lasts.
    pub duration_ticks: u64,
    /// Demand multiplier on the hot set (> 1).
    pub factor: f64,
    /// Fraction of shards in the hot set (0, 1].
    pub shard_fraction: f64,
}

/// A machine crash, with optional recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// Tick the machine fails.
    pub at_tick: u64,
    /// Which machine fails.
    pub machine: usize,
    /// Tick it rejoins, if it does.
    pub recover_at_tick: Option<u64>,
}

/// Periodic SRA reassignment: how often the controller may act and how
/// many search iterations each solve gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SraSpec {
    /// Controller poll interval in ticks.
    pub every_ticks: u64,
    /// Search iterations per solve.
    pub iters: u64,
}

/// One engine-neutral scenario: fleet dynamics, load shape, and faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Simulation length in ticks.
    pub ticks: u64,
    /// Microseconds of wall time one tick aggregates over.
    pub tick_us: u64,
    /// Mean query arrivals per tick.
    pub qps_per_tick: f64,
    /// Shards sampled (demand-weighted) per query; the query's latency is
    /// the max over its subrequests.
    pub fanout: usize,
    /// Mean service time of a subrequest on an idle machine, in µs. The
    /// tick engine reports latency relative to this (idle machine = 1.0).
    pub base_service_us: f64,
    /// Saturation clamp for the service model.
    pub rho_max: f64,
    /// Master seed; each engine derives its named streams from it.
    pub seed: u64,
    /// Optional flash crowd.
    pub spike: Option<SpikeSpec>,
    /// Optional machine crash.
    pub crash: Option<CrashSpec>,
    /// Optional SRA reassignment loop.
    pub sra: Option<SraSpec>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self {
            ticks: 500,
            tick_us: 1_000,
            qps_per_tick: 8.0,
            fanout: 4,
            base_service_us: 100.0,
            rho_max: crate::service::DEFAULT_RHO_MAX,
            seed: 42,
            spike: None,
            crash: None,
            sra: None,
        }
    }
}

impl ScenarioSpec {
    /// Event-engine horizon: `ticks · tick_us` microseconds.
    pub fn horizon_us(&self) -> u64 {
        self.ticks * self.tick_us
    }

    /// Event-engine arrival rate in queries per second.
    pub fn qps(&self) -> f64 {
        self.qps_per_tick * 1_000_000.0 / self.tick_us as f64
    }

    /// Rejects internally inconsistent specs (zero durations, out-of-range
    /// fractions, faults scheduled past the horizon, tick spans that
    /// overflow the event engine's microsecond clock) with a typed error.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.ticks == 0 {
            return Err(ScenarioError::NonPositive { field: "ticks" });
        }
        if self.tick_us == 0 {
            return Err(ScenarioError::NonPositive { field: "tick_us" });
        }
        if self.ticks.checked_mul(self.tick_us).is_none() {
            return Err(ScenarioError::ClockOverflow {
                span: "ticks × tick_us",
            });
        }
        if self.qps_per_tick <= 0.0 {
            return Err(ScenarioError::NonPositive {
                field: "qps_per_tick",
            });
        }
        if self.fanout == 0 {
            return Err(ScenarioError::NonPositive { field: "fanout" });
        }
        if self.base_service_us <= 0.0 {
            return Err(ScenarioError::NonPositive {
                field: "base_service_us",
            });
        }
        if !(self.rho_max > 0.0 && self.rho_max < 1.0) {
            return Err(ScenarioError::RhoMaxOutOfRange {
                rho_max: self.rho_max,
            });
        }
        if let Some(sp) = &self.spike {
            if sp.factor <= 1.0 {
                return Err(ScenarioError::SpikeFactorTooSmall { factor: sp.factor });
            }
            if !(sp.shard_fraction > 0.0 && sp.shard_fraction <= 1.0) {
                return Err(ScenarioError::SpikeFractionOutOfRange {
                    shard_fraction: sp.shard_fraction,
                });
            }
            if sp.duration_ticks == 0 {
                return Err(ScenarioError::NonPositive {
                    field: "spike duration_ticks",
                });
            }
            let end = sp.at_tick.checked_add(sp.duration_ticks);
            if end.and_then(|t| t.checked_mul(self.tick_us)).is_none() {
                return Err(ScenarioError::ClockOverflow {
                    span: "spike (at_tick + duration_ticks) × tick_us",
                });
            }
            if sp.at_tick >= self.ticks {
                return Err(ScenarioError::SpikePastHorizon {
                    at_tick: sp.at_tick,
                    ticks: self.ticks,
                });
            }
        }
        if let Some(cr) = &self.crash {
            if cr.at_tick >= self.ticks {
                return Err(ScenarioError::CrashPastHorizon {
                    at_tick: cr.at_tick,
                    ticks: self.ticks,
                });
            }
            if let Some(r) = cr.recover_at_tick {
                if r <= cr.at_tick {
                    return Err(ScenarioError::RecoveryBeforeCrash {
                        at_tick: cr.at_tick,
                        recover_at_tick: r,
                    });
                }
            }
        }
        if let Some(sra) = &self.sra {
            if sra.every_ticks == 0 {
                return Err(ScenarioError::NonPositive {
                    field: "sra every_ticks",
                });
            }
            if sra.iters == 0 {
                return Err(ScenarioError::NonPositive { field: "sra iters" });
            }
        }
        Ok(())
    }
}

/// Why a [`ScenarioSpec`] or [`WorkloadSpec`] was rejected.
///
/// Mirrors the [`ConfigError`] pattern in `rex-core`: every rejection is a
/// typed, matchable variant the CLI can surface instead of aborting.
///
/// [`ConfigError`]: https://docs.rs/rex-core
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioError {
    /// A field that must be strictly positive was zero or negative.
    NonPositive { field: &'static str },
    /// A span of ticks that, in microseconds, does not fit in a `u64`.
    ClockOverflow { span: &'static str },
    /// `rho_max` outside the open interval (0, 1).
    RhoMaxOutOfRange { rho_max: f64 },
    /// Spike demand multiplier does not exceed 1.
    SpikeFactorTooSmall { factor: f64 },
    /// Spike hot-set fraction outside (0, 1].
    SpikeFractionOutOfRange { shard_fraction: f64 },
    /// Spike scheduled at or past the horizon.
    SpikePastHorizon { at_tick: u64, ticks: u64 },
    /// Crash scheduled at or past the horizon.
    CrashPastHorizon { at_tick: u64, ticks: u64 },
    /// Recovery scheduled at or before the crash it undoes.
    RecoveryBeforeCrash { at_tick: u64, recover_at_tick: u64 },
    /// Fleet table present but describes zero loaded machines.
    EmptyFleet,
    /// A generation row with zero count or non-positive capacity scale.
    BadGeneration { index: usize },
    /// Exchange machines requested with a non-positive capacity scale.
    BadExchangeScale { scale: f64 },
    /// Rack-scoped crashes without a rack topology to scope them to.
    NoRacks,
    /// More racks than loaded machines (some racks would be empty).
    TooManyRacks { racks: usize, machines: usize },
    /// Rack crash names a rack outside the topology.
    RackOutOfRange { rack: usize, racks: usize },
    /// Diurnal amplitude outside [0, 1].
    BadDiurnalAmplitude { amplitude: f64 },
    /// Zipf exponent negative or non-finite.
    BadZipfAlpha { alpha: f64 },
    /// Popularity renormalization target outside (0, 1).
    BadTargetUtilization { target: f64 },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NonPositive { field } => {
                write!(f, "{field} must be positive")
            }
            ScenarioError::ClockOverflow { span } => {
                write!(f, "{span} overflows the microsecond clock")
            }
            ScenarioError::RhoMaxOutOfRange { rho_max } => {
                write!(f, "rho_max must lie in (0, 1), got {rho_max}")
            }
            ScenarioError::SpikeFactorTooSmall { factor } => {
                write!(f, "spike factor must exceed 1, got {factor}")
            }
            ScenarioError::SpikeFractionOutOfRange { shard_fraction } => {
                write!(
                    f,
                    "spike shard_fraction must lie in (0, 1], got {shard_fraction}"
                )
            }
            ScenarioError::SpikePastHorizon { at_tick, ticks } => {
                write!(
                    f,
                    "spike starts past the horizon (at_tick {at_tick} >= ticks {ticks})"
                )
            }
            ScenarioError::CrashPastHorizon { at_tick, ticks } => {
                write!(
                    f,
                    "crash happens past the horizon (at_tick {at_tick} >= ticks {ticks})"
                )
            }
            ScenarioError::RecoveryBeforeCrash {
                at_tick,
                recover_at_tick,
            } => {
                write!(
                    f,
                    "recovery must follow the crash (recover_at_tick {recover_at_tick} <= at_tick {at_tick})"
                )
            }
            ScenarioError::EmptyFleet => {
                write!(f, "fleet table must describe at least one loaded machine")
            }
            ScenarioError::BadGeneration { index } => {
                write!(
                    f,
                    "generation {index} must have a positive count and capacity scale"
                )
            }
            ScenarioError::BadExchangeScale { scale } => {
                write!(f, "exchange_scale must be positive, got {scale}")
            }
            ScenarioError::NoRacks => {
                write!(
                    f,
                    "rack_crashes require a fleet with a rack topology (racks > 0)"
                )
            }
            ScenarioError::TooManyRacks { racks, machines } => {
                write!(
                    f,
                    "rack topology has more racks ({racks}) than loaded machines ({machines})"
                )
            }
            ScenarioError::RackOutOfRange { rack, racks } => {
                write!(f, "rack {rack} out of range (fleet has {racks} racks)")
            }
            ScenarioError::BadDiurnalAmplitude { amplitude } => {
                write!(f, "diurnal_amplitude must lie in [0, 1], got {amplitude}")
            }
            ScenarioError::BadZipfAlpha { alpha } => {
                write!(f, "zipf_alpha must be finite and non-negative, got {alpha}")
            }
            ScenarioError::BadTargetUtilization { target } => {
                write!(f, "target_utilization must lie in (0, 1), got {target}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One machine generation: `count` machines whose capacity is the base
/// capacity vector scaled by `scale` on every dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationSpec {
    /// Human-readable generation name (e.g. `"gen-2019"`).
    pub name: String,
    /// Machines of this generation, laid out contiguously.
    pub count: usize,
    /// Capacity multiplier relative to the base machine (2–4× spread in
    /// realistic fleets).
    pub scale: f64,
}

/// The fleet table: machine generations (in machine-id order) plus an
/// exchange pool and a rack topology.
///
/// Loaded machines are the concatenation of the generation rows; rack `r`
/// of `racks` owns the contiguous id block `[r·n/racks, (r+1)·n/racks)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Generation rows, expanded in order into machine ids `0..n`.
    pub generations: Vec<GenerationSpec>,
    /// Exchangeable (initially vacant) machines appended after the loaded
    /// fleet.
    pub exchange: usize,
    /// Capacity multiplier for the exchange machines.
    pub exchange_scale: f64,
    /// Number of racks the loaded fleet is striped across; 0 disables the
    /// rack topology.
    pub racks: usize,
}

impl FleetSpec {
    /// Loaded machine count: the sum of the generation rows.
    pub fn n_machines(&self) -> usize {
        self.generations.iter().map(|g| g.count).sum()
    }

    /// Per-machine capacity scales for the loaded fleet, in id order.
    pub fn loaded_scales(&self) -> Vec<f64> {
        let mut scales = Vec::with_capacity(self.n_machines());
        for g in &self.generations {
            scales.extend(std::iter::repeat_n(g.scale, g.count));
        }
        scales
    }
}

/// A rack-scoped crash clause: every machine in `rack` fails at `at_tick`
/// and (optionally) rejoins together — a correlated failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackCrashSpec {
    /// Tick the rack fails.
    pub at_tick: u64,
    /// Which rack fails (index into the fleet's rack topology).
    pub rack: usize,
    /// Tick the rack rejoins, if it does.
    pub recover_at_tick: Option<u64>,
}

/// The load script: a diurnal base-rate envelope times a drifting Zipfian
/// shard-popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadScriptSpec {
    /// Diurnal swing of the arrival rate, in [0, 1] (0 = flat day).
    pub diurnal_amplitude: f64,
    /// Ticks per simulated hour of the diurnal cycle.
    pub ticks_per_hour: u64,
    /// Zipf exponent of the shard-popularity distribution (0 = uniform).
    pub zipf_alpha: f64,
    /// Ticks between popularity-drift epochs.
    pub drift_every_ticks: u64,
    /// Adjacent-rank transpositions applied to the popularity order per
    /// epoch — the drift speed.
    pub swaps_per_epoch: usize,
    /// Aggregate CPU utilization (over the loaded fleet) the popularity
    /// renormalization targets, in (0, 1).
    pub target_utilization: f64,
}

/// The engine-neutral workload plane: a scenario composed with optional
/// fleet, fault-topology, and load-script planes (DESIGN.md §16).
///
/// With every optional plane absent the workload is *degenerate* and
/// lowers to exactly what [`ScenarioSpec`] alone lowers to — the E13–E16
/// configs express losslessly, byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Timing, arrivals, service model, and the scalar fault script.
    pub scenario: ScenarioSpec,
    /// Machine generations + rack topology; `None` keeps the caller's
    /// instance untouched.
    #[serde(default)]
    pub fleet: Option<FleetSpec>,
    /// Diurnal × Zipf-drift load script; `None` keeps the scenario's flat
    /// arrivals and static demands.
    #[serde(default)]
    pub load: Option<LoadScriptSpec>,
    /// Correlated rack failures, expanded against the fleet's topology.
    #[serde(default)]
    pub rack_crashes: Vec<RackCrashSpec>,
}

impl WorkloadSpec {
    /// Wraps a plain scenario as the degenerate workload.
    pub fn from_scenario(scenario: ScenarioSpec) -> Self {
        Self {
            scenario,
            fleet: None,
            load: None,
            rack_crashes: Vec::new(),
        }
    }

    /// True when no optional plane is present: the workload is exactly its
    /// embedded scenario.
    pub fn is_degenerate(&self) -> bool {
        self.fleet.is_none() && self.load.is_none() && self.rack_crashes.is_empty()
    }

    /// Validates the scenario and every optional plane.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.scenario.validate()?;
        if let Some(fleet) = &self.fleet {
            if fleet.generations.is_empty() || fleet.n_machines() == 0 {
                return Err(ScenarioError::EmptyFleet);
            }
            for (index, g) in fleet.generations.iter().enumerate() {
                if g.count == 0 || g.scale <= 0.0 || !g.scale.is_finite() {
                    return Err(ScenarioError::BadGeneration { index });
                }
            }
            if fleet.exchange > 0
                && (fleet.exchange_scale <= 0.0 || !fleet.exchange_scale.is_finite())
            {
                return Err(ScenarioError::BadExchangeScale {
                    scale: fleet.exchange_scale,
                });
            }
            if fleet.racks > fleet.n_machines() {
                return Err(ScenarioError::TooManyRacks {
                    racks: fleet.racks,
                    machines: fleet.n_machines(),
                });
            }
        }
        if !self.rack_crashes.is_empty() {
            let racks = match &self.fleet {
                Some(fleet) if fleet.racks > 0 => fleet.racks,
                _ => return Err(ScenarioError::NoRacks),
            };
            for rc in &self.rack_crashes {
                if rc.rack >= racks {
                    return Err(ScenarioError::RackOutOfRange {
                        rack: rc.rack,
                        racks,
                    });
                }
                if rc.at_tick >= self.scenario.ticks {
                    return Err(ScenarioError::CrashPastHorizon {
                        at_tick: rc.at_tick,
                        ticks: self.scenario.ticks,
                    });
                }
                if let Some(r) = rc.recover_at_tick {
                    if r <= rc.at_tick {
                        return Err(ScenarioError::RecoveryBeforeCrash {
                            at_tick: rc.at_tick,
                            recover_at_tick: r,
                        });
                    }
                }
            }
        }
        if let Some(load) = &self.load {
            if !(0.0..=1.0).contains(&load.diurnal_amplitude) {
                return Err(ScenarioError::BadDiurnalAmplitude {
                    amplitude: load.diurnal_amplitude,
                });
            }
            if load.ticks_per_hour == 0 {
                return Err(ScenarioError::NonPositive {
                    field: "ticks_per_hour",
                });
            }
            if !load.zipf_alpha.is_finite() || load.zipf_alpha < 0.0 {
                return Err(ScenarioError::BadZipfAlpha {
                    alpha: load.zipf_alpha,
                });
            }
            if load.drift_every_ticks == 0 {
                return Err(ScenarioError::NonPositive {
                    field: "drift_every_ticks",
                });
            }
            if load.swaps_per_epoch == 0 {
                return Err(ScenarioError::NonPositive {
                    field: "swaps_per_epoch",
                });
            }
            if !(load.target_utilization > 0.0 && load.target_utilization < 1.0) {
                return Err(ScenarioError::BadTargetUtilization {
                    target: load.target_utilization,
                });
            }
        }
        Ok(())
    }

    /// Expands the rack-scoped crash clauses into per-machine [`CrashSpec`]s
    /// against a fleet of `n_machines` loaded machines.
    ///
    /// When the workload carries its own fleet table the rack blocks come
    /// from it; otherwise the caller's machine count is striped across the
    /// same `racks` topology. Machines within a rack fail in id order so
    /// both engines see an identical fault stream.
    pub fn expand_rack_crashes(&self, n_machines: usize) -> Vec<CrashSpec> {
        let Some(fleet) = &self.fleet else {
            return Vec::new();
        };
        if fleet.racks == 0 {
            return Vec::new();
        }
        let n = fleet.n_machines().min(n_machines);
        let racks = fleet.racks;
        let mut out = Vec::new();
        for rc in &self.rack_crashes {
            let start = rc.rack * n / racks;
            let end = (rc.rack + 1) * n / racks;
            for machine in start..end {
                out.push(CrashSpec {
                    at_tick: rc.at_tick,
                    machine,
                    recover_at_tick: rc.recover_at_tick,
                });
            }
        }
        out
    }
}

/// The flash-crowd hot set: the `ceil(n · fraction)` shards with the
/// highest CPU demand (ties broken by id), returned **sorted ascending by
/// id**.
///
/// Both engines must iterate the hot set in the same order when summing
/// per-machine spike surcharges — float addition does not commute bitwise
/// — so the selection order (hottest first) is deliberately *not* the
/// return order.
pub fn hot_set(inst: &Instance, fraction: f64) -> Vec<ShardId> {
    let n = inst.n_shards();
    let count = ((n as f64) * fraction).ceil() as usize;
    let mut ids: Vec<ShardId> = (0..n).map(ShardId::from).collect();
    ids.sort_by(|a, b| {
        let (da, db) = (inst.demand(*a)[0], inst.demand(*b)[0]);
        db.partial_cmp(&da)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.idx().cmp(&b.idx()))
    });
    ids.truncate(count.min(n));
    ids.sort_by_key(|s| s.idx());
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn demo_instance() -> Instance {
        let mut b = InstanceBuilder::new(1);
        let m = b.machine(&[100.0]);
        for d in [5.0, 9.0, 1.0, 9.0, 3.0] {
            b.shard(&[d], 1.0, m);
        }
        b.build().unwrap()
    }

    #[test]
    fn hot_set_picks_hottest_and_returns_ascending() {
        let inst = demo_instance();
        // ceil(5 · 0.4) = 2 hottest: shards 1 and 3 (both 9.0, tie by id).
        let hot = hot_set(&inst, 0.4);
        assert_eq!(hot.iter().map(|s| s.idx()).collect::<Vec<_>>(), vec![1, 3]);
        // ceil(5 · 0.6) = 3: adds shard 0 (5.0); still ascending.
        let hot = hot_set(&inst, 0.6);
        assert_eq!(
            hot.iter().map(|s| s.idx()).collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
        // Full fraction selects everything.
        assert_eq!(hot_set(&inst, 1.0).len(), 5);
    }

    #[test]
    fn spec_arithmetic_and_validation() {
        let spec = ScenarioSpec {
            ticks: 400,
            tick_us: 500,
            qps_per_tick: 6.0,
            ..Default::default()
        };
        spec.validate().unwrap();
        assert_eq!(spec.horizon_us(), 200_000);
        assert!((spec.qps() - 12_000.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_late_spike() {
        let spec = ScenarioSpec {
            ticks: 100,
            spike: Some(SpikeSpec {
                at_tick: 100,
                duration_ticks: 10,
                factor: 2.0,
                shard_fraction: 0.1,
            }),
            ..Default::default()
        };
        let err = spec.validate().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::SpikePastHorizon {
                at_tick: 100,
                ticks: 100
            }
        );
        assert!(err.to_string().contains("spike starts past the horizon"));
    }

    #[test]
    fn validation_rejects_spans_past_the_microsecond_clock() {
        let long = ScenarioSpec {
            ticks: u64::MAX / 1_000 + 1,
            ..Default::default()
        };
        let err = long.validate().unwrap_err();
        let span = "ticks × tick_us";
        assert_eq!(err, ScenarioError::ClockOverflow { span });
        assert_eq!(
            err.to_string(),
            "ticks × tick_us overflows the microsecond clock"
        );
        // 10 + 18 446 744 073 709 552 ticks of 1 000 µs wrap to 384 µs.
        let spike = |at_tick, duration_ticks| ScenarioSpec {
            spike: Some(SpikeSpec {
                at_tick,
                duration_ticks,
                factor: 2.0,
                shard_fraction: 0.1,
            }),
            ..Default::default()
        };
        let span = "spike (at_tick + duration_ticks) × tick_us";
        for (at, duration) in [(10, 18_446_744_073_709_552), (10, u64::MAX)] {
            let err = spike(at, duration).validate().unwrap_err();
            assert_eq!(err, ScenarioError::ClockOverflow { span });
        }
        spike(10, u64::MAX / 1_000 - 10).validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_rho_max() {
        let spec = ScenarioSpec {
            rho_max: 1.0,
            ..Default::default()
        };
        assert_eq!(
            spec.validate().unwrap_err(),
            ScenarioError::RhoMaxOutOfRange { rho_max: 1.0 }
        );
    }

    #[test]
    fn validation_rejects_each_non_positive_field() {
        let cases: &[(&str, ScenarioSpec)] = &[
            (
                "ticks",
                ScenarioSpec {
                    ticks: 0,
                    ..Default::default()
                },
            ),
            (
                "tick_us",
                ScenarioSpec {
                    tick_us: 0,
                    ..Default::default()
                },
            ),
            (
                "qps_per_tick",
                ScenarioSpec {
                    qps_per_tick: 0.0,
                    ..Default::default()
                },
            ),
            (
                "fanout",
                ScenarioSpec {
                    fanout: 0,
                    ..Default::default()
                },
            ),
            (
                "base_service_us",
                ScenarioSpec {
                    base_service_us: -1.0,
                    ..Default::default()
                },
            ),
            (
                "spike duration_ticks",
                ScenarioSpec {
                    spike: Some(SpikeSpec {
                        at_tick: 1,
                        duration_ticks: 0,
                        factor: 2.0,
                        shard_fraction: 0.5,
                    }),
                    ..Default::default()
                },
            ),
            (
                "sra every_ticks",
                ScenarioSpec {
                    sra: Some(SraSpec {
                        every_ticks: 0,
                        iters: 10,
                    }),
                    ..Default::default()
                },
            ),
            (
                "sra iters",
                ScenarioSpec {
                    sra: Some(SraSpec {
                        every_ticks: 10,
                        iters: 0,
                    }),
                    ..Default::default()
                },
            ),
        ];
        for (field, spec) in cases {
            assert_eq!(
                spec.validate().unwrap_err(),
                ScenarioError::NonPositive { field },
                "expected NonPositive for {field}"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_spike_shape() {
        let spike = |factor, shard_fraction| ScenarioSpec {
            spike: Some(SpikeSpec {
                at_tick: 1,
                duration_ticks: 5,
                factor,
                shard_fraction,
            }),
            ..Default::default()
        };
        assert_eq!(
            spike(1.0, 0.5).validate().unwrap_err(),
            ScenarioError::SpikeFactorTooSmall { factor: 1.0 }
        );
        assert_eq!(
            spike(2.0, 0.0).validate().unwrap_err(),
            ScenarioError::SpikeFractionOutOfRange {
                shard_fraction: 0.0
            }
        );
        assert_eq!(
            spike(2.0, 1.5).validate().unwrap_err(),
            ScenarioError::SpikeFractionOutOfRange {
                shard_fraction: 1.5
            }
        );
    }

    #[test]
    fn validation_rejects_bad_crash_timing() {
        let spec = ScenarioSpec {
            ticks: 100,
            crash: Some(CrashSpec {
                at_tick: 100,
                machine: 0,
                recover_at_tick: None,
            }),
            ..Default::default()
        };
        assert_eq!(
            spec.validate().unwrap_err(),
            ScenarioError::CrashPastHorizon {
                at_tick: 100,
                ticks: 100
            }
        );
        let spec = ScenarioSpec {
            ticks: 100,
            crash: Some(CrashSpec {
                at_tick: 50,
                machine: 0,
                recover_at_tick: Some(50),
            }),
            ..Default::default()
        };
        assert_eq!(
            spec.validate().unwrap_err(),
            ScenarioError::RecoveryBeforeCrash {
                at_tick: 50,
                recover_at_tick: 50
            }
        );
    }

    fn three_gen_fleet() -> FleetSpec {
        FleetSpec {
            generations: vec![
                GenerationSpec {
                    name: "gen-a".into(),
                    count: 4,
                    scale: 1.0,
                },
                GenerationSpec {
                    name: "gen-b".into(),
                    count: 4,
                    scale: 2.0,
                },
                GenerationSpec {
                    name: "gen-c".into(),
                    count: 4,
                    scale: 4.0,
                },
            ],
            exchange: 2,
            exchange_scale: 4.0,
            racks: 3,
        }
    }

    #[test]
    fn degenerate_workload_is_the_plain_scenario() {
        let w = WorkloadSpec::from_scenario(ScenarioSpec::default());
        assert!(w.is_degenerate());
        w.validate().unwrap();
        assert!(w.expand_rack_crashes(16).is_empty());
    }

    #[test]
    fn fleet_table_expands_in_generation_order() {
        let fleet = three_gen_fleet();
        assert_eq!(fleet.n_machines(), 12);
        let scales = fleet.loaded_scales();
        assert_eq!(scales.len(), 12);
        assert_eq!(&scales[..4], &[1.0; 4]);
        assert_eq!(&scales[4..8], &[2.0; 4]);
        assert_eq!(&scales[8..], &[4.0; 4]);
    }

    #[test]
    fn rack_crashes_expand_to_per_machine_crashes() {
        let w = WorkloadSpec {
            scenario: ScenarioSpec::default(),
            fleet: Some(three_gen_fleet()),
            load: None,
            rack_crashes: vec![RackCrashSpec {
                at_tick: 100,
                rack: 1,
                recover_at_tick: Some(200),
            }],
        };
        w.validate().unwrap();
        let crashes = w.expand_rack_crashes(12);
        assert_eq!(
            crashes,
            (4..8)
                .map(|machine| CrashSpec {
                    at_tick: 100,
                    machine,
                    recover_at_tick: Some(200),
                })
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn workload_validation_rejects_bad_fleet_planes() {
        let base = |fleet| WorkloadSpec {
            scenario: ScenarioSpec::default(),
            fleet: Some(fleet),
            load: None,
            rack_crashes: Vec::new(),
        };
        let empty = FleetSpec {
            generations: vec![],
            exchange: 0,
            exchange_scale: 1.0,
            racks: 0,
        };
        assert_eq!(
            base(empty).validate().unwrap_err(),
            ScenarioError::EmptyFleet
        );
        let mut bad_gen = three_gen_fleet();
        bad_gen.generations[1].scale = 0.0;
        assert_eq!(
            base(bad_gen).validate().unwrap_err(),
            ScenarioError::BadGeneration { index: 1 }
        );
        let mut bad_x = three_gen_fleet();
        bad_x.exchange_scale = -1.0;
        assert_eq!(
            base(bad_x).validate().unwrap_err(),
            ScenarioError::BadExchangeScale { scale: -1.0 }
        );
        let mut wide = three_gen_fleet();
        wide.racks = 13;
        assert_eq!(
            base(wide).validate().unwrap_err(),
            ScenarioError::TooManyRacks {
                racks: 13,
                machines: 12
            }
        );
    }

    #[test]
    fn workload_validation_rejects_bad_rack_crashes() {
        let crash = RackCrashSpec {
            at_tick: 10,
            rack: 0,
            recover_at_tick: None,
        };
        let no_topology = WorkloadSpec {
            scenario: ScenarioSpec::default(),
            fleet: None,
            load: None,
            rack_crashes: vec![crash],
        };
        assert_eq!(no_topology.validate().unwrap_err(), ScenarioError::NoRacks);
        let out_of_range = WorkloadSpec {
            scenario: ScenarioSpec::default(),
            fleet: Some(three_gen_fleet()),
            load: None,
            rack_crashes: vec![RackCrashSpec { rack: 3, ..crash }],
        };
        assert_eq!(
            out_of_range.validate().unwrap_err(),
            ScenarioError::RackOutOfRange { rack: 3, racks: 3 }
        );
        let late = WorkloadSpec {
            scenario: ScenarioSpec {
                ticks: 5,
                ..Default::default()
            },
            fleet: Some(three_gen_fleet()),
            load: None,
            rack_crashes: vec![RackCrashSpec {
                at_tick: 5,
                ..crash
            }],
        };
        assert_eq!(
            late.validate().unwrap_err(),
            ScenarioError::CrashPastHorizon {
                at_tick: 5,
                ticks: 5
            }
        );
    }

    #[test]
    fn workload_validation_rejects_bad_load_scripts() {
        let script = LoadScriptSpec {
            diurnal_amplitude: 0.4,
            ticks_per_hour: 50,
            zipf_alpha: 1.0,
            drift_every_ticks: 200,
            swaps_per_epoch: 8,
            target_utilization: 0.7,
        };
        let with = |load| WorkloadSpec {
            scenario: ScenarioSpec::default(),
            fleet: None,
            load: Some(load),
            rack_crashes: Vec::new(),
        };
        with(script).validate().unwrap();
        assert_eq!(
            with(LoadScriptSpec {
                diurnal_amplitude: 1.5,
                ..script
            })
            .validate()
            .unwrap_err(),
            ScenarioError::BadDiurnalAmplitude { amplitude: 1.5 }
        );
        assert_eq!(
            with(LoadScriptSpec {
                zipf_alpha: -0.1,
                ..script
            })
            .validate()
            .unwrap_err(),
            ScenarioError::BadZipfAlpha { alpha: -0.1 }
        );
        assert_eq!(
            with(LoadScriptSpec {
                target_utilization: 1.0,
                ..script
            })
            .validate()
            .unwrap_err(),
            ScenarioError::BadTargetUtilization { target: 1.0 }
        );
        assert_eq!(
            with(LoadScriptSpec {
                ticks_per_hour: 0,
                ..script
            })
            .validate()
            .unwrap_err(),
            ScenarioError::NonPositive {
                field: "ticks_per_hour"
            }
        );
        assert_eq!(
            with(LoadScriptSpec {
                drift_every_ticks: 0,
                ..script
            })
            .validate()
            .unwrap_err(),
            ScenarioError::NonPositive {
                field: "drift_every_ticks"
            }
        );
        assert_eq!(
            with(LoadScriptSpec {
                swaps_per_epoch: 0,
                ..script
            })
            .validate()
            .unwrap_err(),
            ScenarioError::NonPositive {
                field: "swaps_per_epoch"
            }
        );
    }

    #[test]
    fn workload_serde_roundtrip_and_absent_planes_default() {
        let w = WorkloadSpec {
            scenario: ScenarioSpec::default(),
            fleet: Some(three_gen_fleet()),
            load: Some(LoadScriptSpec {
                diurnal_amplitude: 0.4,
                ticks_per_hour: 50,
                zipf_alpha: 1.0,
                drift_every_ticks: 200,
                swaps_per_epoch: 8,
                target_utilization: 0.7,
            }),
            rack_crashes: vec![RackCrashSpec {
                at_tick: 100,
                rack: 1,
                recover_at_tick: None,
            }],
        };
        let json = serde_json::to_string(&w).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
        // A bare scenario object — no fleet/load/rack_crashes keys — parses
        // as the degenerate workload.
        let scenario_only = format!(
            "{{\"scenario\":{}}}",
            serde_json::to_string(&ScenarioSpec::default()).unwrap()
        );
        let bare: WorkloadSpec = serde_json::from_str(&scenario_only).unwrap();
        assert!(bare.is_degenerate());
        assert_eq!(bare.scenario, ScenarioSpec::default());
    }
}
