//! Runtime configuration: time model, traffic, controller policy, faults.
//!
//! Everything is plain data with explicit defaults so a whole run is
//! reproducible from `(Instance, RuntimeConfig)` alone — the simulator has
//! no other inputs and no hidden clocks.

use crate::hotshard::HotShardConfig;

/// Which rebalancing policy the controller runs when it decides to act.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControllerPolicy {
    /// Never rebalance. Mandatory fault evacuations still execute — an
    /// operator cannot leave shards on a dead machine — so `Off` isolates
    /// exactly the value of *load-driven* rebalancing.
    Off,
    /// One pass of the greedy hottest-machine baseline per trigger (the
    /// classic alarm-driven playbook, no exchange machines).
    Greedy,
    /// SRA: the paper's exchange-aware large-neighborhood search.
    Sra,
}

impl ControllerPolicy {
    /// Stable lowercase name for tables and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            ControllerPolicy::Off => "off",
            ControllerPolicy::Greedy => "greedy",
            ControllerPolicy::Sra => "sra",
        }
    }
}

impl std::str::FromStr for ControllerPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ControllerPolicy::Off),
            "greedy" => Ok(ControllerPolicy::Greedy),
            "sra" => Ok(ControllerPolicy::Sra),
            other => Err(format!("unknown controller `{other}` (off|greedy|sra)")),
        }
    }
}

/// When and how the controller decides to rebalance.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// The rebalancing policy.
    pub policy: ControllerPolicy,
    /// Ticks between controller observations.
    pub poll_interval: u64,
    /// Trigger when the rolling mean of steady peak utilization exceeds
    /// this.
    pub peak_threshold: f64,
    /// Trigger when the rolling mean imbalance (peak/mean over occupied
    /// machines) exceeds this.
    pub imbalance_threshold: f64,
    /// Number of polls in the rolling window.
    pub window: usize,
    /// Minimum ticks between two triggered rebalances.
    pub cooldown_ticks: u64,
    /// LNS iterations per SRA solve.
    pub sra_iters: u64,
    /// Migration-cost weight λ of the SRA objective (normalized: moving
    /// *every* shard costs `λ` load units). In a closed loop copies are not
    /// free — they occupy NICs and inflate tail latency while in flight —
    /// so the controller taxes movement much harder than the one-shot
    /// solver default of 0.01.
    pub sra_lambda: f64,
    /// Cooperative decomposition width for SRA solves (`SraConfig::
    /// partitions`): `> 1` splits the fleet into that many neighborhoods
    /// solved in parallel with recombination rounds; `0` keeps the
    /// monolithic search. Worth enabling on large fleets where full-fleet
    /// LNS scans dominate the controller's planning time.
    pub sra_partitions: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            policy: ControllerPolicy::Sra,
            poll_interval: 50,
            peak_threshold: 0.92,
            imbalance_threshold: 1.15,
            window: 4,
            cooldown_ticks: 400,
            sra_iters: 3_000,
            sra_lambda: 0.25,
            sra_partitions: 0,
        }
    }
}

/// A scheduled fault.
#[derive(Clone, Copy, Debug)]
pub enum FaultSpec {
    /// Machine `machine` fails at tick `at`: its shards become degraded
    /// (served at the saturation latency) until the runtime evacuates
    /// them, and it receives no shards until `recover_at` (if ever).
    Crash {
        /// Failure tick.
        at: u64,
        /// Machine index.
        machine: u32,
        /// Optional tick the machine rejoins as available capacity.
        recover_at: Option<u64>,
    },
    /// A flash crowd: the hottest `shard_fraction` of shards (by CPU
    /// demand at spike start) serve `factor`× their traffic for
    /// `duration` ticks.
    Spike {
        /// Spike start tick.
        at: u64,
        /// Spike length in ticks.
        duration: u64,
        /// Traffic multiplier (must be ≥ 1 — see the snapshot-dominance
        /// argument in DESIGN.md §7).
        factor: f64,
        /// Fraction of shards affected, hottest first.
        shard_fraction: f64,
    },
}

/// Periodic demand drift (delegates to `rex_workload::evolve::next_epoch`).
#[derive(Clone, Copy, Debug)]
pub struct DriftSpec {
    /// Ticks between drift epochs.
    pub every_ticks: u64,
    /// Log-normal σ of the per-shard CPU multiplier.
    pub sigma: f64,
    /// Aggregate CPU utilization the fleet is renormalized to.
    pub target_utilization: f64,
}

/// Periodic Zipfian popularity drift — the workload plane's load script
/// (delegates to `rex_workload::popularity::apply_popularity`).
#[derive(Clone, Copy, Debug)]
pub struct PopularitySpec {
    /// Ticks between popularity epochs.
    pub every_ticks: u64,
    /// Zipf exponent of the shard-popularity distribution.
    pub zipf_alpha: f64,
    /// Adjacent-rank transpositions per epoch (drift speed).
    pub swaps_per_epoch: usize,
    /// Aggregate CPU utilization the fleet is renormalized to.
    pub target_utilization: f64,
}

/// Complete runtime configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Simulation horizon in ticks.
    pub ticks: u64,
    /// Master seed; every internal RNG stream derives from it.
    pub seed: u64,
    /// Ticks per diurnal hour (24 hours wrap around).
    pub ticks_per_hour: u64,
    /// Dampens the diurnal swing: the raw searchsim curve scales traffic
    /// ~0.3×–2.1×, but a provisioned fleet sees utilization swing far less
    /// (capacity is sized for peak). The applied multiplier is
    /// `1 + (raw − 1) · amplitude`; `0` flattens the day, `1` is the raw
    /// curve. Must lie in `[0, 1]`.
    pub diurnal_amplitude: f64,
    /// Mean query arrivals per tick at diurnal multiplier 1.0.
    pub qps: f64,
    /// Cap on latency samples recorded per tick (arrival *counts* are
    /// exact; sampling only bounds histogram work).
    pub latency_samples_per_tick: usize,
    /// Subrequests per sampled query. `0` (the legacy default) fans every
    /// sample out to *all* serving machines; `> 0` draws that many
    /// demand-weighted shard picks per sample instead — the event engine's
    /// per-query fanout mirrored at tick granularity, which also scales
    /// arrivals by the live weight ratio during a flash crowd.
    pub fanout: usize,
    /// Utilization clamp for the `1/(1−ρ)` service model.
    pub rho_max: f64,
    /// Copy bandwidth per machine NIC, in move-cost units per tick.
    pub copy_bandwidth: f64,
    /// Fixed per-batch coordination overhead in ticks.
    pub batch_overhead_ticks: u64,
    /// Ticks between a rebalance decision and its first batch starting.
    pub plan_latency_ticks: u64,
    /// Ticks between gauge samples.
    pub sample_interval: u64,
    /// Controller configuration.
    pub controller: ControllerConfig,
    /// Hot-shard control-plane configuration (disabled by default).
    pub hotshard: HotShardConfig,
    /// Scheduled faults.
    pub faults: Vec<FaultSpec>,
    /// Periodic demand drift, if any.
    pub drift: Option<DriftSpec>,
    /// Periodic Zipfian popularity drift, if any (the workload plane's
    /// load script).
    pub popularity: Option<PopularitySpec>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            ticks: 10_000,
            seed: 42,
            ticks_per_hour: 50,
            diurnal_amplitude: 0.6,
            qps: 8.0,
            latency_samples_per_tick: 16,
            fanout: 0,
            rho_max: 0.98,
            copy_bandwidth: 1.0,
            batch_overhead_ticks: 1,
            plan_latency_ticks: 2,
            sample_interval: 10,
            controller: ControllerConfig::default(),
            hotshard: HotShardConfig::default(),
            faults: Vec::new(),
            drift: None,
            popularity: None,
        }
    }
}

impl RuntimeConfig {
    /// Lowers an engine-neutral [`rex_cluster::ScenarioSpec`] to this tick
    /// engine's units: one tick per `tick_us`, `qps = qps_per_tick`, the
    /// diurnal curve flattened (the event engine has no diurnal model),
    /// sampled-fanout latency draws, every arrival sampled, and the
    /// scenario's faults mapped tick-for-tick. An SRA trigger in the spec
    /// turns the controller on at the spec's poll period; otherwise the
    /// controller is `Off`. The hot-shard plane and drift stay disabled —
    /// neither has an event-engine counterpart to converge against.
    pub fn from_scenario(spec: &rex_cluster::ScenarioSpec) -> Self {
        spec.validate().expect("scenario spec must validate");
        let mut faults = Vec::new();
        if let Some(sp) = spec.spike {
            faults.push(FaultSpec::Spike {
                at: sp.at_tick,
                duration: sp.duration_ticks,
                factor: sp.factor,
                shard_fraction: sp.shard_fraction,
            });
        }
        if let Some(cr) = spec.crash {
            faults.push(FaultSpec::Crash {
                at: cr.at_tick,
                machine: cr.machine as u32,
                recover_at: cr.recover_at_tick,
            });
        }
        let controller = match spec.sra {
            Some(sra) => ControllerConfig {
                policy: ControllerPolicy::Sra,
                poll_interval: sra.every_ticks,
                sra_iters: sra.iters,
                ..Default::default()
            },
            None => ControllerConfig {
                policy: ControllerPolicy::Off,
                ..Default::default()
            },
        };
        Self {
            ticks: spec.ticks,
            seed: spec.seed,
            diurnal_amplitude: 0.0,
            qps: spec.qps_per_tick,
            latency_samples_per_tick: 1_000_000,
            fanout: spec.fanout,
            rho_max: spec.rho_max,
            controller,
            faults,
            drift: None,
            ..Default::default()
        }
    }

    /// Lowers an engine-neutral [`rex_cluster::WorkloadSpec`] (DESIGN.md
    /// §16). The embedded scenario lowers exactly as [`from_scenario`]
    /// does — a degenerate workload produces a bit-identical config — then
    /// the optional planes stack on top:
    ///
    /// * **rack crashes** expand to per-machine [`FaultSpec::Crash`]
    ///   entries against `n_machines` loaded machines (id order within a
    ///   rack, clause order across racks),
    /// * the **load script** turns the diurnal envelope back on and
    ///   installs the Zipfian [`PopularitySpec`].
    ///
    /// [`from_scenario`]: RuntimeConfig::from_scenario
    pub fn from_workload(w: &rex_cluster::WorkloadSpec, n_machines: usize) -> Self {
        w.validate().expect("workload spec must validate");
        let mut cfg = Self::from_scenario(&w.scenario);
        for cr in w.expand_rack_crashes(n_machines) {
            cfg.faults.push(FaultSpec::Crash {
                at: cr.at_tick,
                machine: cr.machine as u32,
                recover_at: cr.recover_at_tick,
            });
        }
        if let Some(load) = &w.load {
            cfg.diurnal_amplitude = load.diurnal_amplitude;
            cfg.ticks_per_hour = load.ticks_per_hour;
            cfg.popularity = Some(PopularitySpec {
                every_ticks: load.drift_every_ticks,
                zipf_alpha: load.zipf_alpha,
                swaps_per_epoch: load.swaps_per_epoch,
                target_utilization: load.target_utilization,
            });
        }
        cfg
    }

    /// Range-checks every parameter; the error is one line naming the
    /// offending field. Input-facing callers (the CLI) surface it as-is.
    pub fn validate(&self) -> Result<(), String> {
        ensure(self.ticks > 0, "ticks must be positive")?;
        ensure(self.ticks_per_hour > 0, "ticks_per_hour must be positive")?;
        ensure(
            (0.0..=1.0).contains(&self.diurnal_amplitude),
            "diurnal_amplitude must lie in [0, 1]",
        )?;
        ensure(self.qps >= 0.0, "qps must be non-negative")?;
        ensure(
            self.rho_max > 0.0 && self.rho_max < 1.0,
            "rho_max must lie in (0, 1)",
        )?;
        ensure(self.copy_bandwidth > 0.0, "copy_bandwidth must be positive")?;
        ensure(self.sample_interval > 0, "sample_interval must be positive")?;
        ensure(
            self.controller.poll_interval > 0,
            "poll_interval must be positive",
        )?;
        ensure(self.controller.window > 0, "window must be positive")?;
        ensure(
            self.controller.sra_lambda >= 0.0,
            "sra_lambda must be non-negative",
        )?;
        self.hotshard.validate()?;
        if let Some(d) = &self.drift {
            ensure(d.every_ticks > 0, "drift every_ticks must be positive")?;
        }
        if let Some(p) = &self.popularity {
            ensure(p.every_ticks > 0, "popularity every_ticks must be positive")?;
            ensure(
                p.zipf_alpha.is_finite() && p.zipf_alpha >= 0.0,
                "popularity zipf_alpha must be finite and non-negative",
            )?;
            ensure(
                p.swaps_per_epoch > 0,
                "popularity swaps_per_epoch must be positive",
            )?;
            ensure(
                p.target_utilization > 0.0 && p.target_utilization < 1.0,
                "popularity target_utilization must lie in (0, 1)",
            )?;
            ensure(
                !self.hotshard.enabled,
                "popularity drift and the hot-shard plane are mutually \
                 exclusive: splits/merges renumber shards under the rank walk",
            )?;
        }
        for f in &self.faults {
            if let FaultSpec::Spike {
                factor,
                shard_fraction,
                ..
            } = f
            {
                ensure(
                    *factor >= 1.0,
                    "spike factor must be ≥ 1 (plans stay transient-safe \
                     only when snapshots dominate live demands)",
                )?;
                ensure(
                    (0.0..=1.0).contains(shard_fraction),
                    "shard_fraction must lie in [0, 1]",
                )?;
            }
        }
        Ok(())
    }

    /// [`validate`](Self::validate), plus every crash fault must name a machine
    /// of a fleet of `n_machines` — the configuration half of what
    /// [`crate::Simulation::try_new`] rejects.
    pub fn validate_for(&self, n_machines: usize) -> Result<(), String> {
        self.validate()?;
        for f in &self.faults {
            if let FaultSpec::Crash { machine, .. } = f {
                ensure(
                    (*machine as usize) < n_machines,
                    &format!("crash fault names machine {machine} but the fleet has {n_machines}"),
                )?;
            }
        }
        Ok(())
    }
}

/// `Ok` when `ok` holds, otherwise `msg` as the error.
pub(crate) fn ensure(ok: bool, msg: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        RuntimeConfig::default().validate().unwrap();
    }

    #[test]
    fn policy_parses() {
        assert_eq!("sra".parse(), Ok(ControllerPolicy::Sra));
        assert_eq!("greedy".parse(), Ok(ControllerPolicy::Greedy));
        assert_eq!("off".parse(), Ok(ControllerPolicy::Off));
        assert!("nope".parse::<ControllerPolicy>().is_err());
        assert_eq!(ControllerPolicy::Sra.name(), "sra");
    }

    #[test]
    fn sub_unit_spike_factor_rejected() {
        let cfg = RuntimeConfig {
            faults: vec![FaultSpec::Spike {
                at: 1,
                duration: 1,
                factor: 0.5,
                shard_fraction: 0.1,
            }],
            ..Default::default()
        };
        assert!(cfg.validate().unwrap_err().contains("spike factor"));
    }

    #[test]
    fn out_of_fleet_crashes_and_zero_periods_are_errors_not_panics() {
        let crash = RuntimeConfig {
            faults: vec![FaultSpec::Crash {
                at: 1,
                machine: 9,
                recover_at: None,
            }],
            ..Default::default()
        };
        crash.validate().unwrap();
        crash.validate_for(10).unwrap();
        assert!(crash.validate_for(9).unwrap_err().contains("machine 9"));
        // A zero drift period would spin the event loop forever.
        let drift = RuntimeConfig {
            drift: Some(DriftSpec {
                every_ticks: 0,
                sigma: 0.1,
                target_utilization: 0.7,
            }),
            ..Default::default()
        };
        assert!(drift.validate().unwrap_err().contains("drift"));
    }

    #[test]
    fn scenario_lowering_maps_faults_and_flattens_the_day() {
        let spec = rex_cluster::ScenarioSpec {
            ticks: 100,
            spike: Some(rex_cluster::SpikeSpec {
                at_tick: 10,
                duration_ticks: 5,
                factor: 2.0,
                shard_fraction: 0.1,
            }),
            crash: Some(rex_cluster::CrashSpec {
                at_tick: 20,
                machine: 1,
                recover_at_tick: Some(40),
            }),
            sra: Some(rex_cluster::SraSpec {
                every_ticks: 25,
                iters: 500,
            }),
            ..Default::default()
        };
        let cfg = RuntimeConfig::from_scenario(&spec);
        cfg.validate().unwrap();
        assert_eq!(cfg.ticks, 100);
        assert_eq!(cfg.diurnal_amplitude, 0.0);
        assert_eq!(cfg.fanout, spec.fanout);
        assert_eq!(cfg.faults.len(), 2);
        assert_eq!(cfg.controller.policy, ControllerPolicy::Sra);
        assert_eq!(cfg.controller.poll_interval, 25);
        assert_eq!(cfg.controller.sra_iters, 500);
        assert!(!cfg.hotshard.enabled);
        assert!(cfg.drift.is_none());
        // No SRA trigger in the spec → load-driven rebalancing stays off.
        let off = RuntimeConfig::from_scenario(&rex_cluster::ScenarioSpec::default());
        assert_eq!(off.controller.policy, ControllerPolicy::Off);
    }

    #[test]
    fn degenerate_workload_lowers_bit_identically_to_its_scenario() {
        let spec = rex_cluster::ScenarioSpec {
            ticks: 300,
            qps_per_tick: 5.0,
            spike: Some(rex_cluster::SpikeSpec {
                at_tick: 50,
                duration_ticks: 40,
                factor: 2.5,
                shard_fraction: 0.1,
            }),
            sra: Some(rex_cluster::SraSpec {
                every_ticks: 60,
                iters: 400,
            }),
            ..Default::default()
        };
        let w = rex_cluster::WorkloadSpec::from_scenario(spec.clone());
        let a = format!("{:?}", RuntimeConfig::from_scenario(&spec));
        let b = format!("{:?}", RuntimeConfig::from_workload(&w, 16));
        assert_eq!(a, b);
    }

    #[test]
    fn workload_lowering_expands_rack_crashes_and_load_script() {
        let w = rex_cluster::WorkloadSpec {
            scenario: rex_cluster::ScenarioSpec {
                ticks: 400,
                ..Default::default()
            },
            fleet: Some(rex_cluster::FleetSpec {
                generations: vec![rex_cluster::GenerationSpec {
                    name: "base".into(),
                    count: 8,
                    scale: 1.0,
                }],
                exchange: 1,
                exchange_scale: 1.0,
                racks: 4,
            }),
            load: Some(rex_cluster::LoadScriptSpec {
                diurnal_amplitude: 0.4,
                ticks_per_hour: 25,
                zipf_alpha: 1.1,
                drift_every_ticks: 100,
                swaps_per_epoch: 6,
                target_utilization: 0.7,
            }),
            rack_crashes: vec![rex_cluster::RackCrashSpec {
                at_tick: 120,
                rack: 1,
                recover_at_tick: Some(250),
            }],
        };
        let cfg = RuntimeConfig::from_workload(&w, 8);
        cfg.validate().unwrap();
        // Rack 1 of 4 over 8 machines = machines 2 and 3, id order.
        let crashes: Vec<u32> = cfg
            .faults
            .iter()
            .map(|f| match f {
                FaultSpec::Crash { machine, .. } => *machine,
                other => panic!("unexpected fault {other:?}"),
            })
            .collect();
        assert_eq!(crashes, vec![2, 3]);
        assert_eq!(cfg.diurnal_amplitude, 0.4);
        assert_eq!(cfg.ticks_per_hour, 25);
        let p = cfg.popularity.expect("load script installs popularity");
        assert_eq!(p.every_ticks, 100);
        assert_eq!(p.swaps_per_epoch, 6);
        assert_eq!(p.zipf_alpha, 1.1);
        assert_eq!(p.target_utilization, 0.7);
    }

    #[test]
    fn popularity_and_hotshard_are_mutually_exclusive() {
        let mut cfg = RuntimeConfig {
            popularity: Some(PopularitySpec {
                every_ticks: 100,
                zipf_alpha: 1.0,
                swaps_per_epoch: 4,
                target_utilization: 0.7,
            }),
            ..Default::default()
        };
        cfg.hotshard.enabled = true;
        assert!(cfg.validate().unwrap_err().contains("mutually"));
    }
}
