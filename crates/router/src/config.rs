//! Router configuration: the one validated struct a routing run is a pure
//! function of (together with the [`rex_cluster::Instance`] it runs over).

/// Which replica-selection policy the router runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Uniform random replica.
    Random,
    /// Per-shard round-robin.
    RoundRobin,
    /// Best of `d` sampled replicas by queue depth (power of d choices).
    PowerOfD,
    /// Prequal-style async probe pool with hot/cold classification.
    Prequal,
    /// Comte-style token counts: pick the replica holding the most tokens.
    Token,
}

impl PolicyKind {
    /// Stable lowercase name (CLI value, table label, span field).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Random => "random",
            PolicyKind::RoundRobin => "round_robin",
            PolicyKind::PowerOfD => "power_of_d",
            PolicyKind::Prequal => "prequal",
            PolicyKind::Token => "token",
        }
    }

    /// Every policy, in the order experiments report them.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Random,
        PolicyKind::RoundRobin,
        PolicyKind::PowerOfD,
        PolicyKind::Prequal,
        PolicyKind::Token,
    ];
}

impl std::str::FromStr for PolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "random" => Ok(PolicyKind::Random),
            "round-robin" | "round_robin" => Ok(PolicyKind::RoundRobin),
            "power-of-d" | "power_of_d" => Ok(PolicyKind::PowerOfD),
            "prequal" => Ok(PolicyKind::Prequal),
            "token" => Ok(PolicyKind::Token),
            other => Err(format!(
                "unknown policy `{other}` (random|round-robin|power-of-d|prequal|token)"
            )),
        }
    }
}

/// How the flash-crowd hot set is chosen at construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HotSetMode {
    /// A uniform random subset from the named spike stream (the original
    /// router behavior — stresses routing under an arbitrary crowd).
    #[default]
    Random,
    /// The hottest shards by CPU demand (ties by id), via
    /// [`rex_cluster::scenario::hot_set`] — the same deterministic
    /// selection the tick engine makes, so a shared
    /// [`rex_cluster::ScenarioSpec`] spikes identical shards in both
    /// engines.
    Hottest,
}

/// A flash crowd: between `at_us` and `at_us + duration_us`, the arrival
/// weight of `shard_fraction` of the shards is multiplied by `factor`
/// (their machines also bear the matching extra utilization).
#[derive(Clone, Copy, Debug)]
pub struct FlashCrowd {
    /// Spike onset (micro-ticks).
    pub at_us: u64,
    /// Spike length (micro-ticks).
    pub duration_us: u64,
    /// Arrival-weight multiplier for the hot shards.
    pub factor: f64,
    /// Fraction of shards that go hot.
    pub shard_fraction: f64,
}

/// Periodic SRA coupling: every `every_us` the router snapshots observed
/// per-shard traffic into an [`rex_cluster::Instance`] and runs the
/// rex-core search; resulting moves mutate the replica map mid-run.
#[derive(Clone, Copy, Debug)]
pub struct SraCoupling {
    /// Poll period (micro-ticks).
    pub every_us: u64,
    /// LNS iterations per poll (kept small: the solve runs inline).
    pub iters: u64,
}

impl Default for SraCoupling {
    fn default() -> Self {
        Self {
            every_us: 50_000,
            iters: 600,
        }
    }
}

/// Everything a routing run is parameterized by. One micro-tick is one
/// simulated microsecond; `horizon_us` bounds *arrivals* (in-flight work
/// still drains afterwards).
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Arrival horizon in micro-ticks (1 µs each).
    pub horizon_us: u64,
    /// Offered load, queries per simulated second.
    pub qps: f64,
    /// Replicas per shard.
    pub replication: usize,
    /// Shards each query fans out to (subrequests per query).
    pub fanout: usize,
    /// Mean service time of a subrequest at ρ = 0, in µs.
    pub base_service_us: f64,
    /// Utilization clamp for the `1/(1−ρ)` straggler shape.
    pub rho_max: f64,
    /// Replica-selection policy.
    pub policy: PolicyKind,
    /// `d` for [`PolicyKind::PowerOfD`] (and Prequal's pool-miss fallback,
    /// at least 2 there).
    pub d_choices: usize,
    /// Optional flash crowd.
    pub spike: Option<FlashCrowd>,
    /// How a flash crowd's hot set is drawn.
    pub hot_set: HotSetMode,
    /// Optional mid-run SRA reassignment coupling.
    pub sra: Option<SraCoupling>,
    /// Master seed; every stream (arrivals, service, policy, spike)
    /// derives from it.
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            horizon_us: 200_000,
            qps: 500_000.0,
            replication: 3,
            fanout: 4,
            base_service_us: 600.0,
            rho_max: 0.98,
            policy: PolicyKind::PowerOfD,
            d_choices: 2,
            spike: None,
            hot_set: HotSetMode::Random,
            sra: None,
            seed: 42,
        }
    }
}

impl RouterConfig {
    /// Lowers an engine-neutral [`rex_cluster::ScenarioSpec`] to this
    /// event engine's units: `horizon_us = ticks · tick_us`,
    /// `qps = qps_per_tick · 10⁶ / tick_us`, fault ticks multiplied out to
    /// microseconds, and the flash-crowd hot set pinned to
    /// [`HotSetMode::Hottest`] so both engines spike the same shards.
    ///
    /// Replication is forced to 1: the differential contract mirrors the
    /// tick engine's one-home-per-shard `Assignment`, so the replica map
    /// and the assignment can stay bit-equal under mirrored moves.
    /// Crash faults are *not* lowered here — in backend mode the runtime
    /// owns crash/evacuation decisions and forwards failure flips through
    /// `Router::set_failed`.
    pub fn from_scenario(spec: &rex_cluster::ScenarioSpec, policy: PolicyKind) -> Self {
        spec.validate().expect("scenario spec must validate");
        Self {
            horizon_us: spec.horizon_us(),
            qps: spec.qps(),
            replication: 1,
            fanout: spec.fanout,
            base_service_us: spec.base_service_us,
            rho_max: spec.rho_max,
            policy,
            spike: spec.spike.map(|sp| FlashCrowd {
                at_us: sp.at_tick * spec.tick_us,
                duration_us: sp.duration_ticks * spec.tick_us,
                factor: sp.factor,
                shard_fraction: sp.shard_fraction,
            }),
            hot_set: HotSetMode::Hottest,
            sra: None,
            seed: spec.seed,
            ..Default::default()
        }
    }

    /// Range-checks every knob; the error is one line naming the offending
    /// field — mirrors `RuntimeConfig::validate`: a config is checked once,
    /// at the boundary, before any event fires. Input-facing callers (the
    /// CLI) surface it as-is; [`crate::Router::new`] panics on it.
    pub fn validate(&self) -> Result<(), String> {
        ensure(self.horizon_us > 0, "horizon_us must be positive")?;
        ensure(self.qps > 0.0, "qps must be positive")?;
        ensure(self.replication >= 1, "replication must be at least 1")?;
        ensure(self.fanout >= 1, "fanout must be at least 1")?;
        ensure(
            self.base_service_us > 0.0,
            "base_service_us must be positive",
        )?;
        ensure(
            self.rho_max > 0.0 && self.rho_max < 1.0,
            "rho_max must lie in (0, 1)",
        )?;
        ensure(self.d_choices >= 1, "d_choices must be at least 1")?;
        if let Some(s) = &self.spike {
            ensure(s.duration_us > 0, "spike duration_us must be positive")?;
            ensure(
                s.at_us.checked_add(s.duration_us).is_some(),
                "spike at_us + duration_us overflows the micro-tick clock",
            )?;
            ensure(s.factor >= 1.0, "spike factor must be at least 1")?;
            ensure(
                (0.0..=1.0).contains(&s.shard_fraction),
                "spike shard_fraction must lie in [0, 1]",
            )?;
        }
        if let Some(c) = &self.sra {
            ensure(c.every_us > 0, "sra every_us must be positive")?;
            ensure(c.iters > 0, "sra iters must be positive")?;
        }
        // `Router::new` pre-sizes its query slab and event queue for the
        // subrequests the peak rate keeps in flight over 16 mean service
        // times (its per-µs buckets for 3 µs of arrivals); past 2²⁴ entries
        // that is an error here, not an allocation abort there.
        let peak_per_us = self.qps / 1e6 * self.spike.map_or(1.0, |s| s.factor);
        let in_flight = peak_per_us * self.fanout as f64 * (self.base_service_us * 16.0).max(3.0);
        ensure(
            in_flight <= (1u64 << 24) as f64,
            "qps × fanout × base_service_us keeps more subrequests in flight than the router holds",
        )
    }
}

/// `Ok` when `ok` holds, otherwise `msg` as the error.
fn ensure(ok: bool, msg: &str) -> Result<(), String> {
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
    fn default_config_validates() {
        RouterConfig::default().validate().unwrap();
    }

    #[test]
    fn policy_names_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(p.name().parse::<PolicyKind>().unwrap(), p);
        }
        assert!("nope".parse::<PolicyKind>().is_err());
        // CLI-friendly dashed spellings parse too.
        assert_eq!(
            "round-robin".parse::<PolicyKind>().unwrap(),
            PolicyKind::RoundRobin
        );
        assert_eq!(
            "power-of-d".parse::<PolicyKind>().unwrap(),
            PolicyKind::PowerOfD
        );
    }

    #[test]
    fn bad_rho_max_is_rejected() {
        let e = RouterConfig {
            rho_max: 1.0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(e.contains("rho_max"), "{e}");
    }

    #[test]
    fn horizons_past_two_to_the_26_queries_validate() {
        // Latencies go into a fixed-size histogram, so no horizon × qps is
        // too many queries to hold.
        let cfg = RouterConfig {
            horizon_us: 100_000_000_000_000,
            ..Default::default()
        };
        assert!(cfg.horizon_us as f64 * cfg.qps / 1e6 > (1u64 << 26) as f64);
        cfg.validate().unwrap();
    }

    #[test]
    fn hostile_rates_and_spike_windows_are_rejected() {
        for qps in [f64::INFINITY, f64::NAN, 0.0, 1e12] {
            let e = RouterConfig {
                qps,
                ..Default::default()
            }
            .validate()
            .unwrap_err();
            assert!(e.contains("qps"), "{e}");
        }
        let hostile = [
            (u64::MAX - 5, 3.0, "overflows"),
            (1_000, f64::INFINITY, "in flight"),
        ];
        for (at_us, factor, msg) in hostile {
            let spike = Some(FlashCrowd {
                at_us,
                duration_us: 10_000,
                factor,
                shard_fraction: 0.1,
            });
            let e = RouterConfig {
                spike,
                ..Default::default()
            }
            .validate()
            .unwrap_err();
            assert!(e.contains(msg), "{e}");
        }
    }

    #[test]
    fn zero_replication_is_rejected() {
        let e = RouterConfig {
            replication: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(e.contains("replication"), "{e}");
    }
}
