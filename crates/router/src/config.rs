//! Router configuration: the one validated struct a routing run is a pure
//! function of (together with the [`rex_cluster::Instance`] it runs over).

use serde::{Deserialize, Serialize};

/// Which replica-selection policy the router runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SraCoupling {
    /// Poll period (micro-ticks).
    pub every_us: u64,
    /// LNS iterations per poll (kept small: the solve runs inline).
    pub iters: u64,
    /// Target mean utilization the traffic snapshot is normalized to
    /// (keeps the snapshot instance feasible even mid-flash-crowd).
    pub snapshot_utilization: f64,
}

impl Default for SraCoupling {
    fn default() -> Self {
        Self {
            every_us: 50_000,
            iters: 600,
            snapshot_utilization: 0.6,
        }
    }
}

/// Everything a routing run is parameterized by. One micro-tick is one
/// simulated microsecond; `horizon_us` bounds *arrivals* (in-flight work
/// still drains afterwards).
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// `d` for [`PolicyKind::PowerOfD`] (and the pool-miss fallback).
    pub d_choices: usize,
    /// Prequal: probe round-trip time (µs).
    pub probe_rtt_us: u64,
    /// Prequal: per-shard probe-pool capacity.
    pub probe_pool: usize,
    /// Prequal: probes issued per routed subrequest (may be fractional).
    pub probe_rate: f64,
    /// Prequal: pool entries older than this are discarded (µs).
    pub probe_expiry_us: u64,
    /// Prequal: a pool entry serves at most this many picks before it is
    /// discarded (reuse budget).
    pub probe_max_uses: u32,
    /// Prequal: entries with requests-in-flight at or above this are hot.
    pub hot_rif: u32,
    /// Token: initial tokens per replica.
    pub token_init: u32,
    /// EWMA smoothing for per-replica latency estimates.
    pub ewma_alpha: f64,
    /// Record every k-th query latency into the percentile sample set.
    pub sample_every: u64,
    /// Optional flash crowd.
    pub spike: Option<FlashCrowd>,
    /// How a flash crowd's hot set is drawn (`#[serde(default)]` keeps
    /// pre-PR 8 config files loadable).
    #[serde(default)]
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
            probe_rtt_us: 300,
            probe_pool: 16,
            probe_rate: 1.0,
            probe_expiry_us: 5_000,
            probe_max_uses: 3,
            hot_rif: 4,
            token_init: 2,
            ewma_alpha: 0.2,
            sample_every: 1,
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
            sample_every: 1,
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
        ensure(self.probe_rtt_us >= 1, "probe_rtt_us must be at least 1")?;
        ensure(self.probe_pool >= 1, "probe_pool must be at least 1")?;
        ensure(self.probe_rate >= 0.0, "probe_rate must be non-negative")?;
        ensure(self.probe_expiry_us > 0, "probe_expiry_us must be positive")?;
        ensure(
            self.probe_max_uses >= 1,
            "probe_max_uses must be at least 1",
        )?;
        ensure(
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "ewma_alpha must lie in (0, 1]",
        )?;
        ensure(self.sample_every >= 1, "sample_every must be at least 1")?;
        if let Some(s) = &self.spike {
            ensure(s.duration_us > 0, "spike duration_us must be positive")?;
            ensure(s.factor >= 1.0, "spike factor must be at least 1")?;
            ensure(
                (0.0..=1.0).contains(&s.shard_fraction),
                "spike shard_fraction must lie in [0, 1]",
            )?;
        }
        if let Some(c) = &self.sra {
            ensure(c.every_us > 0, "sra every_us must be positive")?;
            ensure(c.iters > 0, "sra iters must be positive")?;
            ensure(
                c.snapshot_utilization > 0.0 && c.snapshot_utilization < 1.0,
                "sra snapshot_utilization must lie in (0, 1)",
            )?;
        }
        Ok(())
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
