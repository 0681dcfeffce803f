//! Layered solver configuration: one validated path from defaults to a
//! runnable [`SraConfig`].
//!
//! Every entry point that launches a solve — the `rex` CLI, the runtime
//! controller's rebalance/evacuation planning, the benches — builds its
//! configuration through [`SolveOptions`]:
//!
//! 1. start from the defaults ([`SolveOptions::new`]),
//! 2. layer overrides on top (controller policy knobs, CLI flags) with the
//!    chained setters,
//! 3. validate once at the boundary with [`SolveOptions::build`] (or
//!    [`SolveOptions::build_for`] when an instance is at hand to check
//!    fleet-dependent fields against).
//!
//! Out-of-range values are rejected with a typed [`ConfigError`] instead of
//! being silently clamped or panicking deep inside the solver.

use crate::sra::SraConfig;
use rex_cluster::Instance;

/// A solver configuration value rejected at the [`SolveOptions`] boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `iters` must be at least 1 — a zero-iteration search cannot run.
    ZeroIterations,
    /// `workers` must be 1: the search has one worker.
    Workers {
        /// Workers requested.
        workers: usize,
    },
    /// The migration-cost weight `lambda` must be finite and non-negative.
    NegativeLambda {
        /// The offending weight.
        lambda: f64,
    },
    /// Too many partitions for the fleet: decomposition needs at least two
    /// machines per partition, so `partitions` must stay below the machine
    /// count (a fleet-sized request would hand every partition a single
    /// machine and a zero vacancy quota).
    TooManyPartitions {
        /// Partitions requested.
        partitions: usize,
        /// Machines available.
        machines: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::ZeroIterations => write!(f, "iters must be at least 1"),
            ConfigError::Workers { workers } => {
                write!(
                    f,
                    "workers must be 1 (the search has one worker), got {workers}"
                )
            }
            ConfigError::NegativeLambda { lambda } => {
                write!(f, "lambda must be finite and non-negative, got {lambda}")
            }
            ConfigError::TooManyPartitions {
                partitions,
                machines,
            } => write!(
                f,
                "{partitions} partitions requested but the fleet has only {machines} \
                 machines (every partition needs at least two)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for a validated [`SraConfig`]. See the module docs for the
/// layering discipline.
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    cfg: SraConfig,
    workers: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self::new()
    }
}

impl SolveOptions {
    /// Starts from [`SraConfig::default`].
    pub fn new() -> Self {
        Self {
            cfg: SraConfig::default(),
            workers: 1,
        }
    }

    /// LNS iteration budget.
    pub fn iters(mut self, iters: u64) -> Self {
        self.cfg.iters = iters;
        self
    }

    /// Migration-cost weight of the objective.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.cfg.objective.lambda = lambda;
        self
    }

    /// Accepted only as `1`, the search's one worker. Kept because the
    /// benchmark harness (`benchmark/src/layers.rs`) calls `.workers(1)`;
    /// it goes with ROADMAP item 8.2.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Cooperative decomposition width (`0`/`1` = monolithic).
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.cfg.partitions = partitions;
        self
    }

    /// Deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates every instance-independent field and returns the runnable
    /// configuration.
    pub fn build(self) -> Result<SraConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.iters == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        if self.workers != 1 {
            return Err(ConfigError::Workers {
                workers: self.workers,
            });
        }
        let lambda = cfg.objective.lambda;
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(ConfigError::NegativeLambda { lambda });
        }
        Ok(cfg)
    }

    /// [`SolveOptions::build`] plus the fleet-dependent checks: a
    /// decomposed solve (`partitions > 1`) needs at least two machines per
    /// partition, so `partitions >= n_machines` is a configuration error,
    /// not something to clamp silently — a fleet-sized width would hand
    /// every partition one machine and a zero vacancy quota, which only
    /// blows up later inside `partition_fleet`. (The decomposed solver
    /// still tightens valid widths to at most half the machine count.)
    pub fn build_for(self, inst: &Instance) -> Result<SraConfig, ConfigError> {
        let cfg = self.build()?;
        if cfg.partitions > 1 && cfg.partitions >= inst.n_machines() {
            return Err(ConfigError::TooManyPartitions {
                partitions: cfg.partitions,
                machines: inst.n_machines(),
            });
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::InstanceBuilder;

    #[test]
    fn defaults_validate_cleanly() {
        let cfg = SolveOptions::new().build().unwrap();
        assert_eq!(cfg.iters, SraConfig::default().iters);
    }

    #[test]
    fn zero_iterations_rejected() {
        assert_eq!(
            SolveOptions::new().iters(0).build().unwrap_err(),
            ConfigError::ZeroIterations
        );
    }

    #[test]
    fn workers_other_than_one_rejected() {
        for workers in [0, 2] {
            assert_eq!(
                SolveOptions::new().workers(workers).build().unwrap_err(),
                ConfigError::Workers { workers }
            );
        }
        SolveOptions::new().workers(1).build().unwrap();
    }

    #[test]
    fn negative_lambda_rejected() {
        for lambda in [-0.25, f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            let err = SolveOptions::new().lambda(lambda).build().unwrap_err();
            assert!(
                matches!(err, ConfigError::NegativeLambda { .. }),
                "{lambda} -> {err:?}"
            );
        }
        SolveOptions::new().lambda(0.0).build().unwrap();
    }

    #[test]
    fn too_many_partitions_rejected_against_fleet() {
        let mut b = InstanceBuilder::new(1).label("opt");
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        b.shard(&[1.0], 1.0, m0);
        let inst = b.build().unwrap(); // 3 machines
        assert_eq!(
            SolveOptions::new()
                .partitions(4)
                .build_for(&inst)
                .unwrap_err(),
            ConfigError::TooManyPartitions {
                partitions: 4,
                machines: 3
            }
        );
        // A fleet-sized width (one machine, zero vacancy quota per
        // partition) is rejected at the boundary too.
        assert_eq!(
            SolveOptions::new()
                .partitions(3)
                .build_for(&inst)
                .unwrap_err(),
            ConfigError::TooManyPartitions {
                partitions: 3,
                machines: 3
            }
        );
        // fleet−1 stays below the machine count and is accepted (the
        // decomposed solver clamps widths further), and `partitions <= 1`
        // means "monolithic" — always accepted.
        SolveOptions::new().partitions(2).build_for(&inst).unwrap();
        SolveOptions::new().partitions(1).build_for(&inst).unwrap();
        SolveOptions::new().partitions(0).build_for(&inst).unwrap();
    }

    #[test]
    fn partition_edges_on_a_wider_fleet() {
        // 6 machines: the fleet-sized width is rejected at the boundary;
        // fleet−1 and below pass (the decomposed solver clamps further,
        // to at most half the machine count).
        let mut b = InstanceBuilder::new(1).label("opt6");
        let m0 = b.machine(&[10.0]);
        for _ in 0..4 {
            b.machine(&[10.0]);
        }
        let _x = b.exchange_machine(&[10.0]);
        b.shard(&[1.0], 1.0, m0);
        let inst = b.build().unwrap();
        assert!(matches!(
            SolveOptions::new().partitions(6).build_for(&inst),
            Err(ConfigError::TooManyPartitions {
                partitions: 6,
                machines: 6
            })
        ));
        assert!(SolveOptions::new().partitions(5).build_for(&inst).is_ok());
        assert!(SolveOptions::new().partitions(3).build_for(&inst).is_ok());
        assert!(SolveOptions::new().partitions(1).build_for(&inst).is_ok());
    }

    #[test]
    fn errors_render_human_readably() {
        let e = ConfigError::TooManyPartitions {
            partitions: 9,
            machines: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains('4'), "{msg}");
        assert!(ConfigError::ZeroIterations.to_string().contains("iters"));
    }
}
