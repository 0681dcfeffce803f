//! # rex-runtime — the closed-loop cluster runtime
//!
//! A deterministic discrete-event simulator that closes the loop the rest
//! of the workspace leaves open: the solver crates answer *"given this
//! snapshot, what is a good reassignment?"*, this crate answers *"what
//! happens when a controller keeps asking that question against a live
//! cluster?"* — with query traffic, queueing delays, migration copies that
//! take real time, machines that crash mid-migration, flash crowds, and
//! demand drift.
//!
//! The pieces:
//!
//! * [`events`] — the deterministic event queue (integer ticks, insertion-
//!   order tie-break).
//! * [`server`] — the per-machine queueing model: diurnal traffic, `1/(1−ρ)`
//!   service latency, fan-out max (the straggler sets query latency).
//! * [`controller`] — rolling-window trigger logic plus the planning
//!   policies (SRA with resource exchange, the greedy baseline, off).
//! * [`exec`] — timed batch execution with transient copy footprints, and
//!   an independent event-boundary verifier of the transient constraint.
//! * [`hotshard`] — the continuous hot-shard control plane: per-shard EWMA
//!   observation in a bounded hot-peer cache, split/merge with a
//!   hysteresis band, and an operator scheduler feeding the solver deltas.
//! * [`metrics`] — counters, gauges, HDR-style latency histograms, and the
//!   byte-deterministic JSON export.
//! * [`sim`] — the [`Simulation`] control brain: the event loop over an
//!   arrival plane (tick or event engine) and the optional hot-shard plane.
//!
//! Determinism is a hard contract: a run is a pure function of
//! `(Instance, RuntimeConfig)`, and two same-seed runs export byte-identical
//! JSON. See DESIGN.md §7 for the full argument.
//!
//! One lowering: an engine-neutral [`rex_cluster::WorkloadSpec`] becomes a
//! run through [`RuntimeConfig::from_workload`] and
//! [`Simulation::from_workload`] (tick mode) or
//! [`Simulation::from_workload_event`] (event mode, the only place the
//! embedded router backend is built); the `from_scenario` constructors
//! delegate to them on the degenerate workload. [`RuntimeConfig::validate`] /
//! [`RuntimeConfig::validate_for`] are the fallible range checks;
//! input-facing callers construct through [`Simulation::try_new`], which
//! returns their message, while [`Simulation::new`] panics on it.
//!
//! Observability: [`Simulation::run_traced`] narrates controller decisions,
//! per-batch migration progress, and fault injection into a
//! [`rex_obs::Recorder`] keyed by the simulation tick — same determinism
//! contract, byte-identical JSONL across same-seed runs (DESIGN.md §8).

pub mod config;
pub mod controller;
pub mod events;
pub mod exec;
pub mod hotshard;
pub mod metrics;
pub mod server;
pub mod sim;
pub mod trace;

pub use config::{
    ControllerConfig, ControllerPolicy, DriftSpec, FaultSpec, PopularitySpec, RuntimeConfig,
};
pub use controller::Controller;
pub use events::{Event, EventQueue};
pub use exec::{
    batch_durations, verify_event_boundaries, BoundaryViolation, MigrationKind, PlannedMigration,
};
pub use hotshard::{
    plan_hotshard_migration, EwmaCache, EwmaEntry, HotShardConfig, Operator, OperatorKind,
    OperatorScheduler,
};
pub use metrics::{Counters, GaugeSample, LatencyHistogram, LatencySummary, MetricsExport};
pub use sim::Simulation;
pub use trace::{ReplayScript, TraceHeader, TraceLine};
