//! # rex-cluster
//!
//! Cluster substrate for the resource-exchange shard-reassignment system.
//!
//! This crate models a search-engine datacenter at the granularity the paper
//! operates on:
//!
//! * [`resources::ResourceVec`] — fixed-capacity multi-dimensional resource
//!   vectors (CPU, memory, disk, …) with allocation-free arithmetic,
//! * [`Machine`] / [`Shard`] — capacity and demand carriers,
//! * [`Instance`] — a complete problem instance: machines (including the
//!   borrowed, initially-vacant *exchange machines*), shards, the initial
//!   placement, the number of vacant machines that must be returned, and the
//!   transient migration-overhead factor,
//! * [`Assignment`] — a mutable placement with incrementally maintained
//!   per-machine usage, supporting O(D) moves and load queries,
//! * [`migration`] — the transient-resource-aware migration planner and the
//!   independent step simulator that verifies any produced schedule,
//! * [`metrics`] — balance metrics (peak load, imbalance, Jain fairness),
//!   migration statistics and the nearest-rank latency percentiles,
//! * [`service`] / [`zipf`] — what both simulation engines and the workload
//!   plane share: the `1/(1−ρ)` service model with its diurnal profile, and
//!   the Zipf sampler behind [`LoadScriptSpec::zipf_alpha`].
//!
//! Everything downstream (`rex-core`'s SRA, the baselines, the solver, the
//! benches) is built on these types.

pub mod arena;
pub mod assignment;
pub mod error;
pub mod instance;
pub mod kernels;
pub mod machine;
pub mod metrics;
pub mod migration;
pub mod objective;
pub mod partition;
pub mod resources;
pub mod scenario;
pub mod service;
pub mod shard;
pub mod zipf;

pub use arena::PackedVecs;
pub use assignment::{Assignment, UndoLog};
pub use error::ClusterError;
pub use instance::{Instance, InstanceBuilder};
pub use kernels::LoadScan;
pub use machine::{Machine, MachineId};
pub use metrics::BalanceReport;
pub use migration::{plan_migration, verify_schedule, MigrationPlan, Move, Planner, PlannerConfig};
pub use objective::Objective;
pub use partition::{partition_fleet, partition_subfleet, PartitionSpec};
pub use resources::{ResourceVec, MAX_DIMS};
pub use scenario::{
    CrashSpec, FleetSpec, GenerationSpec, LoadScriptSpec, RackCrashSpec, ScenarioError,
    ScenarioSpec, SpikeSpec, SraSpec, WorkloadSpec,
};
pub use shard::{Shard, ShardId};
pub use zipf::Zipf;

/// Numerical tolerance used for all capacity comparisons.
///
/// Resource quantities are modelled as `f64`; sums of many shard demands
/// accumulate rounding error, so every "fits within capacity" test allows
/// this absolute slack. It is deliberately tiny relative to realistic
/// capacities (which are O(1)..O(10^6)).
pub const EPS: f64 = 1e-9;
