//! # resource-exchange
//!
//! Facade crate for the reproduction of *"Improving Load Balance via
//! Resource Exchange in Large-Scale Search Engines"* (Duan, Li, Marbach,
//! Wang, Liu — ICPP 2020).
//!
//! The workspace is organized as one crate per subsystem; this crate
//! re-exports them under stable paths and hosts the runnable examples and
//! the cross-crate integration tests:
//!
//! * [`cluster`] — machines, shards, resources, assignments, and the
//!   transient-aware migration planner/simulator,
//! * [`workload`] — synthetic instance generators, the named suite and
//!   the drifting popularity walk,
//! * [`lns`] — the generic adaptive large-neighborhood-search framework,
//! * [`core`] — **SRA**, the paper's exchange-aware reassignment
//!   algorithm,
//! * [`baselines`] — greedy / local-search / FFD / random-walk
//!   comparators,
//! * [`runtime`] — the closed-loop cluster runtime: a deterministic
//!   discrete-event simulator that puts the controller, SRA, timed
//!   migrations, and fault injection in one reproducible loop,
//! * [`router`] — the query-level event engine: individual query
//!   arrivals, per-shard fan-out, and pluggable replica routing (random /
//!   round-robin / power-of-d / prequal / token) at millions of simulated
//!   events per second, with optional mid-run SRA reassignment.
//!
//! Two workspace crates stay off the product graph — the `rex` binary
//! links neither — and are named directly by the tests, the examples and
//! `rex-bench`: `crates/searchsim` (the mini search engine producing
//! "real-like" workloads) and `crates/solver` (the IP model, lower
//! bounds, and exact branch-and-bound).
//!
//! ## Quickstart
//!
//! ```
//! use resource_exchange::cluster::InstanceBuilder;
//! use resource_exchange::core::{solve, SraConfig};
//!
//! // Two loaded machines, one borrowed exchange machine.
//! let mut b = InstanceBuilder::new(1).alpha(0.1);
//! let m0 = b.machine(&[10.0]);
//! let _m1 = b.machine(&[10.0]);
//! let _x = b.exchange_machine(&[10.0]);
//! for _ in 0..8 {
//!     b.shard(&[1.0], 1.0, m0);
//! }
//! let inst = b.build().unwrap();
//!
//! let result = solve(&inst, &SraConfig { iters: 2_000, ..Default::default() }).unwrap();
//! assert!(result.final_report.peak < result.initial_report.peak);
//! ```

pub use rex_baselines as baselines;
pub use rex_cluster as cluster;
pub use rex_core as core;
pub use rex_lns as lns;
pub use rex_obs as obs;
pub use rex_router as router;
pub use rex_runtime as runtime;
pub use rex_workload as workload;
