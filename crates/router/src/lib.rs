//! # rex-router
//!
//! Query-level event engine with replica routing: the layer below the
//! tick-aggregated `rex-runtime` world. Where the runtime simulator moves
//! whole-tick load aggregates, this crate simulates **individual query
//! events** — arrivals, per-shard fan-out, replica selection, FIFO service
//! with a `1/(1−ρ)` straggler shape, completion — at millions of events
//! per second, deterministically.
//!
//! The pieces:
//!
//! * [`queue`] — the bucketed calendar queue driving the event loop
//!   (integer micro-ticks, O(1) schedule, lazy min-heap overflow),
//! * [`state`] — structure-of-arrays replica/machine/query state with
//!   index handles and a free-list query slab (zero allocation once warm),
//! * [`policy`] — the one [`Policy`] enum: random, round-robin and
//!   power-of-d inline, Prequal and token balancing in their own modules,
//! * [`prequal`] — the async probe-pool policy with hot/cold
//!   classification, probe reuse budgets, and expiry (its pool sizes and
//!   deadlines are constants there),
//! * [`token`] — Comte-style token-count balancing,
//! * [`bridge`] — Instance → fleet derivation and the mid-run SRA
//!   coupling that mutates the replica map while queries are in flight,
//! * [`sim`] — the engine itself: [`Router`], [`RouterReport`], and the
//!   [`run`]/[`run_traced`] entry points,
//! * `feed` (private) — the arrival schedule and its shard and service
//!   draws, generated ahead of the event loop (on its own thread above one
//!   worker thread) because none of it reads router state.
//!
//! ## Determinism
//!
//! A run is a pure function of `(Instance, RouterConfig)`. Arrivals,
//! service draws, policy randomness, the flash-crowd hot set, and the SRA
//! coupling each consume a *named* RNG stream derived from the master
//! seed, so policies can be swapped without perturbing the arrival
//! pattern, and the report JSON is byte-identical across runs, thread
//! counts, and `--trace` settings.
//!
//! ## Quickstart
//!
//! ```
//! use rex_router::{run, RouterConfig};
//! use rex_workload::{synthetic::generate, SynthConfig};
//!
//! let inst = generate(&SynthConfig {
//!     n_machines: 8,
//!     n_shards: 64,
//!     ..Default::default()
//! })
//! .unwrap();
//! let cfg = RouterConfig {
//!     horizon_us: 20_000,
//!     qps: 100_000.0,
//!     ..Default::default()
//! };
//! let report = run(&inst, &cfg);
//! assert!(report.queries > 0 && report.p99_us >= report.p50_us);
//! ```

#![warn(missing_docs)]

pub mod bridge;
pub mod config;
mod feed;
pub mod policy;
pub mod prequal;
pub mod queue;
pub mod sim;
pub mod state;
pub mod token;

pub use config::{FlashCrowd, HotSetMode, PolicyKind, RouterConfig, SraCoupling};
pub use policy::Policy;
pub use prequal::{Prequal, ProbeStats};
pub use sim::{run, run_traced, Router, RouterReport};
pub use token::TokenBalancer;
