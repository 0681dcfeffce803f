//! # rex-lns
//!
//! A generic **adaptive large neighborhood search** (ALNS) framework — the
//! metaheuristic substrate under the paper's SRA algorithm.
//!
//! LNS repeatedly *destroys* part of an incumbent solution and *repairs* it,
//! accepting or rejecting the result; the adaptive variant learns which
//! destroy/repair operator pairs are productive via roulette-wheel weights
//! (Ropke & Pisinger). This crate keeps all of that machinery generic so the
//! ablation benches can swap acceptance criteria and operator sets without
//! touching the domain logic in `rex-core`:
//!
//! * [`problem::LnsProblem`] — the domain interface (objective,
//!   feasibility, best-gate),
//! * [`problem::LnsProblemInPlace`], [`problem::DestroyInPlace`],
//!   [`problem::RepairInPlace`] — the allocation-free in-place edit
//!   protocol (destroy/repair mutate one working state; rejected edits are
//!   reverted from an undo log instead of discarding a clone),
//! * [`accept`] — hill-climbing, simulated annealing, record-to-record,
//! * [`weights::OperatorWeights`] — adaptive operator selection,
//! * [`engine::Engine`] — **the one iteration loop** (`Engine<P:
//!   LnsProblemInPlace>`, driving the problem directly): adaptive operator
//!   choice, acceptance, the iteration budget, trace events, and the
//!   best-objective trajectory recorder all live here and nowhere else,
//! * [`portfolio`] — a rayon-parallel multi-start runner with a
//!   deterministic reduction,
//! * [`cooperative`] — deterministic parallel execution of one decomposed
//!   round (one worker per sub-problem),
//! * [`toy`] — a tiny number-partitioning problem used by the tests and the
//!   documentation examples, and [`toy::CloneOracle`], the test-only
//!   wrapper problem that reverts by restoring a saved state clone (the
//!   differential reference for a problem's undo-log revert).
//!
//! Determinism: every run is driven by a caller-supplied `u64` seed; the
//! portfolio derives worker seeds as `seed ⊕ worker` and reduces with an
//! order-independent minimum, so parallel results are reproducible.
//!
//! Observability: the engine's `run_recorded` and the portfolio's
//! `portfolio_search` narrate the search into a [`rex_obs::Recorder`] —
//! per-iteration operator/outcome/delta events, cache-resync markers, and
//! per-worker summaries. Recording never perturbs the search, and a
//! `Recorder::Noop` costs one discriminant check per iteration.

pub mod accept;
pub mod cooperative;
pub mod engine;
pub mod portfolio;
pub mod problem;
pub mod toy;
pub mod weights;

pub use accept::{Acceptance, HillClimb, RecordToRecord, SimulatedAnnealing};
pub use cooperative::{cooperative_round, round_seed, RoundJob};
pub use engine::{Engine, EngineStats, LnsConfig, SearchOutcome, TrajectoryPoint};
pub use portfolio::{portfolio_search, worker_seed, PortfolioOutcome};
pub use problem::{DestroyInPlace, LnsProblem, LnsProblemInPlace, RepairInPlace};
pub use weights::OperatorWeights;
