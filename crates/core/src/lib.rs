//! # rex-core
//!
//! **SRA — the Shard Reassignment Algorithm** of *"Improving Load Balance
//! via Resource Exchange in Large-Scale Search Engines"* (ICPP 2020),
//! reconstructed from the paper's abstract (see the repository's DESIGN.md
//! for the source-text caveat).
//!
//! SRA approximates the paper's integer program with a large neighborhood
//! search over shard placements:
//!
//! * the incumbent is a complete [`rex_cluster::Assignment`];
//! * **destroy operators** ([`destroy`]) detach a subset of shards — at
//!   random, from the hottest machines, by demand similarity (Shaw), or by
//!   evacuating one machine entirely (the *machine-exchange* move that lets
//!   an originally-loaded machine be handed back in place of a borrowed
//!   one);
//! * **repair operators** ([`repair`]) re-insert the detached shards
//!   greedily, by regret-2 priority, or with randomized sampling — all of
//!   them refusing insertions that would overload a machine or leave fewer
//!   than `k_return` vacant machines;
//! * the **acceptance criterion** (simulated annealing by default) and
//!   adaptive operator weights come from `rex-lns`;
//! * the hot loop runs **in place** over an [`state::SraState`]: operators
//!   mutate one working assignment under an undo log, the objective is
//!   tracked incrementally (delta evaluation with periodic
//!   resynchronization), and rejected candidates are reverted instead of
//!   being re-cloned — see DESIGN.md's "Hot path & delta evaluation";
//! * the final incumbent must admit a **transient-feasible migration
//!   schedule** (planned and independently verified by
//!   `rex-cluster::migration`): every search keeps only bests that passed
//!   the plannability gate, so its result is its start or schedulable by
//!   construction.
//!
//! Entry point: [`sra::solve`] (the serial search, or the decomposed one
//! when [`sra::SraConfig::partitions`] is above 1).

pub mod decomposed;
pub mod delta;
pub mod destroy;
pub mod options;
pub mod problem;
pub mod repair;
pub mod sra;
pub mod state;

pub use delta::{solve_delta, DeltaOutcome};
pub use destroy::{
    default_destroys_in_place, MachineExchangeRemoval, RandomRemoval, RelatedRemoval,
    WorstMachineRemoval,
};
pub use options::{ConfigError, SolveOptions};
pub use problem::SraProblem;
pub use repair::{default_repairs_in_place, GreedyBestFit, RandomizedGreedy, Regret2Insert};
pub use sra::{
    run_search, solve, solve_traced, solve_with_drain, AcceptanceKind, SraConfig, SraResult,
};
pub use state::SraState;
