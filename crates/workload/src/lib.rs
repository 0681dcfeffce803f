//! # rex-workload
//!
//! Problem-instance generators for the evaluation:
//!
//! * [`synthetic`] — parameterized families (uniform, Zipf-skewed,
//!   correlated, stringent-adversarial) with controllable initial
//!   imbalance, standing in for the paper's "synthetic data",
//! * [`io`] — JSON (de)serialization of instances so experiment inputs are
//!   reproducible artifacts,
//! * [`suite`] — the named workload suite the benches iterate over,
//! * [`popularity`] — the drifting Zipfian shard-popularity walk behind
//!   the workload plane's load script (DESIGN.md §16).

pub mod evolve;
pub mod io;
pub mod popularity;
pub mod special;
pub mod suite;
pub mod synthetic;

pub use evolve::{next_epoch, DriftConfig};
pub use popularity::{apply_popularity, PopularityWalk};
pub use special::swap_locked;
pub use suite::{standard_suite, SuiteEntry};
pub use synthetic::{
    generate_workload, profile_fleet, DemandFamily, MachineProfile, Placement, SynthConfig,
};
