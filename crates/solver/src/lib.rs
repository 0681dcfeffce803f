//! # rex-solver
//!
//! The paper formulates shard reassignment as a **linearly constrained
//! integer program**. This crate makes that formulation executable without
//! a proprietary solver:
//!
//! * [`model::IpModel`] — an explicit, inspectable build of the IP
//!   (variables `x_{s,m}`, `y_m`, `t`; assignment, capacity, peak-load,
//!   vacancy-linking, and return-quota constraints), with an LP-format
//!   printer and a constraint checker used to validate solutions from *any*
//!   algorithm against the formulation,
//! * [`bounds`] — fractional lower bounds on the optimal peak load
//!   (vacancy-aware mediant bound, largest-shard bound),
//! * [`exact::branch_and_bound`] — an exact solver for the small instances
//!   where optimality gaps are reportable (experiment E7 / Table 4), with
//!   capacity-class symmetry breaking and bound-based pruning.
//!
//! The IP (like the paper's) optimizes the *target* placement; transient
//! schedulability is checked outside the program by the migration planner.

pub mod bounds;
pub mod exact;
pub mod model;

pub use bounds::peak_lower_bound;
pub use exact::{branch_and_bound, ExactConfig, ExactResult};
pub use model::{IpModel, Violation};
