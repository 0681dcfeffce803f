//! The experiments, one plain function each. `exp <name>` runs one; its
//! full-mode stdout is `results/exp_<name>.md`.

mod ablation;
mod alpha;
mod closed_loop;
mod convergence;
mod exchange_sweep;
mod headline;
mod heterogeneous;
mod hotshard;
mod lns_convergence;
mod longrun;
mod migration;
mod optgap;
mod qos;
mod routing;
mod scalability;
mod stringency;
mod workloads;

/// Every experiment by name, in E1–E17 order (`exp all` runs this order).
pub const ALL: [(&str, fn()); 17] = [
    ("workloads", workloads::run),
    ("headline", headline::run),
    ("exchange_sweep", exchange_sweep::run),
    ("lns_convergence", lns_convergence::run),
    ("migration", migration::run),
    ("scalability", scalability::run),
    ("optgap", optgap::run),
    ("stringency", stringency::run),
    ("ablation", ablation::run),
    ("alpha", alpha::run),
    ("qos", qos::run),
    ("longrun", longrun::run),
    ("closed_loop", closed_loop::run),
    ("hotshard", hotshard::run),
    ("routing", routing::run),
    ("convergence", convergence::run),
    ("heterogeneous", heterogeneous::run),
];
