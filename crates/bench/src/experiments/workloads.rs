//! **E1 / Table 2 — workload characteristics.**
//!
//! The paper evaluates on "both synthetic data and real data from actual
//! datacenters"; this binary reports the statistics of our stand-ins: the
//! five synthetic families and the searchsim-derived realistic instance.

use crate::{f2, f4, pick, scaled, scaled_fleet, Table};
use rex_cluster::{Assignment, BalanceReport, Instance};
use rex_searchsim::bridge::{build_instance, BridgeConfig};
use rex_searchsim::corpus::CorpusConfig;
use rex_searchsim::queries::QueryConfig;
use rex_workload::standard_suite;

fn stats_row(name: &str, inst: &Instance) -> Vec<String> {
    let asg = Assignment::from_initial(inst);
    let report = BalanceReport::compute(inst, &asg);
    // Heavy-tail indicator: largest / median shard demand (peak dimension).
    let mut peaks: Vec<f64> = inst
        .shards
        .iter()
        .map(|s| s.demand.as_slice().iter().cloned().fold(0.0f64, f64::max))
        .collect();
    peaks.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let tail = peaks[0] / peaks[peaks.len() / 2].max(1e-12);
    // Aggregate demand over the loaded (non-exchange) fleet's capacity,
    // hottest dimension — correct for heterogeneous fleets too.
    let mut loaded_cap = rex_cluster::ResourceVec::zero(inst.dims);
    for m in inst.machines.iter().filter(|m| !m.exchange) {
        loaded_cap += &m.capacity;
    }
    let util = inst.total_demand().max_ratio(&loaded_cap);
    vec![
        name.to_string(),
        inst.n_machines().to_string(),
        inst.n_exchange().to_string(),
        inst.n_shards().to_string(),
        inst.dims.to_string(),
        f2(util),
        f4(report.peak),
        f2(report.imbalance),
        f2(tail),
    ]
}

pub fn run() {
    let machines = scaled_fleet(32);
    let shards = scaled(320);
    let mut t = Table::new(
        "workload | machines | exchange | shards | dims | utilization | init peak | init imbalance | top/median demand",
    );

    for entry in standard_suite(machines, machines / 8, shards, 0.8) {
        let inst = (entry.generate)(42);
        t.row(stats_row(entry.name, &inst));
    }

    // Searchsim-derived "real-like" instance.
    let bridge = BridgeConfig {
        corpus: CorpusConfig {
            n_docs: pick(1_000, 20_000),
            vocab: pick(2_000, 30_000),
            seed: 42,
            ..Default::default()
        },
        queries: QueryConfig {
            n_queries: pick(500, 20_000),
            seed: 43,
            ..Default::default()
        },
        // Keep ≥3 shards per machine: the bridge caps a single shard at
        // 45% of a machine, so `machines · stringency` must fit under
        // `shards · 0.45` even in quick mode.
        n_shards: scaled(160).max(3 * machines),
        n_machines: machines,
        n_exchange: machines / 8,
        stringency: 0.8,
        ..Default::default()
    };
    let inst = build_instance(&bridge).expect("bridge instance");
    t.row(stats_row("searchsim", &inst));

    t.print("E1 / Table 2 — workload characteristics");
    println!("\nUtilization = aggregate demand / loaded-fleet capacity (hottest dimension).");
}
