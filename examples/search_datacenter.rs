//! The paper's motivating scenario, end to end: a document-partitioned
//! search engine whose shards have drifted out of balance.
//!
//! The example builds a corpus, indexes it into skew-sized shards, replays
//! a Zipf-skewed query log to measure per-shard CPU cost, converts the
//! measurements into a cluster instance, and then compares SRA against the
//! no-exchange greedy baseline.
//!
//! ```sh
//! cargo run --release --example search_datacenter
//! ```

use resource_exchange::baselines::{GreedyRebalancer, Rebalancer};
use resource_exchange::core::{solve, SraConfig};
use rex_searchsim::bridge::{build_instance, BridgeConfig};
use rex_searchsim::corpus::CorpusConfig;
use rex_searchsim::queries::QueryConfig;

fn main() {
    let cfg = BridgeConfig {
        corpus: CorpusConfig {
            n_docs: 8_000,
            vocab: 15_000,
            seed: 2024,
            ..Default::default()
        },
        queries: QueryConfig {
            n_queries: 5_000,
            seed: 2025,
            ..Default::default()
        },
        n_shards: 96,
        n_machines: 12,
        n_exchange: 2,
        stringency: 0.82,
        alpha: 0.15,
    };
    println!("building corpus, index, and query workload…");
    let inst = build_instance(&cfg).expect("bridge pipeline");
    println!("instance: {}", inst.label);
    println!(
        "  {} machines (+{} exchange), {} shards, utilization {:.2}",
        inst.n_machines() - inst.n_exchange(),
        inst.n_exchange(),
        inst.n_shards(),
        inst.stringency() * inst.n_machines() as f64
            / (inst.n_machines() - inst.n_exchange()) as f64,
    );

    println!("\nrunning SRA…");
    let sra = solve(
        &inst,
        &SraConfig {
            iters: 6_000,
            seed: 7,
            ..Default::default()
        },
    )
    .expect("SRA");

    println!("running greedy baseline (no exchange machines)…");
    let greedy = GreedyRebalancer.rebalance(&inst).expect("greedy");

    println!(
        "\n              {:>10} {:>10} {:>12}",
        "peak", "imbalance", "improvement"
    );
    println!(
        "initial       {:>10.4} {:>10.3} {:>12}",
        sra.initial_report.peak, sra.initial_report.imbalance, "—"
    );
    println!(
        "greedy        {:>10.4} {:>10.3} {:>11.1}%",
        greedy.final_report.peak,
        greedy.final_report.imbalance,
        100.0 * greedy.peak_improvement()
    );
    println!(
        "SRA           {:>10.4} {:>10.3} {:>11.1}%",
        sra.final_report.peak,
        sra.final_report.imbalance,
        100.0 * sra.peak_improvement()
    );
    println!(
        "\nSRA migration: {} moves, traffic {:.2}, {} batches; returned {:?}",
        sra.migration.total_moves,
        sra.migration.traffic,
        sra.migration.batches,
        sra.returned_machines
    );

    assert!(sra.final_report.peak <= greedy.final_report.peak + 1e-9);
}
