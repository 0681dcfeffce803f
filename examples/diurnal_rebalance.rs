//! Rebalancing for the traffic peak, not the daily mean.
//!
//! Query traffic is diurnal: the shard CPU profile at the evening peak is
//! not a scaled copy of the daily average, because term popularity and
//! query mix shift. This example measures per-shard cost in the peak hour
//! and in the trough, builds an instance for each, and shows that the
//! placements SRA picks for them differ — i.e., a fleet balanced for the
//! mean is not balanced for the peak.
//!
//! ```sh
//! cargo run --release --example diurnal_rebalance
//! ```

use resource_exchange::cluster::{Instance, InstanceBuilder, MachineId};
use resource_exchange::core::{solve, SraConfig};
use rex_searchsim::corpus::{Corpus, CorpusConfig};
use rex_searchsim::engine::SearchEngine;
use rex_searchsim::queries::{QueryConfig, QueryLog};
use rex_searchsim::shards::ShardingStrategy;

/// Builds an instance whose CPU dimension is the given per-shard cost
/// vector (mem/disk from the index), normalized to 75% fleet utilization.
fn instance_for(costs: &[u64], engine: &SearchEngine, label: &str) -> Instance {
    let n_machines = 8;
    let n_shards = costs.len();
    let scale = |v: Vec<f64>| -> Vec<f64> {
        let total: f64 = v.iter().sum();
        v.iter()
            .map(|x| x / total * n_machines as f64 * 0.75)
            .collect()
    };
    let cpu = scale(costs.iter().map(|&c| (c as f64).max(1.0)).collect());
    let mem = scale(
        (0..n_shards)
            .map(|i| engine.shard(i).size_bytes() as f64)
            .collect(),
    );

    let mut b = InstanceBuilder::new(2).alpha(0.1).label(label);
    let machines: Vec<MachineId> = (0..n_machines).map(|_| b.machine(&[1.0, 1.0])).collect();
    b.exchange_machine(&[1.0, 1.0]);
    // Place by memory only (the "laid out long ago" drift).
    let mut usage = vec![0.0f64; n_machines];
    let mut order: Vec<usize> = (0..n_shards).collect();
    order.sort_by(|&a, &b| mem[b].partial_cmp(&mem[a]).unwrap());
    let mut host_of = vec![0usize; n_shards];
    for &i in &order {
        let h = (0..n_machines)
            .min_by(|&a, &b| usage[a].partial_cmp(&usage[b]).unwrap())
            .unwrap();
        usage[h] += mem[i];
        host_of[i] = h;
    }
    for i in 0..n_shards {
        b.shard(&[cpu[i], mem[i]], mem[i], machines[host_of[i]]);
    }
    b.build().expect("valid instance")
}

fn main() {
    println!("building corpus, index, and a day of queries…");
    let corpus = Corpus::generate(&CorpusConfig {
        n_docs: 6_000,
        vocab: 12_000,
        seed: 99,
        ..Default::default()
    });
    let engine = SearchEngine::build(&corpus, 64, ShardingStrategy::SkewedRange);
    let log = QueryLog::generate(&QueryConfig {
        n_queries: 8_000,
        vocab: 12_000,
        seed: 100,
        ..Default::default()
    });
    let hourly = engine.replay_hourly(&log, 10);
    let by_hour: Vec<u64> = hourly.iter().map(|h| h.iter().sum()).collect();
    let peak_hour = (0..24).max_by_key(|&h| by_hour[h]).unwrap();
    let trough_hour = (0..24).min_by_key(|&h| by_hour[h]).unwrap();
    println!(
        "peak hour {peak_hour} carries {:.1}x the trough (hour {trough_hour}) traffic",
        by_hour[peak_hour] as f64 / by_hour[trough_hour].max(1) as f64
    );

    let peak_inst = instance_for(&hourly[peak_hour], &engine, "peak-hour");
    let trough_inst = instance_for(&hourly[trough_hour], &engine, "trough-hour");

    let cfg = SraConfig {
        iters: 4_000,
        seed: 5,
        ..Default::default()
    };
    let peak_res = solve(&peak_inst, &cfg).expect("peak solve");
    let trough_res = solve(&trough_inst, &cfg).expect("trough solve");

    println!(
        "peak-hour:   peak load {:.3} → {:.3} ({} moves)",
        peak_res.initial_report.peak, peak_res.final_report.peak, peak_res.migration.total_moves
    );
    println!(
        "trough-hour: peak load {:.3} → {:.3} ({} moves)",
        trough_res.initial_report.peak,
        trough_res.final_report.peak,
        trough_res.migration.total_moves
    );

    let differing = peak_res
        .assignment
        .placement()
        .iter()
        .zip(trough_res.assignment.placement())
        .filter(|(a, b)| a != b)
        .count();
    println!(
        "{differing}/{} shards are placed differently for peak vs trough traffic",
        peak_inst.n_shards()
    );
    assert!(peak_res.final_report.peak <= peak_res.initial_report.peak + 1e-9);
}
