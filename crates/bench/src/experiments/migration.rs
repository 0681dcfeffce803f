//! **E5 / Figure 5 — migration overhead vs k.**
//!
//! What the exchange buys costs something: more exchange machines mean
//! deeper rearrangements. This reports shard moves, staging hops,
//! migration traffic, schedule batches, and the modelled wall-clock
//! makespan of the copy schedule as k grows.

use crate::{assert_shape, f2, f4, instance, pick, scaled, scaled_fleet, sra_cfg, synth, Table};
use rex_cluster::migration::timeline::{time_plan, TimelineConfig};
use rex_core::solve;

pub fn run() {
    let machines = scaled_fleet(24);
    let shards = scaled(240);
    let iters = scaled(8_000) as u64;
    let ks: Vec<usize> = pick(vec![0, 2], vec![0, 1, 2, 4, 6, 8]);

    let mut t = Table::new(
        "k (exchange) | final peak | shards moved | total moves | staging hops | traffic | batches | makespan (s) | serial (s)",
    );
    // One traffic unit per second per NIC, 2 s of coordination per batch.
    let tl_cfg = TimelineConfig {
        machine_bandwidth: 1.0,
        batch_overhead_secs: 2.0,
    };

    let mut broken = Vec::new();
    for &k in &ks {
        let inst = instance(synth(machines, k, shards, 0.85, 13));
        let res = solve(&inst, &sra_cfg(iters, 13)).expect("solve");
        let tl = time_plan(&inst, &res.plan, &tl_cfg);
        // The shape: batching never loses to copying serially.
        let (makespan, serial) = (tl.makespan_secs, tl.serial_secs);
        if makespan > serial {
            broken.push(format!(
                "k = {k}: batched makespan {makespan} above serial {serial}"
            ));
        }
        t.row(vec![
            k.to_string(),
            f4(res.final_report.peak),
            res.migration.shards_moved.to_string(),
            res.migration.total_moves.to_string(),
            res.migration.extra_hops.to_string(),
            f2(res.migration.traffic),
            res.migration.batches.to_string(),
            f2(makespan),
            f2(serial),
        ]);
    }

    t.print("E5 / Figure 5 — SRA migration overhead vs number of exchange machines");
    println!("\nSeries to plot: x = k; y = moves / traffic / makespan (left axis), final peak (right axis).");
    println!("Expected shape: peak and traffic stay near-flat in k (this fleet has staging space; traffic drifts down) while the schedule parallelizes — batches and makespan fall as k grows. Batched makespan sits well below serial copy time (asserted).");
    assert_shape(&broken);
}
