//! **E6 / Figure 6 — scalability.**
//!
//! SRA runtime and quality as the fleet grows: the serial search and the
//! cooperative decomposed solver. Iterations are fixed so runtime growth
//! reflects per-iteration cost — O(machines) repair scans for the serial
//! mode, O(machines / k) within each of the k partitions for the
//! decomposed mode. Full mode adds two
//! 100 000-shard solves, where the fleet decides the partition tree's
//! depth (1 at 1 000 machines, 2 at 10 000).

use crate::{assert_shape, f4, instance, pct, pick, scaled, sra_cfg, synth, Table};
use rex_cluster::Instance;
use rex_core::{solve, SraConfig};

pub fn run() {
    // The sweep doubles fleet size per tier; 400/4000 already shows the
    // scaling exponent, and the next doubling dominates the whole suite's
    // wall time on shared CPUs.
    let sizes: Vec<(usize, usize)> = pick(
        vec![(16, 160), (32, 320)],
        vec![(50, 500), (100, 1_000), (200, 2_000), (400, 4_000)],
    );
    let iters = scaled(4_000) as u64;

    let mut t = Table::new(
        "machines | shards | mode | final peak | improvement | iterations | time (s) | iters/s | batches",
    );

    let mut broken = Vec::new();
    for &(m, s) in &sizes {
        let inst = sweep_instance(m, s);
        // Both modes get the same iteration budget. The shape, on peaks
        // (never on wall time): the decomposed row lands within 1 % of
        // serial quality and below its initial peak.
        let (_, serial) = row(&mut t, &inst, "serial", &sra_cfg(iters, 17));
        let cfg = SraConfig {
            partitions: 8,
            ..sra_cfg(iters, 17)
        };
        let (start, peak) = row(&mut t, &inst, "decomposed-8", &cfg);
        if (peak - serial).abs() > 0.01 * serial {
            broken.push(format!("{m}x{s}: decomposed-8 {peak} vs serial {serial}"));
        }
        if peak >= start {
            broken.push(format!("{m}x{s}: decomposed-8 {peak} vs initial {start}"));
        }
    }

    // The web-scale tier (full mode only): the decomposed path alone, the
    // one built for these sizes (DESIGN.md §15), at a fixed 2 000
    // iterations.
    let web: &[(usize, usize)] = pick(&[], &[(1_000, 100_000), (10_000, 100_000)]);
    for &(m, s) in web {
        let cfg = SraConfig {
            partitions: 8,
            ..sra_cfg(2_000, 17)
        };
        let (start, peak) = row(&mut t, &sweep_instance(m, s), "decomposed-8", &cfg);
        if peak >= start {
            broken.push(format!("{m}x{s}: decomposed-8 {peak} vs initial {start}"));
        }
    }

    t.print("E6 / Figure 6 — SRA scalability (fixed iterations per mode)");
    println!("\nSeries to plot: x = machines, y = time (log-log), one line per mode. batches = the migration plan's batch count.");
    println!("Expected shape: near-linear growth for the serial mode; the decomposed solver's per-iteration cost grows with machines/k (at every swept size its peak within 1% of serial's, and every decomposed row below its initial peak, asserted).");
    if !web.is_empty() {
        println!("Web-scale rows: `--partitions 8`, 2 000 iterations, decomposed only; parts above 512 machines split again, so the 10 000-machine row runs a two-level tree and the 1 000-machine row one level.");
    }
    assert_shape(&broken);
}

/// The sweep's instance at one size: correlated demands, a 40 % hotspot
/// start at utilization 0.8, exchange = machines / 10.
fn sweep_instance(m: usize, s: usize) -> Instance {
    instance(synth(m, (m / 10).max(1), s, 0.8, 17))
}

/// Solves `inst` under `cfg`, appends its row and returns its initial and
/// final peaks.
fn row(t: &mut Table, inst: &Instance, label: &str, cfg: &SraConfig) -> (f64, f64) {
    let res = solve(inst, cfg).expect("solve");
    let secs = res.elapsed.as_secs_f64();
    t.row(vec![
        (inst.n_machines() - inst.n_exchange()).to_string(),
        inst.n_shards().to_string(),
        label.to_string(),
        f4(res.final_report.peak),
        pct(res.peak_improvement()),
        res.iterations.to_string(),
        format!("{secs:.2}"),
        format!("{:.0}", res.iterations as f64 / secs.max(1e-9)),
        res.plan.batches.len().to_string(),
    ]);
    (res.initial_report.peak, res.final_report.peak)
}
