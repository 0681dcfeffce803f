//! **E6 / Figure 6 — scalability.**
//!
//! SRA runtime and quality as the fleet grows: serial, parallel portfolio
//! (old curve), and cooperative decomposed solver (new curve). Iterations
//! are fixed so runtime growth reflects per-iteration cost — O(machines)
//! repair scans for the monolithic modes, O(machines / k) within each of
//! the k partitions for the decomposed mode. Full mode adds two
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
        // (label, workers, partitions): serial and the 4-worker portfolio are
        // the "old" curves, the cooperative decomposed solver is the "new"
        // one. All three get the same iteration budget.
        let modes: [(&str, usize, usize); 3] = [
            ("serial", 1, 0),
            ("portfolio-4", 4, 0),
            ("decomposed-8", 1, 8),
        ];
        let mut serial = f64::NAN;
        for (label, workers, partitions) in modes {
            let cfg = SraConfig {
                workers,
                partitions,
                ..sra_cfg(iters, 17)
            };
            let (start, peak) = row(&mut t, &inst, label, &cfg);
            // The shape, on peaks (never on wall time): every mode lands
            // within 1 % of serial quality (serial runs first), and every
            // decomposed row ends below its initial peak.
            serial = if label == "serial" { peak } else { serial };
            if (peak - serial).abs() > 0.01 * serial {
                broken.push(format!("{m}x{s}: {label} {peak} vs serial {serial}"));
            }
            if partitions > 1 && peak >= start {
                broken.push(format!("{m}x{s}: {label} {peak} vs initial {start}"));
            }
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
    println!("Expected shape: near-linear growth for the monolithic modes; the decomposed solver's per-iteration cost grows with machines/k, so its curve stays below the portfolio's (1.2–4.4× at full scale) at equal quality (every mode within 1% of serial's peak, and every decomposed row below its initial peak, asserted).");
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
