//! **E6 / Figure 6 — scalability.**
//!
//! SRA runtime and quality as the fleet grows: serial, parallel portfolio
//! (old curve), and cooperative decomposed solver (new curve). Iterations
//! are fixed so runtime growth reflects per-iteration cost — O(machines)
//! repair scans for the monolithic modes, O(machines / k) within each of
//! the k partitions for the decomposed mode. Full mode adds two
//! 100 000-shard solves on the hierarchical path (`depth 2`).

use rex_bench::{f4, pct, quick, scaled, sra_cfg, Table};
use rex_cluster::Instance;
use rex_core::{solve, SraConfig};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};

fn main() {
    let sizes: Vec<(usize, usize)> = if quick() {
        vec![(16, 160), (32, 320)]
    } else {
        // The sweep doubles fleet size per tier; 400/4000 already shows the
        // scaling exponent, and the next doubling dominates the whole
        // suite's wall time on shared CPUs.
        vec![(50, 500), (100, 1_000), (200, 2_000), (400, 4_000)]
    };
    let iters = scaled(4_000) as u64;

    let mut t = Table::new(&[
        "machines",
        "shards",
        "mode",
        "final peak",
        "improvement",
        "iterations",
        "time (s)",
        "iters/s",
    ]);

    for &(m, s) in &sizes {
        let inst = instance(m, s);
        // (label, workers, partitions): serial and the PR 3 portfolio are
        // the "old" curves, the cooperative decomposed solver is the "new"
        // one. All three get the same iteration budget.
        let modes: [(&str, usize, usize); 3] = [
            ("serial", 1, 0),
            ("portfolio-4", 4, 0),
            ("decomposed-8", 1, 8),
        ];
        for (label, workers, partitions) in modes {
            let cfg = SraConfig {
                workers,
                partitions,
                ..sra_cfg(iters, 17)
            };
            row(&mut t, &inst, label, &cfg);
        }
    }

    // The web-scale tier (full mode only): the hierarchical decomposed
    // path alone, the one built for these sizes (DESIGN.md §15), at a
    // fixed 2 000 iterations.
    let web: &[(usize, usize)] = if quick() {
        &[]
    } else {
        &[(1_000, 100_000), (10_000, 100_000)]
    };
    for &(m, s) in web {
        let cfg = SraConfig {
            partitions: 8,
            depth: 2,
            ..sra_cfg(2_000, 17)
        };
        row(&mut t, &instance(m, s), "decomposed-8 depth-2", &cfg);
    }

    t.print("E6 / Figure 6 — SRA scalability (fixed iterations per mode)");
    println!("\nSeries to plot: x = machines, y = time (log-log), one line per mode.");
    println!("Expected shape: near-linear growth for the monolithic modes; the decomposed solver's per-iteration cost grows with machines/k, so its curve stays roughly an order of magnitude below the portfolio at equal quality (within ~1% peak).");
    if !web.is_empty() {
        println!("Web-scale rows: `--partitions 8 --depth 2`, 2 000 iterations, decomposed only.");
    }
}

/// The sweep's instance at one size: correlated demands, a 40 % hotspot
/// start at utilization 0.8, exchange = machines / 10.
fn instance(m: usize, s: usize) -> Instance {
    generate(&SynthConfig {
        n_machines: m,
        n_exchange: (m / 10).max(1),
        n_shards: s,
        stringency: 0.8,
        family: DemandFamily::Correlated,
        placement: Placement::Hotspot(0.4),
        seed: 17,
        ..Default::default()
    })
    .expect("generate")
}

/// Solves `inst` under `cfg` and appends its row.
fn row(t: &mut Table, inst: &Instance, label: &str, cfg: &SraConfig) {
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
    ]);
}
