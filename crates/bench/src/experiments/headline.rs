//! **E2 / Table 3 — headline comparison.**
//!
//! SRA vs the no-exchange baselines on every workload family, averaged
//! over seeds: final peak load, imbalance, relative improvement, migration
//! volume, runtime. This is the table behind the abstract's claim that
//! "our solution outperforms the state-of-the-art alternative
//! significantly".

use crate::{f2, f4, mean_std, method_rows, pct, pick, run_all_methods, yes_no};
use crate::{scaled, scaled_fleet, MethodOutcome, Table};
use rex_workload::standard_suite;

pub fn run() {
    let machines = scaled_fleet(24);
    let shards = scaled(240);
    let iters = scaled(8_000) as u64;
    let seeds: Vec<u64> = (0..pick(1, 3)).collect();

    let mut t = Table::new(
        "workload | method | final peak | imbalance | improvement | moves | traffic | time (s) | schedulable",
    );

    for entry in standard_suite(machines, machines / 8, shards, 0.8) {
        let runs: Vec<Vec<MethodOutcome>> = seeds
            .iter()
            .map(|&seed| run_all_methods(&(entry.generate)(seed), iters, seed))
            .collect();
        // One row per method, each column its mean over the seeds.
        method_rows(&mut t, entry.name, &runs[0], &[], |m| {
            let seeds = || runs.iter().flatten().filter(|r| r.name == m.name);
            let mean = |f: fn(&MethodOutcome) -> f64| mean_std(&seeds().map(f).collect::<Vec<_>>());
            let (pm, ps) = mean(|r| r.peak);
            vec![
                format!("{} ± {}", f4(pm), f4(ps)),
                f2(mean(|r| r.imbalance).0),
                pct(mean(|r| r.improvement).0),
                format!("{:.0}", mean(|r| r.moves as f64).0),
                f2(mean(|r| r.traffic).0),
                format!("{:.2}", mean(|r| r.secs).0),
                yes_no(seeds().all(|r| r.schedulable)),
            ]
        });
    }

    t.print("E2 / Table 3 — SRA vs baselines (mean over seeds)");
    println!("\nffd-repack ignores transient constraints: it is a quality bound, not a deployable method (\"NO\" = its packing could not be scheduled).");
}
