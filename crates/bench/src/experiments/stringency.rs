//! **E8 / Figure 7 — the stringency sweep (the paper's motivation).**
//!
//! As aggregate utilization rises toward 1, transient constraints choke the
//! no-exchange methods: their feasible move sets shrink to nothing while
//! SRA keeps improving by staging through the borrowed machines. This is
//! the experiment that shows *why* resource exchange exists.

use crate::{f4, instance, method_rows, pct, pick, run_all_methods, scaled, scaled_fleet};
use crate::{synth, yes_no, Table};
use rex_workload::synthetic::{DemandFamily, SynthConfig};

pub fn run() {
    let machines = scaled_fleet(24);
    let shards = scaled(240);
    let iters = scaled(8_000) as u64;
    let utils: Vec<f64> = pick(vec![0.6, 0.9], vec![0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95]);

    let mut t = Table::new("utilization | method | final peak | improvement | moves | schedulable");

    for &u in &utils {
        let inst = instance(SynthConfig {
            alpha: 0.2,
            family: DemandFamily::BigShards,
            ..synth(machines, machines / 8, shards, u, 23)
        });
        let ms = run_all_methods(&inst, iters, 23);
        method_rows(&mut t, &format!("{u:.2}"), &ms, &["random-walk"], |m| {
            vec![
                f4(m.peak),
                pct(m.improvement),
                m.moves.to_string(),
                yes_no(m.schedulable),
            ]
        });
    }

    t.print("E8 / Figure 7 — improvement vs aggregate utilization (α = 0.2, big shards)");
    println!("\nSeries to plot: x = utilization, y = improvement, one line per method.");
    println!("Expected shape: all methods improve at low utilization; as it rises the baselines' improvement collapses (few transiently feasible moves) while SRA degrades gracefully — and ffd-repack stops being schedulable at all.");
}
