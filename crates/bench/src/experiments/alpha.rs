//! **E10 — sensitivity to the copy-overhead factor α.**
//!
//! The transient model's sharpness knob: α = 0 is pure double-residency
//! (the abstract's literal model); larger α charges copy CPU/IO on both
//! ends, shrinking every machine's effective headroom, sealing hot
//! machines, and pushing more of the work onto staging. This sweep shows
//! how each method's achievable balance and SRA's staging effort degrade
//! as α grows — an ablation of the reproduction's own modelling choice.

use crate::{assert_shape, synth, yes_no, Table};
use crate::{f4, instance, method_rows, pct, pick, run_all_methods, scaled, scaled_fleet};
use rex_workload::synthetic::{DemandFamily, SynthConfig};

pub fn run() {
    let machines = scaled_fleet(24);
    let shards = scaled(240);
    let iters = scaled(8_000) as u64;
    let alphas: Vec<f64> = pick(vec![0.0, 0.2], vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.5]);

    let mut t =
        Table::new("alpha | method | final peak | improvement | staging hops | schedulable");

    let mut broken = Vec::new();
    for &alpha in &alphas {
        let inst = instance(SynthConfig {
            alpha,
            family: DemandFamily::BigShards,
            ..synth(machines, machines / 8, shards, 0.85, 31)
        });
        let ms = run_all_methods(&inst, iters, 31);
        method_rows(&mut t, &format!("{alpha:.2}"), &ms, &["random-walk"], |m| {
            vec![
                f4(m.peak),
                pct(m.improvement),
                m.extra_hops.map_or("—".into(), |h| h.to_string()),
                yes_no(m.schedulable),
            ]
        });
        // The shape: no schedulable baseline beats SRA's peak.
        let sra = ms[0].peak;
        for m in ms.iter().filter(|m| m.schedulable && sra > m.peak + 1e-9) {
            broken.push(format!(
                "α = {alpha}: SRA {sra} above {} {}",
                m.name, m.peak
            ));
        }
    }

    t.print("E10 — sensitivity to the copy-overhead factor α (utilization 0.85, big shards)");
    println!("\nSeries to plot: x = α, y = improvement per method; secondary: SRA staging hops.");
    println!("Expected shape: at α = 0 staging is only needed for swaps; as α grows, headroom shrinks and SRA's ceiling falls until it meets the no-exchange baselines, which sit at the same peak at every α; staging hops rise, then drop as sealed machines leave nothing to stage; ffd-repack stops being schedulable. SRA never ends above a schedulable baseline (asserted).");
    assert_shape(&broken);
}
