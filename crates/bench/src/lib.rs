//! Shared harness utilities for the experiment binaries.
//!
//! Every experiment prints a self-describing markdown table (the
//! reconstructed paper table/figure series) to stdout. Set `REX_QUICK=1`
//! to shrink instance sizes and iteration counts ~10× for smoke runs — the
//! integration tests use that mode.

use rex_baselines::{
    FfdRepacker, GreedyRebalancer, LocalSearchRebalancer, RandomWalkRebalancer, Rebalancer,
};
use rex_cluster::Instance;
use rex_core::{solve, SraConfig};
use std::fmt::Write as _;

/// True when quick (smoke) mode is requested via `REX_QUICK=1`.
pub fn quick() -> bool {
    std::env::var("REX_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Scales an iteration/size knob down in quick mode.
pub fn scaled(full: usize) -> usize {
    if quick() {
        (full / 10).max(1)
    } else {
        full
    }
}

/// Scales a machine count down in quick mode, keeping enough fleet for the
/// exchange mechanics (k = machines/8) to stay visible.
pub fn scaled_fleet(full: usize) -> usize {
    if quick() {
        (full / 3).max(8)
    } else {
        full
    }
}

/// A markdown table under construction.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        out
    }

    /// Prints the table with a title line.
    pub fn print(&self, title: &str) {
        println!("\n## {title}\n");
        print!("{}", self.to_markdown());
    }
}

/// Formats a float with 4 decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with 1 decimal; values that round to zero print
/// without a sign (`0.0%`, never `-0.0%`).
pub fn pct(x: f64) -> String {
    let s = format!("{:.1}%", 100.0 * x);
    if s == "-0.0%" {
        "0.0%".into()
    } else {
        s
    }
}

/// Mean and population standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// One method's outcome on one instance, in table-ready form.
#[derive(Clone, Debug)]
pub struct MethodOutcome {
    /// Method name.
    pub name: String,
    /// Final peak load.
    pub peak: f64,
    /// Final imbalance factor (peak / mean).
    pub imbalance: f64,
    /// Relative peak improvement over the initial placement.
    pub improvement: f64,
    /// Total migration moves (staging hops included).
    pub moves: usize,
    /// Migration traffic in move-cost units.
    pub traffic: f64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Whether a verified transient-feasible schedule exists.
    pub schedulable: bool,
}

/// The standard SRA configuration used across experiments.
///
/// Uses the *pure* peak-load objective (λ = 0): the baselines pay nothing
/// for moving shards, so a head-to-head peak comparison must not tax SRA's
/// moves either. The λ > 0 trade-off is exercised separately by the exact
/// solver's tests and E5's migration-cost reporting.
pub fn sra_cfg(iters: u64, seed: u64) -> SraConfig {
    SraConfig {
        iters,
        seed,
        objective: rex_cluster::Objective::pure(),
        ..Default::default()
    }
}

/// Runs SRA plus the three baselines on an instance.
pub fn run_all_methods(inst: &Instance, sra_iters: u64, seed: u64) -> Vec<MethodOutcome> {
    let mut out = Vec::new();

    let sra = solve(inst, &sra_cfg(sra_iters, seed)).expect("SRA must solve valid instances");
    out.push(MethodOutcome {
        name: "SRA".into(),
        peak: sra.final_report.peak,
        imbalance: sra.final_report.imbalance,
        improvement: sra.peak_improvement(),
        moves: sra.migration.total_moves,
        traffic: sra.migration.traffic,
        secs: sra.elapsed.as_secs_f64(),
        schedulable: true,
    });

    let baselines: Vec<Box<dyn Rebalancer>> = vec![
        Box::new(GreedyRebalancer::default()),
        Box::new(LocalSearchRebalancer::default()),
        Box::new(FfdRepacker::default()),
        Box::new(RandomWalkRebalancer {
            moves: 200,
            seed,
            ..Default::default()
        }),
    ];
    for b in baselines {
        let r = b
            .rebalance(inst)
            .expect("baselines must run on valid instances");
        out.push(MethodOutcome {
            name: b.name().into(),
            peak: r.final_report.peak,
            imbalance: r.final_report.imbalance,
            improvement: r.peak_improvement(),
            moves: r.migration.total_moves,
            traffic: r.migration.traffic,
            secs: r.elapsed.as_secs_f64(),
            schedulable: r.schedulable,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_workload::synthetic::{generate, SynthConfig};

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn run_all_methods_produces_five_rows() {
        let inst = generate(&SynthConfig {
            n_machines: 6,
            n_exchange: 1,
            n_shards: 36,
            ..Default::default()
        })
        .unwrap();
        let rows = run_all_methods(&inst, 300, 1);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["SRA", "greedy", "local-search", "ffd-repack", "random-walk"]
        );
        for r in &rows {
            assert!(
                r.peak > 0.0 && r.peak <= 1.0 + 1e-9,
                "{}: peak {}",
                r.name,
                r.peak
            );
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(pct(-0.0012), "-0.1%");
        assert_eq!(pct(-1e-6), "0.0%");
        assert_eq!(pct(-0.0), "0.0%");
    }
}
