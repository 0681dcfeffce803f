//! Shared harness utilities for the `exp` experiment runner.
//!
//! Every experiment prints a self-describing markdown table (the
//! reconstructed paper table/figure series) to stdout. Set `REX_QUICK=1`
//! to shrink instance sizes and iteration counts ~10× for smoke runs — the
//! integration tests use that mode.

pub mod experiments;

use rex_baselines::{
    FfdRepacker, GreedyRebalancer, LocalSearchRebalancer, RandomWalkRebalancer, Rebalancer,
};
use rex_cluster::Instance;
use rex_core::{solve, SraConfig};
use rex_runtime::{MetricsExport, RuntimeConfig, Simulation};
use rex_workload::synthetic::{generate, SynthConfig};
use std::fmt::Write as _;

/// True when quick (smoke) mode is requested via `REX_QUICK=1`.
pub(crate) fn quick() -> bool {
    std::env::var("REX_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The quick-mode or the full-mode value of a parameter.
pub(crate) fn pick<T>(quick_value: T, full_value: T) -> T {
    if quick() {
        quick_value
    } else {
        full_value
    }
}

/// Scales an iteration/size knob down in quick mode.
pub(crate) fn scaled(full: usize) -> usize {
    pick((full / 10).max(1), full)
}

/// Scales a machine count down in quick mode, keeping enough fleet for the
/// exchange mechanics (k = machines/8) to stay visible.
pub(crate) fn scaled_fleet(full: usize) -> usize {
    pick((full / 3).max(8), full)
}

/// A markdown table under construction.
#[derive(Clone, Debug, Default)]
pub(crate) struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table from its header line, columns separated by ` | `.
    pub fn new(headers: &str) -> Self {
        Self {
            headers: headers.split(" | ").map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders GitHub-flavoured markdown.
    fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(out, "|{}|", vec!["---"; self.headers.len()].join("|"));
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

/// Formats a float with `decimals` decimals; values that round to zero
/// print without a sign (`0.00`, never `-0.00`: an empty `f64` sum is
/// −0.0).
fn fixed(x: f64, decimals: usize) -> String {
    let s = format!("{x:.decimals$}");
    match s.strip_prefix('-') {
        Some(abs) if abs.bytes().all(|b| b == b'0' || b == b'.') => abs.into(),
        _ => s,
    }
}

/// Formats a float with 4 decimals.
pub(crate) fn f4(x: f64) -> String {
    fixed(x, 4)
}

/// Formats a float with 2 decimals.
pub(crate) fn f2(x: f64) -> String {
    fixed(x, 2)
}

/// Formats a percentage with 1 decimal, unsigned when it rounds to zero.
pub(crate) fn pct(x: f64) -> String {
    format!("{}%", fixed(100.0 * x, 1))
}

/// `yes`, or `NO` for the cell a reader should not miss.
pub(crate) fn yes_no(b: bool) -> String {
    String::from(if b { "yes" } else { "NO" })
}

/// Fails the experiment if a shape check recorded a violation. Experiments
/// call it after their tables print, so a failing run still shows them.
pub(crate) fn assert_shape(broken: &[String]) {
    assert!(
        broken.is_empty(),
        "shape broken:\n  {}",
        broken.join("\n  ")
    );
}

/// Mean and population standard deviation.
pub(crate) fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// The standard synthetic config: `machines` loaded plus `exchange`
/// machines and `shards` correlated 3-dimensional demands, packed into a
/// 40 % hotspot at `stringency` with α = 0.1. Experiments override the
/// rest with struct-update syntax.
pub(crate) fn synth(
    machines: usize,
    exchange: usize,
    shards: usize,
    stringency: f64,
    seed: u64,
) -> SynthConfig {
    SynthConfig {
        n_machines: machines,
        n_exchange: exchange,
        n_shards: shards,
        stringency,
        seed,
        ..Default::default()
    }
}

/// Generates the instance of an experiment's synthetic config.
pub(crate) fn instance(cfg: SynthConfig) -> Instance {
    generate(&cfg).expect("experiment configs generate")
}

/// One method's outcome on one instance, in table-ready form.
#[derive(Clone, Debug)]
pub(crate) struct MethodOutcome {
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
    /// Batches of SRA's schedule (`None` for the baselines).
    pub batches: Option<usize>,
    /// SRA's staging hops (`None` for the baselines).
    pub extra_hops: Option<usize>,
}

/// The standard SRA configuration used across experiments.
///
/// Uses the *pure* peak-load objective (λ = 0): the baselines pay nothing
/// for moving shards, so a head-to-head peak comparison must not tax SRA's
/// moves either. The λ > 0 trade-off is exercised separately by the exact
/// solver's tests and E5's migration-cost reporting.
pub(crate) fn sra_cfg(iters: u64, seed: u64) -> SraConfig {
    SraConfig {
        iters,
        seed,
        objective: rex_cluster::Objective::pure(),
        ..Default::default()
    }
}

/// Runs SRA plus the four baselines on an instance.
pub(crate) fn run_all_methods(inst: &Instance, sra_iters: u64, seed: u64) -> Vec<MethodOutcome> {
    let sra = solve(inst, &sra_cfg(sra_iters, seed)).expect("SRA must solve valid instances");
    let mut out = vec![MethodOutcome {
        name: "SRA".into(),
        peak: sra.final_report.peak,
        imbalance: sra.final_report.imbalance,
        improvement: sra.peak_improvement(),
        moves: sra.migration.total_moves,
        traffic: sra.migration.traffic,
        secs: sra.elapsed.as_secs_f64(),
        schedulable: true,
        batches: Some(sra.migration.batches),
        extra_hops: Some(sra.migration.extra_hops),
    }];

    let baselines: Vec<Box<dyn Rebalancer>> = vec![
        Box::new(GreedyRebalancer),
        Box::new(LocalSearchRebalancer),
        Box::new(FfdRepacker),
        Box::new(RandomWalkRebalancer { moves: 200, seed }),
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
            batches: None,
            extra_hops: None,
        });
    }
    out
}

/// Appends one row per outcome not named in `skip`: `key`, the method
/// name, then `cells` of the outcome.
pub(crate) fn method_rows(
    t: &mut Table,
    key: &str,
    outcomes: &[MethodOutcome],
    skip: &[&str],
    cells: impl Fn(&MethodOutcome) -> Vec<String>,
) {
    for m in outcomes.iter().filter(|m| !skip.contains(&m.name.as_str())) {
        t.row([vec![key.to_string(), m.name.clone()], cells(m)].concat());
    }
}

/// Runs one closed-loop simulation, asserts that the executor saw no
/// transient violation, and returns the export with its row: `label`, then
/// one [`counter_cell`] per ` | `-separated column of `cols`.
pub(crate) fn run_policy(
    label: &str,
    inst: &Instance,
    cfg: RuntimeConfig,
    cols: &str,
) -> (MetricsExport, Vec<String>) {
    let e = Simulation::new(inst.clone(), cfg).run();
    assert_eq!(
        e.counters.transient_violations, 0,
        "{label}: executor observed a transient violation"
    );
    let mut row = vec![label.to_string()];
    row.extend(cols.split(" | ").map(|col| counter_cell(&e, col)));
    (e, row)
}

/// The cell of a closed-loop export under the column header `col`.
pub(crate) fn counter_cell(e: &MetricsExport, col: &str) -> String {
    let c = &e.counters;
    match col {
        "trig" => c.rebalances_triggered.to_string(),
        "done" => c.rebalances_completed.to_string(),
        "abort" => c.rebalances_aborted.to_string(),
        "evac" => c.evacuations.to_string(),
        "splits" => c.shard_splits.to_string(),
        "merges" => c.shard_merges.to_string(),
        "hs migr" => c.hotshard_migrations.to_string(),
        "pop epochs" => c.popularity_epochs.to_string(),
        "steady peak" => f4(e.steady_state_peak()),
        "final peak" => f4(e.final_report.peak),
        "lat p50" => f2(e.latency.p50),
        "lat p99" => f2(e.latency.p99),
        "degraded %" => f2(100.0 * c.queries_degraded as f64 / c.queries_arrived.max(1) as f64),
        "traffic" => f2(c.migration_traffic),
        "viol" => c.transient_violations.to_string(),
        _ => unreachable!("no closed-loop column `{col}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("a | b");
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("a | b");
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
        let inst = instance(synth(6, 1, 36, 0.75, 0));
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
            assert_eq!(r.batches.is_some(), r.name == "SRA", "{}", r.name);
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
        assert_eq!(f2(-0.0), "0.00");
        assert_eq!(f2(-0.004), "0.00");
        assert_eq!(f2(-0.005), "-0.01");
        assert_eq!(f4(-0.0), "0.0000");
        assert_eq!(f4(-0.00004), "0.0000");
        assert_eq!(f4(-1.5), "-1.5000");
    }
}
