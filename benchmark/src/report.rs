//! What a run reports: metrics by name with their unit, printed for
//! people, as the driver's one-line JSON, and as a report file that two
//! runs can be compared through.

use crate::e2e;
use crate::workloads::Workload;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The result of one workload in one mode.
pub struct RunResult {
    pub workload: Workload,
    /// True for the traced (per-layer) run.
    pub trace: bool,
    /// Operations issued, and how many of them broke a rule.
    pub attempted: u64,
    pub failed: u64,
    /// One line per broken rule: `op N (input I): rule ...`.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form lines for the human-readable output (sample counts,
    /// where-the-time-goes table).
    pub notes: Vec<String>,
}

impl RunResult {
    /// True when no operation broke a rule.
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "\n== {} [{}] ops {} failed_ops {}",
            self.workload.name(),
            if self.trace { "traced" } else { "end-to-end" },
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            // Sub-millisecond timings would print as 0.000000.
            if m.value != 0.0 && m.value.abs() < 1e-3 {
                println!("{:<44} {:>16.3e} {}", m.name, m.value, m.unit);
            } else {
                println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
        for n in &self.notes {
            println!("{n}");
        }
        for f in &self.failures {
            println!("FAIL {}: {f}", self.workload.name());
        }
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`. Values are printed with every digit measured.
    pub fn contract_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ok(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One row of a report file.
#[derive(Serialize, Deserialize)]
struct Row {
    workload: String,
    metric: String,
    value: f64,
    unit: String,
}

pub fn write_report(path: &Path, results: &[RunResult]) -> Result<(), String> {
    let mut rows = Vec::new();
    for r in results {
        let mut push = |metric: &str, value: f64, unit: &str| {
            rows.push(Row {
                workload: r.workload.name().to_string(),
                metric: metric.to_string(),
                value,
                unit: unit.to_string(),
            })
        };
        if !r.trace {
            push("ops", r.attempted as f64, "count");
            push("failed_ops", r.failed as f64, "count");
        }
        for m in &r.metrics {
            push(&m.name, m.value, m.unit);
        }
    }
    let json = serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("writing {path:?}: {e}"))
}

/// How far two runs of the same build may differ on `metric`. Results the
/// program computes — quality numbers and counts — must repeat exactly;
/// a gated timing must agree within its bound; any other timing is
/// reported and not judged (per-layer metrics have no bound).
enum Tolerance {
    Exact,
    Within(f64),
    ReportOnly,
}

fn tolerance(metric: &str, unit: &str) -> Tolerance {
    if metric == "ops" {
        // How many ops fit in the measuring window is itself a timing.
        return Tolerance::ReportOnly;
    }
    if let Some(m) = e2e::METRICS.iter().find(|m| m.name == metric) {
        return if m.deterministic {
            Tolerance::Exact
        } else {
            Tolerance::Within(m.bound)
        };
    }
    if unit == "count" {
        Tolerance::Exact
    } else {
        Tolerance::ReportOnly
    }
}

/// `rexbench compare`: two report files of the same build and seed.
/// Returns `Ok(false)` when a deterministic metric differs or a gated
/// timing disagrees by more than its bound.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Vec<Row>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p:?}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {p:?}: {e}"))
    };
    let (ra, rb) = (load(a)?, load(b)?);
    if ra.len() != rb.len() {
        return Err(format!(
            "reports list {} and {} metrics: not the same benchmark",
            ra.len(),
            rb.len()
        ));
    }
    let mut ok = true;
    println!(
        "{:<18} {:<44} {:>14} {:>14} {:>9}",
        "workload", "metric", "first", "second", "differ"
    );
    for (x, y) in ra.iter().zip(&rb) {
        if (x.workload.as_str(), x.metric.as_str()) != (y.workload.as_str(), y.metric.as_str()) {
            return Err(format!(
                "reports disagree on order: {}/{} vs {}/{}",
                x.workload, x.metric, y.workload, y.metric
            ));
        }
        let scale = x.value.abs().max(y.value.abs());
        let rel = if scale == 0.0 {
            0.0
        } else {
            (x.value - y.value).abs() / scale
        };
        let verdict = match tolerance(&x.metric, &x.unit) {
            Tolerance::Exact if x.value != y.value => {
                ok = false;
                "NOT IDENTICAL"
            }
            Tolerance::Within(bound) if rel > bound => {
                ok = false;
                "OVER BOUND"
            }
            Tolerance::Exact => "identical",
            Tolerance::Within(_) => "within bound",
            Tolerance::ReportOnly => "",
        };
        println!(
            "{:<18} {:<44} {:>14.6} {:>14.6} {:>8.2}% {verdict}",
            x.workload,
            x.metric,
            x.value,
            y.value,
            100.0 * rel
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_json_has_exactly_the_four_keys_and_full_precision() {
        let r = RunResult {
            workload: Workload::ClosedLoop,
            trace: false,
            attempted: 12,
            failed: 0,
            failures: vec![],
            metrics: vec![
                Metric::new("setup_s", 0.123456789012, "s"),
                Metric::new("peak_load", 1.5, "ratio"),
            ],
            notes: vec![],
        };
        assert_eq!(
            r.contract_json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \
             \"peak_load\": {\"value\": 1.5, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    fn compare_demands_identity_of_results_and_tolerates_timing_within_bound() {
        let dir = std::env::temp_dir().join("rexbench-compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let result = |wall: f64, peak: f64| RunResult {
            workload: Workload::ClosedLoop,
            trace: false,
            attempted: 9,
            failed: 0,
            failures: vec![],
            metrics: vec![
                Metric::new("op_wall_s_mean", wall, "s"),
                Metric::new("peak_load", peak, "ratio"),
            ],
            notes: vec![],
        };
        let write = |name: &str, r: RunResult| {
            let p = dir.join(name);
            write_report(&p, &[r]).unwrap();
            p
        };
        let base = write("a.json", result(1.00, 0.9));
        let near = write("b.json", result(1.05, 0.9));
        let slow = write("c.json", result(2.00, 0.9));
        let drift = write("d.json", result(1.00, 0.9000001));
        assert!(compare(&base, &near).unwrap());
        assert!(!compare(&base, &slow).unwrap(), "timing over its bound");
        assert!(!compare(&base, &drift).unwrap(), "a result that moved");
        std::fs::remove_dir_all(&dir).ok();
    }
}
