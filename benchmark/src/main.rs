//! `rexbench` — the repo benchmark (see `BENCHMARK.json`, `README.md`).
//!
//! End-to-end numbers come from spawning the `rex` binary exactly as a
//! user would and timing it from outside (closed loop, one client, span
//! recorder off). Per-layer numbers come from a separate traced run that
//! times calls into each crate's public functions in-process.
//!
//! ```text
//! rexbench --rex PATH --out-dir DIR [--workload NAME] [--seed N]
//!          [--seconds S] [--trace 0|1] [--report FILE]
//! rexbench compare A.json B.json
//! rexbench spread --rex PATH --out-dir DIR [--runs N] [--workload NAME] [--seconds S]
//! rexbench launch LOG PROG [ARGS...]      (internal: see `rusage::launch`)
//! ```
//!
//! With both `--workload` and `--trace` the last stdout line is the one
//! JSON object the benchmark driver reads. Without them every workload is
//! run in both modes and every metric is printed by name with its unit.

mod e2e;
mod layers;
mod report;
mod rusage;
mod spans;
mod stats;
mod workloads;

use report::{Metric, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Where the run finds `rex` and may write.
pub struct Env {
    /// The `rex` binary under test.
    pub rex: PathBuf,
    /// Scratch and result directory (inside the checkout).
    pub out_dir: PathBuf,
    /// `REX_THREADS` handed to every child and used in-process.
    pub threads: usize,
    /// Cores the box reports; printed beside every result.
    pub nproc: usize,
}

struct Args {
    env: Env,
    seed: u64,
    seconds: f64,
    workload: Option<Workload>,
    trace: Option<bool>,
    report: Option<PathBuf>,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut rex = None;
    let mut out_dir = None;
    let mut seed = 11u64;
    let mut seconds = 15.0f64;
    let mut workload = None;
    let mut trace = None;
    let mut report = None;
    let mut runs = 10usize;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |what: &str, v: &str| format!("{flag}: `{v}` is not {what}");
        match flag.as_str() {
            "--rex" => rex = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--report" => report = Some(PathBuf::from(value()?)),
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| bad("a seed", &v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| bad("a duration", &v))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad("between 0 and 60 seconds", &v));
                }
            }
            "--runs" => {
                let v = value()?;
                runs = v.parse().map_err(|_| bad("a count", &v))?;
                if runs < 2 {
                    return Err(bad("at least 2", &v));
                }
            }
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{v}` (one of {})", names.join(", "))
                })?);
            }
            "--trace" => {
                let v = value()?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1", &v)),
                });
            }
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    let rex = rex.ok_or("--rex PATH is required")?;
    if !rex.is_file() {
        return Err(format!("--rex {rex:?}: no such file (build it first)"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The in-process replica and probes must run on as many threads as the
    // children do; the rayon shim reads this variable.
    std::env::set_var("REX_THREADS", nproc.min(2).to_string());
    Ok(Args {
        env: Env {
            rex,
            out_dir: out_dir.ok_or("--out-dir DIR is required")?,
            threads: nproc.min(2),
            nproc,
        },
        seed,
        seconds,
        workload,
        trace,
        report,
        runs,
    })
}

/// Runs one workload in one mode, with its own scratch directory.
fn run_one(
    env: &Env,
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let scratch = env.out_dir.join(format!(
        "scratch-{}-{}",
        w.name(),
        if trace { "trace" } else { "e2e" }
    ));
    // Stale outputs of an earlier run must not satisfy a check. (Creating
    // the scratch directory also creates `out_dir`.)
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch).map_err(|e| format!("clearing {scratch:?}: {e}"))?;
    }
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating {scratch:?}: {e}"))?;
    let result = if trace {
        layers::run(env, w, seed, &scratch)
    } else {
        e2e::run(env, w, seed, seconds, &scratch)
    };
    std::fs::remove_dir_all(&scratch).ok();
    result
}

/// The workloads `--workload` selects: the named one, or all five.
fn selected(args: &Args) -> Vec<Workload> {
    args.workload.map_or(workloads::ALL.to_vec(), |w| vec![w])
}

fn main_run(args: &Args) -> Result<bool, String> {
    let modes: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    println!(
        "rexbench: seed {} | {} s per run | REX_THREADS {} | nproc {}",
        args.seed, args.seconds, args.env.threads, args.env.nproc
    );
    let mut results = Vec::new();
    for w in selected(args) {
        for &trace in &modes {
            let r = run_one(&args.env, w, args.seed, args.seconds, trace)?;
            r.print();
            results.push(r);
        }
    }
    let all_ok = results.iter().all(RunResult::ok);
    if let Some(path) = &args.report {
        report::write_report(path, &results)?;
    }
    // The driver's contract: one workload, one mode, one JSON object last.
    if args.workload.is_some() && args.trace.is_some() {
        println!("{}", results[0].contract_json());
        return Ok(true);
    }
    Ok(all_ok)
}

/// `rexbench spread`: the acceptance procedure of the benchmark itself —
/// `runs` runs per workload, each with another seed, and for every
/// end-to-end metric the interquartile range as a share of the median.
fn main_spread(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in selected(args) {
        let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
        for k in 0..args.runs {
            let seed = args.seed + k as u64;
            let r = run_one(&args.env, w, seed, args.seconds, false)?;
            ok &= r.ok();
            for f in &r.failures {
                eprintln!("FAIL {} seed {seed}: {f}", w.name());
            }
            for (i, Metric { name, value, .. }) in r.metrics.iter().enumerate() {
                if columns.len() <= i {
                    columns.push((name.clone(), Vec::new()));
                }
                columns[i].1.push(*value);
            }
            eprintln!("  {} seed {seed}: {} ops", w.name(), r.attempted);
        }
        println!(
            "## {} — {} runs, seeds {}..",
            w.name(),
            args.runs,
            args.seed
        );
        println!(
            "{:<20} {:>12} {:>9} {:>7}",
            "metric", "median", "spread", "bound"
        );
        for (name, values) in &columns {
            let bound = e2e::METRICS
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.bound);
            let spread = stats::spread(values);
            println!(
                "{:<20} {:>12.5} {:>8.2}% {:>6.0}%{}",
                name,
                stats::median(values),
                100.0 * spread,
                100.0 * bound,
                if name != "setup_s" && spread > bound {
                    ok = false;
                    "  OVER BOUND"
                } else if name != "setup_s" && spread > bound / 3.0 {
                    "  (over a third of the bound)"
                } else {
                    ""
                }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: rexbench compare A.json B.json".to_string()),
        },
        Some("launch") => rusage::launch_main(&argv[1..]).map(|()| true),
        Some("spread") => parse_args(&argv[1..]).and_then(|a| main_spread(&a)),
        _ => parse_args(&argv).and_then(|a| main_run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rexbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Declared {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<DeclaredWorkload>,
        end_to_end: Vec<DeclaredMetric>,
        per_layer: Vec<DeclaredLayerMetric>,
    }

    #[derive(Deserialize)]
    struct DeclaredWorkload {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct DeclaredMetric {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct DeclaredLayerMetric {
        name: String,
        unit: String,
        better: String,
    }

    /// `BENCHMARK.json` is the contract; the tables in this crate are what
    /// actually gets printed. They must say the same thing.
    #[test]
    fn benchmark_json_declares_what_the_harness_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let d: Declared = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        assert_eq!(d.command, ["bash", "benchmark/run.sh"]);
        assert_eq!(d.paths, ["benchmark"]);
        assert!((1..=60).contains(&d.run_seconds));

        let names: Vec<&str> = d.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert!(d
            .workloads
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

        assert_eq!(d.end_to_end.len(), e2e::METRICS.len());
        for (decl, ours) in d.end_to_end.iter().zip(&e2e::METRICS) {
            assert_eq!(decl.name, ours.name);
            assert_eq!(decl.unit, ours.unit, "{}", decl.name);
            assert_eq!(decl.bound, ours.bound, "{}", decl.name);
            assert_eq!(decl.better, "lower", "{}", decl.name);
            assert!(decl.bound <= 0.25);
        }
        assert!(d
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));

        assert_eq!(d.per_layer.len(), layers::METRICS.len());
        assert!(d.per_layer.len() <= 128);
        for (decl, (name, unit)) in d.per_layer.iter().zip(layers::METRICS) {
            assert_eq!(&decl.name, name);
            assert_eq!(&decl.unit, unit, "{name}");
            assert!(decl.better == "lower" || decl.better == "higher", "{name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
    }
}
