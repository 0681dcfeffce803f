//! Machine-readable solver perf trajectory: times the search phase of the
//! 8-wide portfolio (the PR 3 baseline, `speedup_vs_seed = 1`) against the
//! cooperative decomposed solver (`partitions = 8`) on the
//! `exp_scalability` sizes and emits one JSON record per `(bench, size)`
//! to `BENCH_solver.json` (see EXPERIMENTS.md §"Perf trajectory").
//!
//! Modes:
//! * default — measure and print the JSON array to stdout (the shell
//!   wrapper `scripts/bench_to_json.sh` redirects it to the repo root);
//! * `--check FILE` — measure, then compare against the committed
//!   baseline `FILE`: exit 1 if any matching `(bench, size, threads)`
//!   record regressed by more than 10% in `ns_per_iter`.
//!
//! `REX_QUICK=1` shrinks to the smallest size for smoke runs; the full
//! size list is a superset, so quick records always have a baseline
//! counterpart to diff against. Quick mode keeps the full iteration
//! budget on purpose: the decomposed solver has fixed per-round costs
//! (partitioning, sub-instance construction, boundary repair) that only
//! amortize over a realistic number of iterations, so a scaled-down
//! budget would inflate `ns_per_iter` and make the regression diff
//! meaningless. The smallest size at full budget stays ~1 s. `REX_THREADS`
//! (the rayon shim's knob) is recorded in each record.

use rex_cluster::Objective;
use rex_core::{run_search, SraConfig, SraProblem};
use rex_obs::Recorder;
use rex_router::{PolicyKind, RouterConfig};
use rex_workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One perf-trajectory record (the EXPERIMENTS.md §"Perf trajectory"
/// schema; extra fields are informational).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Record {
    /// Benchmark id: `portfolio_solve` (seed baseline),
    /// `decomposed_solve`, `engine_spine` (the serial unified engine's
    /// raw iteration throughput, gated at 2% instead of 10%),
    /// `event_engine` (router), or `kernel_scan` (SIMD-dispatched scan vs
    /// the scalar oracle; `--check` gates its `speedup_vs_seed` ratio,
    /// `REX_BENCH_LARGE` runs only).
    bench: String,
    /// Instance size as `machines x shards`.
    size: String,
    /// `REX_THREADS` the run was recorded under.
    threads: usize,
    /// Wall nanoseconds per executed LNS iteration.
    ns_per_iter: f64,
    /// Wall-clock speedup over the portfolio baseline at the same size
    /// and iteration budget (`1.0` for the baseline itself).
    speedup_vs_seed: f64,
    /// Search wall time in nanoseconds.
    wall_ns: u64,
    /// Executed LNS iterations (all workers / partitions summed).
    iterations: u64,
    /// Final peak load of the best placement found.
    peak: f64,
    /// Final peak relative to the portfolio baseline's (quality bound:
    /// the acceptance criterion wants ≤ 1.01).
    peak_vs_seed: f64,
    /// CPU nanoseconds per iteration, immune to preemption by other
    /// tenants of a shared box: **thread CPU** (`/proc/thread-self/stat`)
    /// for `engine_spine` — the metric its tight 2% gate compares — and
    /// **process CPU** (`/proc/self/stat`, all rayon workers included)
    /// for the parallel drivers (`portfolio_solve`, `decomposed_solve`),
    /// gated at the usual 10%. `ns_per_iter` stays wall-clock for
    /// continuity. `0.0` when not measured.
    #[serde(default)]
    cpu_ns_per_iter: f64,
    /// For `event_engine` only: simulated router events processed per wall
    /// second (the headline throughput number; the acceptance floor is
    /// 1M events/sec). `0.0` for the solver benches.
    #[serde(default)]
    events_per_sec: f64,
}

/// Thread CPU time (user + system) of the calling thread in nanoseconds,
/// read from `/proc/thread-self/stat`. Unlike wall clock this does not
/// advance while the thread is preempted, which is what makes a tight
/// regression gate workable on a shared single-CPU box. Granularity is
/// one USER_HZ tick (10 ms — USER_HZ is ABI-fixed at 100 on Linux), so
/// only use this across runs lasting a second or more.
fn thread_cpu_ns() -> u64 {
    stat_cpu_ns("/proc/thread-self/stat")
}

/// Process-wide CPU time (user + system, all threads) in nanoseconds,
/// from `/proc/self/stat`. This is the right clock for the parallel
/// drivers (portfolio, decomposed): their rayon workers are invisible to
/// `/proc/thread-self`, which only ever sees the coordinating thread
/// blocked in a join.
fn process_cpu_ns() -> u64 {
    stat_cpu_ns("/proc/self/stat")
}

fn stat_cpu_ns(path: &str) -> u64 {
    let stat = std::fs::read_to_string(path).expect("read stat");
    // Field 2 (comm) can contain spaces/parens; fields are positional
    // after the *last* `)`. utime and stime are overall fields 14 and 15,
    // i.e. indices 11 and 12 of the post-comm tail.
    let tail = &stat[stat.rfind(')').expect("stat comm terminator") + 2..];
    let mut it = tail.split_whitespace().skip(11);
    let utime: u64 = it.next().and_then(|v| v.parse().ok()).expect("utime");
    let stime: u64 = it.next().and_then(|v| v.parse().ok()).expect("stime");
    (utime + stime) * (1_000_000_000 / 100)
}

fn threads() -> usize {
    std::env::var("REX_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Times one search (no planning/verification — those phases are identical
/// for both methods) and returns `(wall_ns, cpu_ns, iterations,
/// final_peak)`. CPU time is process-wide so the parallel drivers' rayon
/// workers are counted (on a single-CPU box it tracks wall minus
/// preemption).
fn time_search(inst: &rex_cluster::Instance, cfg: &SraConfig) -> (u64, u64, u64, f64) {
    let mut problem = SraProblem::new(inst, cfg.objective);
    problem.planner = cfg.planner;
    let c = process_cpu_ns();
    let t = Instant::now();
    let (best, iters, _, _) =
        run_search(&problem, cfg, cfg.seed, &mut Recorder::noop()).expect("search must succeed");
    let wall = t.elapsed().as_nanos() as u64;
    let cpu = process_cpu_ns() - c;
    (wall, cpu, iters, best.peak_load(inst))
}

/// Times the **serial** search — the single unified engine loop with no
/// portfolio or decomposition around it, running entirely on the calling
/// thread — and returns `(min_wall_ns, min_cpu_ns, iterations, peak)`
/// over `reps` runs. Plannability gating of new bests is disabled (as in
/// the `lns_hot_loop` criterion group): `plan_migration` costs the same
/// before and after any engine refactor and would drown the
/// per-iteration work this gate pins. The minimum is the stable
/// estimator for a gate this tight (2%): noise only ever adds time.
fn time_serial_search(
    inst: &rex_cluster::Instance,
    cfg: &SraConfig,
    reps: usize,
) -> (u64, u64, u64, f64) {
    let problem = SraProblem::new(inst, cfg.objective).without_plan_checks();
    let mut best: Option<(u64, u64, u64, f64)> = None;
    for _ in 0..reps {
        let c = thread_cpu_ns();
        let t = Instant::now();
        let (b, iters, _, _) = run_search(&problem, cfg, cfg.seed, &mut Recorder::noop())
            .expect("search must succeed");
        let wall = t.elapsed().as_nanos() as u64;
        let cpu = thread_cpu_ns() - c;
        if best.is_none_or(|(_, prev, _, _)| cpu < prev) {
            best = Some((wall, cpu, iters, b.peak_load(inst)));
        }
    }
    best.expect("at least one rep")
}

/// Times the query-level router (`rex-router`) end to end on a
/// search-fleet-shaped instance and returns one `event_engine` record.
/// Wall and thread-CPU time are both measured over all `reps` runs (CPU
/// granularity is one 10 ms tick, so the per-rep loop must add up to a
/// second or so); `ns_per_iter` / `events_per_sec` use the fastest rep.
/// Per-event cost is horizon-independent once the run is in steady state,
/// so quick mode shortens the horizon (unlike the solver benches, which
/// must keep their budget for amortization) and stays comparable to the
/// committed full-horizon baseline.
fn measure_router(threads: usize) -> Record {
    let (m, s) = (64usize, 2_000usize);
    let inst = generate(&SynthConfig {
        n_machines: m,
        n_exchange: 0,
        n_shards: s,
        dims: 1,
        stringency: 0.55,
        family: DemandFamily::Uniform,
        placement: Placement::BalancedBfd,
        seed: 17,
        ..Default::default()
    })
    .expect("generate");
    let cfg = RouterConfig {
        horizon_us: if rex_bench::quick() { 100_000 } else { 400_000 },
        qps: 500_000.0,
        policy: PolicyKind::PowerOfD,
        seed: 17,
        ..Default::default()
    };
    let reps = if rex_bench::quick() { 5 } else { 8 };
    let mut best: Option<(u64, u64)> = None; // (wall_ns, events)
    let mut total_events = 0u64;
    let cpu0 = thread_cpu_ns();
    for _ in 0..reps {
        let t = Instant::now();
        let report = rex_router::run(&inst, &cfg);
        let wall = t.elapsed().as_nanos() as u64;
        total_events += report.events;
        if best.is_none_or(|(prev, _)| wall < prev) {
            best = Some((wall, report.events));
        }
    }
    let cpu = thread_cpu_ns() - cpu0;
    let (wall, events) = best.expect("at least one rep");
    Record {
        bench: "event_engine".into(),
        size: format!("{m}x{s}"),
        threads,
        ns_per_iter: wall as f64 / events.max(1) as f64,
        speedup_vs_seed: 1.0,
        wall_ns: wall,
        iterations: events,
        peak: 0.0,
        peak_vs_seed: 1.0,
        cpu_ns_per_iter: cpu as f64 / total_events.max(1) as f64,
        events_per_sec: events as f64 / (wall as f64 / 1e9),
    }
}

fn measure() -> Vec<Record> {
    let sizes: Vec<(usize, usize)> = if rex_bench::quick() {
        vec![(32, 320)]
    } else {
        vec![(32, 320), (100, 1_000), (400, 4_000)]
    };
    // Not `scaled()`: see the module docs — quick mode trims sizes, never
    // the budget, so ns_per_iter is comparable against the committed
    // full-budget baseline.
    let iters = 2_000u64;
    let width = 8usize;
    let threads = threads();

    let mut out = Vec::new();
    for &(m, s) in &sizes {
        let inst = generate(&SynthConfig {
            n_machines: m,
            n_exchange: (m / 10).max(1),
            n_shards: s,
            stringency: 0.8,
            family: DemandFamily::Correlated,
            placement: Placement::Hotspot(0.4),
            seed: 17,
            ..Default::default()
        })
        .expect("generate");
        let base = SraConfig {
            iters,
            seed: 17,
            objective: Objective::pure(),
            ..Default::default()
        };
        let size = format!("{m}x{s}");

        let (p_wall, p_cpu, p_iters, p_peak) = time_search(
            &inst,
            &SraConfig {
                workers: width,
                ..base
            },
        );
        out.push(Record {
            bench: "portfolio_solve".into(),
            size: size.clone(),
            threads,
            ns_per_iter: p_wall as f64 / p_iters.max(1) as f64,
            speedup_vs_seed: 1.0,
            wall_ns: p_wall,
            iterations: p_iters,
            peak: p_peak,
            peak_vs_seed: 1.0,
            cpu_ns_per_iter: p_cpu as f64 / p_iters.max(1) as f64,
            events_per_sec: 0.0,
        });

        // The engine-spine gate: raw serial iteration throughput of the
        // one unified loop, no parallel driver in the way. Pinned at 2%
        // (`--check`) so engine refactors cannot quietly slow the hot path.
        let (e_wall, e_cpu, e_iters, e_peak) = time_serial_search(
            &inst,
            &SraConfig {
                // 10× the shared budget: CPU-time granularity is one
                // 10 ms tick, so the gated run must last a second or so
                // for the 2% comparison to be meaningful.
                iters: iters * 10,
                workers: 1,
                ..base
            },
            5,
        );
        out.push(Record {
            bench: "engine_spine".into(),
            size: size.clone(),
            threads,
            ns_per_iter: e_wall as f64 / e_iters.max(1) as f64,
            speedup_vs_seed: 1.0,
            wall_ns: e_wall,
            iterations: e_iters,
            peak: e_peak,
            peak_vs_seed: e_peak / p_peak,
            cpu_ns_per_iter: e_cpu as f64 / e_iters.max(1) as f64,
            events_per_sec: 0.0,
        });

        let (d_wall, d_cpu, d_iters, d_peak) = time_search(
            &inst,
            &SraConfig {
                partitions: width,
                ..base
            },
        );
        out.push(Record {
            bench: "decomposed_solve".into(),
            size,
            threads,
            ns_per_iter: d_wall as f64 / d_iters.max(1) as f64,
            speedup_vs_seed: p_wall as f64 / d_wall.max(1) as f64,
            wall_ns: d_wall,
            iterations: d_iters,
            peak: d_peak,
            peak_vs_seed: d_peak / p_peak,
            cpu_ns_per_iter: d_cpu as f64 / d_iters.max(1) as f64,
            events_per_sec: 0.0,
        });
    }

    out.push(measure_router(threads));

    // The large tier (`REX_BENCH_LARGE=1`): decomposed solver only — the
    // 8-wide portfolio at these sizes is too slow to serve as an in-run
    // baseline, so the ratio fields carry the neutral 1.0. The web-scale
    // sizes (100k shards) run the hierarchical path (`depth = 2`); quick
    // mode keeps only the smallest large size.
    if std::env::var("REX_BENCH_LARGE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        let large: Vec<(usize, usize, usize)> = if rex_bench::quick() {
            vec![(1_000, 10_000, 1)]
        } else {
            // (machines, shards, depth)
            vec![
                (1_000, 10_000, 1),
                (1_000, 100_000, 2),
                (10_000, 100_000, 2),
            ]
        };
        for &(m, s, depth) in &large {
            let inst = generate(&SynthConfig {
                n_machines: m,
                n_exchange: (m / 10).max(1),
                n_shards: s,
                stringency: 0.8,
                family: DemandFamily::Correlated,
                placement: Placement::Hotspot(0.4),
                seed: 17,
                ..Default::default()
            })
            .expect("generate");
            let (wall, cpu, iterations, peak) = time_search(
                &inst,
                &SraConfig {
                    iters: 2_000,
                    seed: 17,
                    partitions: 8,
                    depth,
                    objective: Objective::pure(),
                    ..Default::default()
                },
            );
            out.push(Record {
                bench: "decomposed_solve".into(),
                size: format!("{m}x{s}"),
                threads,
                ns_per_iter: wall as f64 / iterations.max(1) as f64,
                speedup_vs_seed: 1.0,
                wall_ns: wall,
                iterations,
                peak,
                peak_vs_seed: 1.0,
                cpu_ns_per_iter: cpu as f64 / iterations.max(1) as f64,
                events_per_sec: 0.0,
            });
        }
        out.push(measure_kernel_scan(threads));
    }
    out
}

/// Times the dispatched `kernels::scan` against its scalar differential
/// oracle on a large load vector and emits one `kernel_scan` record:
/// `ns_per_iter` is dispatch nanoseconds **per element**, and
/// `speedup_vs_seed` the scalar/dispatch wall ratio — the metric the
/// `--check` gate compares (an absolute-ns gate would conflate machine
/// speed with vectorization). On a CPU without AVX2 the two coincide and
/// the ratio sits at ~1.0.
fn measure_kernel_scan(threads: usize) -> Record {
    use rex_cluster::kernels;
    let n = 100_000usize;
    // Deterministic synthetic loads: well-spread positives in (0, 2).
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let loads: Vec<f64> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            2.0 * (x >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    let reps = 2_000usize;
    let time = |f: &dyn Fn(&[f64]) -> kernels::LoadScan| {
        let t = Instant::now();
        let mut acc = 0.0f64;
        for _ in 0..reps {
            acc += std::hint::black_box(f(std::hint::black_box(&loads))).sumsq;
        }
        assert!(acc.is_finite());
        t.elapsed().as_nanos() as u64
    };
    // Warm both paths once, then time.
    assert_eq!(kernels::scan(&loads), kernels::scan_scalar(&loads));
    let scalar = time(&kernels::scan_scalar);
    let dispatch = time(&kernels::scan);
    let elements = (reps * n) as u64;
    Record {
        bench: "kernel_scan".into(),
        size: format!("{n}"),
        threads,
        ns_per_iter: dispatch as f64 / elements as f64,
        speedup_vs_seed: scalar as f64 / dispatch.max(1) as f64,
        wall_ns: dispatch,
        iterations: elements,
        peak: 0.0,
        peak_vs_seed: 1.0,
        cpu_ns_per_iter: 0.0,
        events_per_sec: 0.0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let records = measure();
    let json = serde_json::to_string_pretty(&records).expect("serialize");

    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_solver.json");
        let baseline: Vec<Record> = serde_json::from_str(
            &std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}")),
        )
        .expect("baseline must parse");
        let mut failed = false;
        for new in &records {
            let Some(old) = baseline
                .iter()
                .find(|o| o.bench == new.bench && o.size == new.size && o.threads == new.threads)
            else {
                continue;
            };
            // kernel_scan gates on the scalar/dispatch *speedup ratio*,
            // not absolute nanoseconds — absolute element cost varies
            // with the box, the vectorization win must not. Express it in
            // the shared "higher = worse" ratio convention.
            let kernel = new.bench == "kernel_scan";
            // The spine's raw loop is pinned tight (the unification must
            // not cost throughput) on thread-CPU time, which is immune to
            // preemption noise on a shared box. The parallel drivers
            // (portfolio, decomposed) gate on process-CPU time when both
            // records carry it — same noise immunity, usual 10% limit —
            // and fall back to wall clock against older baselines.
            let spine = new.bench == "engine_spine";
            let has_cpu = new.cpu_ns_per_iter > 0.0 && old.cpu_ns_per_iter > 0.0;
            let (old_ns, new_ns, metric, limit) = if kernel {
                (
                    1.0 / old.speedup_vs_seed.max(1e-9),
                    1.0 / new.speedup_vs_seed.max(1e-9),
                    "1/speedup",
                    1.10,
                )
            } else if spine && has_cpu {
                (
                    old.cpu_ns_per_iter,
                    new.cpu_ns_per_iter,
                    "cpu-ns/iter",
                    1.02,
                )
            } else if has_cpu && new.bench != "event_engine" {
                (
                    old.cpu_ns_per_iter,
                    new.cpu_ns_per_iter,
                    "cpu-ns/iter",
                    1.10,
                )
            } else {
                (old.ns_per_iter, new.ns_per_iter, "ns/iter", 1.10)
            };
            let ratio = new_ns / old_ns;
            let verdict = if ratio > limit {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            eprintln!(
                "{:18} {:10} t{}: {:8.0} -> {:8.0} {} ({:+.1}%) {}",
                new.bench,
                new.size,
                new.threads,
                old_ns,
                new_ns,
                metric,
                100.0 * (ratio - 1.0),
                verdict
            );
        }
        if failed {
            eprintln!("bench check FAILED: ns_per_iter regression vs {path}");
            std::process::exit(1);
        }
        eprintln!("bench check ok vs {path}");
    } else {
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::Record;

    /// Older committed baselines predate `cpu_ns_per_iter` (PR 5) and
    /// `events_per_sec` (PR 7); `--check` must still parse them —
    /// `#[serde(default)]` fills the gaps with 0.0, which the comparison
    /// treats as "metric not measured".
    #[test]
    fn baseline_records_without_newer_fields_parse() {
        let old = r#"[{
            "bench": "portfolio_solve",
            "size": "32x320",
            "threads": 8,
            "ns_per_iter": 65582.9,
            "speedup_vs_seed": 1,
            "wall_ns": 1049326279,
            "iterations": 16000,
            "peak": 0.805,
            "peak_vs_seed": 1
        }]"#;
        let records: Vec<Record> = serde_json::from_str(old).expect("old schema must parse");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].cpu_ns_per_iter, 0.0);
        assert_eq!(records[0].events_per_sec, 0.0);
        assert_eq!(records[0].ns_per_iter, 65582.9);
    }
}
