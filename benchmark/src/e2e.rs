//! The end-to-end run: a closed loop with one client. Operations are
//! issued one after another; each spawns `rex` exactly as a user would,
//! and is timed from outside (spawn → exit wall, `wait4` CPU and RSS). The
//! span recorder is not involved.

use crate::report::{Metric, RunResult};
use crate::rusage::{launch, run_child, ChildCost};
use crate::stats;
use crate::workloads::{self, Input, OpFiles, Quality, Workload};
use crate::Env;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Computed by the program from the inputs, so the same seed must
    /// give the same value to the last digit.
    pub deterministic: bool,
}

const fn timing(name: &'static str, unit: &'static str, bound: f64) -> E2eMetric {
    E2eMetric {
        name,
        unit,
        bound,
        deterministic: false,
    }
}

const fn result(name: &'static str, unit: &'static str, bound: f64) -> E2eMetric {
    E2eMetric {
        name,
        unit,
        bound,
        deterministic: true,
    }
}

/// The seven end-to-end metrics, in the order they are printed. All are
/// "lower is better".
pub const METRICS: [E2eMetric; 7] = [
    timing("setup_s", "s", 0.25),
    timing("op_wall_s_mean", "s", 0.25),
    timing("op_cpu_s_mean", "s", 0.25),
    timing("peak_rss_mb", "MB", 0.10),
    result("peak_load", "ratio", 0.05),
    result("migration_traffic", "cost", 0.25),
    result("sim_p99_latency", "service", 0.15),
];

/// How many times the whole pool is built; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Builds the pool `SETUP_REPEATS` times and returns the last build with
/// the median build time.
pub fn setup(w: Workload, seed: u64, dir: &Path) -> Result<(Vec<Input>, f64), String> {
    let mut times = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        pool = (0..w.pool())
            .map(|slot| workloads::build_input(w, seed, slot, dir))
            .collect::<Result<Vec<_>, _>>()?;
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((pool, stats::median(&times)))
}

/// Spawns the operation's `rex` invocations in order and returns their
/// summed cost (peak RSS: the largest). `Err` names the invocation that
/// exited non-zero.
pub fn spawn_op(
    env: &Env,
    w: Workload,
    input: &Input,
    files: &OpFiles,
    log: &Path,
) -> Result<ChildCost, String> {
    let mut total = ChildCost {
        wall_s: 0.0,
        cpu_s: 0.0,
        rss_mb: 0.0,
        ok: true,
    };
    for args in workloads::op_args(w, input, files) {
        let one = launch(&env.rex, &args, env.threads, log)?;
        if !one.ok {
            return Err(format!("rule exit_status: `rex {}` failed", args[0]));
        }
        total.wall_s += one.wall_s;
        total.cpu_s += one.cpu_s;
        total.rss_mb = total.rss_mb.max(one.rss_mb);
    }
    Ok(total)
}

/// Untimed `rex verify` of a solve op's output.
fn rex_verify(env: &Env, input: &Input, files: &OpFiles, log: &Path) -> Result<(), String> {
    let cost = run_child(
        Command::new(&env.rex)
            .arg("verify")
            .arg("--inst")
            .arg(&input.inst_path)
            .arg("--solution")
            .arg(&files.out),
        log,
    )
    .map_err(|e| format!("spawning rex verify: {e}"))?;
    if cost.ok {
        Ok(())
    } else {
        Err("rule rex_verify: `rex verify` rejected the solution".into())
    }
}

/// What the first op on an input left behind: its checked quality numbers,
/// and its output bytes — same seed ⇒ same bytes on every later visit.
struct FirstVisit {
    quality: Quality,
    bytes: Vec<u8>,
}

/// What the harness remembers about a pool slot between visits.
#[derive(Default)]
struct Slot {
    first: Option<FirstVisit>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
}

/// The closed loop's state: one client, one op in flight.
struct Client<'a> {
    env: &'a Env,
    w: Workload,
    pool: &'a [Input],
    dir: &'a Path,
    slots: Vec<Slot>,
    failures: Vec<String>,
    /// Ops issued so far, warm-up included (the op id in failure lines).
    issued: u64,
    attempted: u64,
    failed: u64,
    peak_rss_mb: f64,
    measured_s: f64,
}

impl Client<'_> {
    /// Runs one op on input `i` and checks what it wrote.
    fn op(&self, i: usize, files: &OpFiles) -> Result<(ChildCost, Option<FirstVisit>), String> {
        let log = self.dir.join("rex-output.log");
        let input = &self.pool[i];
        let cost = spawn_op(self.env, self.w, input, files, &log)?;
        if self.w.is_solve() {
            rex_verify(self.env, input, files, &log)?;
        }
        let bytes =
            std::fs::read(&files.out).map_err(|e| format!("reading {:?}: {e}", files.out))?;
        match &self.slots[i].first {
            Some(first) if first.bytes != bytes => Err("rule same_seed_bytes: output differs \
                                                        from the first op on the same input"
                .into()),
            Some(_) => Ok((cost, None)),
            // First visit: the full check, and its result is kept.
            None => {
                let quality = workloads::check_output(self.w, input, files)?;
                Ok((cost, Some(FirstVisit { quality, bytes })))
            }
        }
    }

    /// Issues one op on input `i`; a warm-up op (`timed == false`) is
    /// checked like any other but leaves no sample and is not counted.
    fn visit(&mut self, i: usize, timed: bool) {
        let files = OpFiles::new(self.dir, i);
        let outcome = self.op(i, &files);
        self.attempted += u64::from(timed);
        match outcome {
            Ok((cost, first)) => {
                if first.is_some() {
                    self.slots[i].first = first;
                }
                if timed {
                    self.measured_s += cost.wall_s;
                    self.peak_rss_mb = self.peak_rss_mb.max(cost.rss_mb);
                    self.slots[i].wall_s.push(cost.wall_s);
                    self.slots[i].cpu_s.push(cost.cpu_s);
                }
            }
            Err(rule) => {
                self.failed += u64::from(timed);
                self.failures.push(format!(
                    "op {} (input {i}, seed {}): {rule}",
                    self.issued, self.pool[i].seed
                ));
            }
        }
        self.issued += 1;
    }
}

pub fn run(
    env: &Env,
    w: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<RunResult, String> {
    let (pool, setup_s) = setup(w, seed, dir)?;
    let mut client = Client {
        env,
        w,
        pool: &pool,
        dir,
        slots: pool.iter().map(|_| Slot::default()).collect(),
        failures: Vec::new(),
        issued: 0,
        attempted: 0,
        failed: 0,
        peak_rss_mb: 0.0,
        measured_s: 0.0,
    };
    // One unrecorded warm-up op (page cache, first exec of the binary). It
    // leaves input 0's reference bytes behind, so even a run that ends
    // after a single pass has re-checked byte identity once.
    client.visit(0, false);
    // Whole pool at least once, then round-robin until `seconds` of op
    // wall time have been measured. A broken build must still terminate.
    'measure: loop {
        for i in 0..pool.len() {
            // `issued` counts the warm-up too.
            let covered = client.issued > pool.len() as u64;
            if (covered && client.measured_s >= seconds) || client.failures.len() > 2 * pool.len() {
                break 'measure;
            }
            client.visit(i, true);
        }
    }
    let Client {
        slots,
        failures,
        attempted,
        failed,
        peak_rss_mb,
        ..
    } = client;

    let per_slot = |f: fn(&Slot) -> &Vec<f64>| -> Vec<f64> {
        slots
            .iter()
            .filter(|s| !f(s).is_empty())
            .map(|s| stats::median(f(s)))
            .collect()
    };
    let qualities: Vec<Quality> = slots
        .iter()
        .filter_map(|s| s.first.as_ref().map(|f| f.quality))
        .collect();
    let walls = per_slot(|s| &s.wall_s);
    if qualities.is_empty() || walls.is_empty() {
        return Ok(RunResult {
            workload: w,
            trace: false,
            attempted,
            failed,
            failures,
            metrics: Vec::new(),
            notes: vec!["no operation succeeded: no metrics".into()],
        });
    }
    let mean_q = |f: fn(&Quality) -> f64| stats::mean(&qualities.iter().map(f).collect::<Vec<_>>());
    let values = [
        setup_s,
        stats::mean(&walls),
        stats::mean(&per_slot(|s| &s.cpu_s)),
        peak_rss_mb,
        mean_q(|q| q.peak_load),
        mean_q(|q| q.migration_traffic),
        mean_q(|q| q.sim_p99_latency),
    ];
    let metrics = METRICS
        .iter()
        .zip(values)
        .map(|(m, v)| Metric::new(m.name, v, m.unit))
        .collect();
    let all_walls: Vec<f64> = slots
        .iter()
        .flat_map(|s| s.wall_s.iter().copied())
        .collect();
    let notes = vec![
        format!(
            "samples: {} timed ops over {} inputs (+1 warm-up); the op means are taken \
             over inputs of each input's median; op wall min {:.4} max {:.4} s; setup is the \
             median of {} pool builds",
            all_walls.len(),
            walls.len(),
            all_walls.iter().copied().fold(f64::INFINITY, f64::min),
            stats::max(&all_walls),
            SETUP_REPEATS
        ),
        format!(
            "per-input op wall (s): {}",
            walls
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    Ok(RunResult {
        workload: w,
        trace: false,
        attempted,
        failed,
        failures,
        metrics,
        notes,
    })
}
