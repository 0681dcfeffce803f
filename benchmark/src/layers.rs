//! The traced run: where an operation's time goes, layer by layer.
//!
//! The program cannot be instrumented in this change, so everything here
//! is measured from the benchmark's own files, by timing calls into the
//! crates' public functions:
//!
//! 1. the operation is run through the CLI a few times for reference;
//! 2. an **in-process replica** of the operation — the same public calls
//!    `rex` makes, on the same files — is run twice, once with the span
//!    recorder off and once with it on (the difference is the tracing
//!    overhead), and must write the same bytes the CLI wrote;
//! 3. steps the replica cannot see inside (`run_search` inside `solve`,
//!    controller solves inside `Simulation::run`) are **replayed** on the
//!    same inputs afterwards and attached to the span they explain;
//! 4. a battery of **layer probes** times each layer's public entry point
//!    on the workload's own instance.
//!
//! A probe whose layer is not on a workload's path reports 0 (see the
//! applicability table in the README); every other value is measured.

use crate::e2e::spawn_op;
use crate::report::{Metric, RunResult};
use crate::rusage::self_cpu_s;
use crate::spans::{cover_share, Span, SpanRecorder};
use crate::stats;
use crate::workloads::{self, Input, OpFiles, SolutionFile, Workload};
use crate::Env;
use rex_baselines::{GreedyRebalancer, Rebalancer};
use rex_cluster::{
    kernels, partition_fleet, plan_migration, verify_schedule, Assignment, Instance, MachineId,
    MigrationPlan, PackedVecs, ScenarioSpec, ShardId, WorkloadSpec,
};
use rex_core::{
    run_search, solve_delta, solve_traced, solve_with_drain, SolveOptions, SraConfig, SraProblem,
};
use rex_obs::Recorder;
use rex_router::{queue::CalendarQueue, queue::EventKind, PolicyKind, RouterConfig};
use rex_runtime::controller::{plan_evacuation, plan_load_rebalance};
use rex_runtime::{
    plan_hotshard_migration, trace, ControllerConfig, ControllerPolicy, DriftSpec, EwmaCache,
    FaultSpec, MetricsExport, ReplayScript, RuntimeConfig, Simulation,
};
use rex_workload::io;
use rex_workload::popularity::{apply_popularity, PopularityWalk};
use rex_workload::synthetic::{generate, generate_workload};
use serde::Serialize;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// CLI operations run for reference in a traced run.
const REFERENCE_OPS: usize = 3;
/// Iterations of the serial-engine probe (`lns.engine.*`).
const ENGINE_PROBE_ITERS: u64 = 300;
/// Ticks of the controller-off tick-engine probe on workloads that have no
/// scenario of their own.
const TICK_PROBE_TICKS: u64 = 500;

/// Every per-layer metric with its unit, in print order. `BENCHMARK.json`
/// lists the same names; a unit test holds the two together.
pub const METRICS: &[(&str, &str)] = &[
    ("rex.startup_io_s", "s"),
    ("rex.op_wall_s_max", "s"),
    ("rex.inproc_op_wall_s", "s"),
    ("rex.cover_share", "ratio"),
    ("rex.trace_overhead", "ratio"),
    ("workload.generate_s", "s"),
    ("workload.io_save_s", "s"),
    ("workload.io_load_s", "s"),
    ("workload.io_bytes", "count"),
    ("workload.popularity_epoch_ns", "ns"),
    ("cluster.kernels.scan_ns_per_elem", "ns"),
    ("cluster.kernels.ratio_rows_ns_per_row", "ns"),
    ("cluster.kernels.simd_speedup", "ratio"),
    ("cluster.partition.wall_s", "s"),
    ("cluster.plan.wall_s", "s"),
    ("cluster.plan.moves", "count"),
    ("cluster.plan.batches", "count"),
    ("cluster.plan.extra_hop_share", "ratio"),
    ("cluster.plan.gate_share", "ratio"),
    ("cluster.verify.wall_s", "s"),
    ("cluster.scenario.lower_s", "s"),
    ("lns.engine.ns_per_iter", "ns"),
    ("lns.engine.iterations", "count"),
    ("lns.engine.accept_share", "ratio"),
    ("lns.engine.improve_share", "ratio"),
    ("core.search.wall_s", "s"),
    ("core.search.cpu_s", "s"),
    ("core.search.iterations", "count"),
    ("core.search.ns_per_iter", "ns"),
    ("core.search.par_efficiency", "ratio"),
    ("core.solve.wall_s", "s"),
    ("core.solve.self_s", "s"),
    ("core.solve.fallback_used", "count"),
    ("core.delta.wall_s", "s"),
    ("baselines.greedy.wall_s", "s"),
    ("baselines.greedy.peak", "ratio"),
    ("runtime.tick.ticks_per_s", "1/s"),
    ("runtime.controller.plan_wall_s", "s"),
    ("runtime.controller.triggers", "count"),
    ("runtime.controller.share", "ratio"),
    ("runtime.evacuation.plan_wall_s", "s"),
    ("runtime.evacuation.count", "count"),
    ("runtime.hotshard.plan_wall_s", "s"),
    ("runtime.hotshard.observe_ns", "ns"),
    ("runtime.hotshard.splits", "count"),
    ("runtime.hotshard.merges", "count"),
    ("runtime.exec.batches", "count"),
    ("runtime.trace.record_overhead", "ratio"),
    ("runtime.trace.write_s", "s"),
    ("runtime.trace.parse_s", "s"),
    ("runtime.trace.bytes", "count"),
    ("runtime.trace.replay_wall_s", "s"),
    ("runtime.event_backend.queries_per_s", "1/s"),
    ("router.queue.ns_per_event", "ns"),
    ("router.run.events_per_s.random", "1/s"),
    ("router.run.events_per_s.round_robin", "1/s"),
    ("router.run.events_per_s.power_of_d", "1/s"),
    ("router.run.events_per_s.prequal", "1/s"),
    ("router.run.events_per_s.token", "1/s"),
    ("router.run.p99_us.random", "us"),
    ("router.run.p99_us.round_robin", "us"),
    ("router.run.p99_us.power_of_d", "us"),
    ("router.run.p99_us.prequal", "us"),
    ("router.run.p99_us.token", "us"),
    ("obs.solve_overhead", "ratio"),
    ("obs.sim_overhead", "ratio"),
    ("obs.route_overhead", "ratio"),
    ("obs.events", "count"),
    ("obs.export_s", "s"),
];

/// Values collected so far, by metric name. Anything never set is
/// reported as 0: not on this workload's path.
struct Ledger(Vec<(String, f64)>);

impl Ledger {
    fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.push((name.to_string(), value));
    }

    fn into_metrics(self) -> Vec<Metric> {
        METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .0
                    .iter()
                    .rev()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |x| x.1);
                Metric::new(name, value, unit)
            })
            .collect()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Best of `n` timings of `f`: probes are short, and the minimum is the
/// run least disturbed by the other core's tenant.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..n {
        let (o, t) = timed(&mut f);
        if t < best {
            (out, best) = (o, t);
        }
    }
    (out, best)
}

// ---- configurations, exactly as the CLI builds them ------------------------

/// The `SraConfig` of the workload's solver: the op's flags on the solve
/// workloads, the controller's solve on the simulate workloads
/// (`converge_events` has the controller off; its solver numbers use the
/// default controller settings and are off its end-to-end path).
fn solver_config(
    w: Workload,
    inst: &Instance,
    seed: u64,
    ctrl: &ControllerConfig,
) -> Result<SraConfig, String> {
    let opts = match w {
        Workload::SolveDecomposed => SolveOptions::new()
            .iters(workloads::DECOMPOSED_ITERS)
            .partitions(workloads::DECOMPOSED_PARTITIONS),
        Workload::SolveStringent => SolveOptions::new().iters(workloads::STRINGENT_ITERS),
        _ => SolveOptions::new()
            .iters(ctrl.sra_iters)
            .lambda(ctrl.sra_lambda)
            .partitions(ctrl.sra_partitions),
    };
    opts.workers(1)
        .seed(seed)
        .build_for(inst)
        .map_err(|e| e.to_string())
}

/// `rex simulate --inst I --ticks N --controller sra --hotshard --crash-at
/// ... --spike-at ...`, as `cmd_simulate` lowers its flags.
fn closed_loop_config(inst: &Instance, seed: u64) -> RuntimeConfig {
    let f = workloads::closed_loop_faults();
    let mut cfg = RuntimeConfig {
        ticks: workloads::CLOSED_LOOP_TICKS,
        seed,
        qps: 8.0,
        faults: vec![
            FaultSpec::Crash {
                at: f.crash_at,
                machine: f.crash_machine,
                recover_at: Some(f.recover_at),
            },
            FaultSpec::Spike {
                at: f.spike_at,
                duration: f.spike_duration,
                factor: f.spike_factor,
                shard_fraction: f.spike_fraction,
            },
        ],
        drift: Some(DriftSpec {
            every_ticks: 400,
            sigma: 0.15,
            target_utilization: inst.stringency().clamp(0.3, 0.9),
        }),
        ..Default::default()
    };
    cfg.controller.policy = ControllerPolicy::Sra;
    cfg.hotshard.enabled = true;
    cfg.hotshard.split_fraction = 0.45;
    cfg.hotshard.merge_fraction = 0.2;
    cfg.hotshard.poll_interval = 25;
    cfg.hotshard.operator_expiry_ticks = 400;
    cfg
}

/// The runtime configuration a simulate workload runs under (`None` on the
/// solve workloads).
fn runtime_config(w: Workload, input: &Input) -> Option<RuntimeConfig> {
    match w {
        Workload::ClosedLoop => Some(closed_loop_config(&input.inst, input.seed)),
        Workload::WorkloadReplay | Workload::ConvergeEvents => {
            let spec = input
                .spec
                .as_ref()
                .expect("workload-plane input has a spec");
            Some(RuntimeConfig::from_workload(spec, input.inst.n_machines()))
        }
        _ => None,
    }
}

/// The same run with every control plane off: what the tick engine alone
/// costs.
fn controller_off(mut cfg: RuntimeConfig) -> RuntimeConfig {
    cfg.controller.policy = ControllerPolicy::Off;
    cfg.hotshard.enabled = false;
    cfg
}

// ---- the solve, opened up by replay ---------------------------------------

/// A measured `solve`, kept for the replays that open it up.
struct MeasuredSolve {
    span: Option<usize>,
    wall_s: f64,
    fallback_used: bool,
    plan: MigrationPlan,
}

/// Times `solve` as a measured span.
fn solve_measured(
    rec: &mut SpanRecorder,
    inst: &Instance,
    cfg: &SraConfig,
) -> Result<(SolutionFile, MeasuredSolve), String> {
    let ((res, wall_s), span) =
        rec.time_id("core.solve", |_| timed(|| solve_with_drain(inst, cfg, &[])));
    let res = res.map_err(|e| format!("solve: {e}"))?;
    Ok((
        SolutionFile {
            placement: res.assignment.placement().to_vec(),
            plan: res.plan.clone(),
            returned: res.returned_machines,
        },
        MeasuredSolve {
            span,
            wall_s,
            fallback_used: res.fallback_used,
            plan: res.plan,
        },
    ))
}

/// Replays the constituents of a measured `solve` on the same inputs, as
/// children of its span: the search, the final plan, the verification.
/// The search is then run once more with the plannability gate off; the
/// difference is what the gate's `plan_migration` calls cost.
fn replay_solve_parts(
    rec: &mut SpanRecorder,
    led: &mut Ledger,
    inst: &Instance,
    cfg: &SraConfig,
    solve: &MeasuredSolve,
    threads: usize,
) -> Result<(), String> {
    let mut problem = SraProblem::new(inst, cfg.objective);
    problem.planner = cfg.planner;
    let cpu0 = self_cpu_s();
    let ((searched, search_s), _) = rec.replay("core.search", solve.span, 1, |_| {
        timed(|| run_search(&problem, cfg, cfg.seed, &mut Recorder::noop()))
    });
    let search_cpu = self_cpu_s() - cpu0;
    let (best, iterations, _, _) = searched.map_err(|e| format!("run_search: {e}"))?;
    let ((plan, plan_s), _) = rec.replay("cluster.plan", solve.span, 1, |_| {
        timed(|| plan_migration(inst, &inst.initial, best.placement(), &cfg.planner))
    });
    let verify_s = match &plan {
        Ok(plan) => {
            rec.replay("cluster.verify", solve.span, 1, |_| {
                timed(|| verify_schedule(inst, &inst.initial, best.placement(), plan)).1
            })
            .0
        }
        // A deadlocked plan is what sends `solve` into its fallback search;
        // `core.solve.fallback_used` reports it.
        Err(_) => 0.0,
    };
    let ungated = SraProblem::new(inst, cfg.objective).without_plan_checks();
    let (_, ungated_s) = timed(|| run_search(&ungated, cfg, cfg.seed, &mut Recorder::noop()));

    led.set("core.solve.wall_s", solve.wall_s);
    led.set(
        "core.solve.self_s",
        (solve.wall_s - search_s - plan_s - verify_s).max(0.0),
    );
    led.set(
        "core.solve.fallback_used",
        f64::from(u8::from(solve.fallback_used)),
    );
    led.set("core.search.wall_s", search_s);
    led.set("core.search.cpu_s", search_cpu);
    led.set("core.search.iterations", iterations as f64);
    led.set(
        "core.search.ns_per_iter",
        1e9 * search_s / iterations.max(1) as f64,
    );
    led.set(
        "core.search.par_efficiency",
        search_cpu / (search_s * threads as f64),
    );
    // Approximate: without the gate the trajectory diverges slightly.
    led.set(
        "cluster.plan.gate_share",
        ((search_s - ungated_s) / search_s).max(0.0),
    );
    led.set("cluster.plan.wall_s", plan_s);
    led.set("cluster.plan.moves", solve.plan.n_moves() as f64);
    led.set("cluster.plan.batches", solve.plan.n_batches() as f64);
    led.set(
        "cluster.plan.extra_hop_share",
        solve.plan.extra_hops() as f64 / solve.plan.n_moves().max(1) as f64,
    );
    led.set("cluster.verify.wall_s", verify_s);
    Ok(())
}

// ---- in-process replicas of the five operations ---------------------------

/// What a replica leaves behind for the checks and the replays.
struct Replica {
    /// Bytes of the main output file, to compare with what the CLI wrote.
    out: Vec<u8>,
    /// The simulate workloads' (tick) export.
    export: Option<MetricsExport>,
    /// Span whose inside is explained by replays (`runtime.run*`).
    run_span: Option<usize>,
    /// The solve workloads' measured solve.
    solve: Option<MeasuredSolve>,
}

fn load_spec(rec: &mut SpanRecorder, input: &Input) -> Result<WorkloadSpec, String> {
    rec.time("cluster.scenario.load", |_| {
        let path = input
            .spec_path
            .as_deref()
            .expect("workload-plane input has a spec");
        let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let w: WorkloadSpec = serde_json::from_str(&json).map_err(|e| e.to_string())?;
        w.validate().map_err(|e| e.to_string())?;
        Ok(w)
    })
}

fn load_inst(rec: &mut SpanRecorder, input: &Input) -> Result<Instance, String> {
    rec.time("workload.io_load", |_| {
        io::load(&input.inst_path).map_err(|e| e.to_string())
    })
}

fn write_out(rec: &mut SpanRecorder, path: &Path, json: String) -> Result<Vec<u8>, String> {
    rec.time("rex.write_output", |_| {
        std::fs::write(path, &json).map_err(|e| e.to_string())?;
        Ok(json.into_bytes())
    })
}

/// Runs the operation in-process under the span `rex.op`, with the same
/// public calls, in the same order, on the same files as the CLI.
fn replica(
    rec: &mut SpanRecorder,
    w: Workload,
    input: &Input,
    files: &OpFiles,
) -> Result<Replica, String> {
    rec.next_op();
    rec.time("rex.op", |rec| match w {
        Workload::SolveDecomposed | Workload::SolveStringent => {
            let inst = load_inst(rec, input)?;
            let cfg = rec.time("core.options", |_| {
                solver_config(w, &inst, input.seed, &ControllerConfig::default())
            })?;
            let (sol, solve) = solve_measured(rec, &inst, &cfg)?;
            let json = serde_json::to_string_pretty(&sol).map_err(|e| e.to_string())?;
            Ok(Replica {
                out: write_out(rec, &files.out, json)?,
                export: None,
                run_span: None,
                solve: Some(solve),
            })
        }
        Workload::ClosedLoop => {
            let inst = load_inst(rec, input)?;
            let cfg = closed_loop_config(&inst, input.seed);
            let (export, run_span) = rec.time_id("runtime.run", |_| {
                Simulation::new(inst, cfg).run_traced(&mut Recorder::noop())
            });
            Ok(Replica {
                out: write_out(rec, &files.out, export.to_json())?,
                export: Some(export),
                run_span,
                solve: None,
            })
        }
        Workload::WorkloadReplay => {
            let spec = load_spec(rec, input)?;
            let inst = load_inst(rec, input)?;
            let sim = rec.time("runtime.lower", |_| {
                Simulation::from_workload(inst.clone(), &spec)
            });
            let ((export, lines), run_span) = rec.time_id("runtime.run_recorded", |_| {
                sim.run_recorded(&mut Recorder::noop())
            });
            rec.time("runtime.trace.write", |_| {
                std::fs::write(&files.trace, trace::write_jsonl(&spec, &inst, &lines))
                    .map_err(|e| e.to_string())
            })?;
            let out = write_out(rec, &files.out, export.to_json())?;
            // Second invocation: `rex simulate --replay-trace`.
            let (spec_b, inst_b, script) = rec.time("runtime.trace.parse", |_| {
                let text = std::fs::read_to_string(&files.trace).map_err(|e| e.to_string())?;
                let (w, inst, lines) = trace::parse_jsonl(&text)?;
                Ok::<_, String>((w, inst, ReplayScript::from_lines(&lines)))
            })?;
            let mut sim = rec.time("runtime.lower", |_| {
                Simulation::from_workload(inst_b, &spec_b)
            });
            sim.set_replay(script);
            let replayed = rec.time("runtime.run_replayed", |_| {
                sim.run_traced(&mut Recorder::noop())
            });
            let out_b = write_out(rec, &files.out_b, replayed.to_json())?;
            if out != out_b {
                return Err("rule replay: in-process replay differs from the recording".into());
            }
            Ok(Replica {
                out,
                export: Some(export),
                run_span,
                solve: None,
            })
        }
        Workload::ConvergeEvents => {
            let spec = load_spec(rec, input)?;
            let inst = load_inst(rec, input)?;
            let (tick_sim, event_sim) = rec.time("runtime.lower", |_| {
                (
                    Simulation::from_workload(inst.clone(), &spec),
                    Simulation::from_workload_event(
                        inst.clone(),
                        &spec,
                        PolicyKind::PowerOfD,
                        false,
                    ),
                )
            });
            let (tick, run_span) = rec.time_id("runtime.tick_run", |_| tick_sim.run());
            let event = rec.time("runtime.event_run", |_| event_sim.run());
            let json = rec.time("rex.converge_report", |_| {
                let gauges = |e: &MetricsExport| serde_json::to_string(&e.gauges);
                if gauges(&tick).map_err(|e| e.to_string())?
                    != gauges(&event).map_err(|e| e.to_string())?
                {
                    return Err("rule gauge_parity: engines diverged in-process".to_string());
                }
                Ok(format!(
                    "{{\n\"tick\": {},\n\"event\": {}\n}}\n",
                    tick.to_json(),
                    event.to_json()
                ))
            })?;
            Ok(Replica {
                out: write_out(rec, &files.out, json)?,
                export: Some(tick),
                run_span,
                solve: None,
            })
        }
    })
}

// ---- replays inside a simulated run ----------------------------------------

/// Explains the inside of a `Simulation::run` by replaying its parts on
/// the initial snapshot: the tick engine with every control plane off, one
/// controller solve standing for each trigger, one evacuation plan for
/// each evacuation, one hot-shard delta solve for each hot-shard migration.
/// Later solves run on drifted snapshots, so the counts × one timing is an
/// estimate — which is why the cover share is reported, not assumed.
fn replay_run_parts(
    rec: &mut SpanRecorder,
    led: &mut Ledger,
    w: Workload,
    input: &Input,
    cfg: &RuntimeConfig,
    rep: &Replica,
    op_wall_s: f64,
) {
    let export = rep.export.as_ref().expect("simulate workloads export");
    let c = &export.counters;
    let inst = &input.inst;
    let count = |n: u64| u32::try_from(n).expect("counter fits u32");

    let off = controller_off(cfg.clone());
    let ((_, tick_s), _) = rec.replay("runtime.tick", rep.run_span, 1, |_| {
        timed(|| Simulation::new(inst.clone(), off).run())
    });
    led.set("runtime.tick.ticks_per_s", cfg.ticks as f64 / tick_s);

    led.set("runtime.controller.triggers", c.rebalances_triggered as f64);
    if cfg.controller.policy == ControllerPolicy::Sra {
        let ((planned, plan_s), _) = rec.replay(
            "runtime.controller.plan",
            rep.run_span,
            count(c.rebalances_triggered),
            |_| {
                timed(|| {
                    plan_load_rebalance(
                        &cfg.controller,
                        inst,
                        &[],
                        cfg.seed,
                        cfg.copy_bandwidth,
                        cfg.batch_overhead_ticks,
                    )
                })
            },
        );
        if planned.is_ok() {
            led.set("runtime.controller.plan_wall_s", plan_s);
            led.set(
                "runtime.controller.share",
                c.rebalances_triggered as f64 * plan_s / op_wall_s,
            );
        }
    }

    // The first crash of the fault script is the one that is evacuated.
    let failed: Vec<MachineId> = match w {
        Workload::ClosedLoop => vec![MachineId(workloads::closed_loop_faults().crash_machine)],
        _ => cfg
            .faults
            .iter()
            .filter_map(|f| match f {
                FaultSpec::Crash { machine, .. } => Some(MachineId(*machine)),
                FaultSpec::Spike { .. } => None,
            })
            .collect(),
    };
    led.set("runtime.evacuation.count", c.evacuations as f64);
    let ((evac, evac_s), _) = rec.replay(
        "runtime.evacuation.plan",
        rep.run_span,
        count(c.evacuations),
        |_| {
            timed(|| {
                plan_evacuation(
                    inst,
                    &failed,
                    cfg.seed,
                    cfg.copy_bandwidth,
                    cfg.batch_overhead_ticks,
                )
            })
        },
    );
    if evac.is_ok() {
        led.set("runtime.evacuation.plan_wall_s", evac_s);
    }

    led.set("runtime.hotshard.splits", c.shard_splits as f64);
    led.set("runtime.hotshard.merges", c.shard_merges as f64);
    led.set("runtime.exec.batches", c.batches_executed as f64);
    if cfg.hotshard.enabled {
        let hot = hottest_shard(inst);
        let ((planned, hs_s), _) = rec.replay(
            "runtime.hotshard.plan",
            rep.run_span,
            count(c.hotshard_migrations),
            |_| {
                timed(|| {
                    plan_hotshard_migration(
                        inst,
                        &[hot],
                        &cfg.hotshard,
                        cfg.seed,
                        cfg.copy_bandwidth,
                        cfg.batch_overhead_ticks,
                    )
                })
            },
        );
        if planned.is_ok() {
            led.set("runtime.hotshard.plan_wall_s", hs_s);
        }
    }
}

fn hottest_shard(inst: &Instance) -> ShardId {
    let hottest = (0..inst.n_shards())
        .max_by(|&a, &b| {
            let cpu = |s: usize| inst.shards[s].demand[0];
            cpu(a).total_cmp(&cpu(b)).then(b.cmp(&a))
        })
        .expect("instances have shards");
    ShardId::from(hottest)
}

// ---- layer probes -----------------------------------------------------------

fn probe_workload_layer(
    led: &mut Ledger,
    w: Workload,
    input: &Input,
    dir: &Path,
) -> Result<(), String> {
    let synth = w.synth(input.seed);
    let (generated, generate_s) = best_of(2, || match &input.spec {
        Some(spec) => generate_workload(spec, &synth),
        None => generate(&synth),
    });
    let generated = generated.map_err(|e| e.to_string())?;
    let path = dir.join("probe-inst.json");
    let (saved, save_s) = best_of(2, || io::save(&generated, &path));
    saved.map_err(|e| e.to_string())?;
    let (loaded, load_s) = best_of(2, || io::load(&path));
    loaded.map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    led.set("workload.generate_s", generate_s);
    led.set("workload.io_save_s", save_s);
    led.set("workload.io_load_s", load_s);
    led.set("workload.io_bytes", bytes as f64);

    // One drift epoch as the load script performs it: walk, then re-derive
    // every shard's demand from the new ranks.
    let inst = &input.inst;
    let mut walk = PopularityWalk::new(inst.n_shards(), 0.9);
    let epochs = 4u64;
    let (_, pop_s) = timed(|| {
        for e in 0..epochs {
            walk.step(60, input.seed.wrapping_add(e));
            black_box(
                apply_popularity(inst, &inst.initial, &walk, 0.6)
                    .map(|x| x.1)
                    .ok(),
            );
        }
    });
    led.set("workload.popularity_epoch_ns", 1e9 * pop_s / epochs as f64);
    Ok(())
}

fn probe_cluster_kernels(led: &mut Ledger, inst: &Instance) {
    let asg = Assignment::from_initial(inst);
    let loads = asg.loads(inst);
    let n = loads.len();
    // ~2M elements per timing, whatever the fleet size.
    let reps = (2_000_000 / n).max(1);
    let (_, scan_s) = best_of(3, || {
        for _ in 0..reps {
            black_box(kernels::scan(black_box(&loads)));
        }
    });
    let (_, scalar_s) = best_of(3, || {
        for _ in 0..reps {
            black_box(kernels::scan_scalar(black_box(&loads)));
        }
    });
    let caps = PackedVecs::from_vecs(inst.dims, inst.machines.iter().map(|m| &m.capacity));
    let usage = asg.usage_rows();
    let mut out = vec![0.0; n];
    let (_, rows_s) = best_of(3, || {
        for _ in 0..reps {
            black_box(kernels::ratio_scan_rows(
                inst.dims,
                black_box(usage.as_flat()),
                caps.as_flat(),
                &mut out,
            ));
        }
    });
    let per = |s: f64| 1e9 * s / (reps * n) as f64;
    led.set("cluster.kernels.scan_ns_per_elem", per(scan_s));
    led.set("cluster.kernels.ratio_rows_ns_per_row", per(rows_s));
    led.set("cluster.kernels.simd_speedup", scalar_s / scan_s);

    let (_, part_s) = best_of(3, || {
        black_box(partition_fleet(
            inst,
            &inst.initial,
            &loads,
            workloads::DECOMPOSED_PARTITIONS,
            inst.k_return,
            &[],
        ))
    });
    led.set("cluster.partition.wall_s", part_s);
}

fn probe_lowering(led: &mut Ledger, input: &Input) {
    // A workload without a spec file lowers the degenerate workload.
    let spec = input
        .spec
        .clone()
        .unwrap_or_else(|| WorkloadSpec::from_scenario(ScenarioSpec::default()));
    let loaded = input.inst.n_machines() - input.inst.n_exchange();
    let reps = 200;
    let (_, s) = best_of(3, || {
        for _ in 0..reps {
            spec.validate().expect("spec validated at set-up");
            black_box(RuntimeConfig::from_workload(black_box(&spec), loaded));
        }
    });
    led.set("cluster.scenario.lower_s", s / reps as f64);
}

fn probe_engine(led: &mut Ledger, inst: &Instance, seed: u64) -> Result<(), String> {
    let cfg = SolveOptions::new()
        .iters(ENGINE_PROBE_ITERS)
        .workers(1)
        .seed(seed)
        .build_for(inst)
        .map_err(|e| e.to_string())?;
    let problem = SraProblem::new(inst, cfg.objective).without_plan_checks();
    let (out, s) = timed(|| run_search(&problem, &cfg, seed, &mut Recorder::noop()));
    let (_, iterations, stats, _) = out.map_err(|e| e.to_string())?;
    let stats = stats.expect("the serial engine reports stats");
    led.set("lns.engine.ns_per_iter", 1e9 * s / iterations.max(1) as f64);
    led.set("lns.engine.iterations", iterations as f64);
    led.set(
        "lns.engine.accept_share",
        stats.accepted as f64 / iterations.max(1) as f64,
    );
    led.set(
        "lns.engine.improve_share",
        stats.improved as f64 / iterations.max(1) as f64,
    );
    Ok(())
}

fn probe_delta_and_greedy(
    led: &mut Ledger,
    inst: &Instance,
    seed: u64,
    delta_iters: u64,
) -> Result<(), String> {
    let cfg = SolveOptions::new()
        .iters(delta_iters)
        .workers(1)
        .seed(seed)
        .build_for(inst)
        .map_err(|e| e.to_string())?;
    let hot = hottest_shard(inst);
    let (out, s) = timed(|| solve_delta(inst, &cfg, &[hot], &mut Recorder::noop()));
    if out.is_ok() {
        led.set("core.delta.wall_s", s);
    }
    let (greedy, s) = timed(|| GreedyRebalancer::default().rebalance(inst));
    let greedy = greedy.map_err(|e| e.to_string())?;
    led.set("baselines.greedy.wall_s", s);
    led.set("baselines.greedy.peak", greedy.final_report.peak);
    Ok(())
}

fn probe_hotshard_observe(led: &mut Ledger, inst: &Instance) {
    let hs = rex_runtime::HotShardConfig::default();
    let mut cache = EwmaCache::new(hs.cache_capacity, hs.ewma_alpha);
    let n = inst.n_shards();
    let rounds = (200_000 / n).max(1);
    let (_, s) = timed(|| {
        for tick in 0..rounds {
            for shard in 0..n {
                let fraction = inst.shards[shard].demand[0];
                black_box(cache.observe(
                    tick as u64,
                    ShardId::from(shard),
                    fraction,
                    hs.split_fraction,
                ));
            }
        }
    });
    led.set("runtime.hotshard.observe_ns", 1e9 * s / (rounds * n) as f64);
}

fn probe_trace(led: &mut Ledger, input: &Input) -> Result<(), String> {
    let spec = input.spec.as_ref().expect("workload_replay has a spec");
    let inst = &input.inst;
    let sim = || Simulation::from_workload(inst.clone(), spec);
    let (_, plain_s) = best_of(2, || sim().run());
    let ((_, lines), recorded_s) = best_of(2, || sim().run_recorded(&mut Recorder::noop()));
    let (text, write_s) = best_of(3, || trace::write_jsonl(spec, inst, &lines));
    let (parsed, parse_s) = best_of(3, || trace::parse_jsonl(&text));
    let (w, i, l) = parsed?;
    let mut replay = Simulation::from_workload(i, &w);
    replay.set_replay(ReplayScript::from_lines(&l));
    let (_, replay_s) = timed(|| replay.run());
    led.set("runtime.trace.record_overhead", recorded_s / plain_s);
    led.set("runtime.trace.write_s", write_s);
    led.set("runtime.trace.parse_s", parse_s);
    led.set("runtime.trace.bytes", text.len() as f64);
    led.set("runtime.trace.replay_wall_s", replay_s);
    Ok(())
}

/// The scenario the router-side probes run: the workload's own when it has
/// one (load script and rack crashes have no open-loop meaning and are
/// dropped), else the default scenario.
fn probe_scenario(input: &Input) -> ScenarioSpec {
    match &input.spec {
        Some(spec) => ScenarioSpec {
            // Keep the probe to a second or so whatever the op's horizon.
            ticks: spec.scenario.ticks.min(2000),
            spike: None,
            sra: None,
            ..spec.scenario.clone()
        },
        None => ScenarioSpec {
            ticks: 2000,
            qps_per_tick: 40.0,
            seed: input.seed,
            ..Default::default()
        },
    }
}

/// `from_scenario` pins replication to 1 (the differential contract), which
/// leaves a routing policy nothing to choose between; the per-policy probe
/// uses `rex route`'s default of three replicas.
fn replicated(cfg: RouterConfig) -> RouterConfig {
    RouterConfig {
        replication: 3,
        ..cfg
    }
}

fn probe_router(led: &mut Ledger, input: &Input) {
    let scenario = probe_scenario(input);
    // The queue alone: one schedule / next_tick / finish_tick cycle per
    // event, at the probe scenario's event density.
    let per_tick = (scenario.qps_per_tick * scenario.fanout as f64)
        .ceil()
        .max(1.0) as u64;
    let ticks = 20_000u64;
    let mut q = CalendarQueue::with_capacity(1024, per_tick as usize + 1, 64);
    let drain = |q: &mut CalendarQueue| {
        let tick = q.next_tick();
        if let Some((_, bucket, count)) = tick {
            for i in 0..count {
                black_box(q.event_at(bucket, i));
            }
            q.finish_tick(bucket, count);
        }
        tick.is_some()
    };
    let (_, s) = timed(|| {
        for _ in 0..ticks {
            for k in 0..per_tick {
                q.schedule(
                    q.now() + 1 + k % 7,
                    EventKind::SubComplete {
                        replica: k as u32,
                        query: k as u32,
                    },
                );
            }
            drain(&mut q);
        }
        while drain(&mut q) {}
    });
    led.set(
        "router.queue.ns_per_event",
        1e9 * s / (ticks * per_tick) as f64,
    );

    for policy in PolicyKind::ALL {
        let cfg = replicated(RouterConfig::from_scenario(&scenario, policy));
        let (report, s) = timed(|| rex_router::run(&input.inst, &cfg));
        let name = policy.name();
        led.set(
            &format!("router.run.events_per_s.{name}"),
            report.events as f64 / s,
        );
        led.set(&format!("router.run.p99_us.{name}"), report.p99_us);
    }
    let cfg = replicated(RouterConfig::from_scenario(&scenario, PolicyKind::PowerOfD));
    let (_, plain_s) = best_of(2, || rex_router::run(&input.inst, &cfg));
    let (_, traced_s) = best_of(2, || {
        let mut rec = Recorder::active();
        black_box(rex_router::run_traced(&input.inst, &cfg, &mut rec));
    });
    led.set("obs.route_overhead", traced_s / plain_s);
}

fn probe_event_backend(led: &mut Ledger, input: &Input) {
    let spec = input.spec.as_ref().expect("converge_events has a spec");
    let sim =
        Simulation::from_workload_event(input.inst.clone(), spec, PolicyKind::PowerOfD, false);
    let (export, s) = timed(|| sim.run());
    led.set(
        "runtime.event_backend.queries_per_s",
        export.counters.queries_arrived as f64 / s,
    );
}

fn probe_obs(
    led: &mut Ledger,
    inst: &Instance,
    cfg: &SraConfig,
    sim: Option<&RuntimeConfig>,
) -> Result<(), String> {
    let (plain, plain_s) = timed(|| solve_traced(inst, cfg, &[], &mut Recorder::noop()));
    plain.map_err(|e| e.to_string())?;
    let mut rec = Recorder::active();
    let (traced, traced_s) = timed(|| solve_traced(inst, cfg, &[], &mut rec));
    traced.map_err(|e| e.to_string())?;
    led.set("obs.solve_overhead", traced_s / plain_s);
    led.set("obs.events", rec.events().len() as f64);
    let (jsonl, export_s) = timed(|| rec.to_jsonl());
    black_box(jsonl);
    led.set("obs.export_s", export_s);
    if let Some(cfg) = sim {
        let run = |rec: &mut Recorder| Simulation::new(inst.clone(), cfg.clone()).run_traced(rec);
        let (_, plain_s) = best_of(2, || run(&mut Recorder::noop()));
        let (_, traced_s) = best_of(2, || run(&mut Recorder::active()));
        led.set("obs.sim_overhead", traced_s / plain_s);
    }
    Ok(())
}

// ---- the traced run ---------------------------------------------------------

/// Span file written when the traced run ends.
#[derive(Serialize)]
struct SpanFile {
    workload: String,
    seed: u64,
    threads: usize,
    spans: Vec<Span>,
}

/// "Where the time goes": the direct children of `rex.op` and of the span
/// the replays explain, as shares of the op.
fn breakdown(spans: &[Span]) -> Vec<String> {
    let Some(op) = spans.iter().find(|s| s.name == "rex.op") else {
        return Vec::new();
    };
    let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 * f64::from(s.count);
    let total = dur(op);
    let mut lines = vec![format!(
        "where the time goes (in-process op {:.4} s; replayed steps marked ~):",
        total * 1e-9
    )];
    fn walk(spans: &[Span], parent: usize, depth: usize, total: f64, lines: &mut Vec<String>) {
        for s in spans.iter().filter(|s| s.parent == Some(parent)) {
            let d = (s.end_ns - s.start_ns) as f64 * f64::from(s.count);
            lines.push(format!(
                "  {:indent$}{}{:<30} {:>9.4} s {:>6.1}%  self {:>9.4} s{}",
                "",
                if s.replayed { "~" } else { " " },
                s.name,
                d * 1e-9,
                100.0 * d / total,
                s.self_ns as f64 * 1e-9,
                if s.count != 1 {
                    format!("  (x{})", s.count)
                } else {
                    String::new()
                },
                indent = 2 * depth
            ));
            walk(spans, s.id, depth + 1, total, lines);
        }
    }
    walk(spans, op.id, 0, total, &mut lines);
    lines.push(format!(
        "  {:<33} {:>9.4} s {:>6.1}%",
        " (rex.op self)",
        op.self_ns as f64 * 1e-9,
        100.0 * op.self_ns as f64 / total
    ));
    lines
}

pub fn run(env: &Env, w: Workload, seed: u64, dir: &Path) -> Result<RunResult, String> {
    let mut led = Ledger(Vec::new());
    let mut failures = Vec::new();
    let input = workloads::build_input(w, seed, 0, dir)?;
    let inst = &input.inst;
    let files = OpFiles::new(dir, 0);
    let log = dir.join("rex-output.log");

    // 1. The operation through the CLI, for reference.
    let mut cli_walls = Vec::new();
    for _ in 0..=REFERENCE_OPS {
        // The first is the warm-up.
        let cost = spawn_op(env, w, &input, &files, &log)?;
        cli_walls.push(cost.wall_s);
    }
    let cli_walls = &cli_walls[1..];
    let cli_out = std::fs::read(&files.out).map_err(|e| e.to_string())?;
    if let Err(rule) = workloads::check_output(w, &input, &files) {
        failures.push(format!("cli op (input 0, seed {}): {rule}", input.seed));
    }

    // 2. The replica, with the span recorder off and on. Two rounds, best
    //    of each: the recorder's cost is a dozen spans, far below the
    //    run-to-run noise of a single pair.
    let mut untraced_s = f64::INFINITY;
    let mut traced: Option<(SpanRecorder, Replica, f64)> = None;
    for _ in 0..2 {
        let (untraced, s) = timed(|| replica(&mut SpanRecorder::new(false), w, &input, &files));
        untraced?;
        untraced_s = untraced_s.min(s);
        let mut rec = SpanRecorder::new(true);
        let (rep, s) = timed(|| replica(&mut rec, w, &input, &files));
        let rep = rep?;
        if traced.as_ref().is_none_or(|(_, _, best)| s < *best) {
            traced = Some((rec, rep, s));
        }
    }
    let (mut rec, rep, traced_s) = traced.expect("two rounds ran");
    if rep.out != cli_out {
        failures.push(format!(
            "replica (input 0, seed {}): rule replica_fidelity: the in-process op wrote \
             different bytes than `rex`",
            input.seed
        ));
    }

    // 3. Replays that open up the replica's opaque spans, then the solver
    //    as this workload uses it, then the layer probes.
    let ctrl_default = ControllerConfig::default();
    let rt_cfg = runtime_config(w, &input);
    let ctrl = rt_cfg.as_ref().map_or(&ctrl_default, |c| &c.controller);
    let solver_cfg = solver_config(w, inst, input.seed, ctrl)?;
    let op_wall_s = stats::median(cli_walls);
    match (&rt_cfg, &rep.solve) {
        (Some(cfg), _) => {
            replay_run_parts(&mut rec, &mut led, w, &input, cfg, &rep, op_wall_s);
            // The solver as this workload's controller runs it, as an
            // operation of its own.
            rec.next_op();
            let (_, solve) = rec.time("probe.solve_op", |rec| {
                solve_measured(rec, inst, &solver_cfg)
            })?;
            replay_solve_parts(&mut rec, &mut led, inst, &solver_cfg, &solve, env.threads)?;
        }
        (None, Some(solve)) => {
            replay_solve_parts(&mut rec, &mut led, inst, &solver_cfg, solve, env.threads)?;
            let off = controller_off(RuntimeConfig::from_scenario(&ScenarioSpec {
                ticks: TICK_PROBE_TICKS,
                seed: input.seed,
                ..Default::default()
            }));
            let (_, s) = timed(|| Simulation::new(inst.clone(), off).run());
            led.set("runtime.tick.ticks_per_s", TICK_PROBE_TICKS as f64 / s);
        }
        (None, None) => unreachable!("a workload either simulates or solves"),
    }
    probe_workload_layer(&mut led, w, &input, dir)?;
    probe_cluster_kernels(&mut led, inst);
    probe_lowering(&mut led, &input);
    probe_engine(&mut led, inst, input.seed)?;
    let delta_iters = rt_cfg
        .as_ref()
        .map_or(rex_runtime::HotShardConfig::default().delta_iters, |c| {
            c.hotshard.delta_iters
        });
    probe_delta_and_greedy(&mut led, inst, input.seed, delta_iters)?;
    probe_hotshard_observe(&mut led, inst);
    probe_router(&mut led, &input);
    if w == Workload::WorkloadReplay {
        probe_trace(&mut led, &input)?;
    }
    if w == Workload::ConvergeEvents {
        probe_event_backend(&mut led, &input);
    }
    let sim_cfg = match w {
        Workload::ClosedLoop | Workload::WorkloadReplay => rt_cfg.as_ref(),
        _ => None,
    };
    probe_obs(&mut led, inst, &solver_cfg, sim_cfg)?;

    // 4. Close the recording: self times, cover, span file.
    let spans = rec.finish();
    let op = spans
        .iter()
        .find(|s| s.name == "rex.op")
        .expect("the replica records rex.op");
    let op_s = (op.end_ns - op.start_ns) as f64 * 1e-9;
    led.set("rex.inproc_op_wall_s", op_s);
    led.set("rex.startup_io_s", (op_wall_s - op_s).max(0.0));
    led.set("rex.op_wall_s_max", stats::max(cli_walls));
    led.set("rex.cover_share", cover_share(&spans, op.id));
    led.set("rex.trace_overhead", traced_s / untraced_s);
    let notes = breakdown(&spans);
    let span_path = env.out_dir.join(format!("trace-{}.json", w.name()));
    let file = SpanFile {
        workload: w.name().to_string(),
        seed,
        threads: env.threads,
        spans,
    };
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(&span_path, json).map_err(|e| format!("writing {span_path:?}: {e}"))?;

    Ok(RunResult {
        workload: w,
        trace: true,
        attempted: (REFERENCE_OPS + 1) as u64,
        failed: failures.len() as u64,
        failures,
        metrics: led.into_metrics(),
        notes,
    })
}
