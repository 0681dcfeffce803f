//! `rex` — the command-line front end.
//!
//! ```text
//! rex generate --family correlated --machines 24 --exchange 3 --shards 240 \
//!              --stringency 0.8 --alpha 0.1 --seed 1 --out inst.json
//! rex inspect  --inst inst.json
//! rex solve    --inst inst.json --iters 8000 --workers 4 --out solution.json
//! rex baseline --inst inst.json --method greedy
//! rex verify   --inst inst.json --solution solution.json
//! rex simulate --ticks 10000 --controller sra --crash-at 3000 --out run.json
//! rex simulate --ticks 10000 --trace trace.jsonl --quiet
//! rex trace    --inst inst.json --iters 4000 --out trace.jsonl
//! ```
//!
//! Instances and solutions are JSON artifacts (bit-exact f64 round-trips),
//! so a solve on one machine can be verified on another, and two same-seed
//! `simulate` runs write byte-identical metrics files.
//!
//! Argument parsing is table-driven ([`cli`]): every command declares its
//! flag vocabulary in one registry, the solver commands share their flag
//! groups, and anything unrecognized is rejected with an error instead of
//! being silently ignored. Solver flags are validated once, at the
//! [`SolveOptions`] boundary, before any search starts.

mod cli;

use cli::{get, get_or, has, parse, parse_args, spec_of};
use resource_exchange::baselines::{
    FfdRepacker, GreedyRebalancer, LocalSearchRebalancer, Rebalancer,
};
use resource_exchange::cluster::{
    verify_schedule, Assignment, BalanceReport, CrashSpec, Instance, MachineId, MigrationPlan,
    ScenarioSpec, SpikeSpec, SraSpec, WorkloadSpec,
};
use resource_exchange::core::{solve_traced, solve_with_drain, SolveOptions, SraConfig, SraResult};
use resource_exchange::obs::Recorder;
use resource_exchange::router::{self, FlashCrowd, PolicyKind, RouterConfig, SraCoupling};
use resource_exchange::runtime::{
    trace, DriftSpec, FaultSpec, MetricsExport, ReplayScript, RuntimeConfig, Simulation,
};
use resource_exchange::workload::io;
use resource_exchange::workload::synthetic::{
    generate, generate_workload, DemandFamily, MachineProfile, Placement, SynthConfig,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// A solved reassignment, as stored on disk.
#[derive(Serialize, Deserialize)]
struct SolutionFile {
    /// Final placement (machine per shard).
    placement: Vec<MachineId>,
    /// The migration schedule reaching it.
    plan: MigrationPlan,
    /// Machines handed back.
    returned: Vec<MachineId>,
}

fn load_instance(args: &HashMap<String, String>) -> Result<Instance, String> {
    let path = get(args, "inst")?;
    io::load(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))
}

/// Loads and validates an engine-neutral [`WorkloadSpec`] file. The typed
/// [`ScenarioError`](resource_exchange::cluster::ScenarioError) surfaces
/// here with the file name attached instead of panicking downstream.
fn load_workload(path: &str) -> Result<WorkloadSpec, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("loading {path}: {e}"))?;
    let w: WorkloadSpec =
        serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    w.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(w)
}

/// The instance a run starts from: `--inst` wins; otherwise `base` sized
/// by the synth flags (`--machines`, `--exchange`, `--shards`) is
/// synthesized on the spot — through [`generate_workload`] when a
/// workload's fleet table describes heterogeneous machines. Workload-mode
/// callers seed `base` with the workload's scenario seed so the run is a
/// pure function of the spec file.
fn synth_instance(
    args: &HashMap<String, String>,
    base: SynthConfig,
    workload: Option<&WorkloadSpec>,
) -> Result<Instance, String> {
    if args.contains_key("inst") {
        return load_instance(args);
    }
    let cfg = SynthConfig {
        n_machines: parse(
            get_or(args, "machines", &base.n_machines.to_string()),
            "usize",
        )?,
        n_exchange: parse(
            get_or(args, "exchange", &base.n_exchange.to_string()),
            "usize",
        )?,
        n_shards: parse(get_or(args, "shards", &base.n_shards.to_string()), "usize")?,
        ..base
    };
    match workload {
        Some(w) if w.fleet.is_some() => generate_workload(w, &cfg),
        _ => generate(&cfg),
    }
    .map_err(|e| e.to_string())
}

/// Whether the run is driven by the workload plane (a spec file or a
/// recorded trace) instead of the scenario flags.
fn workload_mode(args: &HashMap<String, String>) -> Result<bool, String> {
    let on = args.contains_key("workload") || args.contains_key("replay-trace");
    if !on && args.contains_key("record-trace") {
        return Err("--record-trace needs --workload (the trace header embeds the spec)".into());
    }
    Ok(on)
}

/// Resolves the workload-plane inputs shared by `simulate` and `converge`:
/// either a spec file (`--workload`, optionally recording the realized
/// stream) or a recorded trace (`--replay-trace`, self-contained — the
/// header carries the spec and the exact starting instance).
fn workload_inputs(
    args: &HashMap<String, String>,
    base: SynthConfig,
) -> Result<(WorkloadSpec, Instance, Option<ReplayScript>), String> {
    if args.contains_key("workload") && args.contains_key("replay-trace") {
        return Err("choose one of --workload / --replay-trace (a trace embeds its spec)".into());
    }
    if let Some(path) = args.get("replay-trace") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("loading {path}: {e}"))?;
        let (w, inst, lines) = trace::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok((w, inst, Some(ReplayScript::from_lines(&lines))))
    } else {
        let w = load_workload(get(args, "workload")?)?;
        let seed = w.scenario.seed;
        let inst = synth_instance(args, SynthConfig { seed, ..base }, Some(&w))?;
        Ok((w, inst, None))
    }
}

/// Builds the validated solver configuration from the shared solver flags
/// (`--iters`, `--workers`, `--partitions`, `--depth`, `--seed`) — the
/// one config path `solve` and `trace` have in common.
fn solver_config(
    args: &HashMap<String, String>,
    default_iters: &str,
    inst: &Instance,
) -> Result<SraConfig, String> {
    SolveOptions::new()
        .iters(parse(get_or(args, "iters", default_iters), "u64")?)
        .workers(parse(get_or(args, "workers", "1"), "usize")?)
        .partitions(parse(get_or(args, "partitions", "0"), "usize")?)
        .depth(parse(get_or(args, "depth", "1"), "usize")?)
        .seed(parse(get_or(args, "seed", "42"), "u64")?)
        .build_for(inst)
        .map_err(|e| e.to_string())
}

fn cmd_generate(args: &HashMap<String, String>) -> Result<(), String> {
    let family = match get_or(args, "family", "correlated") {
        "uniform" => DemandFamily::Uniform,
        "zipf" => DemandFamily::Zipf,
        "correlated" => DemandFamily::Correlated,
        "big-shards" => DemandFamily::BigShards,
        other => return Err(format!("unknown family `{other}`")),
    };
    let placement = match get_or(args, "placement", "hotspot") {
        "hotspot" => Placement::Hotspot(parse(get_or(args, "hot-fraction", "0.4"), "f64")?),
        "balanced" => Placement::BalancedBfd,
        "drift" => Placement::Drift,
        other => return Err(format!("unknown placement `{other}`")),
    };
    let cfg = SynthConfig {
        n_machines: 16,
        n_exchange: 2,
        n_shards: 160,
        dims: parse(get_or(args, "dims", "3"), "usize")?,
        stringency: parse(get_or(args, "stringency", "0.75"), "f64")?,
        alpha: parse(get_or(args, "alpha", "0.1"), "f64")?,
        seed: parse(get_or(args, "seed", "0"), "u64")?,
        family,
        placement,
        profile: match get_or(args, "profile", "homogeneous") {
            "homogeneous" => MachineProfile::Homogeneous,
            "two-tier" => MachineProfile::TwoTier {
                big_fraction: 0.25,
                ratio: 2.0,
            },
            "big-exchange" => MachineProfile::BigExchange { factor: 2.0 },
            other => return Err(format!("unknown profile `{other}`")),
        },
    };
    let inst = synth_instance(args, cfg, None)?;
    let out = get(args, "out")?;
    io::save(&inst, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} machines, {} shards) to {out}",
        inst.label,
        inst.n_machines(),
        inst.n_shards()
    );
    Ok(())
}

fn cmd_inspect(args: &HashMap<String, String>) -> Result<(), String> {
    let inst = load_instance(args)?;
    let asg = Assignment::from_initial(&inst);
    let report = BalanceReport::compute(&inst, &asg);
    println!("label:      {}", inst.label);
    println!(
        "machines:   {} (+{} exchange)",
        inst.n_machines() - inst.n_exchange(),
        inst.n_exchange()
    );
    println!("shards:     {}", inst.n_shards());
    println!("dims:       {}", inst.dims);
    println!("k_return:   {}", inst.k_return);
    println!("alpha:      {}", inst.alpha);
    println!("stringency: {:.4}", inst.stringency());
    println!("initial:    {report}");
    Ok(())
}

/// Loads the instance, reads the solver flags and the drain list, and runs
/// the solve `rex solve` reports on.
fn run_solve(args: &HashMap<String, String>) -> Result<(SraResult, Vec<MachineId>), String> {
    let inst = load_instance(args)?;
    let cfg = solver_config(args, "10000", &inst)?;
    // --drain 3,7 marks machines 3 and 7 for decommission.
    let drain: Vec<MachineId> = match args.get("drain") {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|x| parse::<u32>(x.trim(), "machine id").map(MachineId))
            .collect::<Result<_, _>>()?,
    };
    let res = solve_with_drain(&inst, &cfg, &drain).map_err(|e| e.to_string())?;
    Ok((res, drain))
}

/// What `rex solve` prints about a result, one line each.
fn solve_summary(res: &SraResult, drain: &[MachineId]) -> Vec<String> {
    let mut lines = Vec::new();
    if !drain.is_empty() {
        lines.push(format!("drained: {drain:?}"));
    }
    lines.push(format!("initial: {}", res.initial_report));
    lines.push(format!("final:   {}", res.final_report));
    lines.push(format!(
        "improvement {:.1}%, migration: {}, returned {:?}",
        100.0 * res.peak_improvement(),
        res.migration,
        res.returned_machines
    ));
    if res.fallback_used {
        lines.push(FALLBACK_LINE.to_string());
    }
    lines
}

/// Printed when the decomposed search's merged best deadlocked the final
/// plan and the result is the gated serial fallback search's.
const FALLBACK_LINE: &str =
    "fallback: the merged decomposed placement did not plan; this is the serial fallback's result";

fn cmd_solve(args: &HashMap<String, String>) -> Result<(), String> {
    let (res, drain) = run_solve(args)?;
    for line in solve_summary(&res, &drain) {
        println!("{line}");
    }
    if let Some(out) = args.get("out") {
        let file = SolutionFile {
            placement: res.assignment.placement().to_vec(),
            plan: res.plan,
            returned: res.returned_machines,
        };
        std::fs::write(
            out,
            serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        println!("solution written to {out}");
    }
    Ok(())
}

fn cmd_baseline(args: &HashMap<String, String>) -> Result<(), String> {
    let inst = load_instance(args)?;
    let method: Box<dyn Rebalancer> = match get_or(args, "method", "greedy") {
        "greedy" => Box::new(GreedyRebalancer),
        "local-search" => Box::new(LocalSearchRebalancer),
        "ffd" => Box::new(FfdRepacker),
        other => return Err(format!("unknown method `{other}`")),
    };
    let res = method.rebalance(&inst).map_err(|e| e.to_string())?;
    println!("method:  {}", method.name());
    println!("initial: {}", res.initial_report);
    println!("final:   {}", res.final_report);
    println!(
        "improvement {:.1}%, schedulable: {}, migration: {}",
        100.0 * res.peak_improvement(),
        res.schedulable,
        res.migration
    );
    Ok(())
}

fn cmd_verify(args: &HashMap<String, String>) -> Result<(), String> {
    let inst = load_instance(args)?;
    let path = get(args, "solution")?;
    let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let sol: SolutionFile = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    verify_schedule(&inst, &inst.initial, &sol.placement, &sol.plan).map_err(|e| e.to_string())?;
    let asg = Assignment::from_placement(&inst, sol.placement).map_err(|e| e.to_string())?;
    asg.check_target(&inst).map_err(|e| e.to_string())?;
    for m in &sol.returned {
        if !asg.is_vacant(*m) {
            return Err(format!("returned machine {m} is not vacant"));
        }
    }
    if sol.returned.len() < inst.k_return {
        return Err(format!(
            "only {} machines returned, {} required",
            sol.returned.len(),
            inst.k_return
        ));
    }
    println!(
        "OK: schedule verifies, target feasible, {} machines returned",
        sol.returned.len()
    );
    println!("final: {}", BalanceReport::compute(&inst, &asg));
    Ok(())
}

/// An active recorder iff `--trace FILE` asks for the obs event stream.
fn trace_recorder(args: &HashMap<String, String>) -> Recorder {
    if args.contains_key("trace") {
        Recorder::active()
    } else {
        Recorder::noop()
    }
}

/// The flag-built runtime configuration of `simulate`: faults, drift,
/// controller policy and the hot-shard plane from the scenario flags.
fn simulate_flag_config(
    args: &HashMap<String, String>,
    seed: u64,
    inst: &Instance,
) -> Result<RuntimeConfig, String> {
    let mut faults = Vec::new();
    if args.contains_key("crash-at") {
        faults.push(FaultSpec::Crash {
            at: parse(get(args, "crash-at")?, "u64")?,
            machine: parse(get_or(args, "crash-machine", "0"), "u32")?,
            recover_at: args
                .get("recover-at")
                .map(|v| parse(v, "u64"))
                .transpose()?,
        });
    }
    if args.contains_key("spike-at") {
        faults.push(FaultSpec::Spike {
            at: parse(get(args, "spike-at")?, "u64")?,
            duration: parse(get_or(args, "spike-duration", "300"), "u64")?,
            factor: parse(get_or(args, "spike-factor", "1.5"), "f64")?,
            shard_fraction: parse(get_or(args, "spike-fraction", "0.1"), "f64")?,
        });
    }
    // Demand drift is on by default (the closed loop exists because demand
    // moves); --no-drift isolates fault handling from drift.
    let drift = if has(args, "no-drift") {
        None
    } else {
        Some(DriftSpec {
            every_ticks: parse(get_or(args, "drift-every", "400"), "u64")?,
            sigma: 0.15,
            target_utilization: inst.stringency().clamp(0.3, 0.9),
        })
    };
    let mut cfg = RuntimeConfig {
        ticks: parse(get_or(args, "ticks", "10000"), "u64")?,
        seed,
        qps: parse(get_or(args, "qps", "8"), "f64")?,
        faults,
        drift,
        ..Default::default()
    };
    cfg.controller.policy = get_or(args, "controller", "sra").parse()?;
    if has(args, "hotshard") {
        cfg.hotshard.enabled = true;
        cfg.hotshard.split_fraction = parse(get_or(args, "split-threshold", "0.45"), "f64")?;
        cfg.hotshard.merge_fraction = parse(get_or(args, "merge-threshold", "0.2"), "f64")?;
        cfg.hotshard.poll_interval = parse(get_or(args, "hotshard-poll", "25"), "u64")?;
        cfg.hotshard.operator_expiry_ticks = parse(get_or(args, "hotshard-expiry", "400"), "u64")?;
    }
    Ok(cfg)
}

/// Runs the closed-loop simulator and optionally writes the metrics JSON.
/// The run comes from the scenario flags over an instance (loaded from
/// `--inst` or synthesized on the spot), or — workload mode — from one
/// engine-neutral spec file or recorded trace that drives the whole run:
/// fleet table, rack crashes, diurnal envelope, popularity drift. There
/// the scenario flags (`--ticks`, `--crash-at`, ...) are owned by the spec
/// and ignored; the synth flags still size a degenerate (fleet-less)
/// spec's instance.
fn cmd_simulate(args: &HashMap<String, String>) -> Result<(), String> {
    let base = SynthConfig {
        n_machines: 16,
        n_exchange: 2,
        n_shards: 160,
        placement: Placement::Hotspot(0.4),
        ..Default::default()
    };
    let (inst, cfg, w, replay) = if workload_mode(args)? {
        let (w, inst, replay) = workload_inputs(args, base)?;
        let cfg = RuntimeConfig::from_workload(&w, inst.n_machines());
        (inst, cfg, Some(w), replay)
    } else {
        let seed = parse(get_or(args, "seed", "42"), "u64")?;
        let inst = synth_instance(args, SynthConfig { seed, ..base }, None)?;
        let cfg = simulate_flag_config(args, seed, &inst)?;
        (inst, cfg, None, None)
    };
    // The simulation consumes the config; remember whether the hot-shard
    // control plane is on — the summary gates its block on the plane being
    // *active*, not on its counters being nonzero.
    let hotshard_enabled = cfg.hotshard.enabled;
    let quiet = has(args, "quiet");
    let mut rec = trace_recorder(args);
    // The trace header embeds the exact starting instance.
    let recording = args.get("record-trace").map(|path| (path, inst.clone()));
    // Out-of-range flags and faults naming machines past the fleet are
    // input errors.
    let mut sim = Simulation::try_new(inst, cfg)?;
    if let Some(script) = replay {
        sim.set_replay(script);
    }
    let export = match (recording, w) {
        (Some((path, inst)), Some(w)) => {
            let (export, lines) = sim.run_recorded(&mut rec);
            std::fs::write(path, trace::write_jsonl(&w, &inst, &lines))
                .map_err(|e| e.to_string())?;
            if !quiet {
                println!("workload trace ({} events) written to {path}", lines.len());
            }
            export
        }
        _ => sim.run_traced(&mut rec),
    };
    if let Some(path) = args.get("trace") {
        std::fs::write(path, rec.to_jsonl()).map_err(|e| e.to_string())?;
        if !quiet {
            print!("{}", rec.summary());
            println!("trace written to {path}");
        }
    }
    if let Some(out) = args.get("out") {
        std::fs::write(out, export.to_json()).map_err(|e| e.to_string())?;
    }
    if !quiet {
        print!("{}", simulate_summary(&export, hotshard_enabled));
        if let Some(out) = args.get("out") {
            println!("metrics written to {out}");
        }
    }
    Ok(())
}

/// The human-readable `simulate` roll-up. The hot-shard block appears iff
/// the control plane was enabled (`--hotshard`) — an active-but-idle plane
/// reports its zeros, a disabled plane stays silent even though the
/// counters exist in the export either way.
fn simulate_summary(export: &MetricsExport, hotshard_enabled: bool) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} | policy {} seed {} ticks {}",
        export.meta.instance, export.meta.policy, export.meta.seed, export.meta.ticks
    );
    let _ = writeln!(
        s,
        "queries: {} arrived, {} degraded | latency p50 {:.2} p95 {:.2} p99 {:.2}",
        export.counters.queries_arrived,
        export.counters.queries_degraded,
        export.latency.p50,
        export.latency.p95,
        export.latency.p99
    );
    let _ = writeln!(
        s,
        "rebalances: {} triggered, {} completed, {} aborted | evacuations {} | traffic {:.1}",
        export.counters.rebalances_triggered,
        export.counters.rebalances_completed,
        export.counters.rebalances_aborted,
        export.counters.evacuations,
        export.counters.migration_traffic
    );
    if hotshard_enabled {
        let _ = writeln!(
            s,
            "hotshard: {} splits, {} merges, {} migrations | expired {} cancelled {}",
            export.counters.shard_splits,
            export.counters.shard_merges,
            export.counters.hotshard_migrations,
            export.counters.hotshard_expired,
            export.counters.hotshard_cancelled
        );
    }
    let _ = writeln!(
        s,
        "peak: initial {:.4} final {:.4} steady-state {:.4} | transient violations {}",
        export.initial_report.peak,
        export.final_report.peak,
        export.steady_state_peak(),
        export.counters.transient_violations
    );
    s
}

/// Runs the query-level routing engine (`rex_router`) over an instance
/// (loaded from `--inst` or synthesized on the spot) and prints the run
/// report; `--out` writes the report JSON, `--trace` the obs event stream.
/// Same flags → byte-identical outputs.
fn cmd_route(args: &HashMap<String, String>) -> Result<(), String> {
    let base = SynthConfig {
        n_machines: 16,
        n_exchange: 0,
        n_shards: 160,
        dims: 1,
        stringency: 0.55,
        placement: Placement::Hotspot(0.3),
        ..Default::default()
    };
    if let Some(path) = args.get("workload") {
        // Workload mode: the spec's scenario plane owns every engine knob
        // (horizon, qps, spike, SRA coupling); only the policy flag stays.
        let w = load_workload(path)?;
        if w.load.is_some() || !w.rack_crashes.is_empty() {
            return Err(
                "route drives the open-loop router: the load-script and rack-crash \
                 planes need a closed loop — use simulate or converge"
                    .into(),
            );
        }
        let seed = w.scenario.seed;
        let inst = synth_instance(args, SynthConfig { seed, ..base }, Some(&w))?;
        let policy = get_or(args, "policy", "power_of_d").parse::<PolicyKind>()?;
        let cfg = RouterConfig::from_scenario(&w.scenario, policy);
        return run_route(args, &inst, &cfg);
    }
    let seed = parse(get_or(args, "seed", "42"), "u64")?;
    let inst = synth_instance(args, SynthConfig { seed, ..base }, None)?;
    let spike = if args.contains_key("spike-at") {
        Some(FlashCrowd {
            at_us: parse(get(args, "spike-at")?, "u64")?,
            duration_us: parse(get_or(args, "spike-duration", "10000"), "u64")?,
            factor: parse(get_or(args, "spike-factor", "3"), "f64")?,
            shard_fraction: parse(get_or(args, "spike-fraction", "0.1"), "f64")?,
        })
    } else {
        None
    };
    let sra = if has(args, "sra") {
        Some(SraCoupling {
            every_us: parse(get_or(args, "sra-every", "10000"), "u64")?,
            iters: parse(get_or(args, "sra-iters", "400"), "u64")?,
        })
    } else {
        None
    };
    let cfg = RouterConfig {
        horizon_us: parse(get_or(args, "horizon", "50000"), "u64")?,
        qps: parse(get_or(args, "qps", "30000"), "f64")?,
        replication: parse(get_or(args, "replication", "3"), "usize")?,
        fanout: parse(get_or(args, "fanout", "4"), "usize")?,
        base_service_us: parse(get_or(args, "service", "400"), "f64")?,
        policy: get_or(args, "policy", "power_of_d").parse::<PolicyKind>()?,
        d_choices: parse(get_or(args, "d", "2"), "usize")?,
        spike,
        sra,
        seed,
        ..Default::default()
    };
    run_route(args, &inst, &cfg)
}

/// Runs the router over a finished config and prints/writes the report —
/// the tail both `route` arms (flag-built and workload-built) share.
/// Out-of-range knobs are an input error, not the panic `Router::new`
/// reserves for bugs.
fn run_route(
    args: &HashMap<String, String>,
    inst: &Instance,
    cfg: &RouterConfig,
) -> Result<(), String> {
    cfg.validate()?;
    let mut rec = trace_recorder(args);
    let report = router::run_traced(inst, cfg, &mut rec);
    if let Some(path) = args.get("trace") {
        std::fs::write(path, rec.to_jsonl()).map_err(|e| e.to_string())?;
        if !has(args, "quiet") {
            println!("trace written to {path}");
        }
    }
    if let Some(out) = args.get("out") {
        std::fs::write(out, report.to_json()).map_err(|e| e.to_string())?;
    }
    if !has(args, "quiet") {
        println!(
            "route: policy {} seed {} | {} machines, {} shards x{} replicas, fanout {}",
            report.policy,
            report.seed,
            inst.n_machines(),
            inst.n_shards(),
            cfg.replication,
            cfg.fanout
        );
        println!(
            "queries: {} ({} subrequests, {} events) | peak in flight {}",
            report.queries, report.subrequests, report.events, report.peak_in_flight
        );
        println!(
            "latency (us): mean {:.1} p50 {:.1} p95 {:.1} p99 {:.1} max {:.1}",
            report.mean_us, report.p50_us, report.p95_us, report.p99_us, report.max_us
        );
        if report.probes_sent > 0 {
            println!(
                "probes: {} sent, {} replies | pool {} hit / {} miss | {} expired, {} exhausted, {} hot-picks",
                report.probes_sent,
                report.probe_replies,
                report.pool_hits,
                report.pool_misses,
                report.probes_expired,
                report.probes_exhausted,
                report.hot_picks
            );
        }
        if report.sra_solves > 0 {
            println!(
                "sra: {} solves, {} replica moves",
                report.sra_solves, report.sra_moves
            );
        }
        if let Some(out) = args.get("out") {
            println!("report written to {out}");
        }
    }
    Ok(())
}

/// Runs one scenario — built from the flags, or (workload mode) one spec
/// file or recorded trace with its fleet and rack planes — through both
/// engines, the tick-aggregated closed loop and the query-level event
/// engine, and reports the differential (DESIGN.md §14): utilization
/// gauges must be byte-identical, latency percentiles agree within the
/// convergence band. Rack crashes forward through `set_failed` and
/// evacuation in each engine. The two engines share no state and each is
/// a deterministic single-threaded simulation, so they run side by side
/// (`rayon::join`; one after the other at `REX_THREADS=1`).
fn cmd_converge(args: &HashMap<String, String>) -> Result<(), String> {
    let base = SynthConfig {
        n_machines: 8,
        n_exchange: 0,
        n_shards: 64,
        dims: 1,
        stringency: 0.4,
        placement: Placement::BalancedBfd,
        ..Default::default()
    };
    let (w, inst, replay) = if workload_mode(args)? {
        workload_inputs(args, base)?
    } else {
        let spec = converge_flag_spec(args)?;
        let seed = spec.seed;
        let inst = synth_instance(args, SynthConfig { seed, ..base }, None)?;
        (WorkloadSpec::from_scenario(spec), inst, None)
    };
    if w.load.is_some() {
        return Err(
            "the event engine has no load-script counterpart: converge runs the \
             scenario/fleet/rack planes only — drive load scripts through simulate"
                .into(),
        );
    }
    // The event engine's gauge parity breaks for a crowd starting before
    // tick 2 (tick 0's event order, DESIGN.md §14): refuse it up front.
    if let Some(sp) = w.scenario.spike.filter(|sp| sp.at_tick < 2) {
        return Err(format!(
            "spike at tick {}: converge's event engine accepts a spike from tick 2 on",
            sp.at_tick
        ));
    }
    // A crash naming a machine past the fleet is an input error; the event
    // engine below lowers the same, now checked, configuration.
    let cfg = RuntimeConfig::from_workload(&w, inst.n_machines());
    let mut tick_sim = Simulation::try_new(inst.clone(), cfg)?;
    let policy = get_or(args, "policy", "round_robin").parse::<PolicyKind>()?;
    let mut event_sim =
        Simulation::from_workload_event(inst.clone(), &w, policy, has(args, "ewma"));
    if let Some(script) = replay {
        tick_sim.set_replay(script.clone());
        event_sim.set_replay(script);
    }
    let record = args.contains_key("record-trace");
    let ((tick, lines), event) = rayon::join(
        move || {
            if record {
                tick_sim.run_recorded(&mut Recorder::noop())
            } else {
                (tick_sim.run(), Vec::new())
            }
        },
        move || event_sim.run(),
    );
    if let Some(path) = args.get("record-trace") {
        std::fs::write(path, trace::write_jsonl(&w, &inst, &lines)).map_err(|e| e.to_string())?;
        if !has(args, "quiet") {
            println!("workload trace ({} events) written to {path}", lines.len());
        }
    }
    converge_report(args, &w.scenario, policy, &tick, &event)
}

/// The flag-built scenario of `converge`, validated.
fn converge_flag_spec(args: &HashMap<String, String>) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec {
        ticks: parse(get_or(args, "ticks", "600"), "u64")?,
        qps_per_tick: parse(get_or(args, "qps", "4"), "f64")?,
        fanout: parse(get_or(args, "fanout", "4"), "usize")?,
        seed: parse(get_or(args, "seed", "42"), "u64")?,
        ..Default::default()
    };
    if args.contains_key("spike-at") {
        spec.spike = Some(SpikeSpec {
            at_tick: parse(get(args, "spike-at")?, "u64")?,
            duration_ticks: parse(get_or(args, "spike-duration", "200"), "u64")?,
            factor: parse(get_or(args, "spike-factor", "2"), "f64")?,
            shard_fraction: parse(get_or(args, "spike-fraction", "0.1"), "f64")?,
        });
    }
    if args.contains_key("crash-at") {
        spec.crash = Some(CrashSpec {
            at_tick: parse(get(args, "crash-at")?, "u64")?,
            machine: parse(get_or(args, "crash-machine", "0"), "usize")?,
            recover_at_tick: args
                .get("recover-at")
                .map(|v| parse(v, "u64"))
                .transpose()?,
        });
    }
    if args.contains_key("sra-every") {
        spec.sra = Some(SraSpec {
            every_ticks: parse(get(args, "sra-every")?, "u64")?,
            iters: parse(get_or(args, "sra-iters", "300"), "u64")?,
        });
    }
    // A flag-built spec can be out of range (e.g. --spike-at past the
    // horizon): surface the typed error instead of panicking downstream.
    spec.validate()
        .map_err(|e| format!("invalid scenario: {e}"))?;
    Ok(spec)
}

/// The differential check and roll-up of `converge`.
fn converge_report(
    args: &HashMap<String, String>,
    spec: &ScenarioSpec,
    policy: PolicyKind,
    tick: &MetricsExport,
    event: &MetricsExport,
) -> Result<(), String> {
    let tick_gauges = serde_json::to_string(&tick.gauges).map_err(|e| e.to_string())?;
    let event_gauges = serde_json::to_string(&event.gauges).map_err(|e| e.to_string())?;
    if tick_gauges != event_gauges {
        return Err("utilization gauges diverged between engines (DESIGN.md §14)".into());
    }
    if let Some(out) = args.get("out") {
        // Both exports already serialize themselves; compose the file by
        // hand (the vendored derive shim rejects borrowed wrapper structs).
        let json = format!(
            "{{\n\"tick\": {},\n\"event\": {}\n}}\n",
            tick.to_json(),
            event.to_json()
        );
        std::fs::write(out, json).map_err(|e| e.to_string())?;
    }
    if !has(args, "quiet") {
        let band = |a: f64, b: f64| (a - b).abs() / a.max(b);
        println!(
            "converge: policy {policy:?} seed {} | {} ticks, {} qps/tick",
            spec.seed, spec.ticks, spec.qps_per_tick
        );
        println!("utilization gauges: byte-identical across engines");
        println!(
            "latency (service units): tick p50 {:.2} p99 {:.2} | event p50 {:.2} p99 {:.2}",
            tick.latency.p50, tick.latency.p99, event.latency.p50, event.latency.p99
        );
        println!(
            "p99 error band: {:.1}%",
            100.0 * band(tick.latency.p99, event.latency.p99)
        );
        if let Some(out) = args.get("out") {
            println!("exports written to {out}");
        }
    }
    Ok(())
}

/// Runs one traced SRA solve (instance loaded from `--inst` or synthesized
/// on the spot) and prints the trace roll-up; `--out` additionally writes
/// the JSONL event stream. The trace is a pure function of the instance and
/// the flags — two same-flag invocations write byte-identical JSONL.
fn cmd_trace(args: &HashMap<String, String>) -> Result<(), String> {
    let base = SynthConfig {
        n_machines: 16,
        n_exchange: 2,
        n_shards: 160,
        placement: Placement::Hotspot(0.4),
        seed: parse(get_or(args, "seed", "42"), "u64")?,
        ..Default::default()
    };
    let inst = synth_instance(args, base, None)?;
    let cfg = solver_config(args, "4000", &inst)?;
    let mut rec = Recorder::active();
    let res = solve_traced(&inst, &cfg, &[], &mut rec).map_err(|e| e.to_string())?;
    if let Some(out) = args.get("out") {
        std::fs::write(out, rec.to_jsonl()).map_err(|e| e.to_string())?;
    }
    print!("{}", rec.summary());
    println!(
        "solve: objective {:.6}, peak {:.4} -> {:.4}, {} iterations",
        res.objective_value, res.initial_report.peak, res.final_report.peak, res.iterations
    );
    if let Some(out) = args.get("out") {
        println!("trace written to {out}");
    }
    Ok(())
}

const USAGE: &str =
    "usage: rex <generate|inspect|solve|baseline|verify|simulate|route|converge|trace> [--flag value | --flag=value | --switch]...
  generate --out FILE [--family uniform|zipf|correlated|big-shards]
           [--placement hotspot|balanced|drift] [--machines N] [--exchange N]
           [--shards N] [--dims N] [--stringency F] [--alpha F] [--seed N]
           [--profile homogeneous|two-tier|big-exchange]
  inspect  --inst FILE
  solve    --inst FILE [--iters N] [--workers N] [--partitions K] [--depth D]
           [--seed N] [--out FILE]
           [--drain M1,M2,...]   (machines to decommission: must end vacant)
  baseline --inst FILE [--method greedy|local-search|ffd]
  verify   --inst FILE --solution FILE
  simulate [--inst FILE | --machines N --shards N --exchange N]
           [--ticks N] [--seed N] [--controller off|greedy|sra] [--qps F]
           [--crash-at T --crash-machine M [--recover-at T]]
           [--spike-at T [--spike-duration N] [--spike-factor F] [--spike-fraction F]]
           [--drift-every N] [--no-drift] [--out FILE] [--trace FILE] [--quiet]
           [--hotshard [--split-threshold F] [--merge-threshold F]
            [--hotshard-poll N] [--hotshard-expiry N]]
           (--hotshard turns on the continuous split/merge control plane)
           [--workload FILE [--record-trace FILE] | --replay-trace FILE]
           (workload mode: one engine-neutral spec drives the fleet table,
            rack crashes, diurnal envelope, and popularity drift; the
            scenario flags above are owned by the spec. --record-trace
            captures the realized fault/demand stream as JSONL;
            --replay-trace reruns a recording byte-identically)
  route    [--inst FILE | --machines N --shards N --exchange N]
           [--policy random|round_robin|power_of_d|prequal|token] [--d N]
           [--horizon US] [--qps F] [--replication R] [--fanout K] [--service US]
           [--spike-at T [--spike-duration N] [--spike-factor F] [--spike-fraction F]]
           [--sra [--sra-every US] [--sra-iters N]] [--seed N]
           [--out FILE] [--trace FILE] [--quiet] [--workload FILE]
           (query-level event engine: routes individual queries to shard
            replicas; --sra couples mid-run resource-exchange solves;
            --workload lowers a spec's scenario plane instead of the flags)
  converge [--inst FILE | --machines N --shards N --exchange N]
           [--ticks N] [--qps F] [--fanout K] [--seed N]
           [--policy random|round_robin|power_of_d|prequal|token] [--ewma]
           [--crash-at T [--crash-machine M] [--recover-at T]]
           [--spike-at T [--spike-duration N] [--spike-factor F] [--spike-fraction F]]
           [--sra-every N [--sra-iters N]] [--out FILE] [--quiet]
           [--workload FILE [--record-trace FILE] | --replay-trace FILE]
           (one scenario through both engines — tick aggregates and query
            events; errors out unless utilization gauges are byte-identical.
            workload mode runs the spec's scenario/fleet/rack planes — load
            scripts are tick-engine-only, use simulate)
  trace    [--inst FILE | --machines N --shards N --exchange N]
           [--iters N] [--workers N] [--partitions K] [--depth D] [--seed N]
           [--out FILE]
           (one traced SRA solve: prints the roll-up, --out writes JSONL)

Solver scaling (shared by solve/trace): --workers W runs a W-way
independent portfolio, --partitions K the cooperative decomposed solver
over K shard-disjoint neighborhoods, and --depth D (with K > 1) the
hierarchical decomposition that re-partitions each neighborhood
recursively to depth D for web-scale fleets; all are deterministic for a
fixed seed regardless of thread count (REX_THREADS). Out-of-range solver
flags are rejected before the search starts (e.g. --iters 0, --depth 0,
--partitions exceeding the fleet).";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if cmd == "--help" || cmd == "help" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match spec_of(cmd) {
        None => Err(format!("unknown command `{cmd}`\n{USAGE}")),
        Some(spec) => parse_args(rest, spec).and_then(|args| match cmd.as_str() {
            "generate" => cmd_generate(&args),
            "inspect" => cmd_inspect(&args),
            "solve" => cmd_solve(&args),
            "baseline" => cmd_baseline(&args),
            "verify" => cmd_verify(&args),
            "simulate" => cmd_simulate(&args),
            "route" => cmd_route(&args),
            "converge" => cmd_converge(&args),
            "trace" => cmd_trace(&args),
            _ => unreachable!("spec_of and the dispatch table agree"),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn simulate_trace_is_deterministic_and_wired() {
        let dir = std::env::temp_dir().join("rex-cli-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let (ta, tb) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
        let run = |out: &Path| {
            cmd_simulate(&args(&[
                ("machines", "8"),
                ("shards", "48"),
                ("exchange", "1"),
                ("ticks", "600"),
                ("seed", "5"),
                ("controller", "sra"),
                ("trace", out.to_str().unwrap()),
                ("quiet", ""),
            ]))
            .unwrap();
        };
        run(&ta);
        run(&tb);
        let (ja, jb) = (
            std::fs::read_to_string(&ta).unwrap(),
            std::fs::read_to_string(&tb).unwrap(),
        );
        assert!(!ja.is_empty(), "trace must contain events");
        assert_eq!(ja, jb, "same-seed traces must be byte-identical");
        assert!(ja.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(ja.contains("\"layer\":\"runtime\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_command_writes_solver_trace() {
        let dir = std::env::temp_dir().join("rex-cli-trace-cmd");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.jsonl");
        cmd_trace(&args(&[
            ("machines", "6"),
            ("shards", "30"),
            ("exchange", "1"),
            ("iters", "400"),
            ("seed", "3"),
            ("out", out.to_str().unwrap()),
        ]))
        .unwrap();
        let jsonl = std::fs::read_to_string(&out).unwrap();
        assert!(jsonl.contains("\"layer\":\"sra\""));
        assert!(jsonl.contains("\"layer\":\"lns\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_solve_verify_roundtrip() {
        let dir = std::env::temp_dir().join("rex-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.json");
        let sol_path = dir.join("sol.json");

        cmd_generate(&args(&[
            ("out", inst_path.to_str().unwrap()),
            ("machines", "6"),
            ("exchange", "1"),
            ("shards", "30"),
            ("seed", "3"),
        ]))
        .unwrap();

        let common = [("inst", inst_path.to_str().unwrap())];
        cmd_inspect(&args(&common)).unwrap();

        cmd_solve(&args(&[
            ("inst", inst_path.to_str().unwrap()),
            ("iters", "500"),
            ("out", sol_path.to_str().unwrap()),
        ]))
        .unwrap();

        cmd_verify(&args(&[
            ("inst", inst_path.to_str().unwrap()),
            ("solution", sol_path.to_str().unwrap()),
        ]))
        .unwrap();

        cmd_baseline(&args(&[
            ("inst", inst_path.to_str().unwrap()),
            ("method", "greedy"),
        ]))
        .unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solve_says_when_the_fallback_ran() {
        let dir = std::env::temp_dir().join("rex-cli-fallback");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.json");
        let inst = inst.to_str().unwrap();
        // A stringent hotspot fleet whose merged 4-way placement deadlocks
        // the final plan; the serial solve of the same file never can.
        cmd_generate(&args(&[
            ("out", inst),
            ("machines", "32"),
            ("exchange", "3"),
            ("shards", "320"),
            ("stringency", "0.9"),
            ("family", "correlated"),
            ("placement", "hotspot"),
            ("seed", "4"),
        ]))
        .unwrap();
        let solve = |extra: &[(&str, &str)]| {
            let mut a = args(&[("inst", inst), ("iters", "400"), ("seed", "4")]);
            a.extend(args(extra));
            let (res, drain) = run_solve(&a).unwrap();
            solve_summary(&res, &drain)
        };
        let decomposed = solve(&[("partitions", "4")]);
        assert_eq!(decomposed.last().map(String::as_str), Some(FALLBACK_LINE));
        assert!(!solve(&[]).iter().any(|l| l.starts_with("fallback")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_rejects_tampered_solutions() {
        let dir = std::env::temp_dir().join("rex-cli-tamper");
        std::fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.json");
        let sol_path = dir.join("sol.json");
        cmd_generate(&args(&[
            ("out", inst_path.to_str().unwrap()),
            ("machines", "4"),
            ("exchange", "1"),
            ("shards", "16"),
        ]))
        .unwrap();
        cmd_solve(&args(&[
            ("inst", inst_path.to_str().unwrap()),
            ("iters", "300"),
            ("out", sol_path.to_str().unwrap()),
        ]))
        .unwrap();
        let solved = std::fs::read_to_string(&sol_path).unwrap();
        let verify = || {
            cmd_verify(&args(&[
                ("inst", inst_path.to_str().unwrap()),
                ("solution", sol_path.to_str().unwrap()),
            ]))
        };
        // Tamper: claim a different final placement than the plan reaches.
        let mut sol: SolutionFile = serde_json::from_str(&solved).unwrap();
        sol.placement[0] = MachineId(if sol.placement[0].0 == 0 { 1 } else { 0 });
        std::fs::write(&sol_path, serde_json::to_string(&sol).unwrap()).unwrap();
        assert!(verify().is_err());
        // Hostile: a last batch moves shard 0 to machine 5 of a 5-machine
        // fleet. One line naming it, not an index panic.
        let mut sol: SolutionFile = serde_json::from_str(&solved).unwrap();
        let past = MachineId(5);
        sol.plan
            .batches
            .push(vec![resource_exchange::cluster::Move {
                shard: resource_exchange::cluster::ShardId(0),
                from: sol.placement[0],
                to: past,
            }]);
        sol.placement[0] = past;
        std::fs::write(&sol_path, serde_json::to_string(&sol).unwrap()).unwrap();
        let e = verify().unwrap_err();
        assert!(e.contains("unknown machine m5") && !e.contains('\n'), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_family_is_rejected() {
        let e = cmd_generate(&args(&[("out", "/tmp/x.json"), ("family", "nope")]));
        assert!(e.is_err());
    }

    #[test]
    fn solver_flags_are_validated_at_the_boundary() {
        let dir = std::env::temp_dir().join("rex-cli-validate");
        std::fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.json");
        cmd_generate(&args(&[
            ("out", inst_path.to_str().unwrap()),
            ("machines", "4"),
            ("exchange", "1"),
            ("shards", "16"),
        ]))
        .unwrap();
        // --iters 0 and --partitions > fleet are typed config errors, not
        // panics or silent clamps.
        let e = cmd_solve(&args(&[
            ("inst", inst_path.to_str().unwrap()),
            ("iters", "0"),
        ]))
        .unwrap_err();
        assert!(e.contains("iters"), "{e}");
        let e = cmd_solve(&args(&[
            ("inst", inst_path.to_str().unwrap()),
            ("partitions", "99"),
        ]))
        .unwrap_err();
        assert!(e.contains("partitions") && e.contains("99"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_same_seed_writes_identical_metrics() {
        let dir = std::env::temp_dir().join("rex-cli-sim");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        let run = |out: &Path| {
            cmd_simulate(&args(&[
                ("machines", "8"),
                ("shards", "48"),
                ("exchange", "1"),
                ("ticks", "600"),
                ("seed", "5"),
                ("controller", "sra"),
                ("crash-at", "200"),
                ("spike-at", "300"),
                ("out", out.to_str().unwrap()),
                ("quiet", ""),
            ]))
            .unwrap();
        };
        run(&a);
        run(&b);
        let (ja, jb) = (
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
        );
        assert!(!ja.is_empty());
        assert_eq!(ja, jb, "same-seed simulate must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_rejects_bad_controller() {
        let e = cmd_simulate(&args(&[("controller", "nope"), ("ticks", "10")]));
        assert!(e.is_err());
    }

    #[test]
    fn simulate_summary_gates_hotshard_block_on_the_flag() {
        // Regression: the hotshard block used to appear only when its
        // counters were nonzero, so `--hotshard` runs where the plane
        // stayed idle printed nothing — indistinguishable from the plane
        // being off. The block must track the flag, not the counters.
        let inst = generate(&SynthConfig {
            n_machines: 6,
            n_exchange: 1,
            n_shards: 30,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let cfg = RuntimeConfig {
            ticks: 80,
            seed: 7,
            qps: 4.0,
            ..Default::default()
        };
        let export = Simulation::new(inst, cfg).run_traced(&mut Recorder::noop());
        // No faults, hotshard disabled in cfg: every hotshard counter is 0.
        let with_plane = simulate_summary(&export, true);
        assert!(
            with_plane.contains("hotshard: 0 splits, 0 merges"),
            "an enabled-but-idle plane must report its zeros:\n{with_plane}"
        );
        let without_plane = simulate_summary(&export, false);
        assert!(
            !without_plane.contains("hotshard"),
            "a disabled plane must stay out of the summary:\n{without_plane}"
        );
        // Both variants still carry the rest of the roll-up.
        for s in [&with_plane, &without_plane] {
            assert!(s.contains("queries:") && s.contains("peak:"));
        }
    }

    #[test]
    fn route_same_seed_writes_identical_report() {
        let dir = std::env::temp_dir().join("rex-cli-route");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        let run = |out: &Path| {
            cmd_route(&args(&[
                ("machines", "8"),
                ("shards", "64"),
                ("horizon", "20000"),
                ("qps", "15000"),
                ("service", "400"),
                ("policy", "prequal"),
                ("seed", "11"),
                ("spike-at", "5000"),
                ("spike-duration", "5000"),
                ("sra", ""),
                ("sra-every", "6000"),
                ("sra-iters", "200"),
                ("out", out.to_str().unwrap()),
                ("quiet", ""),
            ]))
            .unwrap();
        };
        run(&a);
        run(&b);
        let (ja, jb) = (
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
        );
        assert!(!ja.is_empty());
        assert_eq!(ja, jb, "same-seed route must be byte-identical");
        // The flags reached the engine: prequal probed, the coupling ran.
        let field = |name: &str| -> u64 {
            ja.split(&format!("\"{name}\": "))
                .nth(1)
                .unwrap_or_else(|| panic!("report carries {name}"))
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        assert!(field("queries") > 0);
        assert!(field("probes_sent") > 0, "prequal must probe");
        assert!(field("sra_solves") > 0, "--sra must couple the solver");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn route_rejects_hostile_horizons_and_spike_windows() {
        // Used to abort reserving 64 TB for the sample buffer.
        let e = cmd_route(&args(&[
            ("machines", "4"),
            ("shards", "8"),
            ("horizon", "100000000000000"),
        ]))
        .unwrap_err();
        assert!(e.contains("latency samples"), "{e}");
        // Used to wrap `at_us + duration_us` silently.
        let e = cmd_route(&args(&[
            ("machines", "4"),
            ("shards", "8"),
            ("spike-at", "18446744073709551610"),
        ]))
        .unwrap_err();
        assert!(e.contains("overflows"), "{e}");
    }

    #[test]
    fn route_rejects_bad_policy() {
        let e = cmd_route(&args(&[("policy", "nope"), ("horizon", "1000")]));
        assert!(e.unwrap_err().contains("nope"));
    }

    #[test]
    fn simulate_hotshard_flags_are_wired_and_deterministic() {
        let dir = std::env::temp_dir().join("rex-cli-hotshard");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        let run = |out: &Path| {
            cmd_simulate(&args(&[
                ("machines", "8"),
                ("shards", "48"),
                ("exchange", "1"),
                ("ticks", "800"),
                ("seed", "5"),
                ("controller", "off"),
                ("hotshard", ""),
                ("split-threshold", "0.4"),
                ("merge-threshold", "0.15"),
                ("hotshard-poll", "20"),
                ("spike-at", "100"),
                ("spike-duration", "300"),
                ("spike-factor", "2.5"),
                ("spike-fraction", "0.02"),
                ("no-drift", ""),
                ("out", out.to_str().unwrap()),
                ("quiet", ""),
            ]))
            .unwrap();
        };
        run(&a);
        run(&b);
        let (ja, jb) = (
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
        );
        assert_eq!(ja, jb, "same-seed hotshard simulate must be byte-identical");
        // The switch must actually reach the simulation: the export carries
        // the hotshard counters, and this scenario drives at least a split.
        let splits: u64 = ja
            .split("\"shard_splits\": ")
            .nth(1)
            .expect("export carries the shard_splits counter")
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap();
        assert!(splits >= 1, "hotshard switch did not reach the runtime");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A small full-plane workload spec (heterogeneous fleet, load script,
    /// rack crash, flash crowd) as a JSON file on disk.
    fn write_workload(dir: &Path) -> std::path::PathBuf {
        let path = dir.join("workload.json");
        std::fs::write(
            &path,
            r#"{
              "scenario": {
                "ticks": 500, "tick_us": 1000, "qps_per_tick": 6.0,
                "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
                "seed": 11,
                "spike": {"at_tick": 100, "duration_ticks": 80,
                          "factor": 1.6, "shard_fraction": 0.08},
                "crash": null,
                "sra": {"every_ticks": 100, "iters": 300}
              },
              "fleet": {
                "generations": [
                  {"name": "gen-a", "count": 3, "scale": 1.0},
                  {"name": "gen-b", "count": 3, "scale": 2.0}
                ],
                "exchange": 1, "exchange_scale": 2.0, "racks": 2
              },
              "load": {
                "diurnal_amplitude": 0.2, "ticks_per_hour": 200,
                "zipf_alpha": 0.9, "drift_every_ticks": 150,
                "swaps_per_epoch": 20, "target_utilization": 0.55
              },
              "rack_crashes": [
                {"at_tick": 200, "rack": 1, "recover_at_tick": 350}
              ]
            }"#,
        )
        .unwrap();
        path
    }

    #[test]
    fn simulate_workload_records_and_replays_byte_identically() {
        let dir = std::env::temp_dir().join("rex-cli-workload");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = write_workload(&dir);
        let (trace, a, b) = (dir.join("t.jsonl"), dir.join("a.json"), dir.join("b.json"));
        cmd_simulate(&args(&[
            ("workload", spec.to_str().unwrap()),
            ("shards", "48"),
            ("record-trace", trace.to_str().unwrap()),
            ("out", a.to_str().unwrap()),
            ("quiet", ""),
        ]))
        .unwrap();
        // Replay is self-contained: no --workload, no synth flags needed.
        cmd_simulate(&args(&[
            ("replay-trace", trace.to_str().unwrap()),
            ("out", b.to_str().unwrap()),
            ("quiet", ""),
        ]))
        .unwrap();
        let (ja, jb) = (
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
        );
        assert_eq!(ja, jb, "replayed metrics must be byte-identical");
        // The full plane actually ran: rack crash (3 machines of rack 1)
        // and popularity epochs show in the counters.
        assert!(ja.contains("\"crashes\": 3"), "rack crash must expand");
        assert!(!ja.contains("\"popularity_epochs\": 0"));
        let tracefile = std::fs::read_to_string(&trace).unwrap();
        assert!(tracefile.lines().count() > 1, "trace has header + events");
        assert!(tracefile.contains("\"kind\":\"popularity\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn converge_runs_the_rackfault_example_and_replays_it() {
        let dir = std::env::temp_dir().join("rex-cli-workload-conv");
        std::fs::create_dir_all(&dir).unwrap();
        let (trace, a, b) = (dir.join("t.jsonl"), dir.join("a.json"), dir.join("b.json"));
        cmd_converge(&args(&[
            ("workload", "examples/workload_rackfault.json"),
            ("shards", "48"),
            ("policy", "power_of_d"),
            ("record-trace", trace.to_str().unwrap()),
            ("out", a.to_str().unwrap()),
            ("quiet", ""),
        ]))
        .unwrap();
        cmd_converge(&args(&[
            ("replay-trace", trace.to_str().unwrap()),
            ("policy", "power_of_d"),
            ("out", b.to_str().unwrap()),
            ("quiet", ""),
        ]))
        .unwrap();
        let (ja, jb) = (
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
        );
        assert_eq!(ja, jb, "replayed converge exports must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn route_accepts_the_scenario_plane_of_a_workload() {
        let dir = std::env::temp_dir().join("rex-cli-workload-route");
        std::fs::create_dir_all(&dir).unwrap();
        // The rackfault example carries rack crashes → route refuses it.
        let e = cmd_route(&args(&[
            ("workload", "examples/workload_rackfault.json"),
            ("quiet", ""),
        ]))
        .unwrap_err();
        assert!(e.contains("closed loop"), "{e}");
        // A degenerate (scenario-only) spec routes fine.
        let spec = dir.join("plain.json");
        std::fs::write(
            &spec,
            r#"{"scenario": {"ticks": 200, "tick_us": 1000, "qps_per_tick": 4.0,
                "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
                "seed": 3, "spike": null, "crash": null, "sra": null}}"#,
        )
        .unwrap();
        cmd_route(&args(&[
            ("workload", spec.to_str().unwrap()),
            ("machines", "8"),
            ("shards", "48"),
            ("quiet", ""),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_flag_misuse_is_rejected_with_typed_errors() {
        let dir = std::env::temp_dir().join("rex-cli-workload-err");
        std::fs::create_dir_all(&dir).unwrap();
        // Validation errors surface as Err with the spec's message, not a
        // panic: spike starting past the horizon.
        let bad = dir.join("bad.json");
        std::fs::write(
            &bad,
            r#"{"scenario": {"ticks": 100, "tick_us": 1000, "qps_per_tick": 4.0,
                "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
                "seed": 3, "crash": null, "sra": null,
                "spike": {"at_tick": 500, "duration_ticks": 10,
                          "factor": 2.0, "shard_fraction": 0.1}}}"#,
        )
        .unwrap();
        let e = cmd_simulate(&args(&[("workload", bad.to_str().unwrap())])).unwrap_err();
        assert!(e.contains("horizon"), "{e}");
        // Mutually exclusive sources.
        let spec = write_workload(&dir);
        let e = cmd_simulate(&args(&[
            ("workload", spec.to_str().unwrap()),
            ("replay-trace", "whatever.jsonl"),
        ]))
        .unwrap_err();
        assert!(e.contains("choose one"), "{e}");
        // Recording needs the spec for the trace header.
        let e = cmd_simulate(&args(&[("record-trace", "t.jsonl")])).unwrap_err();
        assert!(e.contains("--workload"), "{e}");
        // Converge refuses load scripts (the event engine has none).
        let e = cmd_converge(&args(&[("workload", spec.to_str().unwrap())])).unwrap_err();
        assert!(e.contains("load-script"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_faults_and_horizons_are_errors_not_panics() {
        // `Simulation::new` panics on each of these; the CLI constructs
        // through `Simulation::try_new` and reports one line.
        let sim = [("crash-at", "5"), ("crash-machine", "999"), ("ticks", "50")];
        let e = cmd_simulate(&args(&sim)).unwrap_err();
        assert!(e.contains("machine 999") && e.contains("18"), "{e}");
        let e = cmd_converge(&args(&sim)).unwrap_err();
        assert!(e.contains("machine 999") && e.contains('8'), "{e}");
        let e = cmd_simulate(&args(&[("ticks", "0")])).unwrap_err();
        assert!(e.contains("ticks"), "{e}");
        // The same crash arriving through a workload file.
        let dir = std::env::temp_dir().join("rex-cli-bad-faults");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("crash.json");
        std::fs::write(
            &spec,
            r#"{"scenario": {"ticks": 200, "tick_us": 1000, "qps_per_tick": 4.0,
                "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
                "seed": 3, "spike": null, "sra": null,
                "crash": {"at_tick": 20, "machine": 999, "recover_at_tick": null}}}"#,
        )
        .unwrap();
        for cmd in [cmd_simulate, cmd_converge] {
            let e = cmd(&args(&[("workload", spec.to_str().unwrap())])).unwrap_err();
            assert!(e.contains("machine 999"), "{e}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn converge_rejects_a_spike_before_tick_2() {
        for at in ["0", "1"] {
            let e = cmd_converge(&args(&[("ticks", "50"), ("spike-at", at), ("quiet", "")]))
                .unwrap_err();
            assert!(
                e.contains(&format!("spike at tick {at}"))
                    && e.contains("tick 2")
                    && !e.contains('\n'),
                "{e}"
            );
        }
        // The same crowd from a workload file, and from a trace recorded
        // by the tick engine (which accepts it).
        let dir = std::env::temp_dir().join("rex-cli-early-spike");
        std::fs::create_dir_all(&dir).unwrap();
        let (spec, trace) = (dir.join("spike0.json"), dir.join("spike0.jsonl"));
        std::fs::write(
            &spec,
            r#"{"scenario": {"ticks": 50, "tick_us": 1000, "qps_per_tick": 4.0,
                "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
                "seed": 3, "crash": null, "sra": null,
                "spike": {"at_tick": 0, "duration_ticks": 10,
                          "factor": 2.0, "shard_fraction": 0.1}}}"#,
        )
        .unwrap();
        let spec = spec.to_str().unwrap();
        let e = cmd_converge(&args(&[("workload", spec), ("quiet", "")])).unwrap_err();
        assert!(e.contains("spike at tick 0"), "{e}");
        cmd_simulate(&args(&[
            ("workload", spec),
            ("record-trace", trace.to_str().unwrap()),
            ("quiet", ""),
        ]))
        .unwrap();
        let e = cmd_converge(&args(&[
            ("replay-trace", trace.to_str().unwrap()),
            ("quiet", ""),
        ]))
        .unwrap_err();
        assert!(e.contains("spike at tick 0"), "{e}");
        // Tick 2 runs.
        cmd_converge(&args(&[("ticks", "50"), ("spike-at", "2"), ("quiet", "")])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn route_knobs_out_of_range_are_errors_not_panics() {
        // `Router::new` panics on each of these; `run_route` must reject
        // them first, with one line.
        for (flag, value, says) in [
            ("qps", "0", "qps"),
            ("horizon", "0", "horizon_us"),
            ("service", "0", "base_service_us"),
            ("replication", "0", "replication"),
            ("spike-factor", "0.5", "spike factor"),
        ] {
            let mut a = args(&[("machines", "4"), ("shards", "16"), (flag, value)]);
            if flag == "spike-factor" {
                a.insert("spike-at".into(), "10".into());
            }
            let e = cmd_route(&a).unwrap_err();
            assert!(e.contains(says) && !e.contains('\n'), "--{flag}: {e}");
        }
    }

    #[test]
    fn generator_settings_are_errors_not_panics() {
        // Each of these used to panic at an `assert!` in the generator.
        let out = std::env::temp_dir().join("rex-cli-bad-gen.json");
        let out = out.to_str().unwrap();
        for (flags, says) in [
            (&[("stringency", "1.0")][..], "stringency"),
            (&[("machines", "0")], "machines"),
            (&[("shards", "0")], "shards"),
            (&[("dims", "0")], "dims"),
            (&[("placement", "drift"), ("dims", "1")], "2 dimensions"),
            (&[("shards", "5"), ("machines", "100")], "167 needed"),
        ] {
            let mut a = args(flags);
            a.insert("out".into(), out.into());
            let e = cmd_generate(&a).unwrap_err();
            assert!(e.contains(says) && !e.contains('\n'), "{flags:?}: {e}");
        }
        // The other commands synthesize through the same path.
        let zero = args(&[("machines", "0")]);
        for cmd in [cmd_simulate, cmd_route, cmd_converge, cmd_trace] {
            assert!(cmd(&zero).unwrap_err().contains("machines"));
        }
    }

    #[test]
    fn example_workload_files_stay_valid() {
        let het = load_workload("examples/workload_heterogeneous.json").unwrap();
        assert!(het.fleet.is_some() && het.load.is_some());
        assert_eq!(het.fleet.as_ref().unwrap().generations.len(), 3);
        let rack = load_workload("examples/workload_rackfault.json").unwrap();
        assert!(rack.load.is_none());
        assert_eq!(rack.rack_crashes.len(), 1);
    }
}
