//! What the commands read: instance files, workload specs and recorded
//! traces, or an instance synthesized from the flags.

use crate::cli::{get, get_or, parse, Args};
use resource_exchange::cluster::{Instance, WorkloadSpec};
use resource_exchange::obs::Recorder;
use resource_exchange::runtime::{trace, ReplayScript};
use resource_exchange::workload::io;
use resource_exchange::workload::synthetic::{generate, generate_workload, SynthConfig};
use std::path::Path;

pub fn load_instance(args: &Args) -> Result<Instance, String> {
    let path = get(args, "inst")?;
    io::load(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))
}

/// Loads and validates an engine-neutral [`WorkloadSpec`] file. The typed
/// [`ScenarioError`](resource_exchange::cluster::ScenarioError) surfaces
/// here with the file name attached instead of panicking downstream.
pub fn load_workload(path: &str) -> Result<WorkloadSpec, String> {
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
pub fn synth_instance(
    args: &Args,
    base: SynthConfig,
    workload: Option<&WorkloadSpec>,
) -> Result<Instance, String> {
    if args.contains_key("inst") {
        return load_instance(args);
    }
    let size = |key, default: usize| parse(get_or(args, key, &default.to_string()), "usize");
    let cfg = SynthConfig {
        n_machines: size("machines", base.n_machines)?,
        n_exchange: size("exchange", base.n_exchange)?,
        n_shards: size("shards", base.n_shards)?,
        ..base
    };
    match workload {
        Some(w) if w.fleet.is_some() => generate_workload(w, &cfg),
        _ => generate(&cfg),
    }
    .map_err(|e| e.to_string())
}

/// The workload-plane inputs of `simulate` and `converge`, or `None` when
/// the scenario flags drive the run: either a spec file (`--workload`,
/// optionally recording the realized stream) or a recorded trace
/// (`--replay-trace`, self-contained — the header carries the spec and
/// the exact starting instance).
pub fn workload_inputs(
    args: &Args,
    base: SynthConfig,
) -> Result<Option<(WorkloadSpec, Instance, Option<ReplayScript>)>, String> {
    if args.contains_key("workload") && args.contains_key("replay-trace") {
        return Err("choose one of --workload / --replay-trace (a trace embeds its spec)".into());
    }
    if let Some(path) = args.get("replay-trace") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("loading {path}: {e}"))?;
        let (w, inst, lines) = trace::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(Some((w, inst, Some(ReplayScript::from_lines(&lines)))))
    } else if let Some(path) = args.get("workload") {
        let w = load_workload(path)?;
        let seed = w.scenario.seed;
        let inst = synth_instance(args, SynthConfig { seed, ..base }, Some(&w))?;
        Ok(Some((w, inst, None)))
    } else if args.contains_key("record-trace") {
        Err("--record-trace needs --workload (the trace header embeds the spec)".into())
    } else {
        Ok(None)
    }
}

/// An active recorder iff `--trace FILE` asks for the obs event stream.
pub fn trace_recorder(args: &Args) -> Recorder {
    if args.contains_key("trace") {
        Recorder::active()
    } else {
        Recorder::noop()
    }
}
