//! `rex solve` and `rex trace`: one SRA solve, reported as a solution file
//! or as its obs event stream. Both read the shared solver flags.

use crate::cli::SYNTH_FLAGS;
use crate::cli::{get_or, parse, write_artifact, Args, Command, Error, SEED_FLAG, SOLVER_FLAGS};
use crate::inputs::{load_instance, synth_instance};
use resource_exchange::cluster::{Instance, MachineId, MigrationPlan};
use resource_exchange::core::{solve_traced, solve_with_drain, SolveOptions, SraConfig, SraResult};
use resource_exchange::lns::Stall;
use resource_exchange::obs::Recorder;
use resource_exchange::workload::synthetic::{Placement, SynthConfig};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

pub const SOLVE: Command = Command {
    name: "solve",
    values: &[SOLVER_FLAGS, SEED_FLAG, &["inst", "out", "drain"]],
    switches: &[],
    usage: &[
        "--inst FILE [--iters N] [--partitions K] [--seed N]",
        "[--out FILE]",
        "[--drain M1,M2,...]   (machines to decommission: must end vacant)",
    ],
    run: solve,
};

pub const TRACE: Command = Command {
    name: "trace",
    values: &[SOLVER_FLAGS, SEED_FLAG, SYNTH_FLAGS, &["inst", "out"]],
    switches: &[],
    usage: &[
        "[--inst FILE | --machines N --shards N --exchange N]",
        "[--iters N] [--partitions K] [--seed N] [--out FILE]",
        "(one traced SRA solve: prints the roll-up, --out writes JSONL)",
    ],
    run: trace,
};

/// A solved reassignment, as stored on disk.
#[derive(Serialize, Deserialize)]
pub struct SolutionFile {
    /// Final placement (machine per shard).
    pub placement: Vec<MachineId>,
    /// The migration schedule reaching it.
    pub plan: MigrationPlan,
    /// Machines handed back.
    pub returned: Vec<MachineId>,
}

/// Builds the validated solver configuration from the shared solver flags
/// (`--iters`, `--partitions`, `--seed`) — the one config path `solve`
/// and `trace` have in common.
fn solver_config(args: &Args, default_iters: &str, inst: &Instance) -> Result<SraConfig, String> {
    SolveOptions::new()
        .iters(parse(get_or(args, "iters", default_iters), "u64")?)
        .partitions(parse(get_or(args, "partitions", "0"), "usize")?)
        .seed(parse(get_or(args, "seed", "42"), "u64")?)
        .build_for(inst)
        .map_err(|e| e.to_string())
}

/// Loads the instance, reads the solver flags and the drain list, and runs
/// the solve `rex solve` reports on.
pub fn run_solve(args: &Args) -> Result<(SraResult, Vec<MachineId>), String> {
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
pub fn write_summary(out: &mut dyn Write, res: &SraResult, drain: &[MachineId]) -> io::Result<()> {
    if !drain.is_empty() {
        writeln!(out, "drained: {drain:?}")?;
    }
    writeln!(out, "initial: {}", res.initial_report)?;
    writeln!(out, "final:   {}", res.final_report)?;
    writeln!(
        out,
        "improvement {:.1}%, migration: {}, returned {:?}",
        100.0 * res.peak_improvement(),
        res.migration,
        res.returned_machines
    )?;
    if let Some(Stall {
        iterations,
        last_best,
        patience,
    }) = res.stats.as_ref().and_then(|s| s.stall)
    {
        writeln!(
            out,
            "stopped: no new best in the {patience} iterations after iteration {last_best}; \
             ran {iterations} of the --iters budget"
        )?;
    }
    Ok(())
}

fn solve(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let (res, drain) = run_solve(args)?;
    write_summary(out, &res, &drain)?;
    if let Some(path) = args.get("out") {
        let file = SolutionFile {
            placement: res.assignment.placement().to_vec(),
            plan: res.plan,
            returned: res.returned_machines,
        };
        let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        write_artifact(out, "solution", path, &json)?;
    }
    Ok(())
}

/// Runs one traced SRA solve (instance loaded from `--inst` or synthesized
/// on the spot) and prints the trace roll-up; `--out` additionally writes
/// the JSONL event stream. The trace is a pure function of the instance and
/// the flags — two same-flag invocations write byte-identical JSONL.
fn trace(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
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
    write!(out, "{}", rec.summary())?;
    writeln!(
        out,
        "solve: objective {:.6}, peak {:.4} -> {:.4}, {} iterations",
        res.objective_value, res.initial_report.peak, res.final_report.peak, res.iterations
    )?;
    if let Some(path) = args.get("out") {
        write_artifact(out, "trace", path, &rec.to_jsonl())?;
    }
    Ok(())
}
