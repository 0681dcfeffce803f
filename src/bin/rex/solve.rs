//! `rex solve`: one SRA solve, from an instance file or synthesized on the
//! spot, reported as a solution file and, with `--trace`, as its obs event
//! stream.

use crate::cli::{get_or, parse, write_artifact, Args, Command, Error};
use crate::cli::{SEED_FLAG, SOLVER_FLAGS, SYNTH_FLAGS};
use crate::inputs::{synth_instance, trace_recorder};
use resource_exchange::cluster::{MachineId, MigrationPlan};
use resource_exchange::core::{solve_traced, SolveOptions, SraResult};
use resource_exchange::lns::Stall;
use resource_exchange::obs::Recorder;
use resource_exchange::workload::synthetic::{Placement, SynthConfig};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

pub const COMMAND: Command = Command {
    name: "solve",
    values: &[
        SOLVER_FLAGS,
        SEED_FLAG,
        SYNTH_FLAGS,
        &["inst", "out", "drain", "trace"],
    ],
    switches: &[],
    usage: &[
        "[--inst FILE | --machines N --shards N --exchange N]",
        "[--iters N] [--partitions K] [--seed N] [--out FILE]",
        "[--drain M1,M2,...]   (machines to decommission: must end vacant)",
        "[--trace FILE]   (prints the roll-up, writes the solve's events as JSONL)",
    ],
    run,
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

/// Loads or synthesizes the instance, reads the solver flags and the drain
/// list, and runs the one solve `rex solve` reports on, narrated into
/// `rec`. Without `--inst` the fleet is synthesized from `--seed`: 16
/// machines, 2 exchange machines, 160 shards, hotspot placement.
pub fn run_solve(args: &Args, rec: &mut Recorder) -> Result<(SraResult, Vec<MachineId>), String> {
    let seed = parse(get_or(args, "seed", "42"), "u64")?;
    let base = SynthConfig {
        n_machines: 16,
        n_exchange: 2,
        n_shards: 160,
        placement: Placement::Hotspot(0.4),
        seed,
        ..Default::default()
    };
    let inst = synth_instance(args, base, None)?;
    let cfg = SolveOptions::new()
        .iters(parse(get_or(args, "iters", "10000"), "u64")?)
        .partitions(parse(get_or(args, "partitions", "0"), "usize")?)
        .seed(seed)
        .build_for(&inst)
        .map_err(|e| e.to_string())?;
    // --drain 3,7 marks machines 3 and 7 for decommission.
    let drain: Vec<MachineId> = match args.get("drain") {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|x| parse::<u32>(x.trim(), "machine id").map(MachineId))
            .collect::<Result<_, _>>()?,
    };
    let res = solve_traced(&inst, &cfg, &drain, rec).map_err(|e| e.to_string())?;
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

/// Runs the solve; `--trace` prints the trace roll-up and writes the JSONL
/// event stream (a pure function of the instance and the flags, so two
/// same-flag runs write the same bytes), `--out` the solution file.
fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let mut rec = trace_recorder(args);
    let (res, drain) = run_solve(args, &mut rec)?;
    if let Some(path) = args.get("trace") {
        write!(out, "{}", rec.summary())?;
        write_artifact(out, "trace", path, &rec.to_jsonl())?;
    }
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
