//! `rex simulate`: the closed-loop runtime, from the scenario flags or
//! from the workload plane.

use crate::cli::{fault_flags, get_or, has, parse, write_artifact, Args, Command, Error};
use crate::cli::{SEED_FLAG, SYNTH_FLAGS, WORKLOAD_FLAGS};
use crate::inputs::{synth_instance, trace_recorder, workload_inputs};
use resource_exchange::cluster::Instance;
use resource_exchange::runtime::{
    trace, DriftSpec, FaultSpec, MetricsExport, RuntimeConfig, Simulation,
};
use resource_exchange::workload::synthetic::{Placement, SynthConfig};
use std::io::{self, Write};

#[rustfmt::skip] // the flags packed, as in the usage block
pub const COMMAND: Command = Command {
    name: "simulate",
    values: &[SYNTH_FLAGS, SEED_FLAG, WORKLOAD_FLAGS, &[
        "inst", "ticks", "controller", "qps", "out", "crash-at", "crash-machine",
        "recover-at", "spike-at", "spike-duration", "spike-factor", "spike-fraction",
        "drift-every", "split-threshold", "merge-threshold", "hotshard-poll",
        "hotshard-expiry", "trace",
    ]],
    switches: &["no-drift", "hotshard", "quiet"],
    usage: &[
        "[--inst FILE | --machines N --shards N --exchange N]",
        "[--ticks N] [--seed N] [--controller off|greedy|sra] [--qps F]",
        "[--crash-at T --crash-machine M [--recover-at T]]",
        "[--spike-at T [--spike-duration N] [--spike-factor F] [--spike-fraction F]]",
        "[--drift-every N] [--no-drift] [--out FILE] [--trace FILE] [--quiet]",
        "[--hotshard [--split-threshold F] [--merge-threshold F]",
        " [--hotshard-poll N] [--hotshard-expiry N]]",
        "(--hotshard turns on the continuous split/merge control plane)",
        "[--workload FILE [--record-trace FILE] | --replay-trace FILE]",
        "(workload mode: one engine-neutral spec drives the fleet table,",
        " rack crashes, diurnal envelope, and popularity drift; the",
        " scenario flags above are owned by the spec. --record-trace",
        " captures the realized fault/demand stream as JSONL;",
        " --replay-trace reruns a recording byte-identically)",
    ],
    run,
};

/// The flag-built runtime configuration of `simulate`: faults, drift,
/// controller policy and the hot-shard plane from the scenario flags.
fn flag_config(args: &Args, seed: u64, inst: &Instance) -> Result<RuntimeConfig, String> {
    let (crash, spike) = fault_flags(args, "300", "1.5")?;
    let faults = crash.map(FaultSpec::from).into_iter();
    let faults = faults.chain(spike.map(FaultSpec::from)).collect();
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
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let base = SynthConfig {
        n_machines: 16,
        n_exchange: 2,
        n_shards: 160,
        placement: Placement::Hotspot(0.4),
        ..Default::default()
    };
    let (inst, cfg, w, replay) = if let Some((w, inst, replay)) = workload_inputs(args, base)? {
        let cfg = RuntimeConfig::from_workload(&w, inst.n_machines());
        (inst, cfg, Some(w), replay)
    } else {
        let seed = parse(get_or(args, "seed", "42"), "u64")?;
        let inst = synth_instance(args, SynthConfig { seed, ..base }, None)?;
        let cfg = flag_config(args, seed, &inst)?;
        (inst, cfg, None, None)
    };
    // The simulation consumes the config; remember whether the hot-shard
    // control plane is on — the summary gates its block on the plane being
    // *active*, not on its counters being nonzero.
    let hotshard_enabled = cfg.hotshard.enabled;
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
            let what = format!("workload trace ({} events)", lines.len());
            write_artifact(out, &what, path, &trace::write_jsonl(&w, &inst, &lines))?;
            export
        }
        _ => sim.run_traced(&mut rec),
    };
    if let Some(path) = args.get("trace") {
        write!(out, "{}", rec.summary())?;
        write_artifact(out, "trace", path, &rec.to_jsonl())?;
    }
    write_summary(out, &export, hotshard_enabled)?;
    if let Some(path) = args.get("out") {
        write_artifact(out, "metrics", path, &export.to_json())?;
    }
    Ok(())
}

/// The human-readable `simulate` roll-up. The hot-shard block appears iff
/// the control plane was enabled (`--hotshard`) — an active-but-idle plane
/// reports its zeros, a disabled plane stays silent even though the
/// counters exist in the export either way.
pub fn write_summary(out: &mut dyn Write, e: &MetricsExport, hotshard: bool) -> io::Result<()> {
    let (meta, c, lat) = (&e.meta, &e.counters, &e.latency);
    writeln!(
        out,
        "{} | policy {} seed {} ticks {}",
        meta.instance, meta.policy, meta.seed, meta.ticks
    )?;
    writeln!(
        out,
        "queries: {} arrived, {} degraded | latency p50 {:.2} p95 {:.2} p99 {:.2}",
        c.queries_arrived, c.queries_degraded, lat.p50, lat.p95, lat.p99
    )?;
    writeln!(
        out,
        "rebalances: {} triggered, {} completed, {} aborted | evacuations {} | traffic {:.1}",
        c.rebalances_triggered,
        c.rebalances_completed,
        c.rebalances_aborted,
        c.evacuations,
        c.migration_traffic
    )?;
    if hotshard {
        writeln!(
            out,
            "hotshard: {} splits, {} merges, {} migrations | expired {} cancelled {}",
            c.shard_splits,
            c.shard_merges,
            c.hotshard_migrations,
            c.hotshard_expired,
            c.hotshard_cancelled
        )?;
    }
    writeln!(
        out,
        "peak: initial {:.4} final {:.4} steady-state {:.4} | transient violations {}",
        e.initial_report.peak,
        e.final_report.peak,
        e.steady_state_peak(),
        c.transient_violations
    )
}
