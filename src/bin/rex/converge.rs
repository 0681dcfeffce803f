//! `rex converge`: one scenario through both engines, checked against
//! each other.

use crate::cli::{fault_flags, get, get_or, has, parse, write_artifact, Args, Command, Error};
use crate::cli::{SEED_FLAG, SYNTH_FLAGS, WORKLOAD_FLAGS};
use crate::inputs::{synth_instance, workload_inputs};
use resource_exchange::cluster::{ScenarioSpec, SraSpec, WorkloadSpec};
use resource_exchange::obs::Recorder;
use resource_exchange::router::{PolicyKind, RouterConfig};
use resource_exchange::runtime::{trace, RuntimeConfig, Simulation};
use resource_exchange::workload::synthetic::{Placement, SynthConfig};
use std::io::Write;

#[rustfmt::skip] // the flags packed, as in the usage block
pub const COMMAND: Command = Command {
    name: "converge",
    values: &[SYNTH_FLAGS, SEED_FLAG, WORKLOAD_FLAGS, &[
        "inst", "ticks", "qps", "fanout", "policy", "crash-at", "crash-machine",
        "recover-at", "spike-at", "spike-duration", "spike-factor", "spike-fraction",
        "sra-every", "sra-iters", "out",
    ]],
    switches: &["ewma", "quiet"],
    usage: &[
        "[--inst FILE | --machines N --shards N --exchange N]",
        "[--ticks N] [--qps F] [--fanout K] [--seed N]",
        "[--policy random|round_robin|power_of_d|prequal|token] [--ewma]",
        "[--crash-at T [--crash-machine M] [--recover-at T]]",
        "[--spike-at T [--spike-duration N] [--spike-factor F] [--spike-fraction F]]",
        "[--sra-every N [--sra-iters N]] [--out FILE] [--quiet]",
        "[--workload FILE [--record-trace FILE] | --replay-trace FILE]",
        "(one scenario through both engines — tick aggregates and query",
        " events; errors out unless utilization gauges are byte-identical.",
        " workload mode runs the spec's scenario/fleet/rack planes — load",
        " scripts are tick-engine-only, use simulate)",
    ],
    run,
};

/// Runs one scenario — built from the flags, or (workload mode) one spec
/// file or recorded trace with its fleet and rack planes — through both
/// engines, the tick-aggregated closed loop and the query-level event
/// engine, and reports the differential (DESIGN.md §14): utilization
/// gauges must be byte-identical, latency percentiles agree within the
/// convergence band. Rack crashes forward through `set_failed` and
/// evacuation in each engine. The two engines share no state and each is
/// a deterministic single-threaded simulation, so they run side by side
/// (`rayon::join`; one after the other at `REX_THREADS=1`).
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let base = SynthConfig {
        n_machines: 8,
        n_exchange: 0,
        n_shards: 64,
        dims: 1,
        stringency: 0.4,
        placement: Placement::BalancedBfd,
        ..Default::default()
    };
    let (w, inst, replay) = if let Some(inputs) = workload_inputs(args, base)? {
        inputs
    } else {
        let spec = flag_spec(args)?;
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
        )
        .into());
    }
    // What the event engine's router cannot run (more work in flight than
    // it holds) is an input error, checked before either engine is built.
    let policy = get_or(args, "policy", "round_robin").parse::<PolicyKind>()?;
    RouterConfig::from_scenario(&w.scenario, policy).validate()?;
    // A crash naming a machine past the fleet is an input error; the event
    // engine below lowers the same, now checked, configuration.
    let cfg = RuntimeConfig::from_workload(&w, inst.n_machines());
    let mut tick_sim = Simulation::try_new(inst.clone(), cfg)?;
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
        let what = format!("workload trace ({} events)", lines.len());
        write_artifact(out, &what, path, &trace::write_jsonl(&w, &inst, &lines))?;
    }
    let tick_gauges = serde_json::to_string(&tick.gauges).map_err(|e| e.to_string())?;
    let event_gauges = serde_json::to_string(&event.gauges).map_err(|e| e.to_string())?;
    if tick_gauges != event_gauges {
        return Err("utilization gauges diverged between engines (DESIGN.md §14)".into());
    }
    let band = |a: f64, b: f64| (a - b).abs() / a.max(b);
    writeln!(
        out,
        "converge: policy {policy:?} seed {} | {} ticks, {} qps/tick",
        w.scenario.seed, w.scenario.ticks, w.scenario.qps_per_tick
    )?;
    writeln!(out, "utilization gauges: byte-identical across engines")?;
    writeln!(
        out,
        "latency (service units): tick p50 {:.2} p99 {:.2} | event p50 {:.2} p99 {:.2}",
        tick.latency.p50, tick.latency.p99, event.latency.p50, event.latency.p99
    )?;
    writeln!(
        out,
        "p99 error band: {:.1}%",
        100.0 * band(tick.latency.p99, event.latency.p99)
    )?;
    if let Some(path) = args.get("out") {
        // Both exports already serialize themselves; compose the file by
        // hand (the vendored derive shim rejects borrowed wrapper structs).
        let json = format!(
            "{{\n\"tick\": {},\n\"event\": {}\n}}\n",
            tick.to_json(),
            event.to_json()
        );
        write_artifact(out, "exports", path, &json)?;
    }
    Ok(())
}

/// The flag-built scenario of `converge`, validated.
fn flag_spec(args: &Args) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec {
        ticks: parse(get_or(args, "ticks", "600"), "u64")?,
        qps_per_tick: parse(get_or(args, "qps", "4"), "f64")?,
        fanout: parse(get_or(args, "fanout", "4"), "usize")?,
        seed: parse(get_or(args, "seed", "42"), "u64")?,
        ..Default::default()
    };
    (spec.crash, spec.spike) = fault_flags(args, "200", "2")?;
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
