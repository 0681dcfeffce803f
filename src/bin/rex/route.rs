//! `rex route`: the query-level routing engine, open loop.

use crate::cli::{get, get_or, has, parse, write_artifact, Args, Command, Error};
use crate::cli::{SEED_FLAG, SYNTH_FLAGS};
use crate::inputs::{load_workload, synth_instance, trace_recorder};
use resource_exchange::cluster::Instance;
use resource_exchange::router::{self, FlashCrowd, PolicyKind, RouterConfig, SraCoupling};
use resource_exchange::workload::synthetic::{Placement, SynthConfig};
use std::io::Write;

#[rustfmt::skip] // the flags packed, as in the usage block
pub const COMMAND: Command = Command {
    name: "route",
    values: &[SYNTH_FLAGS, SEED_FLAG, &[
        "workload", "inst", "policy", "horizon", "qps", "replication", "fanout", "service",
        "d", "spike-at", "spike-duration", "spike-factor", "spike-fraction", "sra-every",
        "sra-iters", "out", "trace",
    ]],
    switches: &["sra", "quiet"],
    usage: &[
        "[--inst FILE | --machines N --shards N --exchange N]",
        "[--policy random|round_robin|power_of_d|prequal|token] [--d N]",
        "[--horizon US] [--qps F] [--replication R] [--fanout K] [--service US]",
        "[--spike-at T [--spike-duration N] [--spike-factor F] [--spike-fraction F]]",
        "[--sra [--sra-every US] [--sra-iters N]] [--seed N]",
        "[--out FILE] [--trace FILE] [--quiet] [--workload FILE]",
        "(query-level event engine: routes individual queries to shard",
        " replicas; --sra couples mid-run resource-exchange solves;",
        " --workload lowers a spec's scenario plane instead of the flags;",
        " a spec with crash, sra, load-script or rack-crash clauses is",
        " refused: those need a closed loop)",
    ],
    run,
};

/// Runs the query-level routing engine (`rex_router`) and prints the run
/// report; `--out` writes the report JSON, `--trace` the obs event stream.
/// Same flags → byte-identical outputs.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let (inst, cfg) = setup(args)?;
    // Out-of-range knobs are input errors, not `Router::new`'s bug panics.
    cfg.validate()?;
    let mut rec = trace_recorder(args);
    let report = router::run_traced(&inst, &cfg, &mut rec);
    if let Some(path) = args.get("trace") {
        write_artifact(out, "trace", path, &rec.to_jsonl())?;
    }
    writeln!(
        out,
        "route: policy {} seed {} | {} machines, {} shards x{} replicas, fanout {}",
        report.policy,
        report.seed,
        inst.n_machines(),
        inst.n_shards(),
        cfg.replication,
        cfg.fanout
    )?;
    writeln!(
        out,
        "queries: {} ({} subrequests, {} events) | peak in flight {}",
        report.queries, report.subrequests, report.events, report.peak_in_flight
    )?;
    writeln!(
        out,
        "latency (us): mean {:.1} p50 {:.1} p95 {:.1} p99 {:.1} max {:.1}",
        report.mean_us, report.p50_us, report.p95_us, report.p99_us, report.max_us
    )?;
    if report.probes_sent > 0 {
        writeln!(
            out,
            "probes: {} sent, {} replies | pool {} hit / {} miss | {} expired, {} exhausted, {} hot-picks",
            report.probes_sent,
            report.probe_replies,
            report.pool_hits,
            report.pool_misses,
            report.probes_expired,
            report.probes_exhausted,
            report.hot_picks
        )?;
    }
    if report.sra_solves > 0 {
        writeln!(
            out,
            "sra: {} solves, {} replica moves",
            report.sra_solves, report.sra_moves
        )?;
    }
    if let Some(path) = args.get("out") {
        write_artifact(out, "report", path, &report.to_json())?;
    }
    Ok(())
}

/// The instance (loaded from `--inst` or synthesized on the spot) and the
/// router configuration, from the flags or from a workload's scenario.
fn setup(args: &Args) -> Result<(Instance, RouterConfig), String> {
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
        // Workload mode: the spec's scenario plane owns the engine knobs
        // the open-loop router has (horizon, qps, fanout, service time,
        // spike); only the policy flag stays. Its crash and SRA clauses
        // have no router counterpart and are refused, not dropped.
        let w = load_workload(path)?;
        let refuse = |what| {
            format!(
                "route drives the open-loop router: {what} need a closed loop — \
                 use simulate or converge"
            )
        };
        if w.load.is_some() || !w.rack_crashes.is_empty() {
            return Err(refuse("the load-script and rack-crash planes"));
        }
        if w.scenario.crash.is_some() || w.scenario.sra.is_some() {
            return Err(refuse("the scenario's crash and sra clauses"));
        }
        let seed = w.scenario.seed;
        let inst = synth_instance(args, SynthConfig { seed, ..base }, Some(&w))?;
        let policy = get_or(args, "policy", "power_of_d").parse::<PolicyKind>()?;
        return Ok((inst, RouterConfig::from_scenario(&w.scenario, policy)));
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
    Ok((inst, cfg))
}
