//! `rex generate`: a synthetic instance, written as a JSON artifact.

use crate::cli::{get, get_or, parse, Args, Command, Error, SEED_FLAG, SYNTH_FLAGS};
use crate::inputs::synth_instance;
use resource_exchange::workload::io;
use resource_exchange::workload::synthetic::{
    DemandFamily, MachineProfile, Placement, SynthConfig,
};
use std::io::Write;
use std::path::Path;

#[rustfmt::skip] // the flags packed, as in the usage block
pub const COMMAND: Command = Command {
    name: "generate",
    values: &[SYNTH_FLAGS, SEED_FLAG, &[
        "out", "family", "placement", "hot-fraction", "dims", "stringency", "alpha",
        "profile",
    ]],
    switches: &[],
    usage: &[
        "--out FILE [--family uniform|zipf|correlated|big-shards]",
        "[--placement hotspot|balanced|drift] [--machines N] [--exchange N]",
        "[--shards N] [--dims N] [--stringency F] [--alpha F] [--seed N]",
        "[--profile homogeneous|two-tier|big-exchange] [--hot-fraction F]",
    ],
    run,
};

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let family = match get_or(args, "family", "correlated") {
        "uniform" => DemandFamily::Uniform,
        "zipf" => DemandFamily::Zipf,
        "correlated" => DemandFamily::Correlated,
        "big-shards" => DemandFamily::BigShards,
        other => return Err(format!("unknown family `{other}`").into()),
    };
    let placement = match get_or(args, "placement", "hotspot") {
        "hotspot" => Placement::Hotspot(parse(get_or(args, "hot-fraction", "0.4"), "f64")?),
        "balanced" => Placement::BalancedBfd,
        "drift" => Placement::Drift,
        other => return Err(format!("unknown placement `{other}`").into()),
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
            other => return Err(format!("unknown profile `{other}`").into()),
        },
    };
    let inst = synth_instance(args, cfg, None)?;
    let path = get(args, "out")?;
    io::save(&inst, Path::new(path)).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "wrote {} ({} machines, {} shards) to {path}",
        inst.label,
        inst.n_machines(),
        inst.n_shards()
    )?;
    Ok(())
}
