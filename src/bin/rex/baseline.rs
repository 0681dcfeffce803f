//! `rex baseline`: one of the comparison rebalancers on an instance file.

use crate::cli::{get_or, Args, Command, Error};
use crate::inputs::load_instance;
use resource_exchange::baselines::{
    FfdRepacker, GreedyRebalancer, LocalSearchRebalancer, Rebalancer,
};
use std::io::Write;

pub const COMMAND: Command = Command {
    name: "baseline",
    values: &[&["inst", "method"]],
    switches: &[],
    usage: &["--inst FILE [--method greedy|local-search|ffd]"],
    run,
};

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let inst = load_instance(args)?;
    let method: Box<dyn Rebalancer> = match get_or(args, "method", "greedy") {
        "greedy" => Box::new(GreedyRebalancer),
        "local-search" => Box::new(LocalSearchRebalancer),
        "ffd" => Box::new(FfdRepacker),
        other => return Err(format!("unknown method `{other}`").into()),
    };
    let res = method.rebalance(&inst).map_err(|e| e.to_string())?;
    writeln!(out, "method:  {}", method.name())?;
    writeln!(out, "initial: {}", res.initial_report)?;
    writeln!(out, "final:   {}", res.final_report)?;
    writeln!(
        out,
        "improvement {:.1}%, schedulable: {}, migration: {}",
        100.0 * res.peak_improvement(),
        res.schedulable,
        res.migration
    )?;
    Ok(())
}
