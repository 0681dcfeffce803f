//! `rex inspect`: an instance file's shape and initial balance.

use crate::cli::{Args, Command, Error};
use crate::inputs::load_instance;
use resource_exchange::cluster::{Assignment, BalanceReport};
use std::io::Write;

pub const COMMAND: Command = Command {
    name: "inspect",
    values: &[&["inst"]],
    switches: &[],
    usage: &["--inst FILE"],
    run,
};

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let inst = load_instance(args)?;
    let asg = Assignment::from_initial(&inst);
    let report = BalanceReport::compute(&inst, &asg);
    writeln!(out, "label:      {}", inst.label)?;
    writeln!(
        out,
        "machines:   {} (+{} exchange)",
        inst.n_machines() - inst.n_exchange(),
        inst.n_exchange()
    )?;
    writeln!(out, "shards:     {}", inst.n_shards())?;
    writeln!(out, "dims:       {}", inst.dims)?;
    writeln!(out, "k_return:   {}", inst.k_return)?;
    writeln!(out, "alpha:      {}", inst.alpha)?;
    writeln!(out, "stringency: {:.4}", inst.stringency())?;
    writeln!(out, "initial:    {report}")?;
    Ok(())
}
