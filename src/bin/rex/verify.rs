//! `rex verify`: replays a solution file's schedule against its instance.

use crate::cli::{get, Args, Command, Error};
use crate::inputs::load_instance;
use crate::solve::SolutionFile;
use resource_exchange::cluster::{verify_schedule, Assignment, BalanceReport};
use std::io::Write;

pub const COMMAND: Command = Command {
    name: "verify",
    values: &[&["inst", "solution"]],
    switches: &[],
    usage: &["--inst FILE --solution FILE"],
    run,
};

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let inst = load_instance(args)?;
    let path = get(args, "solution")?;
    let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let sol: SolutionFile = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    verify_schedule(&inst, &inst.initial, &sol.placement, &sol.plan).map_err(|e| e.to_string())?;
    let asg = Assignment::from_placement(&inst, sol.placement).map_err(|e| e.to_string())?;
    asg.check_target(&inst).map_err(|e| e.to_string())?;
    for m in &sol.returned {
        if !asg.is_vacant(*m) {
            return Err(format!("returned machine {m} is not vacant").into());
        }
    }
    if sol.returned.len() < inst.k_return {
        return Err(format!(
            "only {} machines returned, {} required",
            sol.returned.len(),
            inst.k_return
        )
        .into());
    }
    writeln!(
        out,
        "OK: schedule verifies, target feasible, {} machines returned",
        sol.returned.len()
    )?;
    writeln!(out, "final: {}", BalanceReport::compute(&inst, &asg))?;
    Ok(())
}
