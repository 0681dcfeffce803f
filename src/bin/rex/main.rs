//! `rex` — the command-line front end.
//!
//! ```text
//! rex generate --family correlated --machines 24 --exchange 3 --shards 240 \
//!              --stringency 0.8 --alpha 0.1 --seed 1 --out inst.json
//! rex inspect  --inst inst.json
//! rex solve    --inst inst.json --iters 8000 --out sol.json --trace solve.jsonl
//! rex baseline --inst inst.json --method greedy
//! rex verify   --inst inst.json --solution solution.json
//! rex simulate --ticks 10000 --controller sra --crash-at 3000 --out run.json
//! ```
//!
//! Instances and solutions are JSON artifacts (bit-exact f64 round-trips),
//! so a solve on one machine can be verified on another, and two same-seed
//! `simulate` runs write byte-identical metrics files.
//!
//! The commands are one table ([`COMMANDS`]); each row, declared in its
//! subcommand's module, carries the flags, the `rex --help` block and the
//! runner ([`cli::Command`]). `main` runs the row with one writer:
//! buffered stdout flushed once at the end, or a sink under `--quiet`.

mod baseline;
mod cli;
mod converge;
mod generate;
mod inputs;
mod inspect;
mod route;
mod simulate;
mod solve;
mod verify;

use cli::{has, parse_args, usage, Command, Error};
use std::io::{self, Write};
use std::process::ExitCode;

/// Every command, in `rex --help` order.
const COMMANDS: &[Command] = &[
    generate::COMMAND,
    inspect::COMMAND,
    solve::COMMAND,
    baseline::COMMAND,
    verify::COMMAND,
    simulate::COMMAND,
    route::COMMAND,
    converge::COMMAND,
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage(COMMANDS));
        return ExitCode::FAILURE;
    };
    let mut stdout = io::BufWriter::new(io::stdout().lock());
    let result = if cmd == "--help" || cmd == "help" {
        writeln!(stdout, "{}", usage(COMMANDS)).map_err(Error::from)
    } else if let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) {
        match parse_args(rest, command) {
            Err(e) => Err(e.into()),
            // The one place `--quiet` is read: a quiet run prints into a sink.
            Ok(args) if has(&args, "quiet") => (command.run)(&args, &mut io::sink()),
            Ok(args) => (command.run)(&args, &mut stdout),
        }
    } else {
        Err(format!("unknown command `{cmd}`\n{}", usage(COMMANDS)).into())
    };
    // Flushed even after an error, so what was printed shows before it.
    match result.and(stdout.flush().map_err(Error::from)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if closed_pipe(&e) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Whether `e` is a write to a stdout whose reader has gone (`rex … |
/// head`): the reader wanted no more, so `rex` stops with status 0.
fn closed_pipe(e: &Error) -> bool {
    e.downcast_ref::<io::Error>()
        .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
}

#[cfg(test)]
mod tests;
