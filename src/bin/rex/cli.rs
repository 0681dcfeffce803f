//! Table-driven argument parsing and output for the `rex` CLI.
//!
//! Every subcommand is one [`Command`] row: its name, the `--key value`
//! flags and valueless `--switch` flags it accepts, its block of
//! `rex --help`, and its runner. Flags shared by several commands exist
//! exactly once, as named groups ([`SOLVER_FLAGS`], [`SYNTH_FLAGS`],
//! [`SEED_FLAG`], [`WORKLOAD_FLAGS`]), so adding a solver knob is a
//! one-line change that reaches every entry path at once.
//!
//! The parser itself ([`parse_args`]) accepts `--key value`,
//! `--key=value`, and `--switch`; unrecognized keys, missing values,
//! repeated flags, switches given an `=value`, and bare positional words
//! are all hard errors — a typo must never be silently ignored.

use std::collections::HashMap;
use std::io::Write;

/// Iteration/parallelism knobs shared by every command that runs the SRA
/// solver (`solve`, `trace`). Validated downstream by
/// `rex_core::SolveOptions`.
pub const SOLVER_FLAGS: &[&str] = &["iters", "workers", "partitions"];

/// On-the-spot instance synthesis, shared by `generate`, `simulate`, and
/// `trace`.
pub const SYNTH_FLAGS: &[&str] = &["machines", "exchange", "shards"];

/// Deterministic seed — accepted by every command that runs anything.
pub const SEED_FLAG: &[&str] = &["seed"];

/// The workload plane: an engine-neutral `WorkloadSpec` file plus the
/// trace record/replay pair. Shared by both engines' closed-loop commands
/// (`simulate`, `converge`); `route` accepts the spec file alone.
pub const WORKLOAD_FLAGS: &[&str] = &["workload", "record-trace", "replay-trace"];

/// Parsed arguments: flag name (no `--`) to value, `""` for a switch.
pub type Args = HashMap<String, String>;

/// Why a command failed: bad input (a message for one `error:` line and
/// exit status 1), or the `io::Error` of writing stdout, which `main` tells
/// apart so that a closed pipe ends `rex` quietly.
pub type Error = Box<dyn std::error::Error>;

/// One row of the command table.
pub struct Command {
    /// Command word as typed on the command line.
    pub name: &'static str,
    /// Groups of `--key value` flags (shared tables + per-command extras).
    pub values: &'static [&'static [&'static str]],
    /// `--flag` switches (present or absent, no value).
    pub switches: &'static [&'static str],
    /// Its block of `rex --help` after the name, one entry per line.
    pub usage: &'static [&'static str],
    /// Runs the command; everything it prints goes to the writer.
    pub run: fn(&Args, &mut dyn Write) -> Result<(), Error>,
}

impl Command {
    fn is_value(&self, key: &str) -> bool {
        self.values.iter().any(|group| group.contains(&key))
    }

    fn is_switch(&self, key: &str) -> bool {
        self.switches.contains(&key)
    }
}

/// Printed after the command blocks of `rex --help`.
const SOLVER_SCALING: &str = "Solver scaling (shared by solve/trace): --workers W runs a W-way
independent portfolio, --partitions K the cooperative decomposed solver
over K shard-disjoint neighborhoods; a neighborhood of more than 512
machines is re-partitioned into K again, so web-scale fleets get a
deeper tree without a flag. All are deterministic for a fixed seed
regardless of thread count (REX_THREADS). Out-of-range solver flags are
rejected before the search starts (e.g. --iters 0, --partitions
exceeding the fleet).";

/// The text of `rex --help`: a header naming every command, each
/// command's usage block, and the solver-scaling note.
pub fn usage(commands: &[Command]) -> String {
    let names: Vec<&str> = commands.iter().map(|c| c.name).collect();
    let mut s = format!(
        "usage: rex <{}> [--flag value | --flag=value | --switch]...\n",
        names.join("|")
    );
    for c in commands {
        s += &format!("  {:<8} {}\n", c.name, c.usage.join("\n           "));
    }
    s + "\n" + SOLVER_SCALING
}

/// Writes an artifact file and says so on `out`: `{what} written to {path}`.
pub fn write_artifact(out: &mut dyn Write, what: &str, path: &str, s: &str) -> Result<(), Error> {
    std::fs::write(path, s).map_err(|e| format!("writing {path}: {e}"))?;
    writeln!(out, "{what} written to {path}")?;
    Ok(())
}

/// Parses `--key value` / `--key=value` / `--switch` arguments against
/// `spec`. Switches are stored with an empty value; use [`has`] to query
/// them.
pub fn parse_args(args: &[String], spec: &Command) -> Result<Args, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let word = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{}`", args[i]))?;
        let entry = if let Some((key, value)) = word.split_once('=') {
            if spec.is_value(key) {
                i += 1;
                (key.to_string(), value.to_string())
            } else if spec.is_switch(key) {
                return Err(format!("--{key} does not take a value"));
            } else {
                return Err(format!("unrecognized flag --{key}"));
            }
        } else if spec.is_value(word) {
            let value = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("--{word} needs a value"))?;
            i += 2;
            (word.to_string(), value.clone())
        } else if spec.is_switch(word) {
            i += 1;
            (word.to_string(), String::new())
        } else {
            return Err(format!("unrecognized flag --{word}"));
        };
        let key = entry.0.clone();
        if out.insert(entry.0, entry.1).is_some() {
            return Err(format!("--{key} given more than once"));
        }
    }
    Ok(out)
}

/// True when switch `key` was given.
pub fn has(args: &Args, key: &str) -> bool {
    args.contains_key(key)
}

pub fn get<'a>(args: &'a Args, key: &str) -> Result<&'a str, String> {
    args.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

pub fn get_or<'a>(args: &'a Args, key: &str, default: &'a str) -> &'a str {
    args.get(key).map(String::as_str).unwrap_or(default)
}

pub fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("cannot parse `{s}` as {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::COMMANDS;
    use std::collections::BTreeSet;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// The table row of `cmd`, if there is one.
    fn row(cmd: &str) -> Option<&'static Command> {
        COMMANDS.iter().find(|c| c.name == cmd)
    }

    #[test]
    fn parse_args_happy_path() {
        let spec = row("solve").unwrap();
        let a = parse_args(&argv(&["--inst", "x.json", "--iters", "5"]), spec).unwrap();
        assert_eq!(get(&a, "inst").unwrap(), "x.json");
        assert_eq!(get_or(&a, "iters", "1"), "5");
        assert_eq!(get_or(&a, "missing", "d"), "d");
    }

    #[test]
    fn parse_args_rejects_bad_shapes() {
        let spec = row("solve").unwrap();
        assert!(parse_args(&argv(&["positional"]), spec).is_err());
        assert!(parse_args(&argv(&["--iters"]), spec).is_err());
        // A value flag immediately followed by another flag has no value.
        assert!(parse_args(&argv(&["--iters", "--seed", "3"]), spec).is_err());
    }

    #[test]
    fn parse_args_rejects_unknown_flags() {
        let spec = row("solve").unwrap();
        let err = parse_args(&argv(&["--bogus", "1"]), spec).unwrap_err();
        assert!(err.contains("--bogus"), "error names the flag: {err}");
        // A valid flag of a *different* command is still unknown here.
        assert!(parse_args(&argv(&["--ticks", "100"]), spec).is_err());
        // The fleet sizes the decomposed solver's tree: no `--depth`.
        for cmd in ["solve", "trace"] {
            assert!(parse_args(&argv(&["--depth", "2"]), row(cmd).unwrap()).is_err());
        }
    }

    #[test]
    fn parse_args_rejects_duplicates() {
        let spec = row("solve").unwrap();
        assert!(parse_args(&argv(&["--seed", "1", "--seed", "2"]), spec).is_err());
    }

    #[test]
    fn parse_args_supports_valueless_switches() {
        let spec = row("simulate").unwrap();
        let a = parse_args(&argv(&["--quiet", "--ticks", "50", "--no-drift"]), spec).unwrap();
        assert!(has(&a, "quiet"));
        assert!(has(&a, "no-drift"));
        assert!(!has(&a, "inst"));
        assert_eq!(get_or(&a, "ticks", "0"), "50");
        // Switches never consume the next word.
        let b = parse_args(&argv(&["--no-drift", "--quiet"]), spec).unwrap();
        assert!(has(&b, "no-drift") && has(&b, "quiet"));
        // Switches given a value: the value is a positional word → error.
        assert!(parse_args(&argv(&["--quiet", "yes"]), spec).is_err());
    }

    #[test]
    fn every_command_has_a_spec_and_unknowns_do_not() {
        for cmd in [
            "generate", "inspect", "solve", "baseline", "verify", "simulate", "trace", "route",
        ] {
            assert!(row(cmd).is_some(), "missing spec for {cmd}");
        }
        assert!(row("frobnicate").is_none());
    }

    #[test]
    fn parse_args_supports_equals_syntax() {
        let spec = row("solve").unwrap();
        let a = parse_args(&argv(&["--inst=x.json", "--iters=5"]), spec).unwrap();
        assert_eq!(get(&a, "inst").unwrap(), "x.json");
        assert_eq!(get_or(&a, "iters", "1"), "5");
        // Mixed styles in one invocation.
        let b = parse_args(&argv(&["--inst=x.json", "--iters", "7"]), spec).unwrap();
        assert_eq!(get_or(&b, "iters", "1"), "7");
        // Values containing `=` split only on the first.
        let c = parse_args(&argv(&["--inst=a=b.json"]), spec).unwrap();
        assert_eq!(get(&c, "inst").unwrap(), "a=b.json");
        // An empty value is allowed by the syntax (caught downstream).
        let d = parse_args(&argv(&["--inst="]), spec).unwrap();
        assert_eq!(get(&d, "inst").unwrap(), "");
    }

    #[test]
    fn parse_args_equals_syntax_rejections() {
        let spec = row("simulate").unwrap();
        // Switches never take `=value`.
        assert!(parse_args(&argv(&["--quiet=1"]), spec).is_err());
        // Unknown flags stay unknown with `=`.
        assert!(parse_args(&argv(&["--bogus=1"]), spec).is_err());
        // Duplicate detection spans both styles.
        assert!(parse_args(&argv(&["--seed=1", "--seed", "2"]), spec).is_err());
    }

    #[test]
    fn solver_commands_share_the_solver_flag_group() {
        // The shared registry is the point of this module: every solver
        // knob accepted by `solve` is accepted by `trace`, verbatim.
        for flag in SOLVER_FLAGS.iter().chain(SEED_FLAG) {
            for cmd in ["solve", "trace"] {
                let spec = row(cmd).unwrap();
                assert!(spec.is_value(flag), "{cmd} must accept --{flag}");
            }
        }
        for flag in SYNTH_FLAGS {
            for cmd in ["generate", "simulate", "trace"] {
                let spec = row(cmd).unwrap();
                assert!(spec.is_value(flag), "{cmd} must accept --{flag}");
            }
        }
    }

    #[test]
    fn every_usage_block_names_exactly_its_flags() {
        for c in COMMANDS {
            let named: BTreeSet<&str> = c
                .usage
                .iter()
                .flat_map(|line| line.split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '-')))
                .filter_map(|word| word.strip_prefix("--"))
                .collect();
            let accepted: BTreeSet<&str> = c
                .values
                .iter()
                .flat_map(|group| group.iter())
                .chain(c.switches)
                .copied()
                .collect();
            assert_eq!(named, accepted, "rex {}: usage vs accepted flags", c.name);
        }
    }

    #[test]
    fn workload_plane_flags_reach_both_engines() {
        for flag in WORKLOAD_FLAGS {
            for cmd in ["simulate", "converge"] {
                let spec = row(cmd).unwrap();
                assert!(spec.is_value(flag), "{cmd} must accept --{flag}");
            }
        }
        // `route` takes the spec file but has no closed-loop trace pair.
        let route = row("route").unwrap();
        assert!(route.is_value("workload"));
        assert!(!route.is_value("record-trace") && !route.is_value("replay-trace"));
    }
}
