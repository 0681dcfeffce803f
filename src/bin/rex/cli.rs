//! Table-driven argument parsing for the `rex` CLI.
//!
//! One registry ([`COMMANDS`]) declares, per command, which `--key value`
//! flags and which valueless `--switch` flags it accepts. Flags shared by
//! several commands exist exactly once, as named groups ([`SOLVER_FLAGS`],
//! [`SYNTH_FLAGS`], [`SEED_FLAG`]): `solve`, `trace`, and `simulate` draw
//! their common vocabulary from the same tables, so adding a solver knob
//! is a one-line registry change that reaches every entry path at once.
//!
//! The parser itself ([`parse_args`]) accepts `--key value`,
//! `--key=value`, and `--switch`; unrecognized keys, missing values,
//! repeated flags, switches given an `=value`, and bare positional words
//! are all hard errors — a typo must never be silently ignored.

use std::collections::HashMap;

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

/// What a command accepts: groups of `--key value` flags plus valueless
/// `--switch` flags.
pub struct ArgSpec {
    /// Groups of `--key value` flags (shared tables + per-command extras).
    pub values: &'static [&'static [&'static str]],
    /// `--flag` switches (present or absent, no value).
    pub switches: &'static [&'static str],
}

impl ArgSpec {
    fn is_value(&self, key: &str) -> bool {
        self.values.iter().any(|group| group.contains(&key))
    }

    fn is_switch(&self, key: &str) -> bool {
        self.switches.contains(&key)
    }
}

/// One row of the command registry.
pub struct CommandSpec {
    /// Command word as typed on the command line.
    pub name: &'static str,
    /// Flag vocabulary.
    pub spec: ArgSpec,
}

/// The flag registry: every command, its value flags (shared groups
/// first), and its switches.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "generate",
        spec: ArgSpec {
            values: &[
                SYNTH_FLAGS,
                SEED_FLAG,
                &[
                    "out",
                    "family",
                    "placement",
                    "hot-fraction",
                    "dims",
                    "stringency",
                    "alpha",
                    "profile",
                ],
            ],
            switches: &[],
        },
    },
    CommandSpec {
        name: "inspect",
        spec: ArgSpec {
            values: &[&["inst"]],
            switches: &[],
        },
    },
    CommandSpec {
        name: "solve",
        spec: ArgSpec {
            values: &[SOLVER_FLAGS, SEED_FLAG, &["inst", "out", "drain"]],
            switches: &[],
        },
    },
    CommandSpec {
        name: "baseline",
        spec: ArgSpec {
            values: &[&["inst", "method"]],
            switches: &[],
        },
    },
    CommandSpec {
        name: "verify",
        spec: ArgSpec {
            values: &[&["inst", "solution"]],
            switches: &[],
        },
    },
    CommandSpec {
        name: "simulate",
        spec: ArgSpec {
            values: &[
                SYNTH_FLAGS,
                SEED_FLAG,
                WORKLOAD_FLAGS,
                &[
                    "inst",
                    "ticks",
                    "controller",
                    "qps",
                    "out",
                    "crash-at",
                    "crash-machine",
                    "recover-at",
                    "spike-at",
                    "spike-duration",
                    "spike-factor",
                    "spike-fraction",
                    "drift-every",
                    "split-threshold",
                    "merge-threshold",
                    "hotshard-poll",
                    "hotshard-expiry",
                    "trace",
                ],
            ],
            switches: &["no-drift", "hotshard", "quiet"],
        },
    },
    CommandSpec {
        name: "trace",
        spec: ArgSpec {
            values: &[SOLVER_FLAGS, SEED_FLAG, SYNTH_FLAGS, &["inst", "out"]],
            switches: &[],
        },
    },
    CommandSpec {
        name: "route",
        spec: ArgSpec {
            values: &[
                SYNTH_FLAGS,
                SEED_FLAG,
                &[
                    "workload",
                    "inst",
                    "policy",
                    "horizon",
                    "qps",
                    "replication",
                    "fanout",
                    "service",
                    "d",
                    "spike-at",
                    "spike-duration",
                    "spike-factor",
                    "spike-fraction",
                    "sra-every",
                    "sra-iters",
                    "out",
                    "trace",
                ],
            ],
            switches: &["sra", "quiet"],
        },
    },
    CommandSpec {
        name: "converge",
        spec: ArgSpec {
            values: &[
                SYNTH_FLAGS,
                SEED_FLAG,
                WORKLOAD_FLAGS,
                &[
                    "inst",
                    "ticks",
                    "qps",
                    "fanout",
                    "policy",
                    "crash-at",
                    "crash-machine",
                    "recover-at",
                    "spike-at",
                    "spike-duration",
                    "spike-factor",
                    "spike-fraction",
                    "sra-every",
                    "sra-iters",
                    "out",
                ],
            ],
            switches: &["ewma", "quiet"],
        },
    },
];

/// The flag vocabulary of `cmd`, from the registry.
pub fn spec_of(cmd: &str) -> Option<&'static ArgSpec> {
    COMMANDS.iter().find(|c| c.name == cmd).map(|c| &c.spec)
}

/// Parses `--key value` / `--key=value` / `--switch` arguments against
/// `spec`. Switches are stored with an empty value; use [`has`] to query
/// them.
pub fn parse_args(args: &[String], spec: &ArgSpec) -> Result<HashMap<String, String>, String> {
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
pub fn has(args: &HashMap<String, String>, key: &str) -> bool {
    args.contains_key(key)
}

pub fn get<'a>(args: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    args.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

pub fn get_or<'a>(args: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    args.get(key).map(String::as_str).unwrap_or(default)
}

pub fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("cannot parse `{s}` as {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parse_args_happy_path() {
        let spec = spec_of("solve").unwrap();
        let a = parse_args(&argv(&["--inst", "x.json", "--iters", "5"]), spec).unwrap();
        assert_eq!(get(&a, "inst").unwrap(), "x.json");
        assert_eq!(get_or(&a, "iters", "1"), "5");
        assert_eq!(get_or(&a, "missing", "d"), "d");
    }

    #[test]
    fn parse_args_rejects_bad_shapes() {
        let spec = spec_of("solve").unwrap();
        assert!(parse_args(&argv(&["positional"]), spec).is_err());
        assert!(parse_args(&argv(&["--iters"]), spec).is_err());
        // A value flag immediately followed by another flag has no value.
        assert!(parse_args(&argv(&["--iters", "--seed", "3"]), spec).is_err());
    }

    #[test]
    fn parse_args_rejects_unknown_flags() {
        let spec = spec_of("solve").unwrap();
        let err = parse_args(&argv(&["--bogus", "1"]), spec).unwrap_err();
        assert!(err.contains("--bogus"), "error names the flag: {err}");
        // A valid flag of a *different* command is still unknown here.
        assert!(parse_args(&argv(&["--ticks", "100"]), spec).is_err());
        // The fleet sizes the decomposed solver's tree: no `--depth`.
        for cmd in ["solve", "trace"] {
            assert!(parse_args(&argv(&["--depth", "2"]), spec_of(cmd).unwrap()).is_err());
        }
    }

    #[test]
    fn parse_args_rejects_duplicates() {
        let spec = spec_of("solve").unwrap();
        assert!(parse_args(&argv(&["--seed", "1", "--seed", "2"]), spec).is_err());
    }

    #[test]
    fn parse_args_supports_valueless_switches() {
        let spec = spec_of("simulate").unwrap();
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
            assert!(spec_of(cmd).is_some(), "missing spec for {cmd}");
        }
        assert!(spec_of("frobnicate").is_none());
    }

    #[test]
    fn parse_args_supports_equals_syntax() {
        let spec = spec_of("solve").unwrap();
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
        let spec = spec_of("simulate").unwrap();
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
                let spec = spec_of(cmd).unwrap();
                assert!(spec.is_value(flag), "{cmd} must accept --{flag}");
            }
        }
        for flag in SYNTH_FLAGS {
            for cmd in ["generate", "simulate", "trace"] {
                let spec = spec_of(cmd).unwrap();
                assert!(spec.is_value(flag), "{cmd} must accept --{flag}");
            }
        }
    }

    #[test]
    fn workload_plane_flags_reach_both_engines() {
        for flag in WORKLOAD_FLAGS {
            for cmd in ["simulate", "converge"] {
                let spec = spec_of(cmd).unwrap();
                assert!(spec.is_value(flag), "{cmd} must accept --{flag}");
            }
        }
        // `route` takes the spec file but has no closed-loop trace pair.
        let route = spec_of("route").unwrap();
        assert!(route.is_value("workload"));
        assert!(!route.is_value("record-trace") && !route.is_value("replay-trace"));
    }
}
