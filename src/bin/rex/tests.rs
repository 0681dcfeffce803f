//! Tests of the `rex` commands. Each runs a command's runner on an
//! argument map and reads what it wrote.
#![cfg(test)]

use crate::cli::{Args, Command};
use crate::inputs::load_workload;
use crate::solve::{run_solve, write_summary, SolutionFile};
use resource_exchange::cluster::MachineId;
use resource_exchange::obs::Recorder;
use resource_exchange::runtime::{RuntimeConfig, Simulation};
use resource_exchange::workload::synthetic::{generate, SynthConfig};
use std::collections::HashMap;
use std::path::Path;

/// Runs `command` on `args` (`--quiet` or not): what it printed, or its
/// error message.
fn run(command: &Command, args: &Args) -> Result<String, String> {
    let mut out = Vec::new();
    (command.run)(args, &mut out).map_err(|e| e.to_string())?;
    Ok(String::from_utf8(out).unwrap())
}

fn cmd_generate(args: &Args) -> Result<String, String> {
    run(&crate::generate::COMMAND, args)
}

fn cmd_inspect(args: &Args) -> Result<String, String> {
    run(&crate::inspect::COMMAND, args)
}

fn cmd_solve(args: &Args) -> Result<String, String> {
    run(&crate::solve::COMMAND, args)
}

fn cmd_baseline(args: &Args) -> Result<String, String> {
    run(&crate::baseline::COMMAND, args)
}

fn cmd_verify(args: &Args) -> Result<String, String> {
    run(&crate::verify::COMMAND, args)
}

fn cmd_simulate(args: &Args) -> Result<String, String> {
    run(&crate::simulate::COMMAND, args)
}

fn cmd_route(args: &Args) -> Result<String, String> {
    run(&crate::route::COMMAND, args)
}

fn cmd_converge(args: &Args) -> Result<String, String> {
    run(&crate::converge::COMMAND, args)
}

fn args(pairs: &[(&str, &str)]) -> HashMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[test]
fn simulate_trace_is_deterministic_and_wired() {
    let dir = std::env::temp_dir().join("rex-cli-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let (ta, tb) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    let run = |out: &Path| {
        cmd_simulate(&args(&[
            ("machines", "8"),
            ("shards", "48"),
            ("exchange", "1"),
            ("ticks", "600"),
            ("seed", "5"),
            ("controller", "sra"),
            ("trace", out.to_str().unwrap()),
            ("quiet", ""),
        ]))
        .unwrap();
    };
    run(&ta);
    run(&tb);
    let (ja, jb) = (
        std::fs::read_to_string(&ta).unwrap(),
        std::fs::read_to_string(&tb).unwrap(),
    );
    assert!(!ja.is_empty(), "trace must contain events");
    assert_eq!(ja, jb, "same-seed traces must be byte-identical");
    assert!(ja.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(ja.contains("\"layer\":\"runtime\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_command_writes_solver_trace() {
    let dir = std::env::temp_dir().join("rex-cli-trace-cmd");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("t.jsonl");
    let printed = cmd_solve(&args(&[
        ("machines", "6"),
        ("shards", "30"),
        ("exchange", "1"),
        ("iters", "400"),
        ("seed", "3"),
        ("trace", out.to_str().unwrap()),
    ]))
    .unwrap();
    let jsonl = std::fs::read_to_string(&out).unwrap();
    assert!(jsonl.contains("\"layer\":\"sra\""));
    assert!(jsonl.contains("\"layer\":\"lns\""));
    // The roll-up, then the solve's own summary.
    assert!(printed.starts_with("trace: "), "{printed}");
    assert!(printed.contains("\ninitial: "), "{printed}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A traced drained decomposed solve: the JSONL narrates the drain and
/// the rounds the per-round rule let run, and the solution file is the
/// untraced run's, byte for byte.
#[test]
fn solve_trace_narrates_a_drained_decomposed_solve() {
    let dir = std::env::temp_dir().join("rex-cli-trace-drain");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (traced, plain, trace) = (path("traced.json"), path("plain.json"), path("t.jsonl"));
    let solve = |extra: &[(&str, &str)]| {
        let mut a = args(&[
            ("machines", "12"),
            ("exchange", "2"),
            ("shards", "96"),
            ("partitions", "2"),
            ("iters", "300"),
            ("seed", "5"),
            ("drain", "3,7"),
        ]);
        a.extend(args(extra));
        cmd_solve(&a).unwrap()
    };
    let printed = solve(&[("out", &traced), ("trace", &trace)]);
    solve(&[("out", &plain)]);
    assert!(printed.contains("drained: [m3, m7]"), "{printed}");
    assert_eq!(
        std::fs::read(&traced).unwrap(),
        std::fs::read(&plain).unwrap(),
        "tracing never perturbs"
    );
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    let line = |event: &str, kind: &str| {
        let head = format!("\"layer\":\"sra\",\"event\":\"{event}\",\"kind\":\"{kind}\"");
        let found: Vec<&str> = jsonl.lines().filter(|l| l.contains(&head)).collect();
        assert_eq!(found.len(), 1, "{event} {kind}: {found:?}");
        found[0]
    };
    assert!(line("solve", "span_open").contains("\"drain\":2"));
    let close = line("decomposed", "span_close");
    assert!(close.contains("\"rounds_run\":"), "{close}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A machine listed twice in `--drain` is one typed error before the
/// solve, not a drain counted twice.
#[test]
fn solve_rejects_a_machine_drained_twice() {
    let dir = std::env::temp_dir().join("rex-cli-drain-twice");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("d.jsonl").to_str().unwrap().to_string();
    let err = cmd_solve(&args(&[
        ("machines", "12"),
        ("exchange", "2"),
        ("shards", "96"),
        ("iters", "300"),
        ("drain", "3,3"),
        ("trace", &trace),
    ]))
    .unwrap_err();
    assert_eq!(err, "cannot drain m3: it is listed more than once");
    assert!(
        !dir.join("d.jsonl").exists(),
        "no trace of a rejected solve"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_solve_verify_roundtrip() {
    let dir = std::env::temp_dir().join("rex-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let inst_path = dir.join("inst.json");
    let sol_path = dir.join("sol.json");

    cmd_generate(&args(&[
        ("out", inst_path.to_str().unwrap()),
        ("machines", "6"),
        ("exchange", "1"),
        ("shards", "30"),
        ("seed", "3"),
    ]))
    .unwrap();

    let common = [("inst", inst_path.to_str().unwrap())];
    cmd_inspect(&args(&common)).unwrap();

    cmd_solve(&args(&[
        ("inst", inst_path.to_str().unwrap()),
        ("iters", "500"),
        ("out", sol_path.to_str().unwrap()),
    ]))
    .unwrap();

    cmd_verify(&args(&[
        ("inst", inst_path.to_str().unwrap()),
        ("solution", sol_path.to_str().unwrap()),
    ]))
    .unwrap();

    cmd_baseline(&args(&[
        ("inst", inst_path.to_str().unwrap()),
        ("method", "greedy"),
    ]))
    .unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

/// A file path under a directory that does not exist.
fn unwritable(name: &str) -> String {
    let dir = std::env::temp_dir()
        .join("rex-cli-io-errors")
        .join("missing");
    dir.join(name).to_str().unwrap().to_string()
}

#[test]
fn a_failed_artifact_write_names_its_file() {
    let path = unwritable("x.json");
    let e = cmd_simulate(&args(&[("ticks", "50"), ("quiet", ""), ("out", &path)])).unwrap_err();
    assert!(e.starts_with(&format!("writing {path}: ")), "{e}");
}

#[test]
fn a_failed_generate_names_its_file() {
    let path = unwritable("g.json");
    let e = cmd_generate(&args(&[("out", &path)])).unwrap_err();
    assert!(e.starts_with(&format!("writing {path}: ")), "{e}");
}

#[test]
fn a_missing_solution_names_its_file() {
    let dir = std::env::temp_dir().join("rex-cli-missing-solution");
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    let inst = inst.to_str().unwrap();
    cmd_generate(&args(&[("out", inst)])).unwrap();
    let path = unwritable("s.json");
    let e = cmd_verify(&args(&[("inst", inst), ("solution", &path)])).unwrap_err();
    assert!(e.starts_with(&format!("loading {path}: ")), "{e}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_says_when_the_search_stopped() {
    let dir = std::env::temp_dir().join("rex-cli-stall");
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    let inst = inst.to_str().unwrap();
    cmd_generate(&args(&[
        ("out", inst),
        ("machines", "24"),
        ("exchange", "3"),
        ("shards", "480"),
        ("seed", "11"),
    ]))
    .unwrap();
    let solve = |iters: &str| {
        let a = args(&[("inst", inst), ("iters", iters), ("seed", "11")]);
        let (res, drain) = run_solve(&a, &mut Recorder::noop()).unwrap();
        let mut out = Vec::new();
        write_summary(&mut out, &res, &drain).unwrap();
        let printed = String::from_utf8(out).unwrap();
        (
            res.iterations,
            printed.lines().map(String::from).collect::<Vec<_>>(),
        )
    };
    // 3 000 iterations: the last new best is at iteration 15, so the
    // search stops 1 500 iterations later.
    let (iterations, lines) = solve("3000");
    assert_eq!(iterations, 1_515);
    let stopped: Vec<_> = lines.iter().filter(|l| l.starts_with("stopped:")).collect();
    assert_eq!(stopped.len(), 1, "{lines:?}");
    assert!(
        stopped[0].contains(&format!("ran {iterations} of")),
        "{}",
        stopped[0]
    );
    // 400 iterations cannot stop (fewer than the 500-iteration floor).
    let (iterations, lines) = solve("400");
    assert_eq!(iterations, 400);
    assert!(!lines.iter().any(|l| l.starts_with("stopped:")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_rejects_tampered_solutions() {
    let dir = std::env::temp_dir().join("rex-cli-tamper");
    std::fs::create_dir_all(&dir).unwrap();
    let inst_path = dir.join("inst.json");
    let sol_path = dir.join("sol.json");
    cmd_generate(&args(&[
        ("out", inst_path.to_str().unwrap()),
        ("machines", "4"),
        ("exchange", "1"),
        ("shards", "16"),
    ]))
    .unwrap();
    cmd_solve(&args(&[
        ("inst", inst_path.to_str().unwrap()),
        ("iters", "300"),
        ("out", sol_path.to_str().unwrap()),
    ]))
    .unwrap();
    let solved = std::fs::read_to_string(&sol_path).unwrap();
    let verify = || {
        cmd_verify(&args(&[
            ("inst", inst_path.to_str().unwrap()),
            ("solution", sol_path.to_str().unwrap()),
        ]))
    };
    // Tamper: claim a different final placement than the plan reaches.
    let mut sol: SolutionFile = serde_json::from_str(&solved).unwrap();
    sol.placement[0] = MachineId(if sol.placement[0].0 == 0 { 1 } else { 0 });
    std::fs::write(&sol_path, serde_json::to_string(&sol).unwrap()).unwrap();
    assert!(verify().is_err());
    // Hostile: a last batch moves shard 0 to machine 5 of a 5-machine
    // fleet. One line naming it, not an index panic.
    let mut sol: SolutionFile = serde_json::from_str(&solved).unwrap();
    let past = MachineId(5);
    sol.plan
        .batches
        .push(vec![resource_exchange::cluster::Move {
            shard: resource_exchange::cluster::ShardId(0),
            from: sol.placement[0],
            to: past,
        }]);
    sol.placement[0] = past;
    std::fs::write(&sol_path, serde_json::to_string(&sol).unwrap()).unwrap();
    let e = verify().unwrap_err();
    assert!(e.contains("unknown machine m5") && !e.contains('\n'), "{e}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_family_is_rejected() {
    let e = cmd_generate(&args(&[("out", "/tmp/x.json"), ("family", "nope")]));
    assert!(e.is_err());
}

#[test]
fn solver_flags_are_validated_at_the_boundary() {
    let dir = std::env::temp_dir().join("rex-cli-validate");
    std::fs::create_dir_all(&dir).unwrap();
    let inst_path = dir.join("inst.json");
    cmd_generate(&args(&[
        ("out", inst_path.to_str().unwrap()),
        ("machines", "4"),
        ("exchange", "1"),
        ("shards", "16"),
    ]))
    .unwrap();
    // --iters 0 and --partitions > fleet are typed config errors, not
    // panics or silent clamps.
    let e = cmd_solve(&args(&[
        ("inst", inst_path.to_str().unwrap()),
        ("iters", "0"),
    ]))
    .unwrap_err();
    assert!(e.contains("iters"), "{e}");
    let e = cmd_solve(&args(&[
        ("inst", inst_path.to_str().unwrap()),
        ("partitions", "99"),
    ]))
    .unwrap_err();
    assert!(e.contains("partitions") && e.contains("99"), "{e}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_same_seed_writes_identical_metrics() {
    let dir = std::env::temp_dir().join("rex-cli-sim");
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    let run = |out: &Path| {
        cmd_simulate(&args(&[
            ("machines", "8"),
            ("shards", "48"),
            ("exchange", "1"),
            ("ticks", "600"),
            ("seed", "5"),
            ("controller", "sra"),
            ("crash-at", "200"),
            ("spike-at", "300"),
            ("out", out.to_str().unwrap()),
            ("quiet", ""),
        ]))
        .unwrap();
    };
    run(&a);
    run(&b);
    let (ja, jb) = (
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
    );
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "same-seed simulate must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_rejects_bad_controller() {
    let e = cmd_simulate(&args(&[("controller", "nope"), ("ticks", "10")]));
    assert!(e.is_err());
}

#[test]
fn simulate_summary_gates_hotshard_block_on_the_flag() {
    // Regression: the hotshard block used to appear only when its
    // counters were nonzero, so `--hotshard` runs where the plane
    // stayed idle printed nothing — indistinguishable from the plane
    // being off. The block must track the flag, not the counters.
    let inst = generate(&SynthConfig {
        n_machines: 6,
        n_exchange: 1,
        n_shards: 30,
        seed: 7,
        ..Default::default()
    })
    .unwrap();
    let cfg = RuntimeConfig {
        ticks: 80,
        seed: 7,
        qps: 4.0,
        ..Default::default()
    };
    let export = Simulation::new(inst, cfg).run_traced(&mut Recorder::noop());
    // No faults, hotshard disabled in cfg: every hotshard counter is 0.
    let summary = |hotshard_enabled: bool| {
        let mut out = Vec::new();
        crate::simulate::write_summary(&mut out, &export, hotshard_enabled).unwrap();
        String::from_utf8(out).unwrap()
    };
    let with_plane = summary(true);
    assert!(
        with_plane.contains("hotshard: 0 splits, 0 merges"),
        "an enabled-but-idle plane must report its zeros:\n{with_plane}"
    );
    let without_plane = summary(false);
    assert!(
        !without_plane.contains("hotshard"),
        "a disabled plane must stay out of the summary:\n{without_plane}"
    );
    // Both variants still carry the rest of the roll-up.
    for s in [&with_plane, &without_plane] {
        assert!(s.contains("queries:") && s.contains("peak:"));
    }
}

#[test]
fn route_same_seed_writes_identical_report() {
    let dir = std::env::temp_dir().join("rex-cli-route");
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    let run = |out: &Path| {
        cmd_route(&args(&[
            ("machines", "8"),
            ("shards", "64"),
            ("horizon", "20000"),
            ("qps", "15000"),
            ("service", "400"),
            ("policy", "prequal"),
            ("seed", "11"),
            ("spike-at", "5000"),
            ("spike-duration", "5000"),
            ("sra", ""),
            ("sra-every", "6000"),
            ("sra-iters", "200"),
            ("out", out.to_str().unwrap()),
            ("quiet", ""),
        ]))
        .unwrap();
    };
    run(&a);
    run(&b);
    let (ja, jb) = (
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
    );
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "same-seed route must be byte-identical");
    // The flags reached the engine: prequal probed, the coupling ran.
    let field = |name: &str| -> u64 {
        ja.split(&format!("\"{name}\": "))
            .nth(1)
            .unwrap_or_else(|| panic!("report carries {name}"))
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert!(field("queries") > 0);
    assert!(field("probes_sent") > 0, "prequal must probe");
    assert!(field("sra_solves") > 0, "--sra must couple the solver");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn route_rejects_hostile_horizons_and_spike_windows() {
    // Used to wrap `at_us + duration_us` silently.
    let e = cmd_route(&args(&[
        ("machines", "4"),
        ("shards", "8"),
        ("spike-at", "18446744073709551610"),
    ]))
    .unwrap_err();
    assert!(e.contains("overflows"), "{e}");
}

#[test]
fn route_rejects_bad_policy() {
    let e = cmd_route(&args(&[("policy", "nope"), ("horizon", "1000")]));
    assert!(e.unwrap_err().contains("nope"));
}

#[test]
fn simulate_hotshard_flags_are_wired_and_deterministic() {
    let dir = std::env::temp_dir().join("rex-cli-hotshard");
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    let run = |out: &Path| {
        cmd_simulate(&args(&[
            ("machines", "8"),
            ("shards", "48"),
            ("exchange", "1"),
            ("ticks", "800"),
            ("seed", "5"),
            ("controller", "off"),
            ("hotshard", ""),
            ("split-threshold", "0.4"),
            ("merge-threshold", "0.15"),
            ("hotshard-poll", "20"),
            ("spike-at", "100"),
            ("spike-duration", "300"),
            ("spike-factor", "2.5"),
            ("spike-fraction", "0.02"),
            ("no-drift", ""),
            ("out", out.to_str().unwrap()),
            ("quiet", ""),
        ]))
        .unwrap();
    };
    run(&a);
    run(&b);
    let (ja, jb) = (
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
    );
    assert_eq!(ja, jb, "same-seed hotshard simulate must be byte-identical");
    // The switch must actually reach the simulation: the export carries
    // the hotshard counters, and this scenario drives at least a split.
    let splits: u64 = ja
        .split("\"shard_splits\": ")
        .nth(1)
        .expect("export carries the shard_splits counter")
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(splits >= 1, "hotshard switch did not reach the runtime");
    std::fs::remove_dir_all(&dir).ok();
}

/// A small full-plane workload spec (heterogeneous fleet, load script,
/// rack crash, flash crowd) as a JSON file on disk.
fn write_workload(dir: &Path) -> std::path::PathBuf {
    let path = dir.join("workload.json");
    std::fs::write(
        &path,
        r#"{
          "scenario": {
            "ticks": 500, "tick_us": 1000, "qps_per_tick": 6.0,
            "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
            "seed": 11,
            "spike": {"at_tick": 100, "duration_ticks": 80,
                      "factor": 1.6, "shard_fraction": 0.08},
            "crash": null,
            "sra": {"every_ticks": 100, "iters": 300}
          },
          "fleet": {
            "generations": [
              {"name": "gen-a", "count": 3, "scale": 1.0},
              {"name": "gen-b", "count": 3, "scale": 2.0}
            ],
            "exchange": 1, "exchange_scale": 2.0, "racks": 2
          },
          "load": {
            "diurnal_amplitude": 0.2, "ticks_per_hour": 200,
            "zipf_alpha": 0.9, "drift_every_ticks": 150,
            "swaps_per_epoch": 20, "target_utilization": 0.55
          },
          "rack_crashes": [
            {"at_tick": 200, "rack": 1, "recover_at_tick": 350}
          ]
        }"#,
    )
    .unwrap();
    path
}

#[test]
fn simulate_workload_records_and_replays_byte_identically() {
    let dir = std::env::temp_dir().join("rex-cli-workload");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_workload(&dir);
    let (trace, a, b) = (dir.join("t.jsonl"), dir.join("a.json"), dir.join("b.json"));
    cmd_simulate(&args(&[
        ("workload", spec.to_str().unwrap()),
        ("shards", "48"),
        ("record-trace", trace.to_str().unwrap()),
        ("out", a.to_str().unwrap()),
        ("quiet", ""),
    ]))
    .unwrap();
    // Replay is self-contained: no --workload, no synth flags needed.
    cmd_simulate(&args(&[
        ("replay-trace", trace.to_str().unwrap()),
        ("out", b.to_str().unwrap()),
        ("quiet", ""),
    ]))
    .unwrap();
    let (ja, jb) = (
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
    );
    assert_eq!(ja, jb, "replayed metrics must be byte-identical");
    // The full plane actually ran: rack crash (3 machines of rack 1)
    // and popularity epochs show in the counters.
    assert!(ja.contains("\"crashes\": 3"), "rack crash must expand");
    assert!(!ja.contains("\"popularity_epochs\": 0"));
    let tracefile = std::fs::read_to_string(&trace).unwrap();
    assert!(tracefile.lines().count() > 1, "trace has header + events");
    assert!(tracefile.contains("\"kind\":\"popularity\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn converge_runs_the_rackfault_example_and_replays_it() {
    let dir = std::env::temp_dir().join("rex-cli-workload-conv");
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, a, b) = (dir.join("t.jsonl"), dir.join("a.json"), dir.join("b.json"));
    cmd_converge(&args(&[
        ("workload", "examples/workload_rackfault.json"),
        ("shards", "48"),
        ("policy", "power_of_d"),
        ("record-trace", trace.to_str().unwrap()),
        ("out", a.to_str().unwrap()),
        ("quiet", ""),
    ]))
    .unwrap();
    cmd_converge(&args(&[
        ("replay-trace", trace.to_str().unwrap()),
        ("policy", "power_of_d"),
        ("out", b.to_str().unwrap()),
        ("quiet", ""),
    ]))
    .unwrap();
    let (ja, jb) = (
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
    );
    assert_eq!(ja, jb, "replayed converge exports must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn route_accepts_the_scenario_plane_of_a_workload() {
    let dir = std::env::temp_dir().join("rex-cli-workload-route");
    std::fs::create_dir_all(&dir).unwrap();
    // The rackfault example carries rack crashes → route refuses it.
    let e = cmd_route(&args(&[
        ("workload", "examples/workload_rackfault.json"),
        ("quiet", ""),
    ]))
    .unwrap_err();
    assert!(e.contains("closed loop"), "{e}");
    // A degenerate (scenario-only) spec routes fine.
    let spec = dir.join("plain.json");
    std::fs::write(
        &spec,
        r#"{"scenario": {"ticks": 200, "tick_us": 1000, "qps_per_tick": 4.0,
            "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
            "seed": 3, "spike": null, "crash": null, "sra": null}}"#,
    )
    .unwrap();
    cmd_route(&args(&[
        ("workload", spec.to_str().unwrap()),
        ("machines", "8"),
        ("shards", "48"),
        ("quiet", ""),
    ]))
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn route_refuses_the_crash_and_sra_clauses_of_a_workload() {
    let dir = std::env::temp_dir().join("rex-cli-workload-route-clauses");
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = |crash: &str, sra: &str| {
        format!(
            r#"{{"scenario": {{"ticks": 200, "tick_us": 1000, "qps_per_tick": 4.0,
                "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
                "seed": 3, "spike": null, "crash": {crash}, "sra": {sra}}}}}"#
        )
    };
    let crash = r#"{"at_tick": 50, "machine": 1, "recover_at_tick": 120}"#;
    let sra = r#"{"every_ticks": 100, "iters": 50}"#;
    for (name, crash, sra) in [
        ("crash", crash, "null"),
        ("sra", "null", sra),
        ("both", crash, sra),
    ] {
        let spec = dir.join(format!("{name}.json"));
        std::fs::write(&spec, scenario(crash, sra)).unwrap();
        let e = cmd_route(&args(&[
            ("workload", spec.to_str().unwrap()),
            ("machines", "8"),
            ("shards", "48"),
            ("quiet", ""),
        ]))
        .unwrap_err();
        assert!(
            e.contains("crash and sra") && !e.contains('\n'),
            "{name}: {e}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workload_flag_misuse_is_rejected_with_typed_errors() {
    let dir = std::env::temp_dir().join("rex-cli-workload-err");
    std::fs::create_dir_all(&dir).unwrap();
    // Validation errors surface as Err with the spec's message, not a
    // panic: spike starting past the horizon.
    let bad = dir.join("bad.json");
    std::fs::write(
        &bad,
        r#"{"scenario": {"ticks": 100, "tick_us": 1000, "qps_per_tick": 4.0,
            "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
            "seed": 3, "crash": null, "sra": null,
            "spike": {"at_tick": 500, "duration_ticks": 10,
                      "factor": 2.0, "shard_fraction": 0.1}}}"#,
    )
    .unwrap();
    let e = cmd_simulate(&args(&[("workload", bad.to_str().unwrap())])).unwrap_err();
    assert!(e.contains("horizon"), "{e}");
    // Mutually exclusive sources.
    let spec = write_workload(&dir);
    let e = cmd_simulate(&args(&[
        ("workload", spec.to_str().unwrap()),
        ("replay-trace", "whatever.jsonl"),
    ]))
    .unwrap_err();
    assert!(e.contains("choose one"), "{e}");
    // Recording needs the spec for the trace header.
    let e = cmd_simulate(&args(&[("record-trace", "t.jsonl")])).unwrap_err();
    assert!(e.contains("--workload"), "{e}");
    // Converge refuses load scripts (the event engine has none).
    let e = cmd_converge(&args(&[("workload", spec.to_str().unwrap())])).unwrap_err();
    assert!(e.contains("load-script"), "{e}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_faults_and_horizons_are_errors_not_panics() {
    // `Simulation::new` panics on each of these; the CLI constructs
    // through `Simulation::try_new` and reports one line.
    let sim = [("crash-at", "5"), ("crash-machine", "999"), ("ticks", "50")];
    let e = cmd_simulate(&args(&sim)).unwrap_err();
    assert!(e.contains("machine 999") && e.contains("18"), "{e}");
    let e = cmd_converge(&args(&sim)).unwrap_err();
    assert!(e.contains("machine 999") && e.contains('8'), "{e}");
    let e = cmd_simulate(&args(&[("ticks", "0")])).unwrap_err();
    assert!(e.contains("ticks"), "{e}");
    // The same crash arriving through a workload file.
    let dir = std::env::temp_dir().join("rex-cli-bad-faults");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("crash.json");
    std::fs::write(
        &spec,
        r#"{"scenario": {"ticks": 200, "tick_us": 1000, "qps_per_tick": 4.0,
            "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
            "seed": 3, "spike": null, "sra": null,
            "crash": {"at_tick": 20, "machine": 999, "recover_at_tick": null}}}"#,
    )
    .unwrap();
    for cmd in [cmd_simulate, cmd_converge] {
        let e = cmd(&args(&[("workload", spec.to_str().unwrap())])).unwrap_err();
        assert!(e.contains("machine 999"), "{e}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A recovery at or before its crash is one error line in `simulate`, as
/// it is in `converge`, not a machine that never comes back.
#[test]
fn simulate_rejects_a_recovery_that_does_not_follow_the_crash() {
    for recover in ["50", "100"] {
        let a = args(&[
            ("ticks", "300"),
            ("crash-at", "100"),
            ("recover-at", recover),
        ]);
        let e = cmd_simulate(&a).unwrap_err();
        assert!(
            e.contains("recovery must follow the crash") && !e.contains('\n'),
            "{e}"
        );
        let e = cmd_converge(&a).unwrap_err();
        assert!(e.contains("recovery must follow the crash"), "{e}");
    }
}

#[test]
fn converge_rejects_a_spike_before_tick_2() {
    for at in ["0", "1"] {
        let e =
            cmd_converge(&args(&[("ticks", "50"), ("spike-at", at), ("quiet", "")])).unwrap_err();
        assert!(
            e.contains(&format!("spike at tick {at}")) && e.contains("tick 2") && !e.contains('\n'),
            "{e}"
        );
    }
    // The same crowd from a workload file, and from a trace recorded
    // by the tick engine (which accepts it).
    let dir = std::env::temp_dir().join("rex-cli-early-spike");
    std::fs::create_dir_all(&dir).unwrap();
    let (spec, trace) = (dir.join("spike0.json"), dir.join("spike0.jsonl"));
    std::fs::write(
        &spec,
        r#"{"scenario": {"ticks": 50, "tick_us": 1000, "qps_per_tick": 4.0,
            "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
            "seed": 3, "crash": null, "sra": null,
            "spike": {"at_tick": 0, "duration_ticks": 10,
                      "factor": 2.0, "shard_fraction": 0.1}}}"#,
    )
    .unwrap();
    let spec = spec.to_str().unwrap();
    let e = cmd_converge(&args(&[("workload", spec), ("quiet", "")])).unwrap_err();
    assert!(e.contains("spike at tick 0"), "{e}");
    cmd_simulate(&args(&[
        ("workload", spec),
        ("record-trace", trace.to_str().unwrap()),
        ("quiet", ""),
    ]))
    .unwrap();
    let e = cmd_converge(&args(&[
        ("replay-trace", trace.to_str().unwrap()),
        ("quiet", ""),
    ]))
    .unwrap_err();
    assert!(e.contains("spike at tick 0"), "{e}");
    // Tick 2 runs.
    cmd_converge(&args(&[("ticks", "50"), ("spike-at", "2"), ("quiet", "")])).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn route_knobs_out_of_range_are_errors_not_panics() {
    // `Router::new` panics on each of these; `run_route` must reject
    // them first, with one line.
    for (flag, value, says) in [
        ("qps", "0", "qps"),
        ("horizon", "0", "horizon_us"),
        ("service", "0", "base_service_us"),
        ("replication", "0", "replication"),
        ("spike-factor", "0.5", "spike factor"),
    ] {
        let mut a = args(&[("machines", "4"), ("shards", "16"), (flag, value)]);
        if flag == "spike-factor" {
            a.insert("spike-at".into(), "10".into());
        }
        let e = cmd_route(&a).unwrap_err();
        assert!(e.contains(says) && !e.contains('\n'), "--{flag}: {e}");
    }
}

#[test]
fn generator_settings_are_errors_not_panics() {
    // Each of these used to panic at an `assert!` in the generator.
    let out = std::env::temp_dir().join("rex-cli-bad-gen.json");
    let out = out.to_str().unwrap();
    for (flags, says) in [
        (&[("stringency", "1.0")][..], "stringency"),
        (&[("machines", "0")], "machines"),
        (&[("shards", "0")], "shards"),
        (&[("dims", "0")], "dims"),
        (&[("placement", "drift"), ("dims", "1")], "2 dimensions"),
        (&[("shards", "5"), ("machines", "100")], "167 needed"),
    ] {
        let mut a = args(flags);
        a.insert("out".into(), out.into());
        let e = cmd_generate(&a).unwrap_err();
        assert!(e.contains(says) && !e.contains('\n'), "{flags:?}: {e}");
    }
    // The other commands synthesize through the same path.
    let zero = args(&[("machines", "0")]);
    for cmd in [cmd_simulate, cmd_route, cmd_converge, cmd_solve] {
        assert!(cmd(&zero).unwrap_err().contains("machines"));
    }
}

#[test]
fn example_workload_files_stay_valid() {
    let het = load_workload("examples/workload_heterogeneous.json").unwrap();
    assert!(het.fleet.is_some() && het.load.is_some());
    assert_eq!(het.fleet.as_ref().unwrap().generations.len(), 3);
    let rack = load_workload("examples/workload_rackfault.json").unwrap();
    assert!(rack.load.is_none());
    assert_eq!(rack.rack_crashes.len(), 1);
}
