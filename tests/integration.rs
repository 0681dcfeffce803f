//! Cross-crate integration tests: full pipelines from workload generation
//! through SRA to verified migration schedules, tied back to the paper's
//! IP formulation.

use resource_exchange::baselines::{
    FfdRepacker, GreedyRebalancer, LocalSearchRebalancer, Rebalancer,
};
use resource_exchange::cluster::{verify_schedule, Assignment, Objective};
use resource_exchange::core::{solve, SraConfig};
use resource_exchange::workload::standard_suite;
use resource_exchange::workload::synthetic::{generate, DemandFamily, Placement, SynthConfig};
use rex_searchsim::bridge::{build_instance, BridgeConfig};
use rex_searchsim::corpus::CorpusConfig;
use rex_searchsim::queries::QueryConfig;
use rex_solver::{branch_and_bound, peak_lower_bound, ExactConfig, IpModel};

fn quick_sra(iters: u64, seed: u64) -> SraConfig {
    SraConfig {
        iters,
        seed,
        ..Default::default()
    }
}

#[test]
fn searchsim_to_sra_full_pipeline() {
    // Corpus → shards → index → query replay → instance → SRA → schedule.
    let inst = build_instance(&BridgeConfig {
        corpus: CorpusConfig {
            n_docs: 1_500,
            vocab: 3_000,
            seed: 1,
            ..Default::default()
        },
        queries: QueryConfig {
            n_queries: 800,
            seed: 2,
            ..Default::default()
        },
        n_shards: 32,
        n_machines: 6,
        n_exchange: 1,
        stringency: 0.78,
        ..Default::default()
    })
    .expect("bridge");

    let res = solve(&inst, &quick_sra(2_000, 3)).expect("solve");
    // The schedule re-verifies and ends at the final assignment.
    verify_schedule(&inst, &inst.initial, res.assignment.placement(), &res.plan).unwrap();
    res.assignment.check_target(&inst).unwrap();
    assert!(res.final_report.peak <= res.initial_report.peak + 1e-9);
    assert_eq!(res.returned_machines.len(), inst.k_return);
}

#[test]
fn sra_output_satisfies_the_paper_ip() {
    // The IP model is the formal spec; SRA's output must be feasible in it.
    let inst = generate(&SynthConfig {
        n_machines: 8,
        n_exchange: 2,
        n_shards: 48,
        ..Default::default()
    })
    .unwrap();
    let res = solve(&inst, &quick_sra(2_000, 5)).expect("solve");
    let model = IpModel::build(&inst, 0.01);
    let vars = model.variables_from_placement(&inst, res.assignment.placement());
    let violations = model.check(&vars);
    assert!(violations.is_empty(), "IP violations: {violations:?}");
}

#[test]
fn sra_close_to_exact_optimum_on_tiny_instances() {
    for seed in 0..3 {
        let inst = generate(&SynthConfig {
            n_machines: 4,
            n_exchange: 1,
            n_shards: 10,
            stringency: 0.7,
            family: DemandFamily::Uniform,
            placement: Placement::Hotspot(0.5),
            seed,
            ..Default::default()
        })
        .unwrap();
        let exact = branch_and_bound(&inst, &ExactConfig::default()).unwrap();
        assert!(exact.proven_optimal);
        let sra = solve(
            &inst,
            &SraConfig {
                iters: 3_000,
                seed,
                objective: Objective::pure(),
                ..Default::default()
            },
        )
        .unwrap();
        let gap = (sra.final_report.peak - exact.peak) / exact.peak;
        assert!(
            gap < 0.10,
            "seed {seed}: SRA {} vs opt {}",
            sra.final_report.peak,
            exact.peak
        );
        // And both respect the fractional bound.
        let lb = peak_lower_bound(&inst);
        assert!(exact.peak + 1e-9 >= lb);
        assert!(sra.final_report.peak + 1e-9 >= lb);
    }
}

#[test]
fn sra_dominates_baselines_in_the_stringent_regime() {
    // High utilization + big shards + migration overhead: the paper's
    // motivating regime. SRA (with 3 exchange machines) must beat both
    // deployable baselines (which cannot use them).
    let inst = generate(&SynthConfig {
        n_machines: 16,
        n_exchange: 3,
        n_shards: 120,
        stringency: 0.9,
        alpha: 0.25,
        family: DemandFamily::BigShards,
        placement: Placement::Hotspot(0.4),
        seed: 9,
        ..Default::default()
    })
    .unwrap();

    // 8k iterations: the in-place hot loop (see rex-core::state) makes
    // iterations cheap enough that this stays well under the old 6k-clone
    // wall time, and the margin over local search is comfortable.
    let sra = solve(&inst, &quick_sra(8_000, 9)).expect("sra");
    let greedy = GreedyRebalancer.rebalance(&inst).expect("greedy");
    let ls = LocalSearchRebalancer.rebalance(&inst).expect("ls");

    assert!(
        sra.final_report.peak <= greedy.final_report.peak + 1e-9,
        "SRA {} vs greedy {}",
        sra.final_report.peak,
        greedy.final_report.peak
    );
    assert!(
        sra.final_report.peak <= ls.final_report.peak + 1e-9,
        "SRA {} vs local-search {}",
        sra.final_report.peak,
        ls.final_report.peak
    );
}

#[test]
fn exchange_provably_unlocks_the_swap_locked_fleet() {
    // The distilled mechanism (see rex_workload::special::swap_locked):
    // at k = 0 no schedule can improve the fleet; at k = 1 the optimum
    // (~0.88) becomes reachable. This is the paper's central claim as a
    // deterministic test.
    use resource_exchange::workload::swap_locked;

    let locked = swap_locked(4, 0, 3).unwrap();
    let res0 = solve(&locked, &quick_sra(4_000, 3)).unwrap();
    assert!(
        res0.final_report.peak > 0.95,
        "k = 0 must stay locked near 0.96, got {}",
        res0.final_report.peak
    );
    let g = GreedyRebalancer.rebalance(&locked).unwrap();
    let l = LocalSearchRebalancer.rebalance(&locked).unwrap();
    assert_eq!(g.migration.total_moves, 0, "greedy must be stuck");
    assert_eq!(l.migration.total_moves, 0, "local search must be stuck");

    let unlocked = swap_locked(4, 1, 3).unwrap();
    let res1 = solve(&unlocked, &quick_sra(6_000, 3)).unwrap();
    assert!(
        res1.final_report.peak < 0.90,
        "k = 1 must unlock the ~0.88 optimum, got {}",
        res1.final_report.peak
    );
    verify_schedule(
        &unlocked,
        &unlocked.initial,
        res1.assignment.placement(),
        &res1.plan,
    )
    .unwrap();
    assert_eq!(
        res1.returned_machines.len(),
        1,
        "the borrowed machine comes back"
    );
}

#[test]
fn ffd_bound_is_never_beaten_by_deployable_methods_on_easy_instances() {
    // At low stringency the FFD repack is schedulable and near-optimal; it
    // lower-bounds what the schedule-constrained methods achieve.
    let inst = generate(&SynthConfig {
        n_machines: 8,
        n_exchange: 1,
        n_shards: 64,
        stringency: 0.5,
        family: DemandFamily::Uniform,
        placement: Placement::Hotspot(0.4),
        seed: 11,
        ..Default::default()
    })
    .unwrap();
    let ffd = FfdRepacker.rebalance(&inst).unwrap();
    let sra = solve(&inst, &quick_sra(3_000, 11)).unwrap();
    assert!(ffd.final_report.peak <= sra.final_report.peak + 0.02);
}

#[test]
fn whole_suite_is_solvable_and_improves() {
    for entry in standard_suite(8, 1, 64, 0.8) {
        let inst = (entry.generate)(21);
        let res = solve(&inst, &quick_sra(1_500, 21)).expect(entry.name);
        assert!(
            res.final_report.peak <= res.initial_report.peak + 1e-9,
            "{} regressed",
            entry.name
        );
        verify_schedule(&inst, &inst.initial, res.assignment.placement(), &res.plan).unwrap();
    }
}

#[test]
fn instance_io_roundtrip_preserves_solvability() {
    let inst = generate(&SynthConfig {
        n_machines: 6,
        n_exchange: 1,
        n_shards: 30,
        ..Default::default()
    })
    .unwrap();
    let json = resource_exchange::workload::io::to_json(&inst);
    let back = resource_exchange::workload::io::from_json(&json).unwrap();
    let a = solve(&inst, &quick_sra(800, 2)).unwrap();
    let b = solve(&back, &quick_sra(800, 2)).unwrap();
    assert_eq!(a.assignment.placement(), b.assignment.placement());
    assert_eq!(a.objective_value, b.objective_value);
}

#[test]
fn baseline_schedules_verify_against_the_simulator() {
    let inst = generate(&SynthConfig {
        n_machines: 10,
        n_exchange: 2,
        n_shards: 80,
        stringency: 0.75,
        seed: 33,
        ..Default::default()
    })
    .unwrap();
    let methods: Vec<Box<dyn Rebalancer>> =
        vec![Box::new(GreedyRebalancer), Box::new(LocalSearchRebalancer)];
    for m in methods {
        let r = m.rebalance(&inst).unwrap();
        let plan = r.plan.expect("deployable baselines always produce a plan");
        verify_schedule(&inst, &inst.initial, r.assignment.placement(), &plan).unwrap();
        // Baselines never touch the exchange machines.
        for x in inst.exchange_machines() {
            assert!(
                r.assignment.is_vacant(x),
                "{} used exchange machine {x}",
                m.name()
            );
        }
    }
}

#[test]
fn parallel_and_serial_sra_agree_on_feasibility() {
    let inst = generate(&SynthConfig {
        n_machines: 8,
        n_exchange: 2,
        n_shards: 64,
        seed: 55,
        ..Default::default()
    })
    .unwrap();
    for partitions in [0, 4] {
        let res = solve(
            &inst,
            &SraConfig {
                iters: 1_000,
                partitions,
                seed: 55,
                ..Default::default()
            },
        )
        .unwrap();
        res.assignment.check_target(&inst).unwrap();
        assert!(Assignment::from_initial(&inst).peak_load(&inst) + 1e-9 >= res.final_report.peak);
    }
}

/// A hostile instance file is one short error line and exit 1, never an
/// abort: 200 000 open arrays, a 5 000-deep array where a number goes,
/// and the same open arrays under a key the reader skips (where the
/// nesting cap, not a type mismatch, stops it).
#[test]
fn hostile_json_is_one_short_error_line() {
    let dir = std::env::temp_dir().join(format!("rex-hostile-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let open = "[".repeat(200_000);
    let deep = format!("{}{}", "[".repeat(5_000), "]".repeat(5_000));
    let inputs = [
        ("open-arrays", open.clone()),
        ("deep-dims", format!("{{\"dims\": {deep}}}")),
        ("deep-unknown-key", format!("{{\"zzz\": {open}}}")),
    ];
    for (name, text) in inputs {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rex"))
            .args(["inspect", "--inst", path.to_str().unwrap()])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert_eq!(err.lines().count(), 1, "{name}: {err}");
        assert!(err.len() < 200, "{name}: {} bytes: {err}", err.len());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A drained machine past the fleet is one `error:` line and exit 1 —
/// `SraProblem::with_drain` used to index out of bounds (exit 101) — and
/// `rex trace`, folded into `rex solve --trace`, is an unknown command.
#[test]
fn bad_drains_and_the_old_trace_command_exit_1() {
    let rex = |line: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rex"))
            .args(line.split(' '))
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{err}");
        err
    };
    let err = rex("solve --machines 6 --exchange 1 --shards 30 --drain 99");
    assert_eq!(err, "error: cannot drain m99: the fleet has 7 machines\n");
    let err = rex("solve --machines 6 --exchange 1 --shards 30 --drain 2,4,2");
    assert_eq!(err, "error: cannot drain m2: it is listed more than once\n");
    let err = rex("trace --iters 400");
    assert!(err.starts_with("error: unknown command `trace`\n"), "{err}");
}

/// Runs `rex` on `words`; what it wrote to stderr, after checking that it
/// is one `error:` line and the exit status 1 (a panic exits 101).
fn rex_error(words: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rex"))
        .args(words)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{words:?}: {err}");
    assert!(
        err.starts_with("error: ") && err.lines().count() == 1,
        "{err}"
    );
    err
}

/// Closed-loop inputs the engines cannot run are input errors, checked
/// before either engine is built: a `converge` rate beyond the router's
/// in-flight cap, spike spans whose microseconds overflow a `u64` (from
/// flags, and from a workload file whose lowering would wrap to a 384 µs
/// crowd), and a zero-length `simulate` spike.
#[test]
fn closed_loop_inputs_the_engines_cannot_run_exit_1() {
    let err = rex_error(&["converge", "--qps", "1e12", "--ticks", "10", "--quiet"]);
    assert!(err.contains("in flight than the router holds"), "{err}");
    let long = "18446744073709551615";
    let err = rex_error(&[
        "converge",
        "--spike-at",
        "10",
        "--spike-duration",
        long,
        "--ticks",
        "100",
        "--quiet",
    ]);
    assert!(err.contains("overflows the microsecond clock"), "{err}");
    let dir = std::env::temp_dir().join(format!("rex-clock-overflow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("wrap.json");
    std::fs::write(
        &spec,
        r#"{"scenario": {"ticks": 200, "tick_us": 1000, "qps_per_tick": 4.0,
            "fanout": 4, "base_service_us": 100.0, "rho_max": 0.95,
            "seed": 3, "crash": null, "sra": null,
            "spike": {"at_tick": 10, "duration_ticks": 18446744073709552,
                      "factor": 2.0, "shard_fraction": 0.1}}}"#,
    )
    .unwrap();
    for command in ["converge", "route"] {
        let err = rex_error(&[command, "--workload", spec.to_str().unwrap(), "--quiet"]);
        assert!(err.contains("overflows the microsecond clock"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
    let err = rex_error(&[
        "simulate",
        "--spike-at",
        "10",
        "--spike-duration",
        "0",
        "--quiet",
    ]);
    assert_eq!(err, "error: spike duration must be positive\n");
}

/// `rex verify` of a solution longer than its instance names the
/// solution's length, not the instance's.
#[test]
fn verify_names_the_length_of_a_wrong_placement() {
    let dir = std::env::temp_dir().join(format!("rex-verify-length-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let rex = |words: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rex"))
            .args(words)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    for (name, shards) in [("i40.json", "40"), ("i30.json", "30")] {
        let gen = [
            "generate",
            "--machines",
            "4",
            "--exchange",
            "1",
            "--shards",
            shards,
        ];
        rex(&[&gen[..], &["--out", &path(name)]].concat());
    }
    rex(&[
        "solve",
        "--inst",
        &path("i40.json"),
        "--iters",
        "300",
        "--out",
        &path("s40.json"),
    ]);
    let err = rex_error(&[
        "verify",
        "--inst",
        &path("i30.json"),
        "--solution",
        &path("s40.json"),
    ]);
    assert_eq!(
        err,
        "error: placement has 40 entries, instance has 30 shards\n"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes the pipe (`rex solve … | head -1`, `| true`) ends
/// `rex` with status 0 and nothing on stderr: the write that finds stdout
/// closed stops the run instead of panicking with exit 101.
#[test]
fn a_closed_stdout_ends_rex_quietly() {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_rex"))
        .args(["solve", "--iters", "400", "--seed", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The read end goes before the solve is done, so every write `rex`
    // makes finds the pipe closed.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.is_empty(), "{err}");
}
