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
    let greedy = GreedyRebalancer::default()
        .rebalance(&inst)
        .expect("greedy");
    let ls = LocalSearchRebalancer::default()
        .rebalance(&inst)
        .expect("ls");

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
    let g = GreedyRebalancer::default().rebalance(&locked).unwrap();
    let l = LocalSearchRebalancer::default().rebalance(&locked).unwrap();
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
    let ffd = FfdRepacker::default().rebalance(&inst).unwrap();
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
    let methods: Vec<Box<dyn Rebalancer>> = vec![
        Box::new(GreedyRebalancer::default()),
        Box::new(LocalSearchRebalancer::default()),
    ];
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
    for workers in [1, 4] {
        let res = solve(
            &inst,
            &SraConfig {
                iters: 1_000,
                workers,
                seed: 55,
                ..Default::default()
            },
        )
        .unwrap();
        res.assignment.check_target(&inst).unwrap();
        assert!(Assignment::from_initial(&inst).peak_load(&inst) + 1e-9 >= res.final_report.peak);
    }
}
