//! Property-based tests of the ALNS engine's contract, driven through the
//! toy partitioning problem over the unified `Engine` spine.

use proptest::prelude::*;
use rex_lns::toy::{
    GreedyInsertInPlace, PartitionProblem, RandomRemoveInPlace, WorstBinRemoveInPlace,
};
use rex_lns::{
    Acceptance, DestroyInPlace, Engine, HillClimb, LnsConfig, LnsProblemInPlace, RecordToRecord,
    RepairInPlace, SearchOutcome, SimulatedAnnealing,
};

fn run_engine(
    problem: &PartitionProblem,
    acceptance: Box<dyn Acceptance>,
    iters: u64,
    initial: Vec<usize>,
    seed: u64,
) -> SearchOutcome<Vec<usize>> {
    Engine::new(
        problem,
        initial,
        vec![
            Box::new(RandomRemoveInPlace) as Box<dyn DestroyInPlace<PartitionProblem>>,
            Box::new(WorstBinRemoveInPlace),
        ],
        vec![Box::new(GreedyInsertInPlace) as Box<dyn RepairInPlace<PartitionProblem>>],
        acceptance,
        LnsConfig {
            max_iters: iters,
            log_trajectory: true,
            ..Default::default()
        },
    )
    .run(seed)
}

fn acceptance_for(kind: u8, iters: u64) -> Box<dyn Acceptance> {
    match kind % 3 {
        0 => Box::new(HillClimb),
        1 => Box::new(SimulatedAnnealing::for_normalized_loads(iters as usize)),
        _ => Box::new(RecordToRecord::new(0.02)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The returned best is feasible, never worse than the start, and its
    /// objective matches a re-evaluation.
    #[test]
    fn engine_contract(
        n in 4usize..40,
        bins in 2usize..6,
        seed in any::<u64>(),
        kind in any::<u8>(),
    ) {
        let problem = PartitionProblem::random(n, bins, seed);
        let initial = problem.all_in_first_bin();
        let f0 = problem.objective(&initial);
        let iters = 300u64;
        let out = run_engine(&problem, acceptance_for(kind, iters), iters, initial, seed ^ 1);
        prop_assert!(problem.is_feasible(&out.best));
        prop_assert!(out.best_objective <= f0 + 1e-12);
        prop_assert!((problem.objective(&out.best) - out.best_objective).abs() < 1e-9);
    }

    /// Iteration accounting: every iteration lands in exactly one stats
    /// bucket, and operator usage counts sum to the iteration count.
    #[test]
    fn stats_partition_iterations(n in 4usize..30, seed in any::<u64>()) {
        let problem = PartitionProblem::random(n, 3, seed);
        let iters = 200u64;
        let out = run_engine(
            &problem,
            Box::new(HillClimb),
            iters,
            problem.all_in_first_bin(),
            seed,
        );
        let s = &out.stats;
        prop_assert_eq!(
            s.accepted + s.rejected + s.repair_failures + s.infeasible,
            out.iterations
        );
        let d_uses: u64 = s.destroy_ops.iter().map(|o| o.uses).sum();
        let r_uses: u64 = s.repair_ops.iter().map(|o| o.uses).sum();
        prop_assert_eq!(d_uses, out.iterations);
        prop_assert_eq!(r_uses, out.iterations);
        prop_assert_eq!(s.new_bests, out.trajectory.len().saturating_sub(1) as u64);
    }

    /// The trajectory is strictly decreasing and starts at the initial
    /// objective.
    #[test]
    fn trajectory_monotone(n in 4usize..30, seed in any::<u64>()) {
        let problem = PartitionProblem::random(n, 3, seed);
        let initial = problem.all_in_first_bin();
        let f0 = problem.objective(&initial);
        let out = run_engine(
            &problem,
            Box::new(SimulatedAnnealing::for_normalized_loads(400)),
            400,
            initial,
            seed,
        );
        prop_assert!(!out.trajectory.is_empty());
        prop_assert!((out.trajectory[0].objective - f0).abs() < 1e-12);
        for w in out.trajectory.windows(2) {
            prop_assert!(w[1].objective < w[0].objective);
        }
        prop_assert!(
            (out.trajectory.last().unwrap().objective - out.best_objective).abs() < 1e-12
        );
    }

    /// Same seed → identical run, different seed → (almost always)
    /// different iterate counts or objective; we only assert the equality
    /// direction, which must always hold.
    #[test]
    fn determinism(n in 6usize..24, seed in any::<u64>()) {
        let problem = PartitionProblem::random(n, 3, 9);
        let a = run_engine(
            &problem,
            Box::new(HillClimb),
            150,
            problem.all_in_first_bin(),
            seed,
        );
        let b = run_engine(
            &problem,
            Box::new(HillClimb),
            150,
            problem.all_in_first_bin(),
            seed,
        );
        prop_assert_eq!(a.best_objective, b.best_objective);
        prop_assert_eq!(a.best, b.best);
        prop_assert_eq!(a.stats.accepted, b.stats.accepted);
    }
}
