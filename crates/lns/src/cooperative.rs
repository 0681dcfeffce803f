//! Cooperative decomposed search: one worker per sub-problem, with
//! deterministic `(round, partition)` seed derivation.
//!
//! A cooperative round runs one worker per **sub-problem** (a partition of
//! a larger problem), so the workers share nothing and their solutions
//! compose instead of competing. The caller owns the decomposition, the
//! merge, and the round loop; this module owns the deterministic parallel
//! execution of one round — the only place `rex-lns` fans engines out over
//! threads.
//!
//! * every job's seed is fixed by the caller **before** the parallel
//!   section — for decomposed rounds a pure function of `(base_seed,
//!   round, partition)`, [`round_seed`];
//! * a job is a closure over inputs the caller fixed before the parallel
//!   section: it builds its [`crate::Engine`] (and whatever sub-problem
//!   the engine searches) in its worker, runs it, and drops it there, so a
//!   round holds one job's search state per thread, not every job's;
//! * jobs run over the deterministic rayon shim, whose `collect` places
//!   results by index, so the output order is the job order regardless of
//!   which OS thread ran what;
//! * workers run untraced (recording inside a parallel section would
//!   interleave nondeterministically — the caller narrates the reduction
//!   after the barrier).
//!
//! Together those give the decomposed-solver determinism contract:
//! byte-identical results for any `REX_THREADS`.

use rayon::prelude::*;

/// splitmix64 finalizer: bijective avalanche mixing.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic worker seed for partition `partition` in round `round`.
///
/// A pure function of its arguments — the sequence point the decomposed
/// solver's determinism rests on. Distinct `(round, partition)` pairs get
/// distinct seeds (the round/partition tag is injective for any realistic
/// partition count, and the finalizer is bijective).
pub fn round_seed(base: u64, round: u64, partition: usize) -> u64 {
    base ^ mix(round
        .wrapping_mul(0x0000_0001_0000_0001)
        .wrapping_add(partition as u64 + 1))
}

/// Runs every job of one round in parallel and returns their outcomes in
/// job order. Each job builds, runs and drops its own engine in its
/// worker. Results are a pure function of the jobs — thread count is
/// unobservable.
pub fn cooperative_round<S: Send>(jobs: Vec<impl FnOnce() -> S + Send>) -> Vec<S> {
    jobs.into_par_iter().map(|job| job()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accept::SimulatedAnnealing;
    use crate::engine::{Engine, LnsConfig, SearchOutcome};
    use crate::toy::{
        GreedyInsertInPlace, PartitionProblem, RandomRemoveInPlace, WorstBinRemoveInPlace,
    };

    fn run_round(seed: u64) -> Vec<SearchOutcome<Vec<usize>>> {
        // Three independent toy sub-problems standing in for partitions.
        let problems: Vec<PartitionProblem> = (0..3)
            .map(|i| PartitionProblem::random(20 + 4 * i, 3, 11 + i as u64))
            .collect();
        let jobs: Vec<_> = problems
            .iter()
            .enumerate()
            .map(|(p, problem)| {
                move || {
                    Engine::new(
                        problem,
                        problem.all_in_first_bin(),
                        vec![
                            Box::new(RandomRemoveInPlace),
                            Box::new(WorstBinRemoveInPlace),
                        ],
                        vec![Box::new(GreedyInsertInPlace)],
                        Box::new(SimulatedAnnealing::for_normalized_loads(400)),
                        LnsConfig {
                            max_iters: 400,
                            ..Default::default()
                        },
                    )
                    .run(round_seed(seed, 0, p))
                }
            })
            .collect();
        cooperative_round(jobs)
    }

    #[test]
    fn outcomes_arrive_in_job_order_and_improve() {
        let outs = run_round(5);
        assert_eq!(outs.len(), 3);
        for o in &outs {
            assert!(o.best_objective.is_finite());
            assert!(o.iterations > 0);
        }
    }

    #[test]
    fn round_is_deterministic() {
        let a = run_round(9);
        let b = run_round(9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.best_objective, y.best_objective);
            assert_eq!(x.best, y.best);
            assert_eq!(x.iterations, y.iterations);
        }
    }

    #[test]
    fn round_seeds_are_distinct() {
        let mut seeds: Vec<u64> = Vec::new();
        for round in 0..8u64 {
            for p in 0..16usize {
                seeds.push(round_seed(77, round, p));
            }
        }
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }
}
