//! Parallel multi-start portfolio search.
//!
//! Runs `workers` independent ALNS searches and keeps the best result: one
//! [`cooperative_round`] whose jobs all start from the same whole-problem
//! solution, followed by an argmin. Worker seeds derive deterministically
//! from the base seed, the round returns outcomes in worker order, and the
//! reduction is an order-independent minimum (ties broken by worker
//! index), so the outcome is reproducible regardless of thread scheduling —
//! the determinism discipline the HPC guides call for.
//!
//! Each worker gets its own [`Engine`] (built by the caller's factory,
//! typically from a clone of the shared initial solution).

use crate::cooperative::cooperative_round;
use crate::engine::Engine;
use crate::problem::LnsProblemInPlace;
use rex_obs::Recorder;
use serde::Serialize;

/// Per-worker result summary.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct WorkerResult {
    /// Worker index.
    pub worker: usize,
    /// Best objective the worker reached.
    pub objective: f64,
    /// Iterations the worker executed.
    pub iterations: u64,
}

/// Result of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome<S> {
    /// Best solution across all workers.
    pub best: S,
    /// Its objective value.
    pub best_objective: f64,
    /// Index of the winning worker.
    pub winner: usize,
    /// Summary of every worker's run.
    pub worker_results: Vec<WorkerResult>,
}

/// Deterministic per-worker seed derivation (splitmix-style odd multiplier).
fn worker_seed(base: u64, worker: usize) -> u64 {
    base ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(worker as u64 + 1))
}

/// Runs `workers` independent searches in parallel and returns the best,
/// narrating the reduction into `rec` when it is recording: a
/// `("lns", "portfolio")` span holding one `("lns", "worker")` summary
/// event per worker, in worker order.
///
/// `make_engine` is invoked once per worker, before the parallel section,
/// so each worker owns private operator and state storage and worker
/// launch does no hidden setup.
///
/// Workers themselves run **untraced** — per-iteration events from
/// concurrently running workers would interleave nondeterministically, so
/// the portfolio only narrates the deterministic reduction. Summaries are
/// emitted sequentially after the parallel section, which keeps the trace
/// byte-identical across thread counts (satellite determinism contract; see
/// `tests/threads_determinism.rs`).
pub fn portfolio_search<'p, P>(
    base_seed: u64,
    workers: usize,
    make_engine: impl Fn() -> Engine<'p, P>,
    rec: &mut Recorder,
) -> PortfolioOutcome<P::Solution>
where
    P: LnsProblemInPlace + Sync + 'p,
{
    assert!(workers >= 1, "portfolio needs at least one worker");
    let engines: Vec<Engine<'p, P>> = (0..workers).map(|_| make_engine()).collect();
    rec.span_open(
        "lns",
        "portfolio",
        &[
            ("workers", workers.into()),
            ("base_seed", base_seed.into()),
            ("max_iters", engines[0].config().max_iters.into()),
        ],
    );
    let jobs: Vec<_> = engines
        .into_iter()
        .enumerate()
        .map(|(w, engine)| move || engine.run(worker_seed(base_seed, w)))
        .collect();
    let outcomes = cooperative_round(jobs);

    let worker_results: Vec<WorkerResult> = outcomes
        .iter()
        .enumerate()
        .map(|(worker, o)| WorkerResult {
            worker,
            objective: o.best_objective,
            iterations: o.iterations,
        })
        .collect();
    let (winner, best_outcome) = outcomes
        .into_iter()
        .enumerate()
        .min_by(|(wa, a), (wb, b)| {
            a.best_objective
                .partial_cmp(&b.best_objective)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(wa.cmp(wb))
        })
        .expect("at least one worker");

    for w in &worker_results {
        rec.event(
            "lns",
            "worker",
            &[
                ("worker", w.worker.into()),
                ("seed", worker_seed(base_seed, w.worker).into()),
                ("objective", w.objective.into()),
                ("iterations", w.iterations.into()),
            ],
        );
    }
    rec.span_close(
        "lns",
        "portfolio",
        &[
            ("winner", winner.into()),
            ("best_objective", best_outcome.best_objective.into()),
        ],
    );
    PortfolioOutcome {
        best: best_outcome.best,
        best_objective: best_outcome.best_objective,
        winner,
        worker_results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accept::SimulatedAnnealing;
    use crate::engine::LnsConfig;
    use crate::toy::{
        GreedyInsertInPlace, PartitionProblem, RandomRemoveInPlace, WorstBinRemoveInPlace,
    };

    fn run_recorded(workers: usize, seed: u64, rec: &mut Recorder) -> PortfolioOutcome<Vec<usize>> {
        let problem = PartitionProblem::random(40, 4, 77);
        let initial = problem.all_in_first_bin();
        portfolio_search(
            seed,
            workers,
            || {
                Engine::new(
                    &problem,
                    initial.clone(),
                    vec![
                        Box::new(RandomRemoveInPlace),
                        Box::new(WorstBinRemoveInPlace),
                    ],
                    vec![Box::new(GreedyInsertInPlace)],
                    Box::new(SimulatedAnnealing::for_normalized_loads(1_500)),
                    LnsConfig {
                        max_iters: 1_500,
                        ..Default::default()
                    },
                )
            },
            rec,
        )
    }

    fn run(workers: usize, seed: u64) -> PortfolioOutcome<Vec<usize>> {
        run_recorded(workers, seed, &mut Recorder::noop())
    }

    #[test]
    fn portfolio_finds_good_solutions() {
        let out = run(4, 1);
        assert!(out.best_objective < 1.3, "got {}", out.best_objective);
        assert_eq!(out.worker_results.len(), 4);
    }

    #[test]
    fn portfolio_is_deterministic() {
        let a = run(4, 42);
        let b = run(4, 42);
        assert_eq!(a.best_objective, b.best_objective);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.best, b.best);
        for (x, y) in a.worker_results.iter().zip(&b.worker_results) {
            assert_eq!(x.objective, y.objective);
        }
    }

    #[test]
    fn best_matches_min_of_workers() {
        let out = run(6, 9);
        let min = out
            .worker_results
            .iter()
            .map(|w| w.objective)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(out.best_objective, min);
    }

    #[test]
    fn more_workers_never_hurt() {
        // With the same base seed, worker 0's run is identical, so the best
        // over a superset of workers is at least as good.
        let small = run(1, 5);
        let large = run(4, 5);
        assert!(large.best_objective <= small.best_objective + 1e-12);
    }

    #[test]
    fn portfolio_matches_the_frozen_pre_cooperative_runs() {
        // Recorded from the portfolio's own `into_par_iter` runner before it
        // was folded into `cooperative_round`: winner and per-worker
        // best-objective bits at base seed 1, when every worker ran its
        // full 1 500 iterations. Under the engine's stopping rule three
        // workers stop early with the same bests (a stopped run is a
        // prefix of the full one); their iteration counts are pinned since.
        let objs = [
            0x3ff0021dfe843f02u64,
            0x3ff002dd4ae7cad0,
            0x3ff000ebc93783ad,
            0x3ff001b3548c6cee,
        ];
        let iters = [1_445, 919, 1_500, 1_179];
        for (workers, winner) in [(1, 0), (4, 2)] {
            let out = run(workers, 1);
            assert_eq!(out.winner, winner);
            assert_eq!(out.best_objective.to_bits(), objs[winner]);
            assert_eq!(out.worker_results.len(), workers);
            for (w, (want, its)) in out.worker_results.iter().zip(objs.into_iter().zip(iters)) {
                assert_eq!(w.objective.to_bits(), want, "worker {}", w.worker);
                assert_eq!(w.iterations, its, "worker {}", w.worker);
            }
        }
    }

    #[test]
    fn worker_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..16).map(|w| worker_seed(123, w)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    #[should_panic]
    fn zero_workers_panics() {
        run(0, 1);
    }

    #[test]
    fn recorded_portfolio_matches_plain_and_narrates_workers() {
        let plain = run(4, 42);
        let mut rec = Recorder::active();
        let traced = run_recorded(4, 42, &mut rec);
        assert_eq!(plain.best_objective, traced.best_objective);
        assert_eq!(plain.winner, traced.winner);
        assert_eq!(plain.best, traced.best);
        let workers: Vec<_> = rec.events().iter().filter(|e| e.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        assert_eq!(rec.open_spans(), 0);
        // Worker summaries appear in worker order (sequential emission).
        for (i, e) in workers.iter().enumerate() {
            let (_, v) = &e.fields[0];
            assert_eq!(
                format!("{v:?}"),
                format!("{:?}", rex_obs::Value::U64(i as u64))
            );
        }
    }

    #[test]
    fn recorded_portfolio_trace_is_byte_identical_across_runs() {
        let mut ra = Recorder::active();
        let _ = run_recorded(4, 7, &mut ra);
        let mut rb = Recorder::active();
        let _ = run_recorded(4, 7, &mut rb);
        assert_eq!(ra.to_jsonl(), rb.to_jsonl());
    }
}
