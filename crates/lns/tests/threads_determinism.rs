//! Portfolio determinism is independent of the thread count.
//!
//! The vendored rayon shim exposes `set_threads_override` exactly so this
//! suite can prove the contract DESIGN.md §8 states: the winner, the best
//! objective, and every per-worker summary are a pure function of
//! `(problem, seed, config)` — the number of OS threads that happened to
//! execute the workers is unobservable. Everything runs in ONE `#[test]`
//! function because the override is process-global.

use rex_lns::toy::{
    CloneOracle, GreedyInsertInPlace, OracleOp, PartitionProblem, RandomRemoveInPlace,
    WorstBinRemoveInPlace,
};
use rex_lns::{
    portfolio_search, DestroyInPlace, Engine, LnsConfig, LnsProblemInPlace, PortfolioOutcome,
    RepairInPlace, SimulatedAnnealing,
};
use rex_obs::Recorder;

const WORKERS: usize = 6;
const SEED: u64 = 2024;

type Destroys<P> = Vec<Box<dyn DestroyInPlace<P>>>;
type Repairs<P> = Vec<Box<dyn RepairInPlace<P>>>;

/// The toy portfolio over `problem` with the operators `ops` builds: the
/// production [`PartitionProblem`] (undo-log reverts), or the clone-based
/// differential oracle [`CloneOracle`] around it — identical operator
/// protocol and RNG consumption, reverts by cloning a saved state instead
/// of replaying the undo log.
fn run<P: LnsProblemInPlace<Solution = Vec<usize>> + Sync>(
    problem: &P,
    initial: &[usize],
    ops: impl Fn() -> (Destroys<P>, Repairs<P>),
    rec: &mut Recorder,
) -> PortfolioOutcome<Vec<usize>> {
    portfolio_search(
        SEED,
        WORKERS,
        || {
            let (destroys, repairs) = ops();
            Engine::new(
                problem,
                initial.to_vec(),
                destroys,
                repairs,
                Box::new(SimulatedAnnealing::for_normalized_loads(1_200)),
                LnsConfig {
                    max_iters: 1_200,
                    ..Default::default()
                },
            )
        },
        rec,
    )
}

fn in_place_ops() -> (Destroys<PartitionProblem>, Repairs<PartitionProblem>) {
    (
        vec![
            Box::new(RandomRemoveInPlace),
            Box::new(WorstBinRemoveInPlace),
        ],
        vec![Box::new(GreedyInsertInPlace)],
    )
}

type Oracle<'p> = CloneOracle<'p, PartitionProblem>;

fn oracle_ops<'p>() -> (Destroys<Oracle<'p>>, Repairs<Oracle<'p>>) {
    (
        vec![
            Box::new(OracleOp(RandomRemoveInPlace)),
            Box::new(OracleOp(WorstBinRemoveInPlace)),
        ],
        vec![Box::new(OracleOp(GreedyInsertInPlace))],
    )
}

fn assert_same(a: &PortfolioOutcome<Vec<usize>>, b: &PortfolioOutcome<Vec<usize>>, label: &str) {
    assert_eq!(a.winner, b.winner, "{label}: winner differs");
    assert_eq!(
        a.best_objective, b.best_objective,
        "{label}: objective differs"
    );
    assert_eq!(a.best, b.best, "{label}: best solution differs");
    assert_eq!(
        a.worker_results.len(),
        b.worker_results.len(),
        "{label}: worker count differs"
    );
    for (x, y) in a.worker_results.iter().zip(&b.worker_results) {
        assert_eq!(x.worker, y.worker, "{label}: worker order differs");
        assert_eq!(
            x.objective, y.objective,
            "{label}: worker {} objective differs",
            x.worker
        );
        assert_eq!(
            x.iterations, y.iterations,
            "{label}: worker {} iterations differs",
            x.worker
        );
    }
}

/// One test function on purpose: `set_threads_override` is process-global,
/// and cargo runs `#[test]` functions on concurrent threads by default.
#[test]
fn portfolio_results_and_traces_are_thread_count_independent() {
    let problem = PartitionProblem::random(40, 4, 77);
    let oracle = CloneOracle(&problem);
    let initial = problem.all_in_first_bin();

    // Reference runs with the default thread count.
    rayon::set_threads_override(None);
    let mut rec_ref = Recorder::active();
    let in_place_ref = run(&problem, &initial, in_place_ops, &mut rec_ref);
    let jsonl_ref = rec_ref.to_jsonl();
    assert!(!jsonl_ref.is_empty());

    // The oracle problem follows the exact same trajectory as the undo-log
    // problem — the spine's differential contract, here at portfolio scope.
    let mut rec_oracle = Recorder::active();
    let oracle_ref = run(&oracle, &initial, oracle_ops, &mut rec_oracle);
    assert_same(&in_place_ref, &oracle_ref, "oracle portfolio");
    assert_eq!(
        rec_oracle.to_jsonl(),
        jsonl_ref,
        "oracle trace not byte-identical"
    );

    for threads in [1usize, 2, 3, 8] {
        rayon::set_threads_override(Some(threads));

        let mut rec = Recorder::active();
        let p = run(&problem, &initial, in_place_ops, &mut rec);
        assert_same(
            &in_place_ref,
            &p,
            &format!("in-place portfolio @{threads}t"),
        );
        assert_eq!(
            rec.to_jsonl(),
            jsonl_ref,
            "trace not byte-identical with {threads} threads"
        );

        let mut rec_o = Recorder::active();
        let o = run(&oracle, &initial, oracle_ops, &mut rec_o);
        assert_same(&in_place_ref, &o, &format!("oracle portfolio @{threads}t"));
        assert_eq!(
            rec_o.to_jsonl(),
            jsonl_ref,
            "oracle trace not byte-identical with {threads} threads"
        );
    }

    rayon::set_threads_override(None);
}
