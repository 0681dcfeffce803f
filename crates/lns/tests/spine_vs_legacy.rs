//! Differential suite: the unified `Engine` spine over the toy problem vs
//! the same engine over the clone-based oracle (`toy::CloneOracle`), a
//! wrapper problem that preserves the legacy clone-engine edit mechanics —
//! revert by restoring a saved clone, commit by re-cloning — behind the
//! same `LnsProblemInPlace` protocol.
//!
//! The contract proven here is the refactor's safety net: for fixed seeds
//! the production undo-log revert and the oracle produce **bit-identical**
//! incumbents, objectives, per-operator stats, trajectories, and rex-obs
//! trace JSONL, on every solver path (monolithic serial, parallel
//! portfolio, cooperative rounds), traced and untraced, for
//! `REX_THREADS ∈ {1, 8}`.
//!
//! One `#[test]` function on purpose: the rayon-shim thread override is
//! process-global.

use rex_lns::toy::{
    CloneOracle, GreedyInsertInPlace, OracleOp, PartitionProblem, RandomRemoveInPlace,
    WorstBinRemoveInPlace,
};
use rex_lns::{
    cooperative_round, portfolio_search, round_seed, Acceptance, Engine, HillClimb, LnsConfig,
    LnsProblemInPlace, RoundJob, SearchOutcome, SimulatedAnnealing,
};
use rex_obs::Recorder;

const ITERS: u64 = 900;
const SEED: u64 = 4242;

type Oracle<'p> = CloneOracle<'p, PartitionProblem>;
type Outcomes = Vec<SearchOutcome<Vec<usize>>>;

fn acceptance() -> Box<dyn Acceptance> {
    Box::new(SimulatedAnnealing::for_normalized_loads(ITERS as usize))
}

fn engine_cfg() -> LnsConfig {
    LnsConfig {
        max_iters: ITERS,
        log_trajectory: true,
        ..Default::default()
    }
}

/// The production engine: undo-log reverts.
fn in_place(
    problem: &PartitionProblem,
    start: Vec<usize>,
    acceptance: Box<dyn Acceptance>,
) -> Engine<'_, PartitionProblem> {
    Engine::new(
        problem,
        start,
        vec![
            Box::new(RandomRemoveInPlace),
            Box::new(WorstBinRemoveInPlace),
        ],
        vec![Box::new(GreedyInsertInPlace)],
        acceptance,
        engine_cfg(),
    )
}

/// The same engine over the oracle wrapper: clone-restore reverts.
fn oracle<'p>(
    problem: &'p Oracle<'p>,
    start: Vec<usize>,
    acceptance: Box<dyn Acceptance>,
) -> Engine<'p, Oracle<'p>> {
    Engine::new(
        problem,
        start,
        vec![
            Box::new(OracleOp(RandomRemoveInPlace)),
            Box::new(OracleOp(WorstBinRemoveInPlace)),
        ],
        vec![Box::new(OracleOp(GreedyInsertInPlace))],
        acceptance,
        engine_cfg(),
    )
}

/// Bit-exact comparison of two search outcomes; floats compared by bits,
/// structured stats/trajectory through their `Debug` rendering (both sides
/// are the same types, so any divergence shows up verbatim).
fn assert_outcomes_identical(
    a: &SearchOutcome<Vec<usize>>,
    b: &SearchOutcome<Vec<usize>>,
    label: &str,
) {
    assert_eq!(a.best, b.best, "{label}: incumbent differs");
    assert_eq!(
        a.best_objective.to_bits(),
        b.best_objective.to_bits(),
        "{label}: objective bits differ ({} vs {})",
        a.best_objective,
        b.best_objective
    );
    assert_eq!(
        a.iterations, b.iterations,
        "{label}: iteration count differs"
    );
    assert_eq!(
        format!("{:?}", a.stats),
        format!("{:?}", b.stats),
        "{label}: stats differ"
    );
    // `elapsed_secs` is wall-clock and legitimately differs between runs;
    // the search-relevant trajectory is (iteration, objective).
    let shape = |t: &[rex_lns::TrajectoryPoint]| -> Vec<(u64, u64)> {
        t.iter()
            .map(|p| (p.iteration, p.objective.to_bits()))
            .collect()
    };
    assert_eq!(
        shape(&a.trajectory),
        shape(&b.trajectory),
        "{label}: trajectory differs"
    );
}

fn run_monolithic(
    problem: &PartitionProblem,
    initial: &[usize],
) -> (
    SearchOutcome<Vec<usize>>,
    SearchOutcome<Vec<usize>>,
    String,
    String,
) {
    let wrapped = CloneOracle(problem);
    // Untraced, both problems.
    let plain_ip = in_place(problem, initial.to_vec(), acceptance()).run(SEED);
    let plain_or = oracle(&wrapped, initial.to_vec(), acceptance()).run(SEED);

    // Traced, both problems. Tracing must not perturb the search.
    let mut rec_ip = Recorder::active();
    let traced_ip =
        in_place(problem, initial.to_vec(), acceptance()).run_recorded(SEED, &mut rec_ip);
    let mut rec_or = Recorder::active();
    let traced_or =
        oracle(&wrapped, initial.to_vec(), acceptance()).run_recorded(SEED, &mut rec_or);

    assert_outcomes_identical(
        &plain_ip,
        &traced_ip,
        "monolithic in-place traced vs untraced",
    );
    assert_outcomes_identical(
        &plain_or,
        &traced_or,
        "monolithic oracle traced vs untraced",
    );
    assert_outcomes_identical(&plain_ip, &plain_or, "monolithic in-place vs oracle");

    (plain_ip, plain_or, rec_ip.to_jsonl(), rec_or.to_jsonl())
}

fn run_portfolio(
    problem: &PartitionProblem,
    initial: &[usize],
) -> (Vec<usize>, f64, String, String) {
    let wrapped = CloneOracle(problem);
    let mut rec_ip = Recorder::active();
    let out_ip = portfolio_search(
        SEED,
        5,
        || in_place(problem, initial.to_vec(), acceptance()),
        &mut rec_ip,
    );
    let mut rec_or = Recorder::active();
    let out_or = portfolio_search(
        SEED,
        5,
        || oracle(&wrapped, initial.to_vec(), acceptance()),
        &mut rec_or,
    );
    assert_eq!(out_ip.winner, out_or.winner, "portfolio winner differs");
    assert_eq!(out_ip.best, out_or.best, "portfolio incumbent differs");
    assert_eq!(
        out_ip.best_objective.to_bits(),
        out_or.best_objective.to_bits(),
        "portfolio objective differs"
    );
    assert_eq!(
        format!("{:?}", out_ip.worker_results),
        format!("{:?}", out_or.worker_results),
        "portfolio worker summaries differ"
    );
    (
        out_ip.best,
        out_ip.best_objective,
        rec_ip.to_jsonl(),
        rec_or.to_jsonl(),
    )
}

/// One cooperative round of HillClimb engines, one per start.
fn run_cooperative<'p, P>(
    initials: &[Vec<usize>],
    engine: impl Fn(Vec<usize>, Box<dyn Acceptance>) -> Engine<'p, P>,
) -> Outcomes
where
    P: LnsProblemInPlace<Solution = Vec<usize>> + Sync + 'p,
{
    let jobs = initials
        .iter()
        .enumerate()
        .map(|(k, start)| RoundJob {
            engine: engine(start.clone(), Box::new(HillClimb)),
            seed: round_seed(SEED, 0, k),
        })
        .collect();
    cooperative_round(jobs)
}

#[test]
fn spine_matches_clone_oracle_on_every_path() {
    let problem = PartitionProblem::random(48, 4, 11);
    let initial = problem.all_in_first_bin();
    // Cooperative rounds run several sub-searches from distinct starts, as
    // the decomposed solver does with its partition sub-problems.
    let coop_starts: Vec<Vec<usize>> = (0..3)
        .map(|k| {
            let mut s = initial.clone();
            // Distinct but feasible starts: rotate a few items into bin k+1.
            for item in s.iter_mut().skip(k * 5).take(5) {
                *item = (k + 1) % 4;
            }
            s
        })
        .collect();

    // Reference at the default thread count.
    rayon::set_threads_override(None);
    let (mono_ref, _, mono_jsonl_ref, mono_jsonl_oracle) = run_monolithic(&problem, &initial);
    assert_eq!(
        mono_jsonl_ref, mono_jsonl_oracle,
        "monolithic trace JSONL differs between problems"
    );
    assert!(!mono_jsonl_ref.is_empty());

    let (pf_best_ref, pf_obj_ref, pf_jsonl_ref, pf_jsonl_oracle) =
        run_portfolio(&problem, &initial);
    assert_eq!(
        pf_jsonl_ref, pf_jsonl_oracle,
        "portfolio trace JSONL differs between problems"
    );

    let wrapped = CloneOracle(&problem);
    let coop_ip_ref = run_cooperative(&coop_starts, |s, acc| in_place(&problem, s, acc));
    let coop_or_ref = run_cooperative(&coop_starts, |s, acc| oracle(&wrapped, s, acc));
    assert_eq!(coop_ip_ref.len(), coop_starts.len());
    for (k, (a, b)) in coop_ip_ref.iter().zip(&coop_or_ref).enumerate() {
        assert_outcomes_identical(a, b, &format!("cooperative job {k}"));
    }

    // Replay every path under explicit 1- and 8-thread overrides: results
    // and traces must be byte-identical to the reference.
    for threads in [1usize, 8] {
        rayon::set_threads_override(Some(threads));

        let (mono, mono_or, mono_jsonl, mono_jsonl_or) = run_monolithic(&problem, &initial);
        assert_outcomes_identical(&mono_ref, &mono, &format!("monolithic @{threads}t"));
        assert_outcomes_identical(
            &mono_ref,
            &mono_or,
            &format!("monolithic oracle @{threads}t"),
        );
        assert_eq!(mono_jsonl, mono_jsonl_ref, "monolithic trace @{threads}t");
        assert_eq!(mono_jsonl_or, mono_jsonl_ref, "oracle trace @{threads}t");

        let (pf_best, pf_obj, pf_jsonl, pf_jsonl_or) = run_portfolio(&problem, &initial);
        assert_eq!(pf_best, pf_best_ref, "portfolio incumbent @{threads}t");
        assert_eq!(
            pf_obj.to_bits(),
            pf_obj_ref.to_bits(),
            "portfolio objective @{threads}t"
        );
        assert_eq!(pf_jsonl, pf_jsonl_ref, "portfolio trace @{threads}t");
        assert_eq!(
            pf_jsonl_or, pf_jsonl_ref,
            "portfolio oracle trace @{threads}t"
        );

        let coop_ip = run_cooperative(&coop_starts, |s, acc| in_place(&problem, s, acc));
        let coop_or = run_cooperative(&coop_starts, |s, acc| oracle(&wrapped, s, acc));
        for (k, ((a, b), r)) in coop_ip.iter().zip(&coop_or).zip(&coop_ip_ref).enumerate() {
            assert_outcomes_identical(r, a, &format!("cooperative job {k} @{threads}t"));
            assert_outcomes_identical(r, b, &format!("cooperative oracle job {k} @{threads}t"));
        }
    }

    rayon::set_threads_override(None);
}
