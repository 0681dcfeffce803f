//! The SRA driver: search → plan → verify → report.

use crate::decomposed::{decomposed_search, LEAF_MACHINES};
use crate::destroy::default_destroys_in_place;
use crate::problem::SraProblem;
use crate::repair::default_repairs_in_place;
use rex_cluster::metrics::MigrationStats;
use rex_cluster::{
    verify_schedule, Assignment, BalanceReport, ClusterError, Instance, MachineId, MigrationPlan,
    Objective, PlannerConfig,
};
use rex_lns::{
    Acceptance, Engine, EngineStats, HillClimb, LnsConfig, LnsProblemInPlace, RecordToRecord,
    SimulatedAnnealing, TrajectoryPoint,
};
use rex_obs::Recorder;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Which acceptance criterion SRA uses (ablation knob).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AcceptanceKind {
    /// Simulated annealing tuned for normalized-load objectives (default).
    SimulatedAnnealing,
    /// Strict hill climbing.
    HillClimb,
    /// Record-to-record travel with the given relative deviation.
    RecordToRecord(f64),
}

impl AcceptanceKind {
    /// Instantiates the criterion for a run of `iters` iterations.
    pub fn build(&self, iters: u64) -> Box<dyn Acceptance> {
        match *self {
            AcceptanceKind::SimulatedAnnealing => {
                Box::new(SimulatedAnnealing::for_normalized_loads(iters as usize))
            }
            AcceptanceKind::HillClimb => Box::new(HillClimb),
            AcceptanceKind::RecordToRecord(dev) => Box::new(RecordToRecord::new(dev)),
        }
    }
}

/// Destroy intensity range (fraction of shards) every SRA search draws from.
const DESTROY_INTENSITY: (f64, f64) = (0.02, 0.25);

/// Maximum shards one destroy detaches per iteration.
const DESTROY_CAP: usize = 64;

/// SRA configuration.
#[derive(Clone, Copy, Debug)]
pub struct SraConfig {
    /// LNS iteration budget (a decomposed solve gives it to every leaf,
    /// spread over the rounds).
    pub iters: u64,
    /// Objective to minimize.
    pub objective: Objective,
    /// Acceptance criterion.
    pub acceptance: AcceptanceKind,
    /// Cooperative decomposition width: `> 1` replaces the search with the
    /// partition → parallel sub-solve → merge → boundary-repair rounds of
    /// [`crate::decomposed`] (clamped to half the machine count). `0` or
    /// `1` keeps the serial search. A neighborhood too big for one leaf is
    /// itself re-partitioned into `partitions` children — the fleet sizes
    /// that tree, no setting does. Either way the best is the start or
    /// passed the plannability gate.
    pub partitions: usize,
    /// Deterministic seed.
    pub seed: u64,
    /// Migration-planner configuration.
    pub planner: PlannerConfig,
    /// Record the best-objective trajectory (serial runs only).
    pub log_trajectory: bool,
}

impl Default for SraConfig {
    fn default() -> Self {
        Self {
            iters: 10_000,
            objective: Objective::default(),
            acceptance: AcceptanceKind::SimulatedAnnealing,
            partitions: 0,
            seed: 42,
            planner: PlannerConfig::default(),
            log_trajectory: false,
        }
    }
}

impl SraConfig {
    /// The one `SraConfig → LnsConfig` lowering: an engine budget of
    /// `max_iters` at [`DESTROY_INTENSITY`].
    pub(crate) fn lns(&self, max_iters: u64) -> LnsConfig {
        LnsConfig {
            max_iters,
            intensity: DESTROY_INTENSITY,
            log_trajectory: self.log_trajectory,
        }
    }

    /// A ready engine over `problem` from `initial` with the default
    /// operator portfolio and a budget (and acceptance schedule) of `iters`.
    pub(crate) fn engine<'p, 'a>(
        &self,
        problem: &'p SraProblem<'a>,
        initial: Assignment,
        iters: u64,
    ) -> Engine<'p, SraProblem<'a>> {
        Engine::new(
            problem,
            initial,
            default_destroys_in_place(DESTROY_CAP),
            default_repairs_in_place(),
            self.acceptance.build(iters),
            self.lns(iters),
        )
    }
}

/// Everything SRA produces for one instance.
#[derive(Clone, Debug)]
pub struct SraResult {
    /// The final (target) assignment.
    pub assignment: Assignment,
    /// The verified, transient-feasible migration schedule reaching it.
    pub plan: MigrationPlan,
    /// Objective value of the final assignment.
    pub objective_value: f64,
    /// Balance report of the initial placement.
    pub initial_report: BalanceReport,
    /// Balance report of the final placement.
    pub final_report: BalanceReport,
    /// Migration cost summary.
    pub migration: MigrationStats,
    /// The `k_return` vacant machines handed back (borrowed exchange
    /// machines first, then originally-loaded machines that were emptied).
    pub returned_machines: Vec<MachineId>,
    /// LNS iterations executed (a decomposed solve sums its leaves and
    /// repair passes).
    pub iterations: u64,
    /// Wall-clock time of the whole solve.
    pub elapsed: Duration,
    /// Engine statistics (serial runs only).
    pub stats: Option<EngineStats>,
    /// Convergence trajectory (serial runs with `log_trajectory` only).
    pub trajectory: Vec<TrajectoryPoint>,
    /// Always `false`: every search's best passed the plannability gate, so
    /// no solve re-searches after its final plan. Kept only because the
    /// benchmark harness (`benchmark/src`) reads it; it goes with ROADMAP
    /// item 8.2.
    pub fallback_used: bool,
}

impl SraResult {
    /// Relative peak-load improvement over the initial placement.
    pub fn peak_improvement(&self) -> f64 {
        self.final_report
            .peak_improvement_over(&self.initial_report)
    }
}

/// Runs SRA on `inst`.
///
/// 1. validates the instance,
/// 2. searches for the best capacity- and vacancy-feasible target placement
///    (serial ALNS, or the decomposed search when `cfg.partitions > 1`),
/// 3. plans a transient-feasible migration schedule to it — every search
///    path's best is its start or a placement the plannability gate
///    accepted, so this replays the gate's plan,
/// 4. independently verifies the schedule with the step simulator,
/// 5. selects the `k_return` machines to hand back.
pub fn solve(inst: &Instance, cfg: &SraConfig) -> Result<SraResult, ClusterError> {
    solve_with_drain(inst, cfg, &[])
}

/// Runs SRA with a set of **draining machines**: a planned decommission.
/// Drained machines must end completely vacant (on top of the `k_return`
/// quota — they do not count as the returned compensation) and never
/// receive shards; they keep serving while their shards migrate away, so
/// the schedule may still copy from them.
///
/// # Errors
///
/// Besides [`solve`]'s errors, fails with
/// [`ClusterError::UnknownDrainMachine`] when a drained id is past the
/// fleet, with [`ClusterError::DuplicateDrainMachine`] when an id is listed
/// twice, with [`ClusterError::NoDrainHost`] when the greedy evacuation
/// finds no machine for one of the drained machines' shards, with
/// [`ClusterError::VacancyShortfall`]-style planning errors when the
/// evacuation leaves too few vacancies, and with
/// [`ClusterError::PlanningDeadlock`] when the evacuated start does not plan
/// and no best of the search passes the plannability gate (decomposed
/// solves included).
pub fn solve_with_drain(
    inst: &Instance,
    cfg: &SraConfig,
    drain: &[MachineId],
) -> Result<SraResult, ClusterError> {
    solve_traced(inst, cfg, drain, &mut Recorder::noop())
}

/// [`solve_with_drain`] narrating the solve into `rec` when it is
/// recording: a `("sra", "solve")` span wrapping phase spans for the
/// search, the migration planning and the independent verification. The
/// LNS layer's own events nest inside the search phase. With a
/// [`Recorder::Noop`] this is exactly [`solve_with_drain`].
pub fn solve_traced(
    inst: &Instance,
    cfg: &SraConfig,
    drain: &[MachineId],
    rec: &mut Recorder,
) -> Result<SraResult, ClusterError> {
    solve_with_floor(inst, cfg, drain, LEAF_MACHINES, rec)
}

/// [`solve_traced`] with the decomposed search's tree floor passed in
/// (see [`crate::decomposed`]): tests pass small floors to solve through
/// deep trees on small fleets.
pub(crate) fn solve_with_floor(
    inst: &Instance,
    cfg: &SraConfig,
    drain: &[MachineId],
    leaf_machines: usize,
    rec: &mut Recorder,
) -> Result<SraResult, ClusterError> {
    inst.validate()?;
    if let Some(&machine) = drain.iter().find(|m| m.idx() >= inst.n_machines()) {
        return Err(ClusterError::UnknownDrainMachine {
            machine,
            machines: inst.n_machines(),
        });
    }
    if let Some(i) = (1..drain.len()).find(|&i| drain[..i].contains(&drain[i])) {
        return Err(ClusterError::DuplicateDrainMachine { machine: drain[i] });
    }
    let start = Instant::now();
    rec.span_open(
        "sra",
        "solve",
        &[
            ("machines", inst.n_machines().into()),
            ("shards", inst.n_shards().into()),
            ("k_return", inst.k_return.into()),
            ("drain", drain.len().into()),
            ("seed", cfg.seed.into()),
            ("iters", cfg.iters.into()),
            // Constant since the search has one worker; the field stays in
            // the span with `fallback_used`.
            ("workers", 1usize.into()),
        ],
    );
    let solved = search_plan_verify(inst, cfg, drain, leaf_machines, start, rec);
    match &solved {
        Ok(res) => {
            rec.gauge("sra.objective", res.objective_value);
            rec.span_close(
                "sra",
                "solve",
                &[
                    ("objective", res.objective_value.into()),
                    ("iterations", res.iterations.into()),
                    // Always false; the field stays in the span with `workers`.
                    ("fallback_used", false.into()),
                    ("plan_batches", res.plan.batches.len().into()),
                    ("returned", res.returned_machines.len().into()),
                ],
            );
        }
        Err(e) => rec.span_close("sra", "solve", &[("error", e.to_string().into())]),
    }
    solved
}

/// The phases inside [`solve_with_floor`]'s `("sra", "solve")` span.
fn search_plan_verify(
    inst: &Instance,
    cfg: &SraConfig,
    drain: &[MachineId],
    leaf_machines: usize,
    start: Instant,
    rec: &mut Recorder,
) -> Result<SraResult, ClusterError> {
    // Every search path keeps only bests that passed the plannability gate
    // (`accept_best`), so its result is its start or schedulable by
    // construction.
    let mut problem = SraProblem::new(inst, cfg.objective).with_drain(drain);
    problem.planner = cfg.planner;
    rec.span_open("sra", "search", &[]);
    let searched = search(&problem, cfg, cfg.seed, leaf_machines, rec);
    rec.span_close("sra", "search", &[("ok", searched.is_ok().into())]);
    let (best, iterations, stats, trajectory) = searched?;

    // The final plan reuses the gate's plan when the gate accepted `best`
    // (`SraProblem::plan`): the same bytes, planned once.
    rec.span_open("sra", "plan", &[]);
    let planned = problem.plan(best.placement(), &cfg.planner);
    rec.span_close(
        "sra",
        "plan",
        &[(
            "outcome",
            match &planned {
                Ok(_) => "ok",
                Err(ClusterError::PlanningDeadlock { .. }) => "deadlock",
                Err(_) => "error",
            }
            .into(),
        )],
    );
    // A best the gate accepted plans here too (the gate only tightens the
    // planner's give-up budget); a start that does not plan is the error.
    let plan = planned?;

    // Independent verification: the planner and the simulator implement the
    // transient semantics separately; disagreement is a bug worth failing
    // loudly on.
    rec.span_open("sra", "verify", &[("batches", plan.batches.len().into())]);
    let verified = verify_schedule(inst, &inst.initial, best.placement(), &plan);
    rec.span_close("sra", "verify", &[("ok", verified.is_ok().into())]);
    verified?;
    best.check_target(inst)?;

    let initial_asg = Assignment::from_initial(inst);
    let objective_value = cfg.objective.value(inst, &best, &inst.initial);
    let migration = MigrationStats::compute(inst, &plan);
    // Draining machines leave the fleet; they are not the loan repayment,
    // so exclude them before choosing the k_return machines to hand back:
    // borrowed exchange machines first (returning the loan in kind), then
    // emptied original machines, in id order for determinism.
    let mut returned_machines = best.vacant_machines();
    returned_machines.retain(|m| !drain.contains(m));
    returned_machines.sort_by_key(|m| (!inst.machines[m.idx()].exchange, m.idx()));
    returned_machines.truncate(inst.k_return);

    Ok(SraResult {
        objective_value,
        initial_report: BalanceReport::compute(inst, &initial_asg),
        final_report: BalanceReport::compute(inst, &best),
        migration,
        returned_machines,
        iterations,
        elapsed: start.elapsed(),
        stats,
        trajectory,
        fallback_used: false,
        plan,
        assignment: best,
    })
}

/// Runs the search phase: the cooperative decomposed solver when
/// `cfg.partitions > 1`, otherwise the serial engine. Both drive the
/// **one** unified `Engine` spine over the allocation-free in-place edit
/// protocol (`SraProblem` over `SraState`). Public so the benches can time
/// the search without the planning/verification phases.
pub fn run_search(
    problem: &SraProblem<'_>,
    cfg: &SraConfig,
    seed: u64,
    rec: &mut Recorder,
) -> Result<(Assignment, u64, Option<EngineStats>, Vec<TrajectoryPoint>), ClusterError> {
    search(problem, cfg, seed, LEAF_MACHINES, rec)
}

/// [`run_search`] with the decomposed search's tree floor passed in.
fn search(
    problem: &SraProblem<'_>,
    cfg: &SraConfig,
    seed: u64,
    leaf_machines: usize,
    rec: &mut Recorder,
) -> Result<(Assignment, u64, Option<EngineStats>, Vec<TrajectoryPoint>), ClusterError> {
    if cfg.partitions > 1 {
        return decomposed_search(problem, cfg, seed, leaf_machines, rec);
    }
    let out = cfg
        .engine(problem, starting_solution(problem)?, cfg.iters)
        .run_recorded(seed, rec);
    Ok((out.best, out.iterations, Some(out.stats), out.trajectory))
}

/// The search's starting solution: the instance's initial placement —
/// except when machines are draining, in which case their shards are
/// greedily evacuated first (largest first, best admissible host), because
/// the engine requires a feasible start and feasibility now demands the
/// drained machines be vacant.
pub(crate) fn starting_solution(problem: &SraProblem<'_>) -> Result<Assignment, ClusterError> {
    let inst = problem.inst;
    let mut asg = Assignment::from_initial(inst);
    let mut to_evacuate: Vec<_> = (0..inst.n_machines())
        .map(MachineId::from)
        .filter(|&m| problem.is_drained(m))
        .flat_map(|m| asg.shards_on(m).to_vec())
        .collect();
    if to_evacuate.is_empty() {
        // Nothing to move — but draining an already-vacant machine can
        // still be infeasible (e.g. draining the only machine that could
        // satisfy the return quota), so validate before handing the
        // engine its start.
        return if problem.is_feasible(&asg) {
            Ok(asg)
        } else {
            Err(ClusterError::VacancyShortfall {
                required: problem.reserved_vacancies(),
                found: asg.vacant_count(),
            })
        };
    }
    to_evacuate.sort_by(|&a, &b| {
        inst.demand(b)
            .norm()
            .partial_cmp(&inst.demand(a).norm())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &s in &to_evacuate {
        asg.detach_shard(inst, s);
    }
    let mut budget = problem.vacancy_budget(&asg);
    for s in to_evacuate {
        let mut best: Option<(MachineId, f64)> = None;
        for mi in 0..inst.n_machines() {
            let m = MachineId::from(mi);
            if asg.is_vacant(m) && budget == 0 {
                continue;
            }
            if let Some(score) = problem.insertion_score(&asg, s, m) {
                if best.is_none_or(|(_, b)| score < b) {
                    best = Some((m, score));
                }
            }
        }
        let Some((m, _)) = best else {
            return Err(ClusterError::NoDrainHost { shard: s });
        };
        if asg.is_vacant(m) {
            budget -= 1;
        }
        asg.attach_shard(inst, s, m);
    }
    if !problem.is_feasible(&asg) {
        return Err(ClusterError::VacancyShortfall {
            required: problem.reserved_vacancies(),
            found: asg.vacant_count(),
        });
    }
    Ok(asg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::InstanceBuilder;

    /// Imbalanced: one hot machine, one cool machine, one exchange machine.
    fn imbalanced() -> Instance {
        let mut b = InstanceBuilder::new(1).alpha(0.1).label("imbalanced");
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        for _ in 0..8 {
            b.shard(&[1.0], 1.0, m0);
        }
        b.shard(&[1.0], 1.0, m1);
        b.build().unwrap()
    }

    fn quick_cfg() -> SraConfig {
        SraConfig {
            iters: 2_000,
            objective: Objective::pure(),
            ..Default::default()
        }
    }

    #[test]
    fn solve_improves_balance() {
        let inst = imbalanced();
        let res = solve(&inst, &quick_cfg()).unwrap();
        assert!(res.initial_report.peak >= 0.8);
        assert!(
            res.final_report.peak < res.initial_report.peak,
            "final {} vs initial {}",
            res.final_report.peak,
            res.initial_report.peak
        );
        assert!(res.peak_improvement() > 0.0);
        assert!(!res.fallback_used);
    }

    #[test]
    fn solve_result_is_internally_consistent() {
        let inst = imbalanced();
        let res = solve(&inst, &quick_cfg()).unwrap();
        // The plan reaches the assignment and is transient-feasible (solve
        // verifies, but re-verify here against tampering regressions).
        verify_schedule(&inst, &inst.initial, res.assignment.placement(), &res.plan).unwrap();
        res.assignment.check_target(&inst).unwrap();
        assert_eq!(res.returned_machines.len(), inst.k_return);
        for &m in &res.returned_machines {
            assert!(res.assignment.is_vacant(m));
        }
    }

    #[test]
    fn solve_is_deterministic() {
        let inst = imbalanced();
        let a = solve(&inst, &quick_cfg()).unwrap();
        let b = solve(&inst, &quick_cfg()).unwrap();
        assert_eq!(a.objective_value, b.objective_value);
        assert_eq!(a.assignment.placement(), b.assignment.placement());
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn never_worse_than_initial() {
        for seed in 0..4 {
            let inst = imbalanced();
            let cfg = SraConfig {
                seed,
                iters: 300,
                ..quick_cfg()
            };
            let res = solve(&inst, &cfg).unwrap();
            assert!(res.final_report.peak <= res.initial_report.peak + 1e-9);
        }
    }

    #[test]
    fn trajectory_recorded_when_requested() {
        let inst = imbalanced();
        let cfg = SraConfig {
            log_trajectory: true,
            ..quick_cfg()
        };
        let res = solve(&inst, &cfg).unwrap();
        assert!(!res.trajectory.is_empty());
        assert!(res.stats.is_some());
    }

    #[test]
    fn returned_machines_prefer_exchange() {
        let inst = imbalanced();
        let res = solve(&inst, &quick_cfg()).unwrap();
        // If the exchange machine ended vacant it must be the one returned.
        let x = MachineId(2);
        if res.assignment.is_vacant(x) {
            assert_eq!(res.returned_machines, vec![x]);
        } else {
            // Exchange machine kept in service: an original machine is
            // returned instead — the membership exchange in action.
            assert!(!inst.machines[res.returned_machines[0].idx()].exchange);
        }
    }

    #[test]
    fn zero_exchange_instance_still_solves() {
        let mut b = InstanceBuilder::new(1).label("no-exchange");
        let m0 = b.machine(&[10.0]);
        let _m1 = b.machine(&[10.0]);
        for _ in 0..6 {
            b.shard(&[1.0], 1.0, m0);
        }
        let inst = b.build().unwrap();
        assert_eq!(inst.k_return, 0);
        let res = solve(&inst, &quick_cfg()).unwrap();
        assert!(res.final_report.peak <= 0.4 + 1e-9);
        assert!(res.returned_machines.is_empty());
    }

    #[test]
    fn acceptance_kinds_all_run() {
        let inst = imbalanced();
        for acc in [
            AcceptanceKind::SimulatedAnnealing,
            AcceptanceKind::HillClimb,
            AcceptanceKind::RecordToRecord(0.02),
        ] {
            let cfg = SraConfig {
                acceptance: acc,
                iters: 500,
                ..quick_cfg()
            };
            let res = solve(&inst, &cfg).unwrap();
            assert!(
                res.final_report.peak <= res.initial_report.peak + 1e-9,
                "{acc:?}"
            );
        }
    }

    #[test]
    fn drain_empties_the_drained_machine() {
        let inst = imbalanced(); // m0 hot, m1 cool, m2 exchange
        let res = solve_with_drain(&inst, &quick_cfg(), &[MachineId(0)]).unwrap();
        assert!(
            res.assignment.is_vacant(MachineId(0)),
            "drained machine must end vacant"
        );
        res.assignment.check_target(&inst).unwrap();
        // The returned machine is never the drained one.
        assert!(!res.returned_machines.contains(&MachineId(0)));
        assert_eq!(res.returned_machines.len(), inst.k_return);
        // The schedule verifies (checked inside solve; re-check anyway).
        verify_schedule(&inst, &inst.initial, res.assignment.placement(), &res.plan).unwrap();
    }

    #[test]
    fn drain_fails_when_no_room_exists() {
        // One loaded machine, nothing else: draining it is impossible.
        let mut b = InstanceBuilder::new(1).label("no-room");
        let m0 = b.machine(&[10.0]);
        b.shard(&[8.0], 1.0, m0);
        let inst = b.build().unwrap();
        assert!(solve_with_drain(&inst, &quick_cfg(), &[m0]).is_err());
    }

    #[test]
    fn a_drained_shard_with_no_host_is_named() {
        // m1 has no room for m0's shard, and no vacancy is short: the
        // evacuation fails on the shard, not on the return quota.
        let mut b = InstanceBuilder::new(1).label("no-host");
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let s = b.shard(&[8.0], 1.0, m0);
        b.shard(&[5.0], 1.0, m1);
        let inst = b.build().unwrap();
        let err = solve_with_drain(&inst, &quick_cfg(), &[m0]).unwrap_err();
        assert_eq!(err, ClusterError::NoDrainHost { shard: s });
    }

    #[test]
    fn a_drained_machine_past_the_fleet_is_an_error() {
        let inst = imbalanced();
        let (machine, machines) = (MachineId(99), inst.n_machines());
        let mut rec = Recorder::active();
        let res = solve_traced(&inst, &quick_cfg(), &[MachineId(0), machine], &mut rec);
        let want = ClusterError::UnknownDrainMachine { machine, machines };
        assert_eq!(res.unwrap_err(), want);
        // Rejected before the solve span opens.
        assert!(rec.events().is_empty());
    }

    #[test]
    fn a_machine_drained_twice_is_an_error() {
        let inst = imbalanced();
        let mut rec = Recorder::active();
        let drain = [MachineId(0), MachineId(1), MachineId(0)];
        let res = solve_traced(&inst, &quick_cfg(), &drain, &mut rec);
        let want = ClusterError::DuplicateDrainMachine {
            machine: MachineId(0),
        };
        assert_eq!(res.unwrap_err(), want);
        // Rejected before the solve span opens.
        assert!(rec.events().is_empty());
    }

    #[test]
    fn drain_is_deterministic() {
        let inst = imbalanced();
        let a = solve_with_drain(&inst, &quick_cfg(), &[MachineId(0)]).unwrap();
        let b = solve_with_drain(&inst, &quick_cfg(), &[MachineId(0)]).unwrap();
        assert_eq!(a.assignment.placement(), b.assignment.placement());
    }

    #[test]
    fn invalid_instance_is_rejected() {
        let mut inst = imbalanced();
        inst.k_return = 99;
        assert!(solve(&inst, &quick_cfg()).is_err());
    }

    #[test]
    fn traced_solve_matches_plain_solve() {
        let inst = imbalanced();
        let plain = solve(&inst, &quick_cfg()).unwrap();
        let mut rec = Recorder::active();
        let traced = solve_traced(&inst, &quick_cfg(), &[], &mut rec).unwrap();
        assert_eq!(plain.objective_value, traced.objective_value);
        assert_eq!(plain.assignment.placement(), traced.assignment.placement());
        assert_eq!(plain.iterations, traced.iterations);

        // Phase spans are balanced and nested under the solve span.
        assert_eq!(rec.open_spans(), 0);
        for phase in ["solve", "search", "plan", "verify"] {
            assert!(
                rec.events()
                    .iter()
                    .any(|e| e.layer == "sra" && e.name == phase),
                "missing sra phase span: {phase}"
            );
        }
        // The LNS layer narrated its iterations inside the search phase.
        assert_eq!(rec.counter("lns.iterations"), traced.iterations);
    }

    #[test]
    fn traced_solve_is_byte_identical_across_runs() {
        let inst = imbalanced();
        let mut ra = Recorder::active();
        let _ = solve_traced(&inst, &quick_cfg(), &[], &mut ra).unwrap();
        let mut rb = Recorder::active();
        let _ = solve_traced(&inst, &quick_cfg(), &[], &mut rb).unwrap();
        assert_eq!(ra.to_jsonl(), rb.to_jsonl());
        assert_eq!(ra.summary(), rb.summary());
        assert!(!ra.to_jsonl().is_empty());
    }
}
