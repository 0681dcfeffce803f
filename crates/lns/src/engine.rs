//! The ALNS iteration engine — **the one spine**.
//!
//! Every solve path in the workspace (serial SRA, the seed portfolio,
//! cooperative decomposed rounds, the runtime controller, benches, the
//! CLI) drives this single [`Engine`], which drives the problem's
//! [`LnsProblemInPlace`] protocol directly. There is exactly one iteration
//! loop: acceptance policies, adaptive operator weights, the iteration
//! budget, and `rex-obs` trace events live here and nowhere else. A run is
//! a pure function of `(problem, start, operators, acceptance, config,
//! seed)` — there is no wall-clock budget.

use crate::accept::Acceptance;
use crate::problem::{DestroyInPlace, LnsProblemInPlace, RepairInPlace};
use crate::weights::{IterationOutcome, OperatorWeights};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rex_obs::Recorder;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Human-readable outcome label for trace events. `cause` refines
/// [`IterationOutcome::Rejected`], which conflates acceptance rejections
/// with repair failures and infeasible candidates.
fn outcome_label(outcome: IterationOutcome, cause: &'static str) -> &'static str {
    match outcome {
        IterationOutcome::NewBest => "new_best",
        IterationOutcome::Improved => "improved",
        IterationOutcome::Accepted => "accepted",
        IterationOutcome::Rejected => cause,
    }
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct LnsConfig {
    /// Number of destroy/repair iterations.
    pub max_iters: u64,
    /// Destroy intensity is drawn uniformly from this `(min, max)` range
    /// each iteration (interpreted by the destroy operators, typically as
    /// the fraction of elements to remove).
    pub intensity: (f64, f64),
    /// Record the best-objective trajectory (for convergence plots).
    pub log_trajectory: bool,
}

impl Default for LnsConfig {
    fn default() -> Self {
        Self {
            max_iters: 5_000,
            intensity: (0.05, 0.35),
            log_trajectory: false,
        }
    }
}

/// One point of the best-objective trajectory.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TrajectoryPoint {
    /// Iteration at which the best improved.
    pub iteration: u64,
    /// Wall-clock seconds since the run started.
    pub elapsed_secs: f64,
    /// New best objective value.
    pub objective: f64,
}

/// Per-operator usage statistics.
#[derive(Clone, Debug, Serialize)]
pub struct OperatorStat {
    /// Operator name.
    pub name: String,
    /// Times the operator was drawn.
    pub uses: u64,
    /// Global bests the operator produced.
    pub bests: u64,
    /// Final adaptive weight.
    pub weight: f64,
}

/// Aggregate statistics of a finished search.
#[derive(Clone, Debug, Default, Serialize)]
pub struct EngineStats {
    /// Candidates accepted as the new incumbent.
    pub accepted: u64,
    /// Candidates rejected by the acceptance criterion.
    pub rejected: u64,
    /// Iterations where the repair operator returned no solution.
    pub repair_failures: u64,
    /// Candidates rejected because they violated hard constraints.
    pub infeasible: u64,
    /// Candidates that strictly improved the incumbent.
    pub improved: u64,
    /// Times a new global best was found.
    pub new_bests: u64,
    /// Times a candidate beat the best objective but was refused by the
    /// problem's `state_accept_best` gate (e.g. SRA's plannability check).
    pub best_gate_rejections: u64,
    /// Destroy-operator statistics (same order as in the model).
    pub destroy_ops: Vec<OperatorStat>,
    /// Repair-operator statistics.
    pub repair_ops: Vec<OperatorStat>,
}

/// Result of a search run.
#[derive(Clone, Debug)]
pub struct SearchOutcome<S> {
    /// Best feasible solution found (never worse than the initial one).
    pub best: S,
    /// Its objective value.
    pub best_objective: f64,
    /// Iterations executed.
    pub iterations: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Usage statistics.
    pub stats: EngineStats,
    /// Best-objective trajectory (empty unless `log_trajectory`).
    pub trajectory: Vec<TrajectoryPoint>,
}

/// The unified ALNS engine: owns the working [`LnsProblemInPlace::State`]
/// of one problem, the operator portfolio, and an acceptance criterion,
/// and runs the one destroy/repair/accept loop over them:
///
/// ```text
/// destroy(i) → repair(j) → state_feasible? → state_objective → accept?
///     → commit [snapshot on a new best]   or   → revert
/// ```
pub struct Engine<'p, P: LnsProblemInPlace> {
    problem: &'p P,
    state: P::State,
    destroys: Vec<Box<dyn DestroyInPlace<P>>>,
    repairs: Vec<Box<dyn RepairInPlace<P>>>,
    acceptance: Box<dyn Acceptance>,
    config: LnsConfig,
}

impl<'p, P: LnsProblemInPlace> Engine<'p, P> {
    /// Wraps `initial` into a working state over `problem` and builds the
    /// engine.
    ///
    /// # Panics
    /// If `initial` is infeasible (the search contract requires a feasible
    /// starting incumbent), either operator list is empty, or the intensity
    /// range is not within `(0, 1]` with `min <= max`.
    pub fn new(
        problem: &'p P,
        initial: P::Solution,
        destroys: Vec<Box<dyn DestroyInPlace<P>>>,
        repairs: Vec<Box<dyn RepairInPlace<P>>>,
        acceptance: Box<dyn Acceptance>,
        config: LnsConfig,
    ) -> Self {
        assert!(
            problem.is_feasible(&initial),
            "LNS must start from a feasible solution"
        );
        assert!(!destroys.is_empty(), "need at least one destroy operator");
        assert!(!repairs.is_empty(), "need at least one repair operator");
        let (lo, hi) = config.intensity;
        assert!(
            lo > 0.0 && hi <= 1.0 && lo <= hi,
            "bad intensity range ({lo}, {hi})"
        );
        Self {
            problem,
            state: problem.make_state(initial),
            destroys,
            repairs,
            acceptance,
            config,
        }
    }

    /// The configuration this engine runs under.
    pub fn config(&self) -> &LnsConfig {
        &self.config
    }

    /// Runs the search from the starting solution with the given
    /// deterministic seed.
    pub fn run(self, seed: u64) -> SearchOutcome<P::Solution> {
        self.run_recorded(seed, &mut Recorder::noop())
    }

    /// Like [`run`], narrating the search into `rec` when it is recording:
    /// a `("lns", "run")` span around the whole search and one
    /// `("lns", "iter")` point event per iteration (operator pair,
    /// intensity, destroy size, undo-log depth, objective delta, outcome),
    /// plus a `("lns", "resync")` event whenever a commit performs a full
    /// cache resynchronization. With a [`Recorder::Noop`] the only
    /// per-iteration cost over [`run`] is one enum-discriminant check —
    /// the problem's observability hooks are not even called.
    ///
    /// Recording never perturbs the search: the RNG, acceptance, and weight
    /// updates are untouched, so the returned [`SearchOutcome`] is
    /// bit-identical with and without tracing.
    ///
    /// [`run`]: Engine::run
    pub fn run_recorded(self, seed: u64, rec: &mut Recorder) -> SearchOutcome<P::Solution> {
        let Self {
            problem,
            mut state,
            destroys,
            repairs,
            mut acceptance,
            config,
        } = self;
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dweights = OperatorWeights::new(destroys.len());
        let mut rweights = OperatorWeights::new(repairs.len());
        let mut stats = EngineStats::default();
        let mut trajectory = Vec::new();

        let mut best = problem.snapshot(&state);
        let mut f_current = problem.state_objective(&mut state);
        let mut f_best = f_current;
        if config.log_trajectory {
            trajectory.push(TrajectoryPoint {
                iteration: 0,
                elapsed_secs: 0.0,
                objective: f_best,
            });
        }
        rec.set_tick(0);
        rec.span_open(
            "lns",
            "run",
            &[
                ("seed", seed.into()),
                ("max_iters", config.max_iters.into()),
                ("destroys", destroys.len().into()),
                ("repairs", repairs.len().into()),
                ("initial_objective", f_best.into()),
            ],
        );
        let mut last_resyncs = problem.state_resyncs(&state);

        let (ilo, ihi) = config.intensity;
        for iters in 1..=config.max_iters {
            let di = dweights.pick(&mut rng);
            let ri = rweights.pick(&mut rng);
            let intensity = if ilo < ihi {
                rng.random_range(ilo..ihi)
            } else {
                ilo
            };

            // Protects the destroyed/undo-depth samples and the operator-name Strings.
            let recording = rec.is_active();
            let mut cause = "rejected";
            let mut delta = f64::NAN; // serialized as null when not evaluated
            destroys[di].destroy(problem, &mut state, intensity, &mut rng);
            let destroyed = if recording {
                problem.state_destroyed(&state)
            } else {
                0
            };
            let repaired = repairs[ri].repair(problem, &mut state, &mut rng);
            let undo_depth = if recording {
                problem.state_undo_depth(&state)
            } else {
                0
            };
            let outcome = if !repaired {
                problem.revert(&mut state);
                stats.repair_failures += 1;
                cause = "repair_failed";
                IterationOutcome::Rejected
            } else if !problem.state_feasible(&state) {
                problem.revert(&mut state);
                stats.infeasible += 1;
                cause = "infeasible";
                IterationOutcome::Rejected
            } else {
                let f_cand = problem.state_objective(&mut state);
                delta = f_cand - f_current;
                if acceptance.accept(f_cand, f_current, f_best, &mut rng) {
                    stats.accepted += 1;
                    let gate_ok = f_cand < f_best && {
                        let ok = problem.state_accept_best(&state);
                        if !ok {
                            stats.best_gate_rejections += 1;
                        }
                        ok
                    };
                    let outcome = if gate_ok {
                        stats.new_bests += 1;
                        best = problem.snapshot(&state);
                        f_best = f_cand;
                        if config.log_trajectory {
                            trajectory.push(TrajectoryPoint {
                                iteration: iters,
                                elapsed_secs: start.elapsed().as_secs_f64(),
                                objective: f_best,
                            });
                        }
                        IterationOutcome::NewBest
                    } else if f_cand < f_current {
                        stats.improved += 1;
                        IterationOutcome::Improved
                    } else {
                        IterationOutcome::Accepted
                    };
                    problem.commit(&mut state);
                    f_current = f_cand;
                    outcome
                } else {
                    problem.revert(&mut state);
                    stats.rejected += 1;
                    IterationOutcome::Rejected
                }
            };
            if recording {
                rec.set_tick(iters);
                rec.event(
                    "lns",
                    "iter",
                    &[
                        ("destroy", destroys[di].name().to_string().into()),
                        ("repair", repairs[ri].name().to_string().into()),
                        ("intensity", intensity.into()),
                        ("destroyed", destroyed.into()),
                        ("undo_depth", undo_depth.into()),
                        ("delta", delta.into()),
                        ("outcome", outcome_label(outcome, cause).into()),
                    ],
                );
                record_outcome_metrics(rec, outcome, cause, delta);
                let resyncs = problem.state_resyncs(&state);
                if resyncs != last_resyncs {
                    rec.event("lns", "resync", &[("total", resyncs.into())]);
                    rec.add("lns.resyncs", resyncs - last_resyncs);
                    last_resyncs = resyncs;
                }
            }
            acceptance.step();
            dweights.record(di, outcome);
            rweights.record(ri, outcome);
        }

        let iters = config.max_iters;
        rec.set_tick(iters);
        rec.span_close(
            "lns",
            "run",
            &[
                ("iterations", iters.into()),
                ("best_objective", f_best.into()),
                ("accepted", stats.accepted.into()),
                ("new_bests", stats.new_bests.into()),
                ("repair_failures", stats.repair_failures.into()),
                ("infeasible", stats.infeasible.into()),
            ],
        );

        stats.destroy_ops = (0..destroys.len())
            .map(|i| OperatorStat {
                name: destroys[i].name().to_string(),
                uses: dweights.uses(i),
                bests: dweights.bests(i),
                weight: dweights.weight(i),
            })
            .collect();
        stats.repair_ops = (0..repairs.len())
            .map(|i| OperatorStat {
                name: repairs[i].name().to_string(),
                uses: rweights.uses(i),
                bests: rweights.bests(i),
                weight: rweights.weight(i),
            })
            .collect();

        SearchOutcome {
            best,
            best_objective: f_best,
            iterations: iters,
            elapsed: start.elapsed(),
            stats,
            trajectory,
        }
    }
}

/// Bumps the per-outcome counters and the delta histogram. Only called when
/// the recorder is active.
fn record_outcome_metrics(
    rec: &mut Recorder,
    outcome: IterationOutcome,
    cause: &'static str,
    delta: f64,
) {
    rec.add("lns.iterations", 1);
    let counter = match outcome {
        IterationOutcome::NewBest => "lns.new_bests",
        IterationOutcome::Improved => "lns.improved",
        IterationOutcome::Accepted => "lns.accepted",
        IterationOutcome::Rejected => match cause {
            "repair_failed" => "lns.repair_failures",
            "infeasible" => "lns.infeasible",
            _ => "lns.rejected",
        },
    };
    rec.add(counter, 1);
    if delta.is_finite() {
        rec.observe("lns.delta_obj", delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accept::{HillClimb, SimulatedAnnealing};
    use crate::toy::{
        GreedyInsertInPlace, PartitionProblem, PartitionState, RandomRemoveInPlace,
        WorstBinRemoveInPlace,
    };

    fn toy_destroys() -> Vec<Box<dyn DestroyInPlace<PartitionProblem>>> {
        vec![
            Box::new(RandomRemoveInPlace),
            Box::new(WorstBinRemoveInPlace),
        ]
    }

    fn toy_repairs() -> Vec<Box<dyn RepairInPlace<PartitionProblem>>> {
        vec![Box::new(GreedyInsertInPlace)]
    }

    fn engine_on(
        problem: &PartitionProblem,
        initial: Vec<usize>,
        iters: u64,
    ) -> Engine<'_, PartitionProblem> {
        Engine::new(
            problem,
            initial,
            toy_destroys(),
            toy_repairs(),
            Box::new(SimulatedAnnealing::for_normalized_loads(iters as usize)),
            LnsConfig {
                max_iters: iters,
                log_trajectory: true,
                ..Default::default()
            },
        )
    }

    #[test]
    fn improves_a_bad_partition() {
        let problem = PartitionProblem::random(40, 4, 123);
        let initial = problem.all_in_first_bin();
        let f0 = problem.objective(&initial);
        let out = engine_on(&problem, initial, 3_000).run(7);
        assert!(
            out.best_objective < f0 * 0.5,
            "f0={f0} best={}",
            out.best_objective
        );
        assert!(problem.is_feasible(&out.best));
        // The returned best objective must match a fresh full evaluation of
        // the returned solution (delta caches cannot leak into the result).
        assert!((problem.objective(&out.best) - out.best_objective).abs() < 1e-9);
    }

    #[test]
    fn result_never_worse_than_initial() {
        for seed in 0..5 {
            let problem = PartitionProblem::random(20, 3, seed);
            let initial = problem.all_in_first_bin();
            let f0 = problem.objective(&initial);
            let out = engine_on(&problem, initial, 200).run(seed);
            assert!(out.best_objective <= f0 + 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let problem = PartitionProblem::random(30, 3, 5);
        let initial = problem.all_in_first_bin();
        let a = engine_on(&problem, initial.clone(), 500).run(99);
        let b = engine_on(&problem, initial, 500).run(99);
        assert_eq!(a.best_objective, b.best_objective);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.stats.accepted, b.stats.accepted);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn trajectory_is_monotone_decreasing() {
        let problem = PartitionProblem::random(40, 4, 11);
        let out = engine_on(&problem, problem.all_in_first_bin(), 2_000).run(3);
        assert!(!out.trajectory.is_empty());
        for w in out.trajectory.windows(2) {
            assert!(w[1].objective < w[0].objective);
            assert!(w[1].iteration >= w[0].iteration);
        }
    }

    #[test]
    fn stats_account_for_all_iterations() {
        let problem = PartitionProblem::random(25, 3, 2);
        let out = engine_on(&problem, problem.all_in_first_bin(), 1_000).run(4);
        let s = &out.stats;
        assert_eq!(
            s.accepted + s.rejected + s.repair_failures + s.infeasible,
            out.iterations
        );
        let uses: u64 = s.destroy_ops.iter().map(|o| o.uses).sum();
        assert_eq!(uses, out.iterations);
        assert_eq!(s.destroy_ops.len(), 2);
        assert_eq!(s.repair_ops.len(), 1);
        assert_eq!(s.repair_ops[0].name, "greedy-insert");
    }

    #[test]
    fn accept_best_gate_filters_bests() {
        /// Wraps the toy problem, refusing any best with an odd bin for
        /// item 0 — the engine must then keep the best among even-bin
        /// solutions only.
        struct Gated(PartitionProblem);
        impl LnsProblemInPlace for Gated {
            type Solution = Vec<usize>;
            type State = PartitionState;
            fn objective(&self, s: &Vec<usize>) -> f64 {
                self.0.objective(s)
            }
            fn is_feasible(&self, s: &Vec<usize>) -> bool {
                self.0.is_feasible(s)
            }
            fn make_state(&self, sol: Vec<usize>) -> PartitionState {
                self.0.make_state(sol)
            }
            fn state_objective(&self, state: &mut PartitionState) -> f64 {
                self.0.state_objective(state)
            }
            fn state_feasible(&self, state: &PartitionState) -> bool {
                self.0.state_feasible(state)
            }
            fn state_accept_best(&self, state: &PartitionState) -> bool {
                state.solution()[0].is_multiple_of(2)
            }
            fn snapshot(&self, state: &PartitionState) -> Vec<usize> {
                self.0.snapshot(state)
            }
            fn revert(&self, state: &mut PartitionState) {
                self.0.revert(state)
            }
            fn commit(&self, state: &mut PartitionState) {
                self.0.commit(state)
            }
        }
        struct D2;
        impl DestroyInPlace<Gated> for D2 {
            fn name(&self) -> &str {
                "d"
            }
            fn destroy(&self, p: &Gated, state: &mut PartitionState, i: f64, rng: &mut StdRng) {
                RandomRemoveInPlace.destroy(&p.0, state, i, rng)
            }
        }
        struct R2;
        impl RepairInPlace<Gated> for R2 {
            fn name(&self) -> &str {
                "r"
            }
            fn repair(&self, p: &Gated, state: &mut PartitionState, rng: &mut StdRng) -> bool {
                GreedyInsertInPlace.repair(&p.0, state, rng)
            }
        }
        let gated = Gated(PartitionProblem::random(30, 3, 4));
        let engine = Engine::new(
            &gated,
            gated.0.all_in_first_bin(),
            vec![Box::new(D2) as Box<dyn DestroyInPlace<Gated>>],
            vec![Box::new(R2) as Box<dyn RepairInPlace<Gated>>],
            Box::new(SimulatedAnnealing::for_normalized_loads(1_000)),
            LnsConfig {
                max_iters: 1_000,
                ..Default::default()
            },
        );
        let out = engine.run(6);
        assert_eq!(out.best[0] % 2, 0, "gated best must satisfy accept_best");
        assert!(out.stats.best_gate_rejections > 0, "gate must have fired");
    }

    #[test]
    #[should_panic]
    fn rejects_empty_operator_lists() {
        let problem = PartitionProblem::random(5, 2, 1);
        let _ = Engine::new(
            &problem,
            problem.all_in_first_bin(),
            Vec::new(),
            toy_repairs(),
            Box::new(HillClimb),
            LnsConfig::default(),
        );
    }

    #[test]
    #[should_panic]
    fn rejects_infeasible_start() {
        let problem = PartitionProblem::random(5, 2, 1);
        let bad = problem.infeasible_solution();
        let _ = Engine::new(
            &problem,
            bad,
            toy_destroys(),
            toy_repairs(),
            Box::new(HillClimb),
            LnsConfig::default(),
        );
    }

    fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn serial_run_matches_the_frozen_clone_restore_run() {
        // Recorded while a clone-restore reference problem (revert = copy
        // back a saved whole-state clone) still ran beside the undo-log
        // revert and matched it bit for bit: incumbent checksum, objective
        // bits, iterations, checksums of the `Debug` stats and of the
        // (iteration, objective bits) trajectory — traced and untraced —
        // and the length + FNV-1a of the trace JSONL.
        let problem = PartitionProblem::random(48, 4, 11);
        let initial = problem.all_in_first_bin();
        let plain = engine_on(&problem, initial.clone(), 900).run(4242);
        let mut rec = Recorder::active();
        let traced = engine_on(&problem, initial, 900).run_recorded(4242, &mut rec);
        for out in [&plain, &traced] {
            let got = (
                fnv1a(out.best.iter().map(|&b| b as u64)),
                out.best_objective.to_bits(),
                out.iterations,
                fnv1a(format!("{:?}", out.stats).bytes().map(u64::from)),
                fnv1a(
                    out.trajectory
                        .iter()
                        .flat_map(|p| [p.iteration, p.objective.to_bits()]),
                ),
            );
            let want = (
                0x8bff_cd2d_2591_0916,
                0x3ff0_0180_a733_0f0b,
                900,
                0xa305_21d4_f064_37e5,
                0xd4e6_0cfa_835b_5f6f,
            );
            assert_eq!(got, want);
        }
        let jsonl = rec.to_jsonl();
        let got = (jsonl.len(), fnv1a(jsonl.bytes().map(u64::from)));
        assert_eq!(got, (219_642, 0x9164_903f_3dcc_278c));
    }

    #[test]
    fn recording_does_not_perturb_the_search() {
        let problem = PartitionProblem::random(30, 3, 5);
        let initial = problem.all_in_first_bin();
        let plain = engine_on(&problem, initial.clone(), 500).run(99);
        let mut rec = Recorder::active();
        let traced = engine_on(&problem, initial, 500).run_recorded(99, &mut rec);
        assert_eq!(plain.best_objective, traced.best_objective);
        assert_eq!(plain.iterations, traced.iterations);
        assert_eq!(plain.stats.accepted, traced.stats.accepted);
        assert_eq!(plain.best, traced.best);
    }

    #[test]
    fn recorded_run_narrates_every_iteration() {
        let problem = PartitionProblem::random(30, 3, 5);
        let initial = problem.all_in_first_bin();
        let mut rec = Recorder::active();
        let out = engine_on(&problem, initial, 300).run_recorded(42, &mut rec);
        assert_eq!(rec.counter("lns.iterations"), out.iterations);
        assert_eq!(rec.counter("lns.new_bests"), out.stats.new_bests);
        assert_eq!(rec.open_spans(), 0, "run span must be closed");
        let iter_events = rec
            .events()
            .iter()
            .filter(|e| e.name == "iter" && e.layer == "lns")
            .count();
        assert_eq!(iter_events as u64, out.iterations);
        // One run-span pair wraps everything.
        assert!(matches!(rec.events()[0].kind, rex_obs::EventKind::SpanOpen));
        assert_eq!(rec.events()[0].name, "run");
        assert_eq!(rec.events().last().unwrap().name, "run");
    }

    #[test]
    fn noop_recorder_stays_silent() {
        let problem = PartitionProblem::random(20, 3, 1);
        let initial = problem.all_in_first_bin();
        let mut rec = Recorder::noop();
        let _ = engine_on(&problem, initial, 100).run_recorded(7, &mut rec);
        assert!(rec.events().is_empty());
        assert_eq!(rec.to_jsonl(), "");
    }

    #[test]
    fn recorded_traces_are_byte_identical_across_runs() {
        let problem = PartitionProblem::random(30, 3, 5);
        let initial = problem.all_in_first_bin();
        let mut ra = Recorder::active();
        let _ = engine_on(&problem, initial.clone(), 400).run_recorded(13, &mut ra);
        let mut rb = Recorder::active();
        let _ = engine_on(&problem, initial, 400).run_recorded(13, &mut rb);
        assert_eq!(ra.to_jsonl(), rb.to_jsonl());
        assert_eq!(ra.summary(), rb.summary());
    }
}
