//! Delta solves: re-optimize only a named set of *changed* shards.
//!
//! The hot-shard control plane (rex-runtime) mutates a handful of shards at
//! a time — a split produces two half-shards, a merge candidate needs
//! co-location — and wants the solver to find new homes for exactly those
//! shards without re-litigating the whole fleet. A full SRA solve would do
//! the job, but it is orders of magnitude more work than the change
//! warrants and may move unrelated shards.
//!
//! The trick is structural, not heuristic: LNS repair only ever re-inserts
//! shards the destroy phase detached. [`TargetedRemoval`] is a destroy
//! operator that always detaches exactly the changed set, so driving the
//! **same `Engine` spine** with it as the only destroy operator yields a
//! search whose every candidate differs from the incumbent only on the
//! changed shards — a genuine delta solve with the full machinery
//! (acceptance, incremental objective, vacancy quota, drains) intact.

use crate::problem::SraProblem;
use crate::repair::default_repairs_in_place;
use crate::sra::SraConfig;
use crate::state::SraState;
use rand::rngs::StdRng;
use rex_cluster::{
    plan_migration, verify_schedule, Assignment, ClusterError, Instance, MigrationPlan, ShardId,
};
use rex_lns::{DestroyInPlace, Engine};
use rex_obs::Recorder;

/// A destroy operator that detaches exactly one fixed set of shards.
///
/// Used alone, it restricts the reachable neighborhood to placements that
/// differ from the start only on `shards` — the delta-solve guarantee.
#[derive(Clone, Debug)]
pub struct TargetedRemoval {
    /// The shards to re-optimize, detached on every iteration.
    pub shards: Vec<ShardId>,
}

impl DestroyInPlace<SraProblem<'_>> for TargetedRemoval {
    fn name(&self) -> &str {
        "targeted-removal"
    }

    fn destroy(
        &self,
        p: &SraProblem<'_>,
        state: &mut SraState,
        _intensity: f64,
        _rng: &mut StdRng,
    ) {
        for &s in &self.shards {
            state.detach(p, s);
        }
    }
}

/// What a delta solve produces.
#[derive(Clone, Debug)]
pub struct DeltaOutcome {
    /// The final (target) assignment; differs from `inst.initial` only on
    /// the changed shards.
    pub assignment: Assignment,
    /// A verified, transient-feasible migration schedule reaching it
    /// (empty when the best placement keeps every changed shard put).
    pub plan: MigrationPlan,
    /// Objective value of the final assignment.
    pub objective_value: f64,
    /// LNS iterations executed.
    pub iterations: u64,
}

/// Re-optimizes the placement of `changed` shards on `inst`, leaving every
/// other shard exactly where `inst.initial` has it.
///
/// Runs the serial [`Engine`] spine with [`TargetedRemoval`] as the only
/// destroy operator and the default repair portfolio, then plans and
/// independently verifies the migration schedule. (Machine drains are
/// deliberately not supported here: evacuating a drained machine would
/// move shards outside `changed`, breaking the delta guarantee — use
/// [`crate::solve_with_drain`] for decommissions.)
///
/// # Errors
///
/// Fails on an invalid instance, an out-of-range or empty `changed` set,
/// or when no transient-feasible schedule to the found placement exists.
pub fn solve_delta(
    inst: &Instance,
    cfg: &SraConfig,
    changed: &[ShardId],
    rec: &mut Recorder,
) -> Result<DeltaOutcome, ClusterError> {
    inst.validate()?;
    if changed.is_empty() || changed.iter().any(|s| s.idx() >= inst.n_shards()) {
        return Err(ClusterError::BadPlacementLength {
            expected: inst.n_shards(),
            found: changed.iter().map(|s| s.idx()).max().unwrap_or(0) + 1,
        });
    }
    rec.span_open(
        "sra",
        "delta",
        &[
            ("changed", changed.len().into()),
            ("seed", cfg.seed.into()),
            ("iters", cfg.iters.into()),
        ],
    );
    let problem = SraProblem::new(inst, cfg.objective);
    let initial = Assignment::from_initial(inst);
    let destroys: Vec<Box<dyn DestroyInPlace<SraProblem<'_>>>> = vec![Box::new(TargetedRemoval {
        shards: changed.to_vec(),
    })];
    let engine = Engine::new(
        &problem,
        initial,
        destroys,
        default_repairs_in_place(),
        cfg.acceptance.build(cfg.iters),
        cfg.lns(cfg.iters),
    );
    let out = engine.run_recorded(cfg.seed, rec);
    let best = out.best;
    debug_assert!(
        best.placement()
            .iter()
            .zip(&inst.initial)
            .enumerate()
            .all(|(i, (a, b))| a == b || changed.contains(&ShardId::from(i))),
        "delta solve moved a shard outside the changed set"
    );
    let plan = plan_migration(inst, &inst.initial, best.placement(), &cfg.planner)?;
    verify_schedule(inst, &inst.initial, best.placement(), &plan)?;
    best.check_target(inst)?;
    let objective_value = cfg.objective.value(inst, &best, &inst.initial);
    rec.span_close(
        "sra",
        "delta",
        &[
            ("objective", objective_value.into()),
            ("iterations", out.iterations.into()),
            ("plan_batches", plan.batches.len().into()),
        ],
    );
    Ok(DeltaOutcome {
        assignment: best,
        plan,
        objective_value,
        iterations: out.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_cluster::{InstanceBuilder, MachineId, Objective};

    /// m0 hot (8 shards), m1 cool (1 shard), m2 exchange.
    fn imbalanced() -> Instance {
        let mut b = InstanceBuilder::new(1).alpha(0.1).label("delta");
        let m0 = b.machine(&[10.0]);
        let m1 = b.machine(&[10.0]);
        let _x = b.exchange_machine(&[10.0]);
        for _ in 0..8 {
            b.shard(&[1.0], 1.0, m0);
        }
        b.shard(&[1.0], 1.0, m1);
        b.build().unwrap()
    }

    fn cfg() -> SraConfig {
        SraConfig {
            iters: 400,
            objective: Objective::pure(),
            ..Default::default()
        }
    }

    #[test]
    fn delta_moves_only_changed_shards() {
        let inst = imbalanced();
        let changed = [ShardId(0), ShardId(1), ShardId(2)];
        let out = solve_delta(&inst, &cfg(), &changed, &mut Recorder::noop()).unwrap();
        for (i, (&got, &start)) in out
            .assignment
            .placement()
            .iter()
            .zip(&inst.initial)
            .enumerate()
        {
            assert!(
                got == start || changed.contains(&ShardId::from(i)),
                "shard {i} moved from {start} to {got} outside the delta set"
            );
        }
        verify_schedule(&inst, &inst.initial, out.assignment.placement(), &out.plan).unwrap();
    }

    #[test]
    fn delta_improves_peak_when_it_can() {
        let inst = imbalanced();
        // Three of the hot machine's shards are free to move: peak 0.8
        // can drop to 0.5 without touching the other shards.
        let out = solve_delta(
            &inst,
            &cfg(),
            &[ShardId(0), ShardId(1), ShardId(2)],
            &mut Recorder::noop(),
        )
        .unwrap();
        let m0_load: f64 = out
            .assignment
            .placement()
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == MachineId(0))
            .map(|(s, _)| inst.demand(ShardId::from(s))[0])
            .sum();
        assert!(m0_load < 8.0, "delta solve should shed load off m0");
    }

    #[test]
    fn delta_is_deterministic() {
        let inst = imbalanced();
        let changed = [ShardId(0), ShardId(3)];
        let a = solve_delta(&inst, &cfg(), &changed, &mut Recorder::noop()).unwrap();
        let b = solve_delta(&inst, &cfg(), &changed, &mut Recorder::noop()).unwrap();
        assert_eq!(a.assignment.placement(), b.assignment.placement());
        assert_eq!(a.objective_value, b.objective_value);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn delta_rejects_bad_changed_sets() {
        let inst = imbalanced();
        assert!(solve_delta(&inst, &cfg(), &[], &mut Recorder::noop()).is_err());
        assert!(solve_delta(&inst, &cfg(), &[ShardId(99)], &mut Recorder::noop()).is_err());
    }

    #[test]
    fn traced_delta_matches_plain_and_balances_spans() {
        let inst = imbalanced();
        let changed = [ShardId(0), ShardId(1)];
        let plain = solve_delta(&inst, &cfg(), &changed, &mut Recorder::noop()).unwrap();
        let mut rec = Recorder::active();
        let traced = solve_delta(&inst, &cfg(), &changed, &mut rec).unwrap();
        assert_eq!(plain.assignment.placement(), traced.assignment.placement());
        assert_eq!(rec.open_spans(), 0);
        assert!(rec
            .events()
            .iter()
            .any(|e| e.layer == "sra" && e.name == "delta"));
    }
}
