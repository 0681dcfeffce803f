//! The domain interface implemented by problems solved with this framework:
//! the one trait pair ([`LnsProblemInPlace`] plus its operators) the
//! [`crate::engine::Engine`] drives directly.

use rand::rngs::StdRng;

/// A problem solvable by (A)LNS.
///
/// `Solution` is a complete, evaluable state. The framework never inspects
/// it — it only shuttles solutions between the operators and compares
/// objective values (lower is better).
pub trait LnsProblem {
    /// A complete candidate solution.
    type Solution: Clone + Send;

    /// Objective value of a solution; **lower is better**. Must be finite
    /// for feasible solutions.
    fn objective(&self, sol: &Self::Solution) -> f64;

    /// Whether the solution satisfies all hard constraints. The engine only
    /// ever accepts feasible candidates and only ever starts from a feasible
    /// incumbent.
    fn is_feasible(&self, sol: &Self::Solution) -> bool;

    /// Extra gate applied only when a candidate would become the new global
    /// best. A candidate failing this check may still be accepted as the
    /// incumbent (diversification), but is never recorded as the best.
    ///
    /// Use for expensive "deliverability" checks that would be wasteful on
    /// every candidate — SRA uses it to require that the best placement
    /// admit a transient-feasible migration schedule.
    fn accept_best(&self, _sol: &Self::Solution) -> bool {
        true
    }
}

/// The **in-place edit protocol**: the production hot path.
///
/// Cloning the incumbent every iteration (and fully re-evaluating the
/// clone) dominates iteration cost on large solutions. Problems
/// implementing this trait instead let the engine mutate **one** working
/// [`State`]:
///
/// * [`DestroyInPlace`] / [`RepairInPlace`] edit the state directly, with
///   every edit recorded in an undo log inside the state;
/// * on rejection the engine calls [`revert`], which must restore the
///   state **bit-exactly** to the last committed point;
/// * on acceptance the engine calls [`commit`], making the edits the new
///   baseline;
/// * the state carries incremental objective caches (e.g. per-machine
///   loads, a sum-of-squares accumulator) so [`state_objective`] touches
///   only what the burst edited; implementations bound float drift with a
///   periodic full resynchronization in `commit`;
/// * a full solution is cloned out ([`snapshot`]) only when a new global
///   best is recorded — the one remaining allocation on the accept path.
///
/// Semantics must match the whole-solution view: `state_objective` /
/// `state_feasible` / `state_accept_best` agree with
/// [`LnsProblem::objective`] / [`LnsProblem::is_feasible`] /
/// [`LnsProblem::accept_best`] evaluated on the state's solution (the
/// objective up to the documented drift bound).
///
/// [`State`]: LnsProblemInPlace::State
/// [`revert`]: LnsProblemInPlace::revert
/// [`commit`]: LnsProblemInPlace::commit
/// [`state_objective`]: LnsProblemInPlace::state_objective
/// [`snapshot`]: LnsProblemInPlace::snapshot
pub trait LnsProblemInPlace: LnsProblem {
    /// Mutable search state: the working solution plus whatever caches make
    /// delta evaluation cheap, plus the undo log.
    type State: Send;

    /// Wraps a solution into a state (one full evaluation; called once per
    /// engine run, not per iteration).
    fn make_state(&self, sol: Self::Solution) -> Self::State;

    /// Objective of the state's current solution, from the caches. Takes
    /// `&mut` so implementations may resolve lazily-maintained caches
    /// (e.g. rescan a stale peak) on demand.
    fn state_objective(&self, state: &mut Self::State) -> f64;

    /// Hard-constraint check of the current (edited, uncommitted) state.
    fn state_feasible(&self, state: &Self::State) -> bool;

    /// The [`LnsProblem::accept_best`] gate, evaluated on the state.
    fn state_accept_best(&self, _state: &Self::State) -> bool {
        true
    }

    /// Clones the current solution out of the state (new bests only).
    fn snapshot(&self, state: &Self::State) -> Self::Solution;

    /// Reverts every edit since the last commit, bit-exactly.
    fn revert(&self, state: &mut Self::State);

    /// Accepts the pending edits as the new baseline. Implementations may
    /// resynchronize incremental caches from scratch here periodically to
    /// bound floating-point drift.
    fn commit(&self, state: &mut Self::State);

    // ---- observability hooks ----------------------------------------------
    // Provided methods (default 0) so the engine can narrate the in-place
    // protocol — destroy size, undo-log depth, cache resynchronizations —
    // without macros and without forcing every problem to care. Only
    // consulted when a recording `rex_obs::Recorder` is attached.

    /// Number of elements currently detached and awaiting repair (the
    /// destroy size of the in-flight burst). Purely informational.
    fn state_destroyed(&self, _state: &Self::State) -> usize {
        0
    }

    /// Number of edits in the undo log since the last commit (the depth a
    /// revert would unwind). Purely informational.
    fn state_undo_depth(&self, _state: &Self::State) -> usize {
        0
    }

    /// Number of full cache resynchronizations performed so far (drift
    /// control; see [`commit`]). Purely informational.
    ///
    /// [`commit`]: LnsProblemInPlace::commit
    fn state_resyncs(&self, _state: &Self::State) -> u64 {
        0
    }
}

/// A destroy operator for the in-place protocol: removes part of the
/// state's solution, recording its edits in the state's undo log.
pub trait DestroyInPlace<P: LnsProblemInPlace>: Send + Sync {
    /// Stable operator name (used in stats, ablation tables, and logs).
    fn name(&self) -> &str;

    /// Destroys part of the state in place. `intensity` in `(0, 1]` scales
    /// how much of the solution should be removed; operators are free to
    /// interpret it (e.g. as a fraction of elements).
    fn destroy(&self, problem: &P, state: &mut P::State, intensity: f64, rng: &mut StdRng);
}

/// A repair operator for the in-place protocol: completes the state's
/// solution, recording its edits in the state's undo log.
pub trait RepairInPlace<P: LnsProblemInPlace>: Send + Sync {
    /// Stable operator name.
    fn name(&self) -> &str;

    /// Repairs the state in place. Returns `false` when no feasible
    /// completion was found — the engine then reverts the iteration's
    /// edits, so the state may be left partially repaired (but with a
    /// complete undo log).
    fn repair(&self, problem: &P, state: &mut P::State, rng: &mut StdRng) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{GreedyInsertInPlace, PartitionProblem, RandomRemoveInPlace};

    // The traits are exercised end-to-end by engine tests; here we only
    // check object safety in the form the engine uses (trait objects).
    #[test]
    fn in_place_operators_are_object_safe() {
        let destroys: Vec<Box<dyn DestroyInPlace<PartitionProblem>>> =
            vec![Box::new(RandomRemoveInPlace)];
        let repairs: Vec<Box<dyn RepairInPlace<PartitionProblem>>> =
            vec![Box::new(GreedyInsertInPlace)];
        assert_eq!(destroys[0].name(), "random-remove");
        assert_eq!(repairs[0].name(), "greedy-insert");
    }
}
