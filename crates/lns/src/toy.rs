//! A miniature number-partitioning problem.
//!
//! Assign `n` weighted items to `k` bins, minimizing the maximum bin sum —
//! the 1-dimensional skeleton of the shard-reassignment problem. It exists
//! so the framework can be tested (and its documentation exemplified)
//! without dragging in the cluster domain. Its [`PartitionState`] derives
//! `Clone`, which is what lets the `spine_vs_legacy` differential suite
//! wrap it in the [`CloneOracle`] defined at the bottom of this module.

use crate::problem::{DestroyInPlace, LnsProblem, LnsProblemInPlace, RepairInPlace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Sentinel bin index marking an unassigned item inside a destroyed state.
const UNASSIGNED: usize = usize::MAX;

/// The problem: items with weights, `bins` bins, minimize the max bin sum.
#[derive(Clone, Debug)]
pub struct PartitionProblem {
    /// Item weights (positive).
    pub items: Vec<f64>,
    /// Number of bins.
    pub bins: usize,
}

impl PartitionProblem {
    /// A random instance with `n` items in `(0.5, 10.5)` and `bins` bins.
    pub fn random(n: usize, bins: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = (0..n).map(|_| rng.random_range(0.5..10.5)).collect();
        Self { items, bins }
    }

    /// The pessimal feasible start: everything in bin 0.
    pub fn all_in_first_bin(&self) -> Vec<usize> {
        vec![0; self.items.len()]
    }

    /// An intentionally infeasible solution (for negative tests).
    pub fn infeasible_solution(&self) -> Vec<usize> {
        let mut s = self.all_in_first_bin();
        if let Some(first) = s.first_mut() {
            *first = self.bins; // out of range
        }
        s
    }

    fn bin_sums(&self, sol: &[usize]) -> Vec<f64> {
        let mut sums = vec![0.0; self.bins];
        for (i, &b) in sol.iter().enumerate() {
            if b != UNASSIGNED {
                sums[b] += self.items[i];
            }
        }
        sums
    }
}

impl LnsProblem for PartitionProblem {
    type Solution = Vec<usize>;

    fn objective(&self, sol: &Self::Solution) -> f64 {
        // Normalize by the perfectly balanced value so objectives sit near 1.
        let total: f64 = self.items.iter().sum();
        let ideal = total / self.bins as f64;
        let peak = self.bin_sums(sol).into_iter().fold(0.0, f64::max);
        if ideal > 0.0 {
            peak / ideal
        } else {
            0.0
        }
    }

    fn is_feasible(&self, sol: &Self::Solution) -> bool {
        sol.len() == self.items.len() && sol.iter().all(|&b| b < self.bins)
    }
}

/// In-place search state for [`PartitionProblem`]: the solution plus
/// cached bin sums, the unassigned-item list, and an undo log. Exists to
/// exercise (and document) the in-place edit protocol without the cluster
/// domain. Derives `Clone` (unlike the real SRA state) so the
/// [`CloneOracle`] can snapshot and restore it whole.
#[derive(Clone, Debug)]
pub struct PartitionState {
    /// `sol[i]` = bin of item `i`, or [`UNASSIGNED`].
    sol: Vec<usize>,
    /// Cached bin sums, kept in lockstep with `sol`.
    sums: Vec<f64>,
    /// Items currently unassigned.
    removed: Vec<usize>,
    /// `(item, previous bin)` edits since the last commit.
    undo: Vec<(usize, usize)>,
    /// Bin sums at the last commit; restored verbatim on revert so a
    /// rejected burst leaves the sums bit-identical (f64 `+=`/`-=` does
    /// not cancel exactly).
    sums_base: Vec<f64>,
    /// Whether `sums_base` holds this burst's pre-edit sums.
    dirty: bool,
    /// Commits since the last full recompute of `sums` (drift bound).
    commits_since_resync: u32,
    /// Reusable operator scratch (shuffle order).
    scratch: Vec<usize>,
}

/// Full `sums` recompute every this many commits, bounding float drift.
const TOY_RESYNC_EVERY: u32 = 1024;

impl PartitionState {
    /// The current (possibly partially destroyed) solution.
    pub fn solution(&self) -> &[usize] {
        &self.sol
    }

    /// Cached bin sums.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Items currently unassigned.
    pub fn removed(&self) -> &[usize] {
        &self.removed
    }

    fn mark_dirty(&mut self) {
        if !self.dirty {
            self.sums_base.copy_from_slice(&self.sums);
            self.dirty = true;
        }
    }

    /// Unassigns `item`, recording the edit.
    pub fn remove(&mut self, problem: &PartitionProblem, item: usize) {
        let bin = self.sol[item];
        debug_assert_ne!(bin, UNASSIGNED, "item {item} is already unassigned");
        self.mark_dirty();
        self.undo.push((item, bin));
        self.sums[bin] -= problem.items[item];
        self.sol[item] = UNASSIGNED;
        self.removed.push(item);
    }

    /// Assigns unassigned `item` to `bin`, recording the edit. Does not
    /// touch `removed` — repairs drain that list themselves.
    pub fn insert(&mut self, problem: &PartitionProblem, item: usize, bin: usize) {
        debug_assert_eq!(self.sol[item], UNASSIGNED, "item {item} is not unassigned");
        self.mark_dirty();
        self.undo.push((item, UNASSIGNED));
        self.sums[bin] += problem.items[item];
        self.sol[item] = bin;
    }
}

impl LnsProblemInPlace for PartitionProblem {
    type State = PartitionState;

    fn make_state(&self, sol: Vec<usize>) -> PartitionState {
        let sums = self.bin_sums(&sol);
        PartitionState {
            removed: sol
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == UNASSIGNED)
                .map(|(i, _)| i)
                .collect(),
            sums_base: sums.clone(),
            sums,
            sol,
            undo: Vec::new(),
            dirty: false,
            commits_since_resync: 0,
            scratch: Vec::new(),
        }
    }

    fn state_objective(&self, state: &mut PartitionState) -> f64 {
        let total: f64 = self.items.iter().sum();
        let ideal = total / self.bins as f64;
        let peak = state.sums.iter().copied().fold(0.0, f64::max);
        if ideal > 0.0 {
            peak / ideal
        } else {
            0.0
        }
    }

    fn state_feasible(&self, state: &PartitionState) -> bool {
        state.removed.is_empty()
    }

    fn snapshot(&self, state: &PartitionState) -> Vec<usize> {
        state.sol.clone()
    }

    fn revert(&self, state: &mut PartitionState) {
        while let Some((item, prev)) = state.undo.pop() {
            state.sol[item] = prev;
        }
        if state.dirty {
            state.sums.copy_from_slice(&state.sums_base);
            state.dirty = false;
        }
        state.removed.clear();
    }

    fn commit(&self, state: &mut PartitionState) {
        debug_assert!(state.removed.is_empty(), "committing an incomplete state");
        state.undo.clear();
        state.dirty = false;
        state.commits_since_resync += 1;
        if state.commits_since_resync >= TOY_RESYNC_EVERY {
            state.sums = self.bin_sums(&state.sol);
            state.commits_since_resync = 0;
        }
    }
}

/// Removes a random `intensity` fraction of items.
#[derive(Clone, Copy, Debug)]
pub struct RandomRemoveInPlace;

impl DestroyInPlace<PartitionProblem> for RandomRemoveInPlace {
    fn name(&self) -> &str {
        "random-remove"
    }

    fn destroy(
        &self,
        problem: &PartitionProblem,
        state: &mut PartitionState,
        intensity: f64,
        rng: &mut StdRng,
    ) {
        let n = problem.items.len();
        let k = ((n as f64 * intensity).ceil() as usize).clamp(1, n);
        let mut order = std::mem::take(&mut state.scratch);
        order.clear();
        order.extend(0..n);
        order.shuffle(rng);
        order.truncate(k);
        for &item in order.iter().take(k) {
            state.remove(problem, item);
        }
        state.scratch = order;
    }
}

/// Empties the currently fullest bin.
#[derive(Clone, Copy, Debug)]
pub struct WorstBinRemoveInPlace;

impl DestroyInPlace<PartitionProblem> for WorstBinRemoveInPlace {
    fn name(&self) -> &str {
        "worst-bin-remove"
    }

    fn destroy(
        &self,
        problem: &PartitionProblem,
        state: &mut PartitionState,
        _intensity: f64,
        _rng: &mut StdRng,
    ) {
        let worst = state
            .sums
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut victims = std::mem::take(&mut state.scratch);
        victims.clear();
        victims.extend(
            state
                .sol
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == worst)
                .map(|(i, _)| i),
        );
        for &item in &victims {
            state.remove(problem, item);
        }
        state.scratch = victims;
    }
}

/// Reinserts removed items, heaviest first, into the lightest bin.
#[derive(Clone, Copy, Debug)]
pub struct GreedyInsertInPlace;

impl RepairInPlace<PartitionProblem> for GreedyInsertInPlace {
    fn name(&self) -> &str {
        "greedy-insert"
    }

    fn repair(
        &self,
        problem: &PartitionProblem,
        state: &mut PartitionState,
        _rng: &mut StdRng,
    ) -> bool {
        let mut removed = std::mem::take(&mut state.removed);
        removed.sort_by(|&a, &b| problem.items[b].partial_cmp(&problem.items[a]).unwrap());
        for idx in 0..removed.len() {
            let i = removed[idx];
            let lightest = state
                .sums
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(b, _)| b);
            let Some(bin) = lightest else {
                // Hand the unplaced tail back so the state stays coherent
                // for the engine's revert.
                removed.drain(..idx);
                state.removed = removed;
                return false;
            };
            state.insert(problem, i, bin);
        }
        removed.clear();
        state.removed = removed;
        true
    }
}

/// The **differential-test oracle**: wraps a problem whose state is
/// cloneable and behaves identically — same operators (through
/// [`OracleOp`]), same arithmetic, same RNG consumption — except that
/// [`revert`] restores a saved whole-state clone instead of unwinding the
/// undo log. Its state is the pair `(live, saved)`.
///
/// A search over the wrapper is therefore bit-identical to one over the
/// wrapped problem *if and only if* the wrapped problem's `revert` is
/// bit-exact, which is what the `spine_vs_legacy` suite asserts. It can
/// only check problems with `State: Clone` — the toy problems here; the
/// real SRA state deliberately is not cloneable, and its revert is pinned
/// by `tests/prop_edit_protocol.rs` instead. Every rejected iteration pays
/// a whole-state clone: never use it on a production path.
///
/// [`revert`]: LnsProblemInPlace::revert
pub struct CloneOracle<'p, P>(pub &'p P);

impl<P: LnsProblemInPlace> LnsProblem for CloneOracle<'_, P>
where
    P::State: Clone,
{
    type Solution = P::Solution;

    fn objective(&self, sol: &P::Solution) -> f64 {
        self.0.objective(sol)
    }
    fn is_feasible(&self, sol: &P::Solution) -> bool {
        self.0.is_feasible(sol)
    }
    fn accept_best(&self, sol: &P::Solution) -> bool {
        self.0.accept_best(sol)
    }
}

impl<P: LnsProblemInPlace> LnsProblemInPlace for CloneOracle<'_, P>
where
    P::State: Clone,
{
    /// `(live, saved)`: the working state and its last committed twin.
    type State = (P::State, P::State);

    fn make_state(&self, sol: P::Solution) -> Self::State {
        let live = self.0.make_state(sol);
        let saved = live.clone();
        (live, saved)
    }
    fn state_objective(&self, state: &mut Self::State) -> f64 {
        self.0.state_objective(&mut state.0)
    }
    fn state_feasible(&self, state: &Self::State) -> bool {
        self.0.state_feasible(&state.0)
    }
    fn state_accept_best(&self, state: &Self::State) -> bool {
        self.0.state_accept_best(&state.0)
    }
    fn snapshot(&self, state: &Self::State) -> P::Solution {
        self.0.snapshot(&state.0)
    }
    fn revert(&self, state: &mut Self::State) {
        state.0.clone_from(&state.1);
    }
    fn commit(&self, state: &mut Self::State) {
        // The real commit first (identical resync cadence to the wrapped
        // problem), then refresh the rollback point.
        self.0.commit(&mut state.0);
        state.1.clone_from(&state.0);
    }
    fn state_destroyed(&self, state: &Self::State) -> usize {
        self.0.state_destroyed(&state.0)
    }
    fn state_undo_depth(&self, state: &Self::State) -> usize {
        self.0.state_undo_depth(&state.0)
    }
    fn state_resyncs(&self, state: &Self::State) -> u64 {
        self.0.state_resyncs(&state.0)
    }
}

/// Adapts an operator of `P` to [`CloneOracle<P>`]: forwards to the wrapped
/// operator on the live half of the oracle's state.
pub struct OracleOp<T>(pub T);

impl<P, T> DestroyInPlace<CloneOracle<'_, P>> for OracleOp<T>
where
    P: LnsProblemInPlace,
    P::State: Clone,
    T: DestroyInPlace<P>,
{
    fn name(&self) -> &str {
        self.0.name()
    }
    fn destroy(
        &self,
        problem: &CloneOracle<'_, P>,
        state: &mut (P::State, P::State),
        intensity: f64,
        rng: &mut StdRng,
    ) {
        self.0.destroy(problem.0, &mut state.0, intensity, rng);
    }
}

impl<P, T> RepairInPlace<CloneOracle<'_, P>> for OracleOp<T>
where
    P: LnsProblemInPlace,
    P::State: Clone,
    T: RepairInPlace<P>,
{
    fn name(&self) -> &str {
        self.0.name()
    }
    fn repair(
        &self,
        problem: &CloneOracle<'_, P>,
        state: &mut (P::State, P::State),
        rng: &mut StdRng,
    ) -> bool {
        self.0.repair(problem.0, &mut state.0, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_instance_shape() {
        let p = PartitionProblem::random(10, 3, 1);
        assert_eq!(p.items.len(), 10);
        assert!(p.items.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn objective_of_balanced_is_one() {
        let p = PartitionProblem {
            items: vec![1.0, 1.0],
            bins: 2,
        };
        assert!((p.objective(&vec![0, 1]) - 1.0).abs() < 1e-12);
        assert!((p.objective(&vec![0, 0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn feasibility() {
        let p = PartitionProblem::random(4, 2, 1);
        assert!(p.is_feasible(&p.all_in_first_bin()));
        assert!(!p.is_feasible(&p.infeasible_solution()));
        assert!(!p.is_feasible(&vec![0])); // wrong length
    }

    #[test]
    fn random_remove_respects_intensity() {
        let p = PartitionProblem::random(10, 2, 1);
        let mut state = p.make_state(p.all_in_first_bin());
        let mut rng = StdRng::seed_from_u64(2);
        RandomRemoveInPlace.destroy(&p, &mut state, 0.3, &mut rng);
        assert_eq!(state.removed().len(), 3);
        assert_eq!(
            state
                .solution()
                .iter()
                .filter(|&&b| b == UNASSIGNED)
                .count(),
            3
        );
    }

    #[test]
    fn worst_bin_remove_empties_fullest() {
        let p = PartitionProblem {
            items: vec![5.0, 1.0, 1.0],
            bins: 2,
        };
        let mut state = p.make_state(vec![0, 1, 1]); // bin0=5, bin1=2
        let mut rng = StdRng::seed_from_u64(3);
        WorstBinRemoveInPlace.destroy(&p, &mut state, 0.5, &mut rng);
        assert_eq!(state.removed(), &[0]);
        assert_eq!(state.solution()[0], UNASSIGNED);
    }

    #[test]
    fn greedy_insert_completes_and_balances() {
        let p = PartitionProblem {
            items: vec![4.0, 3.0, 2.0, 1.0],
            bins: 2,
        };
        let mut state = p.make_state(vec![UNASSIGNED; 4]);
        assert_eq!(state.removed().len(), 4);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(GreedyInsertInPlace.repair(&p, &mut state, &mut rng));
        let sol = p.snapshot(&state);
        assert!(p.is_feasible(&sol));
        // LPT on {4,3,2,1} into 2 bins gives 5/5: perfectly balanced.
        assert!((p.objective(&sol) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn in_place_destroy_repair_revert_restores_exactly() {
        let p = PartitionProblem::random(20, 3, 6);
        let sol = {
            // Start from a spread-out solution so reverts are non-trivial.
            let mut s = p.all_in_first_bin();
            for (i, b) in s.iter_mut().enumerate() {
                *b = i % 3;
            }
            s
        };
        let mut state = p.make_state(sol.clone());
        let sums_before = state.sums().to_vec();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            RandomRemoveInPlace.destroy(&p, &mut state, 0.3, &mut rng);
            assert!(!state.removed().is_empty());
            assert!(GreedyInsertInPlace.repair(&p, &mut state, &mut rng));
            p.revert(&mut state);
            assert_eq!(
                state.solution(),
                &sol[..],
                "revert must restore the solution"
            );
            assert_eq!(
                state.sums(),
                &sums_before[..],
                "revert must restore sums bit-exactly"
            );
        }
    }

    #[test]
    fn in_place_commit_keeps_edits_and_objective_matches_full() {
        let p = PartitionProblem::random(30, 4, 12);
        let mut state = p.make_state(p.all_in_first_bin());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            WorstBinRemoveInPlace.destroy(&p, &mut state, 0.2, &mut rng);
            assert!(GreedyInsertInPlace.repair(&p, &mut state, &mut rng));
            p.commit(&mut state);
            let delta = p.state_objective(&mut state);
            let full = p.objective(&state.solution().to_vec());
            assert!((delta - full).abs() < 1e-9, "delta {delta} vs full {full}");
        }
    }
}
