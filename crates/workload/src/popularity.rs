//! Drifting Zipfian shard popularity (the workload plane's load script,
//! DESIGN.md §16).
//!
//! A [`PopularityWalk`] assigns every shard a *rank* in a Zipf(α)
//! popularity order; each drift epoch applies a few adjacent-rank
//! transpositions — the head of the distribution stays heavy while *which*
//! shards sit under it wanders, the pattern query logs actually show.
//!
//! [`apply_popularity`] is the deterministic half: given a rank
//! permutation it rewrites shard CPU demands as a pure function of the
//! ranks (Zipf weight × renormalization to a target fleet utilization,
//! clamped to machine capacity like [`next_epoch`]). The trace
//! record/replay layer records only the ranks per epoch; replaying them
//! through `apply_popularity` reproduces the exact demand stream bit for
//! bit.
//!
//! [`next_epoch`]: crate::evolve::next_epoch

use crate::evolve::clamp_to_capacity;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rex_cluster::{ClusterError, Instance, MachineId, Zipf};

/// A drifting rank permutation over shards with Zipf(α) weights per rank.
#[derive(Clone, Debug)]
pub struct PopularityWalk {
    /// `ranks[shard] = rank`; rank 0 is the hottest.
    ranks: Vec<u32>,
    /// `weights[rank]` — the Zipf pmf, summing to 1.
    weights: Vec<f64>,
}

impl PopularityWalk {
    /// Starts the walk at the identity order (shard 0 hottest).
    ///
    /// # Panics
    /// If `n_shards == 0` or `alpha` is negative or non-finite.
    pub fn new(n_shards: usize, alpha: f64) -> Self {
        let zipf = Zipf::new(n_shards, alpha);
        let weights = (0..n_shards).map(|k| zipf.pmf(k)).collect();
        Self {
            ranks: (0..n_shards as u32).collect(),
            weights,
        }
    }

    /// Number of shards the walk covers.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True only for the degenerate zero-shard walk (never constructed).
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The current rank permutation (`ranks[shard] = rank`).
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// Zipf weight of each rank (pmf over ranks, sums to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Advances one drift epoch: `swaps` adjacent-rank transpositions drawn
    /// from a `StdRng` seeded with `seed`. Each transposition picks rank
    /// `r` uniformly and swaps the shards holding ranks `r` and `r+1`.
    pub fn step(&mut self, swaps: usize, seed: u64) {
        let n = self.ranks.len();
        if n < 2 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // Invert once: by_rank[rank] = shard.
        let mut by_rank = vec![0u32; n];
        for (shard, &r) in self.ranks.iter().enumerate() {
            by_rank[r as usize] = shard as u32;
        }
        for _ in 0..swaps {
            let r = rng.random_range(0..n - 1);
            by_rank.swap(r, r + 1);
        }
        for (r, &shard) in by_rank.iter().enumerate() {
            self.ranks[shard as usize] = r as u32;
        }
    }

    /// Pins the walk to an externally recorded permutation (trace replay).
    ///
    /// # Panics
    /// If `ranks` is not a permutation of `0..len`.
    pub fn set_ranks(&mut self, ranks: Vec<u32>) {
        assert_eq!(ranks.len(), self.ranks.len(), "rank vector length mismatch");
        let mut seen = vec![false; ranks.len()];
        for &r in &ranks {
            let r = r as usize;
            assert!(r < seen.len() && !seen[r], "ranks must be a permutation");
            seen[r] = true;
        }
        self.ranks = ranks;
    }
}

/// Rewrites shard CPU demands (dimension 0) as a pure function of the
/// walk's rank permutation: shard `s` gets the Zipf weight of its rank
/// scaled so aggregate CPU equals `target_utilization` of the loaded
/// (non-exchange) capacity, then per-machine clamping under `placement`
/// exactly as [`next_epoch`] does. Returns the new instance and the number
/// of shard demands clamped.
///
/// Dimensions `1..` (index size, disk) and move costs are untouched.
///
/// [`next_epoch`]: crate::evolve::next_epoch
pub fn apply_popularity(
    prev: &Instance,
    final_placement: &[MachineId],
    walk: &PopularityWalk,
    target_utilization: f64,
) -> Result<(Instance, usize), ClusterError> {
    assert!(target_utilization > 0.0 && target_utilization < 1.0);
    assert_eq!(walk.len(), prev.n_shards(), "walk covers a different fleet");
    let mut inst = prev.clone();
    inst.initial = final_placement.to_vec();

    let loaded_cap: f64 = inst
        .machines
        .iter()
        .filter(|m| !m.exchange)
        .map(|m| m.capacity[0])
        .sum();
    let budget = target_utilization * loaded_cap;
    for (s, shard) in inst.shards.iter_mut().enumerate() {
        shard.demand[0] = walk.weights[walk.ranks[s] as usize] * budget;
    }

    let clamped = clamp_to_capacity(&mut inst);
    inst.validate()?;
    Ok((inst, clamped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SynthConfig};

    fn small() -> Instance {
        generate(&SynthConfig {
            n_machines: 6,
            n_exchange: 1,
            n_shards: 30,
            dims: 1,
            stringency: 0.5,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn walk_starts_at_identity_and_steps_deterministically() {
        let mut a = PopularityWalk::new(20, 1.0);
        assert_eq!(a.ranks(), (0..20u32).collect::<Vec<_>>().as_slice());
        let mut b = a.clone();
        a.step(16, 7);
        b.step(16, 7);
        assert_eq!(a.ranks(), b.ranks());
        // Still a permutation, and a different one.
        let mut sorted = a.ranks().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20u32).collect::<Vec<_>>());
        assert_ne!(a.ranks(), (0..20u32).collect::<Vec<_>>().as_slice());
        // A different seed walks elsewhere.
        let mut c = PopularityWalk::new(20, 1.0);
        c.step(16, 8);
        assert_ne!(a.ranks(), c.ranks());
    }

    #[test]
    fn weights_follow_zipf_and_sum_to_one() {
        let walk = PopularityWalk::new(50, 1.2);
        let sum: f64 = walk.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for w in walk.weights().windows(2) {
            assert!(w[0] >= w[1], "weights must be non-increasing in rank");
        }
    }

    #[test]
    fn apply_popularity_is_a_pure_function_of_the_ranks() {
        let inst = small();
        let placement = inst.initial.clone();
        let mut walk = PopularityWalk::new(inst.n_shards(), 1.0);
        walk.step(12, 3);
        let (a, _) = apply_popularity(&inst, &placement, &walk, 0.6).unwrap();
        // Replaying only the recorded ranks reproduces the demands bit for
        // bit — the trace layer's contract.
        let mut replayed = PopularityWalk::new(inst.n_shards(), 1.0);
        replayed.set_ranks(walk.ranks().to_vec());
        let (b, _) = apply_popularity(&inst, &placement, &replayed, 0.6).unwrap();
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.demand[0].to_bits(), y.demand[0].to_bits());
        }
    }

    #[test]
    fn apply_popularity_renormalizes_and_validates() {
        let inst = small();
        let placement = inst.initial.clone();
        let walk = PopularityWalk::new(inst.n_shards(), 1.0);
        let (out, _) = apply_popularity(&inst, &placement, &walk, 0.55).unwrap();
        let loaded_cap: f64 = out
            .machines
            .iter()
            .filter(|m| !m.exchange)
            .map(|m| m.capacity[0])
            .sum();
        let total: f64 = out.shards.iter().map(|s| s.demand[0]).sum();
        // Clamping can only shave demand below the target.
        assert!(total <= 0.55 * loaded_cap + 1e-9);
        assert!(total > 0.3 * loaded_cap);
        // Non-CPU planes untouched.
        for (a, b) in inst.shards.iter().zip(&out.shards) {
            assert_eq!(a.move_cost, b.move_cost);
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn set_ranks_rejects_non_permutations() {
        let mut walk = PopularityWalk::new(4, 1.0);
        walk.set_ranks(vec![0, 1, 1, 3]);
    }
}
