//! A Zipf(α) sampler over ranks `0..n`.
//!
//! Term frequencies in text, term popularity in query logs and shard
//! popularity under a load script ([`crate::LoadScriptSpec::zipf_alpha`])
//! all follow power laws; this one sampler serves the workload plane's
//! popularity walk and everything stochastic in `rex-searchsim`. It
//! precomputes the CDF once (O(n)) and samples by binary search (O(log n))
//! — sampling dominates corpus generation, so the table is worth its
//! memory.

use rand::rngs::StdRng;
use rand::RngExt;

/// Zipf distribution over `0..n`: `P(k) ∝ 1 / (k+1)^alpha`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    /// If `n == 0` or `alpha` is negative or non-finite. `alpha = 0` is the
    /// uniform distribution.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty support");
        assert!(alpha.is_finite() && alpha >= 0.0, "bad alpha {alpha}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf }
    }

    /// Support size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.random::<f64>();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(13)
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(1000, 1.0);
        let total: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(50, 1.2);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(z.sample(&mut r) < 50);
        }
    }

    #[test]
    fn rank_zero_dominates_for_large_alpha() {
        let z = Zipf::new(100, 2.0);
        let mut r = rng();
        let zeros = (0..10_000).filter(|_| z.sample(&mut r) == 0).count();
        // P(0) = 1/ζ(2, truncated) ≈ 0.645 for n=100.
        assert!(zeros > 5_500, "got {zeros}");
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn empirical_matches_pmf_for_head_ranks() {
        let z = Zipf::new(20, 1.0);
        let mut r = rng();
        let n = 200_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        #[allow(clippy::needless_range_loop)] // k is also the pmf argument
        for k in 0..5 {
            let emp = counts[k] as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.01,
                "rank {k}: empirical {emp} vs pmf {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn first_draws_and_masses_are_pinned() {
        // Taken while the sampler still lived in `rex-searchsim`: the move
        // must not change a bit of any corpus, query log or popularity walk.
        let z = Zipf::new(50, 1.2);
        let mut r = rng();
        let draws: Vec<usize> = (0..12).map(|_| z.sample(&mut r)).collect();
        assert_eq!(draws, [0, 0, 4, 34, 0, 0, 0, 0, 13, 0, 17, 10]);
        assert_eq!(z.pmf(0).to_bits(), 0x3fd3566de8216546);
        assert_eq!(z.pmf(49).to_bits(), 0x3f66a378e3e18500);
    }

    #[test]
    #[should_panic]
    fn empty_support_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic]
    fn negative_alpha_panics() {
        Zipf::new(10, -1.0);
    }
}
