//! Synthetic document collections.
//!
//! Documents are bags of term ids drawn from a Zipf vocabulary; lengths are
//! log-normal. Generation is parallelized over documents with rayon, with a
//! per-document RNG derived from `(seed, doc_id)` so the corpus is
//! bit-identical regardless of thread count.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use rex_cluster::Zipf;
use serde::{Deserialize, Serialize};

/// Corpus generation parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Number of documents.
    pub n_docs: usize,
    /// Vocabulary size (term ids `0..vocab`).
    pub vocab: usize,
    /// Zipf exponent of term frequencies (≈1.0 for natural language).
    pub term_alpha: f64,
    /// Mean of `ln(document length)`.
    pub len_ln_mean: f64,
    /// Std-dev of `ln(document length)`.
    pub len_ln_sigma: f64,
    /// Generation seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            n_docs: 10_000,
            vocab: 20_000,
            term_alpha: 1.0,
            // exp(4.6) ≈ 100 terms median, heavy right tail.
            len_ln_mean: 4.6,
            len_ln_sigma: 0.5,
            seed: 0,
        }
    }
}

/// A generated collection: `docs[d]` is document `d`'s term-id sequence.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// Per-document term ids (unsorted, with repetitions = term frequency).
    pub docs: Vec<Vec<u32>>,
    /// Vocabulary size the corpus was drawn from.
    pub vocab: usize,
}

/// Standard-normal sample via Box–Muller (avoids a distribution dependency).
fn sample_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Corpus {
    /// Generates a corpus (deterministic in `cfg.seed`, parallel over
    /// documents).
    pub fn generate(cfg: &CorpusConfig) -> Self {
        assert!(cfg.n_docs > 0 && cfg.vocab > 0);
        let zipf = Zipf::new(cfg.vocab, cfg.term_alpha);
        let docs: Vec<Vec<u32>> = (0..cfg.n_docs)
            .into_par_iter()
            .map(|d| {
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let len = (cfg.len_ln_mean + cfg.len_ln_sigma * sample_normal(&mut rng))
                    .exp()
                    .round()
                    .clamp(1.0, 100_000.0) as usize;
                (0..len).map(|_| zipf.sample(&mut rng) as u32).collect()
            })
            .collect();
        Self {
            docs,
            vocab: cfg.vocab,
        }
    }

    /// Number of documents.
    pub fn n_docs(&self) -> usize {
        self.docs.len()
    }

    /// Total token count.
    pub fn n_tokens(&self) -> usize {
        self.docs.iter().map(Vec::len).sum()
    }

    /// Mean document length.
    pub fn mean_len(&self) -> f64 {
        self.n_tokens() as f64 / self.n_docs() as f64
    }

    /// Document frequency of each term (how many docs contain it).
    pub fn document_frequencies(&self) -> Vec<u32> {
        let mut df = vec![0u32; self.vocab];
        let mut seen = vec![u32::MAX; self.vocab];
        for (d, doc) in self.docs.iter().enumerate() {
            for &t in doc {
                if seen[t as usize] != d as u32 {
                    seen[t as usize] = d as u32;
                    df[t as usize] += 1;
                }
            }
        }
        df
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CorpusConfig {
        CorpusConfig {
            n_docs: 500,
            vocab: 1_000,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn generation_shape() {
        let c = Corpus::generate(&small_cfg());
        assert_eq!(c.n_docs(), 500);
        assert!(c.docs.iter().all(|d| !d.is_empty()));
        assert!(c.docs.iter().flatten().all(|&t| (t as usize) < c.vocab));
    }

    #[test]
    fn deterministic_across_calls() {
        let a = Corpus::generate(&small_cfg());
        let b = Corpus::generate(&small_cfg());
        assert_eq!(a.docs, b.docs);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(&small_cfg());
        let b = Corpus::generate(&CorpusConfig {
            seed: 4,
            ..small_cfg()
        });
        assert_ne!(a.docs, b.docs);
    }

    #[test]
    fn lengths_are_lognormal_ish() {
        let c = Corpus::generate(&CorpusConfig {
            n_docs: 2_000,
            ..small_cfg()
        });
        let mean = c.mean_len();
        // exp(4.6 + 0.5²/2) ≈ 112; allow wide tolerance.
        assert!((60.0..200.0).contains(&mean), "mean len {mean}");
        let max = c.docs.iter().map(Vec::len).max().unwrap();
        assert!(max > mean as usize * 2, "heavy tail expected, max {max}");
    }

    #[test]
    fn term_frequencies_are_skewed() {
        let c = Corpus::generate(&small_cfg());
        let mut tf = vec![0usize; c.vocab];
        for t in c.docs.iter().flatten() {
            tf[*t as usize] += 1;
        }
        // Zipf: rank-0 term should appear far more than a mid-rank term.
        assert!(
            tf[0] > 20 * tf[500].max(1),
            "tf0={} tf500={}",
            tf[0],
            tf[500]
        );
    }

    #[test]
    fn document_frequencies_bounded_by_ndocs() {
        let c = Corpus::generate(&small_cfg());
        let df = c.document_frequencies();
        assert_eq!(df.len(), c.vocab);
        assert!(df.iter().all(|&x| (x as usize) <= c.n_docs()));
        // The most common term appears in most documents.
        assert!(df[0] as usize > c.n_docs() / 2);
    }
}
