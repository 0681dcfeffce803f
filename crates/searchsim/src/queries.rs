//! Synthetic query logs.
//!
//! Production query logs differ from the corpus in two load-bearing ways we
//! reproduce: query-term popularity follows its *own* Zipf law (typically
//! more skewed than the corpus), and traffic intensity follows a diurnal
//! curve. Both knobs shape the per-shard CPU demand the bridge extracts.

use crate::index::QueryMode;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rex_cluster::service::DIURNAL;
use rex_cluster::Zipf;
use serde::{Deserialize, Serialize};

/// One query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Term ids.
    pub terms: Vec<u32>,
    /// Evaluation mode.
    pub mode: QueryMode,
    /// Hour-of-day slot `0..24` the query arrives in.
    pub hour: u8,
}

/// Query-log generation parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QueryConfig {
    /// Number of queries.
    pub n_queries: usize,
    /// Vocabulary size (must match the corpus).
    pub vocab: usize,
    /// Zipf exponent of query-term popularity (logs are usually more
    /// skewed than text: ~1.2–1.4).
    pub term_alpha: f64,
    /// Maximum terms per query (lengths are 1..=max, geometric-ish).
    pub max_terms: usize,
    /// Fraction of conjunctive (AND) queries.
    pub and_fraction: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for QueryConfig {
    fn default() -> Self {
        Self {
            n_queries: 10_000,
            vocab: 20_000,
            term_alpha: 1.3,
            max_terms: 5,
            and_fraction: 0.3,
            seed: 1,
        }
    }
}

/// A generated query log.
#[derive(Clone, Debug)]
pub struct QueryLog {
    /// The queries, in arrival order.
    pub queries: Vec<Query>,
}

impl QueryLog {
    /// Generates a log (deterministic in `cfg.seed`).
    pub fn generate(cfg: &QueryConfig) -> Self {
        assert!(cfg.n_queries > 0 && cfg.vocab > 0 && cfg.max_terms > 0);
        assert!((0.0..=1.0).contains(&cfg.and_fraction));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let zipf = Zipf::new(cfg.vocab, cfg.term_alpha);

        // Hour sampler from the diurnal profile.
        let total: f64 = DIURNAL.iter().sum();
        let mut hour_cdf = [0.0f64; 24];
        let mut acc = 0.0;
        for (h, &w) in DIURNAL.iter().enumerate() {
            acc += w / total;
            hour_cdf[h] = acc;
        }
        hour_cdf[23] = 1.0;

        let queries = (0..cfg.n_queries)
            .map(|_| {
                // Geometric-ish length: P(len = l) halves per extra term.
                let mut len = 1;
                while len < cfg.max_terms && rng.random::<f64>() < 0.45 {
                    len += 1;
                }
                let mut terms: Vec<u32> = (0..len).map(|_| zipf.sample(&mut rng) as u32).collect();
                terms.dedup();
                let mode = if rng.random::<f64>() < cfg.and_fraction {
                    QueryMode::And
                } else {
                    QueryMode::Or
                };
                let u = rng.random::<f64>();
                let hour = hour_cdf.iter().position(|&c| u <= c).unwrap_or(23) as u8;
                Query { terms, mode, hour }
            })
            .collect();
        Self { queries }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Queries per hour-of-day.
    pub fn hourly_histogram(&self) -> [usize; 24] {
        let mut h = [0usize; 24];
        for q in &self.queries {
            h[q.hour as usize] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> QueryConfig {
        QueryConfig {
            n_queries: 5_000,
            vocab: 1_000,
            seed: 9,
            ..Default::default()
        }
    }

    #[test]
    fn generation_shape() {
        let log = QueryLog::generate(&cfg());
        assert_eq!(log.len(), 5_000);
        assert!(!log.is_empty());
        for q in &log.queries {
            assert!(!q.terms.is_empty() && q.terms.len() <= 5);
            assert!(q.terms.iter().all(|&t| (t as usize) < 1_000));
            assert!(q.hour < 24);
        }
    }

    #[test]
    fn deterministic() {
        let a = QueryLog::generate(&cfg());
        let b = QueryLog::generate(&cfg());
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn and_fraction_respected() {
        let log = QueryLog::generate(&QueryConfig {
            and_fraction: 0.3,
            ..cfg()
        });
        let ands = log
            .queries
            .iter()
            .filter(|q| q.mode == QueryMode::And)
            .count();
        let frac = ands as f64 / log.len() as f64;
        assert!((0.25..0.35).contains(&frac), "frac={frac}");
    }

    #[test]
    fn all_or_when_fraction_zero() {
        let log = QueryLog::generate(&QueryConfig {
            and_fraction: 0.0,
            ..cfg()
        });
        assert!(log.queries.iter().all(|q| q.mode == QueryMode::Or));
    }

    #[test]
    fn diurnal_peak_beats_trough() {
        let log = QueryLog::generate(&QueryConfig {
            n_queries: 20_000,
            ..cfg()
        });
        let h = log.hourly_histogram();
        // Hour 9 (weight 1.7) should see several times hour 2 (weight 0.2).
        assert!(h[9] > 3 * h[2], "h9={} h2={}", h[9], h[2]);
    }

    #[test]
    fn query_terms_are_skewed() {
        let log = QueryLog::generate(&cfg());
        let mut counts = vec![0usize; 1_000];
        for q in &log.queries {
            for &t in &q.terms {
                counts[t as usize] += 1;
            }
        }
        assert!(counts[0] > 20 * counts[200].max(1));
    }

    #[test]
    fn short_queries_dominate() {
        let log = QueryLog::generate(&cfg());
        let ones = log.queries.iter().filter(|q| q.terms.len() == 1).count();
        assert!(
            ones * 2 > log.len(),
            "single-term queries should be the majority"
        );
    }
}
