//! Synthetic query logs.
//!
//! Production query logs differ from the corpus in a load-bearing way we
//! reproduce: query-term popularity follows its *own* Zipf law (typically
//! more skewed than the corpus). That skew, with the mix of OR and AND
//! queries, shapes the per-shard CPU demand the bridge extracts.

use crate::index::QueryMode;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rex_cluster::Zipf;

/// One query.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Term ids.
    pub terms: Vec<u32>,
    /// Evaluation mode.
    pub mode: QueryMode,
}

/// Query-log generation parameters.
#[derive(Clone, Copy, Debug)]
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
                // The draw that once picked the query's arrival hour: kept
                // so every later query keeps its terms and mode.
                let _: f64 = rng.random();
                Query { terms, mode }
            })
            .collect();
        Self { queries }
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
        assert_eq!(log.queries.len(), 5_000);
        for q in &log.queries {
            assert!(!q.terms.is_empty() && q.terms.len() <= 5);
            assert!(q.terms.iter().all(|&t| (t as usize) < 1_000));
        }
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
        let frac = ands as f64 / log.queries.len() as f64;
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
            ones * 2 > log.queries.len(),
            "single-term queries should be the majority"
        );
    }
}
