//! The document-partitioned search engine: shard, index, account.

use crate::corpus::Corpus;
use crate::index::InvertedIndex;
use crate::queries::QueryLog;
use crate::shards::{group_docs, partition};
use rayon::prelude::*;

/// A document-partitioned engine: every query fans out to all shards.
#[derive(Debug)]
pub struct SearchEngine {
    shards: Vec<InvertedIndex>,
}

impl SearchEngine {
    /// Indexes a corpus into `n_shards` skewed-range shards (index
    /// building is parallelized over shards).
    pub fn build(corpus: &Corpus, n_shards: usize) -> Self {
        let shard_of = partition(corpus.n_docs(), n_shards);
        let grouped = group_docs(&corpus.docs, &shard_of, n_shards);
        let shards = grouped
            .par_iter()
            .map(|docs| InvertedIndex::build(docs))
            .collect();
        Self { shards }
    }

    /// Access to a shard's index.
    pub fn shard(&self, i: usize) -> &InvertedIndex {
        &self.shards[i]
    }

    /// Postings each shard traverses serving the whole log: every query's
    /// per-shard costs are computed in parallel, then summed in log order
    /// (u64 sums, so the thread count cannot move a byte).
    pub fn replay(&self, log: &QueryLog) -> Vec<u64> {
        let per_query: Vec<Vec<u64>> = log
            .queries
            .par_iter()
            .map(|q| {
                self.shards
                    .iter()
                    .map(|ix| ix.cost(&q.terms, q.mode))
                    .collect()
            })
            .collect();
        let mut total = vec![0u64; self.shards.len()];
        for costs in &per_query {
            for (t, c) in total.iter_mut().zip(costs) {
                *t += c;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::queries::QueryConfig;

    fn small_engine(n_shards: usize) -> (Corpus, SearchEngine) {
        let corpus = Corpus::generate(&CorpusConfig {
            n_docs: 400,
            vocab: 500,
            seed: 21,
            ..Default::default()
        });
        let engine = SearchEngine::build(&corpus, n_shards);
        (corpus, engine)
    }

    #[test]
    fn shards_cover_all_docs() {
        let (corpus, engine) = small_engine(4);
        let total: usize = (0..4).map(|i| engine.shard(i).n_docs()).sum();
        assert_eq!(total, corpus.n_docs());
    }

    #[test]
    fn replay_sums_every_query_on_every_shard() {
        let (_, engine) = small_engine(4);
        let log = QueryLog::generate(&QueryConfig {
            n_queries: 200,
            vocab: 500,
            seed: 2,
            ..Default::default()
        });
        let cost = engine.replay(&log);
        assert_eq!(cost.len(), 4);
        assert!(cost.iter().all(|&c| c > 0));
        for (i, &c) in cost.iter().enumerate() {
            let serial: u64 = log
                .queries
                .iter()
                .map(|q| engine.shard(i).cost(&q.terms, q.mode))
                .sum();
            assert_eq!(c, serial, "shard {i}");
        }
    }
}
