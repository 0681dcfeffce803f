//! Inverted index with a posting-list cost model.
//!
//! One [`InvertedIndex`] indexes one shard's documents.
//! [`InvertedIndex::cost`] reports the postings a query's evaluation
//! traverses — the classic machine-independent proxy for query CPU cost
//! (what dynamic-pruning papers measure) — which the bridge turns into
//! shard CPU demand. Nothing is scored: the bridge reads only the cost.

use std::collections::HashMap;

/// One posting: a document and the term's frequency in it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// Document id (local to the shard's doc table).
    pub doc: u32,
    /// Term frequency.
    pub tf: u32,
}

/// How a query's terms combine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// Disjunctive (OR): any term matches; every list is read in full.
    Or,
    /// Conjunctive (AND): all terms must match; galloping intersection.
    And,
}

/// An inverted index over one shard's documents.
///
/// Postings are held uncompressed; the *storage* model
/// ([`InvertedIndex::size_bytes`]) uses the delta+varbyte footprint from
/// [`crate::compress`], because that is what resides in RAM on a real
/// serving node and what a shard migration copies.
#[derive(Clone, Debug, Default)]
pub struct InvertedIndex {
    postings: HashMap<u32, Vec<Posting>>,
    n_docs: usize,
    n_tokens: u64,
    compressed_bytes: u64,
}

impl InvertedIndex {
    /// Builds the index from documents (each a bag of term ids).
    pub fn build(docs: &[Vec<u32>]) -> Self {
        let mut postings: HashMap<u32, Vec<Posting>> = HashMap::new();
        let mut n_tokens = 0u64;
        let mut tf_buf: HashMap<u32, u32> = HashMap::new();
        for (d, doc) in docs.iter().enumerate() {
            n_tokens += doc.len() as u64;
            tf_buf.clear();
            for &t in doc {
                *tf_buf.entry(t).or_insert(0) += 1;
            }
            for (&t, &tf) in &tf_buf {
                postings
                    .entry(t)
                    .or_default()
                    .push(Posting { doc: d as u32, tf });
            }
        }
        // Postings were appended in increasing doc order per term already
        // (documents processed in order), but HashMap iteration above does
        // not disturb that. Assert in debug builds.
        #[cfg(debug_assertions)]
        for list in postings.values() {
            debug_assert!(list.windows(2).all(|w| w[0].doc < w[1].doc));
        }
        let compressed_bytes = postings
            .values()
            .map(|l| crate::compress::compressed_size(l))
            .sum();
        Self {
            postings,
            n_docs: docs.len(),
            n_tokens,
            compressed_bytes,
        }
    }

    /// Number of indexed documents.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Total indexed tokens (raw collection size proxy).
    pub fn n_tokens(&self) -> u64 {
        self.n_tokens
    }

    /// Index storage footprint in bytes: compressed postings (delta +
    /// varbyte) plus the term dictionary and the document-length table.
    pub fn size_bytes(&self) -> u64 {
        self.compressed_bytes + (self.postings.len() * 16) as u64 + (self.n_docs * 4) as u64
    }

    /// Posting list of a term (empty slice if absent).
    pub fn postings(&self, term: u32) -> &[Posting] {
        self.postings.get(&term).map_or(&[], Vec::as_slice)
    }

    /// Document frequency of a term.
    pub fn df(&self, term: u32) -> usize {
        self.postings(term).len()
    }

    /// Postings a query's evaluation traverses (the CPU-cost proxy).
    /// Duplicate query terms are collapsed. OR reads every list in full,
    /// so its cost is Σ df; AND walks the rarest list and gallops through
    /// the others.
    pub fn cost(&self, terms: &[u32], mode: QueryMode) -> u64 {
        let mut terms = terms.to_vec();
        terms.sort_unstable();
        terms.dedup();
        match mode {
            QueryMode::Or => terms.iter().map(|&t| self.df(t) as u64).sum(),
            QueryMode::And => self.and_cost(&terms),
        }
    }

    /// Conjunctive cost: one per candidate of the rarest list, plus the
    /// gallop probes that look for it in the other lists until one lacks
    /// it.
    fn and_cost(&self, terms: &[u32]) -> u64 {
        let mut lists: Vec<&[Posting]> = terms.iter().map(|&t| self.postings(t)).collect();
        lists.sort_by_key(|l| l.len());
        let Some((rarest, others)) = lists.split_first() else {
            return 0;
        };
        let mut cost = 0u64;
        for p in *rarest {
            cost += 1;
            for other in others {
                if !gallop(other, p.doc, &mut cost) {
                    break;
                }
            }
        }
        cost
    }
}

/// Galloping (exponential + binary) search for `doc` in a sorted posting
/// list; returns whether it is there and charges probes to `cost`.
fn gallop(list: &[Posting], doc: u32, cost: &mut u64) -> bool {
    if list.is_empty() {
        return false;
    }
    let mut hi = 1usize;
    while hi < list.len() && list[hi].doc < doc {
        hi *= 2;
        *cost += 1;
    }
    // Target, if present, lies in (hi/2, hi] — include index hi itself.
    let lo = hi / 2;
    let hi = (hi + 1).min(list.len());
    let slice = &list[lo..hi];
    *cost += (slice.len() as f64).log2().max(1.0) as u64;
    slice.binary_search_by_key(&doc, |p| p.doc).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// doc0: [0,0,1], doc1: [1,2], doc2: [0,2,2,3]
    fn docs() -> Vec<Vec<u32>> {
        vec![vec![0, 0, 1], vec![1, 2], vec![0, 2, 2, 3]]
    }

    #[test]
    fn build_counts() {
        let ix = InvertedIndex::build(&docs());
        assert_eq!(ix.n_docs(), 3);
        assert_eq!(ix.n_tokens(), 9);
        assert_eq!(ix.df(0), 2);
        assert_eq!(ix.df(1), 2);
        assert_eq!(ix.df(2), 2);
        assert_eq!(ix.df(3), 1);
        assert_eq!(ix.df(99), 0);
        // 7 postings of 2 bytes each, 4 terms × 16, 3 docs × 4.
        assert_eq!(ix.size_bytes(), 14 + 64 + 12);
    }

    #[test]
    fn postings_sorted_with_tf() {
        let ix = InvertedIndex::build(&docs());
        let p0 = ix.postings(0);
        assert_eq!(p0, &[Posting { doc: 0, tf: 2 }, Posting { doc: 2, tf: 1 }]);
    }

    #[test]
    fn or_cost_is_sum_of_list_lengths() {
        let ix = InvertedIndex::build(&docs());
        assert_eq!(ix.cost(&[0], QueryMode::Or), 2);
        assert_eq!(
            ix.cost(&[0, 1, 2], QueryMode::Or),
            (ix.df(0) + ix.df(1) + ix.df(2)) as u64
        );
    }

    #[test]
    fn and_cost_walks_the_rarest_list_and_gallops() {
        let ix = InvertedIndex::build(&docs());
        // Rarest list [3] = {doc2}: one candidate, then one probe finds it
        // in [0] = {doc0, doc2}.
        assert_eq!(ix.cost(&[0, 3], QueryMode::And), 2);
        // In [1] = {doc0, doc1} the gallop steps past the end (one probe)
        // and misses in a one-posting window (one more).
        assert_eq!(ix.cost(&[1, 3], QueryMode::And), 3);
        // Two lists of equal length: [0] drives, each candidate costs one
        // plus one probe into [2] — here as much as the OR walk.
        assert_eq!(ix.cost(&[0, 2], QueryMode::And), 4);
        assert_eq!(ix.cost(&[0, 2], QueryMode::Or), 4);
    }

    #[test]
    fn missing_terms_and_empty_queries_cost_nothing() {
        let ix = InvertedIndex::build(&docs());
        assert_eq!(ix.cost(&[42], QueryMode::Or), 0);
        assert_eq!(ix.cost(&[42, 0], QueryMode::And), 0);
        assert_eq!(ix.cost(&[], QueryMode::Or), 0);
        assert_eq!(ix.cost(&[], QueryMode::And), 0);
        assert_eq!(InvertedIndex::build(&[]).cost(&[0], QueryMode::Or), 0);
    }

    #[test]
    fn duplicate_query_terms_are_collapsed() {
        let ix = InvertedIndex::build(&docs());
        for mode in [QueryMode::Or, QueryMode::And] {
            assert_eq!(ix.cost(&[0, 0, 2, 0], mode), ix.cost(&[0, 2], mode));
        }
    }

    #[test]
    fn gallop_finds_and_misses() {
        let list: Vec<Posting> = [2u32, 5, 9, 14, 20]
            .iter()
            .map(|&d| Posting { doc: d, tf: d })
            .collect();
        let mut cost = 0;
        assert!(gallop(&list, 9, &mut cost));
        assert!(!gallop(&list, 10, &mut cost));
        assert!(gallop(&list, 2, &mut cost));
        assert!(gallop(&list, 20, &mut cost));
        assert!(!gallop(&list, 21, &mut cost));
        assert!(cost > 0);
    }
}
