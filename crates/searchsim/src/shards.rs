//! Document partitioning into index shards.

/// Assigns each document to a shard; returns `shard_of[d]`.
///
/// Shards are contiguous doc-id ranges whose sizes follow a power law
/// (`size_i ∝ 1/(i+1)^0.7`, largest first) — modeling index shards built
/// from crawl segments or verticals of very different sizes. This is what
/// produces the heavy-tailed per-shard demands that make balancing
/// interesting. With fewer documents than shards, some shards stay empty.
pub fn partition(n_docs: usize, n_shards: usize) -> Vec<u32> {
    assert!(n_shards > 0, "need at least one shard");
    let weights: Vec<f64> = (0..n_shards)
        .map(|i| 1.0 / ((i + 1) as f64).powf(0.7))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut boundaries = Vec::with_capacity(n_shards);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        boundaries.push((acc * n_docs as f64).round() as usize);
    }
    boundaries[n_shards - 1] = n_docs;
    let mut out = Vec::with_capacity(n_docs);
    let mut shard = 0usize;
    for d in 0..n_docs {
        while d >= boundaries[shard] && shard + 1 < n_shards {
            shard += 1;
        }
        out.push(shard as u32);
    }
    out
}

/// Groups documents by shard: `out[shard]` = the shard's document contents.
pub fn group_docs(docs: &[Vec<u32>], shard_of: &[u32], n_shards: usize) -> Vec<Vec<Vec<u32>>> {
    assert_eq!(docs.len(), shard_of.len());
    let mut out: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n_shards];
    for (d, doc) in docs.iter().enumerate() {
        out[shard_of[d] as usize].push(doc.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_doc_gets_a_shard() {
        let p = partition(1000, 7);
        assert_eq!(p.len(), 1000);
        // Every shard is non-empty at this scale.
        for s in 0..7 {
            assert!(p.contains(&s), "shard {s} left empty");
        }
    }

    #[test]
    fn sizes_follow_power_law() {
        let p = partition(10_000, 8);
        let mut counts = vec![0usize; 8];
        for &s in &p {
            counts[s as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(
            counts[0] > 2 * counts[7],
            "first shard should dwarf the last: {counts:?}"
        );
        // Still contiguous.
        assert!(p.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn group_docs_preserves_content() {
        let docs = vec![vec![1u32], vec![2], vec![3], vec![4]];
        let shard_of = vec![0u32, 1, 0, 1];
        let grouped = group_docs(&docs, &shard_of, 2);
        assert_eq!(grouped[0], vec![vec![1], vec![3]]);
        assert_eq!(grouped[1], vec![vec![2], vec![4]]);
    }

    #[test]
    #[should_panic]
    fn zero_shards_panics() {
        partition(10, 0);
    }

    #[test]
    fn more_shards_than_docs_leaves_some_empty() {
        let p = partition(3, 8);
        assert_eq!(p.len(), 3);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
        assert!(p.iter().all(|&s| s < 8));
    }
}
