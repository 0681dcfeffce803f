//! Property-based tests for the search-engine substrate.

use proptest::prelude::*;
use rex_searchsim::index::{InvertedIndex, QueryMode};
use rex_searchsim::shards::group_docs;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// OR cost is Σ df over the query's distinct terms, and df is additive
    /// over a document partition: the shards' costs sum to the unsharded
    /// index's.
    #[test]
    fn or_cost_is_additive_over_shards(
        seed in any::<u64>(),
        terms in proptest::collection::vec(0u32..40, 0..6),
        n_shards in 1usize..6,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let docs: Vec<Vec<u32>> = (0..rng.random_range(0..60))
            .map(|_| (0..rng.random_range(1..20)).map(|_| rng.random_range(0..40u32)).collect())
            .collect();
        let shard_of: Vec<u32> = docs.iter().map(|_| rng.random_range(0..n_shards as u32)).collect();
        let sharded: u64 = group_docs(&docs, &shard_of, n_shards)
            .iter()
            .map(|d| InvertedIndex::build(d).cost(&terms, QueryMode::Or))
            .sum();
        let whole = InvertedIndex::build(&docs).cost(&terms, QueryMode::Or);
        prop_assert_eq!(sharded, whole);
    }
}
