//! # rex-searchsim
//!
//! A from-scratch, document-partitioned **search engine simulator** — the
//! substrate standing in for the paper's "real data from actual
//! datacenters" (see DESIGN.md §2 for the substitution argument).
//!
//! Pipeline:
//!
//! 1. [`corpus`] — synthesize a document collection over a Zipf-distributed
//!    vocabulary with log-normal document lengths (the two stylized facts
//!    of real text collections),
//! 2. [`shards`] — partition documents into index shards (hash or range),
//! 3. [`index`] — build an inverted index per shard, with BM25-style
//!    disjunctive and galloping-intersection conjunctive evaluation, both
//!    instrumented to report *postings traversed* (the standard
//!    query-cost proxy),
//! 4. [`queries`] — synthesize a query log with its own Zipf term
//!    popularity (query skew ≠ corpus skew, as in production logs) and a
//!    diurnal traffic profile,
//! 5. [`engine`] — fan queries out across shards and aggregate top-k,
//!    accumulating per-shard CPU cost,
//! 6. [`bridge`] — convert per-shard (query cost, index size) into a
//!    `rex-cluster` [`rex_cluster::Instance`]: CPU demand from traffic,
//!    memory/disk from index bytes, move cost from shard bytes.
//!
//! The result: shard demand vectors that are heavy-tailed and correlated
//! across dimensions — the properties that make search-engine rebalancing
//! hard — produced by an actual retrieval stack rather than drawn from a
//! distribution.

pub mod bridge;
pub mod compress;
pub mod corpus;
pub mod engine;
pub mod index;
pub mod qos;
pub mod queries;
pub mod shards;

pub use bridge::{build_instance, BridgeConfig};
pub use corpus::{Corpus, CorpusConfig};
pub use engine::{SearchEngine, SearchStats};
pub use index::{InvertedIndex, Posting, QueryMode, SearchResult};
pub use queries::{Query, QueryConfig, QueryLog};
pub use shards::{partition, ShardingStrategy};
