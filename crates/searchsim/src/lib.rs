//! # rex-searchsim
//!
//! A from-scratch, document-partitioned **search engine simulator** — the
//! substrate standing in for the paper's "real data from actual
//! datacenters" (see DESIGN.md §2 for the substitution argument). It keeps
//! only what the bridge reads: how many postings a query traverses, how
//! many bytes an index takes, and how many tokens it holds.
//!
//! Pipeline:
//!
//! 1. [`corpus`] — synthesize a document collection over a Zipf-distributed
//!    vocabulary with log-normal document lengths (the two stylized facts
//!    of real text collections),
//! 2. [`shards`] — partition documents into skewed-range index shards,
//! 3. [`index`] — build an inverted index per shard, with a posting-list
//!    cost model for disjunctive and galloping-intersection conjunctive
//!    queries (*postings traversed*, the standard query-cost proxy) and a
//!    [`compress`]ed storage size,
//! 4. [`queries`] — synthesize a query log with its own Zipf term
//!    popularity (query skew ≠ corpus skew, as in production logs),
//! 5. [`engine`] — fan every query out to every shard, accumulating
//!    per-shard CPU cost,
//! 6. [`bridge`] — convert per-shard (query cost, index size) into a
//!    `rex-cluster` [`rex_cluster::Instance`]: CPU demand from traffic,
//!    memory/disk from index bytes, move cost from shard bytes.
//!
//! The result: shard demand vectors that are heavy-tailed and correlated
//! across dimensions — the properties that make search-engine rebalancing
//! hard — produced by an actual retrieval stack rather than drawn from a
//! distribution. What a migration costs while it runs (E11's latency
//! profile) lives beside its timing in `rex_cluster::migration::timeline`.

pub mod bridge;
pub mod compress;
pub mod corpus;
pub mod engine;
pub mod index;
pub mod queries;
pub mod shards;

pub use bridge::{build_instance, BridgeConfig};
pub use corpus::{Corpus, CorpusConfig};
pub use engine::SearchEngine;
pub use index::{InvertedIndex, Posting, QueryMode};
pub use queries::{Query, QueryConfig, QueryLog};
pub use shards::partition;
