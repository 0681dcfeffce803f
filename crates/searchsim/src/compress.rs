//! Posting-list storage size: delta + variable-byte encoding.
//!
//! Real engines never store raw `(doc, tf)` pairs; doc ids are
//! delta-encoded (sorted lists have small gaps) and the gaps varbyte-coded.
//! The bridge's shard *memory* demand and *move cost* are therefore based
//! on the compressed footprint, which — unlike the raw posting count —
//! grows sub-linearly for dense lists (small gaps → 1 byte each) and is
//! exactly what a migration actually copies over the network. Only that
//! footprint is ever read, so this module counts the encoded bytes instead
//! of producing them.

use crate::index::Posting;

/// Bytes `v` takes in variable-byte code (7 bits per byte, high bit =
/// continuation).
#[inline]
fn varbyte_len(mut v: u64) -> u64 {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Encoded size of a sorted posting list: per posting, the varbyte doc-id
/// gap (the first posting's absolute id) and the varbyte `tf − 1`.
///
/// # Panics
/// If doc ids are not strictly increasing (debug builds).
pub fn compressed_size(postings: &[Posting]) -> u64 {
    let mut bytes = 0;
    let mut prev = 0u64;
    for (i, p) in postings.iter().enumerate() {
        let doc = p.doc as u64;
        debug_assert!(i == 0 || doc > prev, "postings must be strictly increasing");
        // tf is almost always tiny; it is stored as tf-1 (tf >= 1).
        bytes += varbyte_len(doc - prev) + varbyte_len((p.tf.max(1) - 1) as u64);
        prev = doc;
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(docs: &[(u32, u32)]) -> Vec<Posting> {
        docs.iter().map(|&(doc, tf)| Posting { doc, tf }).collect()
    }

    #[test]
    fn varbyte_len_boundaries() {
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX as u64, 5),
            (u64::MAX, 10),
        ] {
            assert_eq!(varbyte_len(v), len, "{v}");
        }
    }

    #[test]
    fn gaps_and_tf_are_counted() {
        // Gaps 0, 3, 1, 996, 999 000 take 1+1+1+2+3 bytes; tf−1 values
        // 0, 1, 0, 6, 0 one byte each.
        let l = list(&[(0, 1), (3, 2), (4, 1), (1000, 7), (1_000_000, 1)]);
        assert_eq!(compressed_size(&l), 8 + 5);
        // The first doc id is stored absolute.
        assert_eq!(compressed_size(&list(&[(5_000_000, 3)])), 4 + 1);
        assert_eq!(compressed_size(&[]), 0);
    }

    #[test]
    fn dense_lists_compress_well() {
        // Gaps of 1, tf 1: 2 bytes per posting.
        let l: Vec<Posting> = (0..10_000).map(|d| Posting { doc: d, tf: 1 }).collect();
        assert_eq!(compressed_size(&l), 2 * 10_000);
        // Raw storage would be 8 bytes per posting.
        assert!(compressed_size(&l) < (std::mem::size_of::<Posting>() * l.len() / 3) as u64);
    }

    #[test]
    fn sparse_lists_cost_more_per_posting() {
        let dense: Vec<Posting> = (0..1000).map(|d| Posting { doc: d, tf: 1 }).collect();
        let sparse: Vec<Posting> = (0..1000)
            .map(|d| Posting {
                doc: d * 50_000,
                tf: 1,
            })
            .collect();
        assert!(compressed_size(&sparse) > compressed_size(&dense));
    }
}
