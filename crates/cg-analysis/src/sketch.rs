//! A K-minimum-values (KMV) distinct-count sketch: exact below K,
//! fixed-memory and ~1%-accurate above it, deterministic everywhere.
//!
//! [`StreamStats`](crate::StreamStats) needs unique cookie-pair counts
//! over populations that grow with the crawl — first-party pairs carry
//! the *site's own* eTLD+1 as their owner, so a 1M-visit crawl has
//! millions of distinct pairs and an exact set would reintroduce the
//! linear memory growth the streaming mode exists to avoid (measured:
//! ~750 MB peak RSS at 1M visits with exact `BTreeSet<PairKey>`s).
//!
//! KMV keeps only the K smallest 64-bit hashes of the keys observed.
//! While fewer than K distinct hashes have been seen the sketch *is*
//! the exact distinct count (every test- and CI-sized crawl lives
//! here); beyond K, the K-th smallest hash estimates the population
//! density: `estimate = (K-1) · 2⁶⁴ / kth_min`, with relative standard
//! error ≈ 1/√(K−2) (≈0.8% at K = 16384). Memory is capped at K hashes
//! no matter how many keys stream past.
//!
//! Determinism: the sketch's state is "the K smallest hashes of the
//! distinct keys observed" — a pure function of the key *set*,
//! independent of observation order, duplication, or how observations
//! were partitioned across workers. [`DistinctSketch::absorb`] is
//! therefore associative, commutative, and idempotent, which preserves
//! the streaming pipeline's byte-identical-at-any-thread-count
//! guarantee.
//!
//! K is a const parameter. The default, 16384 hashes, serves the crawl
//! census. Callers that keep one sketch per key pick a small K: the
//! estimate is still exact below K, and above it never reads less than
//! K − 1, so a threshold below K − 1 is decided exactly.

use serde::{Content, Serialize};

/// The default number of hashes retained. 16384 × 8 B ≈ 128 KiB
/// ceiling per sketch; exact counts up to 16383 distinct keys; ~0.8%
/// standard error beyond.
pub const DEFAULT_K: usize = 16 * 1024;

/// A fixed-memory distinct-count sketch over byte-string keys, keeping
/// the `K` smallest hashes.
///
/// `Default` is the empty sketch (the merge identity). Equality
/// compares retained hashes, so two sketches that saw the same key set
/// are equal however the observations were ordered or partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch<const K: usize = DEFAULT_K> {
    /// The K smallest key hashes seen, ascending. `mins.len() < K`
    /// means every distinct hash is retained (exact regime).
    mins: std::collections::BTreeSet<u64>,
}

/// 64-bit FNV-1a over the key bytes, passed through the splitmix64
/// finalizer. FNV alone clusters in the low bits; KMV ranks hashes as
/// uniform draws from [0, 2⁶⁴), so the mixer's avalanche matters to
/// the estimate's accuracy. `observe(parts)` is
/// `insert_hash(key_hash(parts))`, for callers that hash a key once and
/// insert it later.
pub fn key_hash(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-prefix-free separator: a byte that cannot appear in
        // either part (keys are cookie names / domain names).
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl<const K: usize> Default for DistinctSketch<K> {
    fn default() -> Self {
        DistinctSketch {
            mins: std::collections::BTreeSet::new(),
        }
    }
}

impl<const K: usize> DistinctSketch<K> {
    /// Observes one key, given as parts (hashed with an unambiguous
    /// separator, so `("ab","c")` and `("a","bc")` are distinct keys).
    pub fn observe(&mut self, parts: &[&[u8]]) {
        self.insert_hash(key_hash(parts));
    }

    /// Observes one key given as its [`key_hash`].
    pub fn insert_hash(&mut self, h: u64) {
        if self.mins.len() < K {
            self.mins.insert(h);
            return;
        }
        let max = *self.mins.iter().next_back().expect("non-empty at K");
        if h < max && self.mins.insert(h) {
            self.mins.remove(&max);
        }
    }

    /// Absorbs another sketch. Associative, commutative, idempotent:
    /// the union's K smallest hashes are a function of the combined
    /// key set only.
    pub fn absorb(&mut self, other: DistinctSketch<K>) {
        for h in other.mins {
            self.insert_hash(h);
        }
    }

    /// The distinct-key count: exact while fewer than K distinct keys
    /// have been observed, the KMV estimate beyond.
    pub fn estimate(&self) -> u64 {
        if self.mins.len() < K {
            return self.mins.len() as u64;
        }
        let kth = *self.mins.iter().next_back().expect("non-empty at K");
        // (K-1) uniform draws fall below the K-th smallest; density
        // extrapolation over the full 2⁶⁴ space. `kth` is never 0 here:
        // that would require 2⁶⁴ distinct observed hashes.
        ((K as f64 - 1.0) * ((u64::MAX as f64 + 1.0) / kth as f64)) as u64
    }
}

// Serializes as the estimate: sketches exist to be counted, and the
// retained hashes are an implementation detail no consumer should pin.
impl<const K: usize> Serialize for DistinctSketch<K> {
    fn to_content(&self) -> Content {
        Content::U64(self.estimate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        format!("key-{i}").into_bytes()
    }

    #[test]
    fn exact_below_k_and_deduplicating() {
        let mut s: DistinctSketch = DistinctSketch::default();
        for i in 0..1000 {
            s.observe(&[&key(i), b"owner.com"]);
        }
        for i in 0..1000 {
            s.observe(&[&key(i), b"owner.com"]); // duplicates
        }
        assert_eq!(s.estimate(), 1000);
    }

    #[test]
    fn part_boundaries_are_unambiguous() {
        let mut a: DistinctSketch = DistinctSketch::default();
        a.observe(&[b"ab", b"c"]);
        let mut b: DistinctSketch = DistinctSketch::default();
        b.observe(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn estimate_above_k_is_within_a_few_percent() {
        let n = 200_000u64;
        let mut s: DistinctSketch = DistinctSketch::default();
        for i in 0..n {
            s.observe(&[&key(i)]);
        }
        let est = s.estimate() as f64;
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.05, "estimate {est} vs {n}: {:.1}% off", err * 100.0);
    }

    #[test]
    fn memory_is_capped_at_k_hashes() {
        let mut s: DistinctSketch = DistinctSketch::default();
        for i in 0..(DEFAULT_K as u64 * 4) {
            s.observe(&[&key(i)]);
        }
        assert_eq!(s.mins.len(), DEFAULT_K);
    }

    #[test]
    fn small_k_is_exact_below_k_and_never_reads_below_k_minus_one() {
        // The guarantee a small per-key K rests on: a threshold below
        // K − 1 is decided exactly, whatever the true count.
        for n in [1u64, 16, 17, 63, 64, 65, 500, 20_000] {
            let mut s = DistinctSketch::<64>::default();
            for i in 0..n {
                s.observe(&[&key(i)]);
            }
            let est = s.estimate();
            if n < 64 {
                assert_eq!(est, n);
            } else {
                assert!(est >= 63, "n {n}: estimate {est}");
            }
            assert!(s.mins.len() <= 64);
        }
    }

    #[test]
    fn absorb_is_order_and_partition_independent() {
        // Split one population three ways, absorb in different
        // groupings and orders: identical sketches, byte-identical
        // serialization — the parallel-fold determinism contract.
        let n = 60_000u64;
        let part = |range: std::ops::Range<u64>| {
            let mut s: DistinctSketch = DistinctSketch::default();
            for i in range {
                s.observe(&[&key(i)]);
            }
            s
        };
        let (a, b, c) = (part(0..20_000), part(20_000..40_000), part(40_000..n));
        let mut left = a.clone();
        left.absorb(b.clone());
        left.absorb(c.clone());
        let mut right = c;
        right.absorb(a);
        right.absorb(b);
        assert_eq!(left, right);
        assert_eq!(
            serde_json::to_string(&left).unwrap(),
            serde_json::to_string(&right).unwrap()
        );
        // And overlapping absorbs are idempotent.
        let mut again = left.clone();
        again.absorb(right);
        assert_eq!(again, left);
    }

    #[test]
    fn serializes_as_the_estimate() {
        let mut s: DistinctSketch = DistinctSketch::default();
        s.observe(&[b"sid", b"a.com"]);
        s.observe(&[b"uid", b"b.com"]);
        assert_eq!(serde_json::to_string(&s).unwrap(), "2");
    }
}
