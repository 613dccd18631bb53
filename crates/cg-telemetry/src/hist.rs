//! Per-worker latency histograms, merged deterministically.
//!
//! Each worker owns a private [`LatencyHistogram`] and records into it
//! with plain (non-atomic) increments — no sharing, no locks, no
//! contention on the hot path. After the workers join, the per-worker
//! histograms [`merge`](LatencyHistogram::merge) element-wise; because
//! bucket counts are order-independent sums, the merged histogram (and
//! every quantile drawn from it) is identical at any worker count for
//! the same recorded multiset.
//!
//! Buckets are log-scaled with 16 linear sub-buckets per power of two
//! (HdrHistogram-style): relative quantile error is bounded by 1/16
//! (~6%) across the full `u64` nanosecond range in under 8 KiB of
//! counters, so 77 ns decisions and millisecond-scale stalls land in
//! one structure without tuning.
//!
//! The crawl, analysis, and serving layers share this one histogram
//! type. The shared-registry
//! [`Histogram`](crate::metrics::Histogram) handle in
//! [`crate::metrics`] wraps the same bucket math in atomics.

use serde::Serialize;

/// log2(sub-buckets per octave).
pub(crate) const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two.
pub(crate) const SUB: usize = 1 << SUB_BITS;
/// Total buckets: 16 exact values below 16, then 16 per octave up to
/// 2^63.
pub(crate) const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// Index of the bucket containing `v`.
pub(crate) fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (exp - SUB_BITS as usize)) as usize) & (SUB - 1);
        (exp - SUB_BITS as usize + 1) * SUB + sub
    }
}

/// Smallest value that lands in bucket `i` (the quantile estimate we
/// report — a conservative lower bound).
pub(crate) fn bucket_floor(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let exp = i / SUB - 1 + SUB_BITS as usize;
        let sub = (i % SUB) as u64;
        (1u64 << exp) + (sub << (exp - SUB_BITS as usize))
    }
}

/// A log-scaled histogram of nanosecond latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64]>,
    total: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Folds `other` into `self` (element-wise sum; commutative and
    /// associative, hence worker-count-independent).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The value at quantile `q` in `[0, 1]` — the floor of the bucket
    /// holding the `ceil(q · count)`-th smallest observation. Returns 0
    /// on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_floor(i);
            }
        }
        self.max_ns
    }

    /// The fixed quantile set the service reports.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.total,
            p50_ns: self.quantile(0.50),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
            max_ns: self.max_ns,
        }
    }

    /// Raw bucket counts (for the atomic registry handle's snapshot).
    pub(crate) fn from_parts(counts: Box<[u64]>, total: u64, max_ns: u64) -> LatencyHistogram {
        debug_assert_eq!(counts.len(), BUCKETS);
        LatencyHistogram {
            counts,
            total,
            max_ns,
        }
    }
}

/// The serialized latency block of `BENCH_service.json`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencySummary {
    /// Observations behind the quantiles.
    pub count: u64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Largest single observation, nanoseconds (exact).
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        // Every bucket's floor maps back to that bucket, and floors
        // strictly increase — no gaps, no overlaps.
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_floor(i)), i, "floor of bucket {i}");
            if i > 0 {
                assert!(bucket_floor(i) > bucket_floor(i - 1));
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_error_is_bounded() {
        // The floor underestimates by less than one sub-bucket width:
        // v - floor(bucket(v)) < v / 16 for v >= 16.
        for v in [16u64, 100, 77, 1_000, 123_456, 7_777_777, u64::MAX / 3] {
            let floor = bucket_floor(bucket_of(v));
            assert!(floor <= v);
            assert!(v - floor <= v / SUB as u64, "error too large at {v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.summary().max_ns, 15);
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let values_a = [3u64, 77, 500, 12_345];
        let values_b = [9u64, 77, 1_000_000];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in values_a {
            a.record(v);
            whole.record(v);
        }
        for v in values_b {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
        assert_eq!(a.summary().max_ns, whole.summary().max_ns);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 0..10_000u64 {
            h.record(i * 37 % 1_000_000);
        }
        let s = h.summary();
        assert!(s.p50_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.p999_ns);
        assert!(s.p999_ns <= s.max_ns);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = LatencyHistogram::new().summary();
        assert_eq!((s.count, s.p50_ns, s.p999_ns, s.max_ns), (0, 0, 0, 0));
    }
}
