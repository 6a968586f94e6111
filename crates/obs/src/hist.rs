//! Log2-bucketed histograms over integer slot counts.
//!
//! Every probe in the stack funnels into [`Log2Histogram`]: a fixed array of
//! 65 buckets where value `v` lands in bucket `bit_length(v)` (bucket 0 holds
//! exactly the zeros, bucket `i >= 1` holds `[2^(i-1), 2^i - 1]`). The shape
//! is chosen for two properties the reports depend on:
//!
//! - **Associative, commutative merge.** A merge is element-wise addition of
//!   bucket counts plus min/max/sum folds, so partial histograms (one per
//!   egress output, one per closed-loop source) combine into the same bytes
//!   regardless of how many there are or of the merge order.
//! - **No allocation after construction.** The bucket array is inline; the
//!   hot-path `record` is a shift, a few adds and a compare.
//!
//! Percentiles are integer-rank over bucket counts and therefore
//! deterministic: `percentile(p)` answers with the upper bound of the bucket
//! containing the `ceil(p/100 * count)`-th smallest sample, clamped to the
//! exact observed maximum.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

/// Number of buckets in a [`Log2Histogram`]: one per possible bit length of a
/// `u64` (0 through 64).
pub const HIST_BUCKETS: usize = 65;

/// Fixed-shape log2 histogram of `u64` samples (slot counts, queue depths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: its bit length (`0` for zero).
#[inline]
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Largest value that lands in `bucket` (inclusive upper bound).
#[inline]
#[must_use]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

impl Log2Histogram {
    /// An empty histogram. Does not allocate.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Fold another histogram into this one. Element-wise over buckets, so the
    /// operation is associative and commutative: merging partials in any
    /// order yields byte-identical state.
    pub fn merge(&mut self, other: &Self) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw bucket counts; index `i` counts samples of bit length `i`.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Integer-rank percentile (`pct` in `0..=100`): the upper bound of the
    /// bucket holding the `ceil(pct/100 * count)`-th smallest sample, clamped
    /// to the observed maximum so reported tails never exceed reality.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (pct.min(100) * self.count).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`Log2Histogram::percentile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    /// 95th percentile (see [`Log2Histogram::percentile`]).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.percentile(95)
    }

    /// 99th percentile (see [`Log2Histogram::percentile`]).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }
}

#[cfg(test)]
mod tests {
    use super::{bucket_of, bucket_upper_bound, Log2Histogram, HIST_BUCKETS};

    #[test]
    fn bucket_boundaries_follow_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(8), 255);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn percentiles_are_integer_rank_and_clamped_to_max() {
        let mut h = Log2Histogram::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.p50(), 1);
        // The 10th-smallest sample is 100; bucket 7 upper bound is 127 but the
        // answer clamps to the observed max.
        assert_eq!(h.percentile(100), 100);
        assert_eq!(h.max(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(Log2Histogram::new().p99(), 0);
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut all = Log2Histogram::new();
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in 0..1000u64 {
            all.record(v * 7 % 513);
            if v % 2 == 0 {
                a.record(v * 7 % 513);
            } else {
                b.record(v * 7 % 513);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        let mut flipped = b;
        flipped.merge(&a);
        assert_eq!(flipped, all);
    }

    #[test]
    fn bucket_count_is_stable() {
        assert_eq!(HIST_BUCKETS, 65);
        let h = Log2Histogram::new();
        assert_eq!(h.buckets().len(), HIST_BUCKETS);
    }
}
