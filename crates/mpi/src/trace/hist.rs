//! Log-bucketed (HDR-style) latency histograms.
//!
//! One bucket per power of two: a value `v` lands in bucket
//! `floor(log2(max(v, 1)))`. 48 buckets cover durations up to
//! 2^48 ns ≈ 3.3 days — far beyond any span this substrate records —
//! at a fixed 400-byte footprint, so histograms can live in
//! [`TraceStats`](super::TraceStats) (and therefore in every
//! [`RunReport`](crate::RunReport)) by value, with recording cost of a
//! `leading_zeros` and two adds. Quantiles are resolved to bucket
//! upper bounds: relative error is bounded by 2x, which is the right
//! trade for a profile whose job is to separate "100 ns" from "10 µs",
//! not to rank two 3-µs paths.

/// Number of power-of-two buckets in a [`LatencyHist`].
pub const HIST_BUCKETS: usize = 48;

/// A log-bucketed histogram of `u64` samples (durations in ns, queue
/// depths, ...). Plain-old-data: merging and snapshotting are field
/// copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples (exact, unlike the buckets).
    pub total: u64,
    /// `buckets[k]` counts samples with `floor(log2(max(v, 1))) == k`.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            count: 0,
            total: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl LatencyHist {
    /// Bucket index of a sample (0 and 1 share bucket 0).
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (63 - v.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    /// Inclusive value range `[lo, hi]` covered by bucket `k`.
    pub fn bucket_bounds(k: usize) -> (u64, u64) {
        let lo = if k == 0 { 0 } else { 1u64 << k };
        let hi = (2u64 << k) - 1;
        (lo, hi)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v`.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.total = self.total.saturating_add(v.saturating_mul(n));
        self.buckets[Self::bucket_of(v)] += n;
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHist) {
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the recorded samples (0 if empty).
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`; 0 if empty). Resolution is the bucket width:
    /// the true quantile is within 2x of the returned value.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_bounds(k).1;
            }
        }
        Self::bucket_bounds(HIST_BUCKETS - 1).1
    }

    /// Upper bound of the highest non-empty bucket (0 if empty).
    pub fn max_estimate(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|k| Self::bucket_bounds(k).1)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(LatencyHist::bucket_of(0), 0);
        assert_eq!(LatencyHist::bucket_of(1), 0);
        assert_eq!(LatencyHist::bucket_of(2), 1);
        assert_eq!(LatencyHist::bucket_of(3), 1);
        assert_eq!(LatencyHist::bucket_of(4), 2);
        assert_eq!(LatencyHist::bucket_of(1023), 9);
        assert_eq!(LatencyHist::bucket_of(1024), 10);
        assert_eq!(LatencyHist::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bounds_partition_the_axis() {
        for k in 0..HIST_BUCKETS - 1 {
            let (lo, hi) = LatencyHist::bucket_bounds(k);
            assert_eq!(LatencyHist::bucket_of(lo.max(1)), k);
            assert_eq!(LatencyHist::bucket_of(hi), k);
            assert_eq!(LatencyHist::bucket_bounds(k + 1).0, hi + 1);
        }
    }

    #[test]
    fn quantiles_hit_bucket_upper_bounds() {
        let mut h = LatencyHist::default();
        for _ in 0..90 {
            h.record(100); // bucket 6: [64, 127]
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 13: [8192, 16383]
        }
        assert_eq!(h.count, 100);
        assert_eq!(h.mean(), (90 * 100 + 10 * 10_000) / 100);
        assert_eq!(h.value_at_quantile(0.5), 127);
        assert_eq!(h.value_at_quantile(0.99), 16_383);
        assert_eq!(h.max_estimate(), 16_383);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = LatencyHist::default();
        a.record(5);
        let mut b = LatencyHist::default();
        b.record_n(7, 3);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.total, 5 + 21);
        assert_eq!(a.buckets[2], 4); // 5 and 7 both land in [4, 7]
    }

    #[test]
    fn empty_hist_reports_zeros() {
        let h = LatencyHist::default();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0);
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.max_estimate(), 0);
    }
}
