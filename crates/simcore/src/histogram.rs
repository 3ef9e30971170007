//! A log-bucketed latency histogram.
//!
//! Response-time distributions in the experiments span microseconds (pure
//! memory hits) to tens of milliseconds (queued disk reads), so fixed-width
//! buckets would be useless. This histogram uses base-2 logarithmic buckets
//! with a configurable number of linear sub-buckets per octave — the same
//! scheme HDR-style histograms use — giving a bounded relative quantile error
//! with a few hundred buckets.

use crate::time::SimDuration;

/// Sub-buckets per power-of-two octave. 16 gives ≤ ~6% relative error.
const SUBBUCKETS_BITS: u32 = 4;
const SUBBUCKETS: u64 = 1 << SUBBUCKETS_BITS;

/// A histogram over `u64` values (the simulator records nanoseconds).
///
/// ```
/// use simcore::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let median = h.median() as f64;
/// assert!((median - 500.0).abs() / 500.0 < 0.07, "bounded relative error");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket holding `value`: exact below 16, then 16 linear sub-buckets per
/// power-of-two octave. Monotonic in `value`, and unbounded (callers with a
/// fixed bucket array saturate it themselves).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUBBUCKETS {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as u64; // floor(log2(value)), >= SUBBUCKETS_BITS
    let sub = (value >> (octave - SUBBUCKETS_BITS as u64)) - SUBBUCKETS;
    ((octave - SUBBUCKETS_BITS as u64 + 1) * SUBBUCKETS + sub) as usize
}

/// Lower bound of the value range covered by bucket `idx`.
#[inline]
pub fn bucket_low(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBBUCKETS {
        return idx;
    }
    let octave = idx / SUBBUCKETS + SUBBUCKETS_BITS as u64 - 1;
    let sub = idx % SUBBUCKETS;
    (SUBBUCKETS + sub) << (octave - SUBBUCKETS_BITS as u64)
}

/// Index of the bucket holding the `q`-quantile's 1-based rank among
/// `count` samples spread over `buckets` (the rank is never below one), or
/// `None` when the buckets hold fewer samples than that rank.
#[inline]
pub fn quantile_bucket(buckets: &[u64], count: u64, q: f64) -> Option<usize> {
    let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0;
    buckets.iter().position(|&c| {
        seen += c;
        seen >= target
    })
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a duration, in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`), as the lower bound of the
    /// bucket containing that rank, clamped to `[min, max]`. Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_bucket(&self.buckets, self.count, q)
            .map_or(self.max, |idx| bucket_low(idx).max(self.min).min(self.max))
    }

    /// Convenience: the approximate median.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index decreased at {v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_low_inverts_index() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u32::MAX as u64] {
            let idx = bucket_index(v);
            let low = bucket_low(idx);
            assert!(low <= v, "low {low} > value {v}");
            // The bucket containing `low` is the same bucket.
            assert_eq!(bucket_index(low), idx, "v={v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        for q in 1..=15 {
            let want = q; // values 0..16, quantile q/16 picks value q-? approximately
            let got = h.quantile(q as f64 / 16.0);
            assert!((got as i64 - want as i64).abs() <= 1, "q={q} got={got}");
        }
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 25.0).abs() < 1e-12);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 40);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, exact) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.07, "q={q} got={got} rel={rel}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=1000u64 {
            a.record(v);
            b.record(v + 1000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 2000);
        let med = a.median() as f64;
        assert!((med - 1000.0).abs() / 1000.0 < 0.07, "median={med}");
    }

    #[test]
    fn quantile_extremes_clamp_to_min_max() {
        let mut h = Histogram::new();
        h.record(500);
        h.record(1500);
        // q = 0 is rank 1: bucket [496, 512) raised to the minimum. q = 1 is
        // rank 2: 1500's bucket starts at 1472, inside [min, max].
        assert_eq!(h.quantile(0.0), 500);
        assert_eq!(h.quantile(1.0), 1472);
    }
}
