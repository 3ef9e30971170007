//! A log-bucket latency histogram owned by the benchmark.
//!
//! Values are nanoseconds. Each power of two is split into 128 equal
//! sub-buckets, so a bucket is never wider than 1/128 (0.78 %) of its lower
//! bound and a quantile read from it is within 1 % of the exact one. Values
//! below 128 get a bucket each. Recording is one index computation and one
//! increment, with no allocation: the hot workload records tens of millions
//! of samples, which a `Vec` of samples could not hold.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// See the module documentation.
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist::new()
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + m
}

/// Lower bound and width of bucket `idx`.
fn bounds_of(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx / SUB - 1) as u32;
    (((SUB + idx % SUB) as u64) << shift, 1u64 << shift)
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> LogHist {
        LogHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (0 when empty), interpolated linearly inside the
    /// bucket that holds the rank so that neighbouring runs do not read
    /// identical values.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (before + c) as f64 {
                let (low, width) = bounds_of(idx);
                let within = (rank - before as f64 + 0.5) / c as f64;
                return low as f64 + width as f64 * within;
            }
            before += c;
        }
        unreachable!("rank {rank} is below the sample count {}", self.n)
    }
}

/// The `q`-quantile of `values`, interpolated between the two nearest
/// ranks (0 when there are none).
pub fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    v[below] + (v[above] - v[below]) * (rank - below as f64)
}

/// Median of `values` (0 when there are none).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median([]), 0.0);
        assert_eq!(median([3.0]), 3.0);
        assert_eq!(median([10.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile([4.0, 1.0, 2.0, 3.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile([1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile([7.0], 0.25), 7.0);
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for idx in 0..BUCKETS - 1 {
            let (low, width) = bounds_of(idx);
            assert_eq!(low, next, "bucket {idx}");
            assert_eq!(index_of(low), idx);
            assert_eq!(index_of(low + width - 1), idx);
            next = low + width;
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_one_percent_of_exact() {
        // A heavy-tailed known sample: 200 000 values spread over five
        // decades, the shape request latencies have.
        let mut state = 7u64;
        let mut exact: Vec<u64> = (0..200_000)
            .map(|_| {
                let r = simcore::rng::splitmix64(&mut state);
                let decade = 10u64.pow((r % 5) as u32 + 2);
                decade + (r >> 8) % (9 * decade)
            })
            .collect();
        let mut h = LogHist::new();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = exact[(q * (exact.len() - 1) as f64).round() as usize] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= 0.01 * want,
                "q={q}: histogram {got} vs exact {want}"
            );
        }
        assert_eq!(h.count(), 200_000);
    }

    #[test]
    fn merge_adds_samples() {
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        for v in 0..1000 {
            a.record(v);
            b.record(1_000_000 + v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        assert!(a.quantile(0.25) < 1000.0);
        assert!(a.quantile(0.75) > 999_000.0);
    }
}
