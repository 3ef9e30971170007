//! Read/write mixes and scan-heavy request streams.
//!
//! Two workload variants for exercising the middleware's write path and its
//! admission control, both built *on top of* the four calibrated presets
//! rather than as new [`Preset`](crate::Preset) variants:
//!
//! * [`WriteMix`] marks a deterministic subset of a request stream as
//!   writes. The decision is a pure function of `(seed, op index)` — not of
//!   RNG draw order — so a multi-threaded driver where every client numbers
//!   its own operations reproduces the exact same read/write schedule on
//!   every run, and a verifier can recompute which ops wrote without
//!   replaying the sampler.
//! * [`scan_heavy`] appends a sequential-scan tail to a workload: the Zipf
//!   body keeps its popularity mass, while the scan files carry **zero**
//!   popularity weight and are only touched by a [`ScanSource`], which
//!   replaces every `period`-th request with the next sequential scan file.
//!   Each scan file is touched once per sweep — the classic one-touch scan
//!   that pollutes an LRU cache and that ghost-LRU admission is built to
//!   resist.
//!
//! Everything here is deterministic: the same `(workload, seed, config)`
//! triple yields a bit-identical request/op stream across runs, threads, and
//! independently constructed sources — the property the conformance and
//! bench suites pin.

use crate::model::{FileId, RequestSource, Workload};
use simcore::rng::splitmix64;

/// Deterministic write marking over a numbered operation stream.
///
/// `is_write(op)` hashes `(seed, op)` and compares against the ratio, so the
/// schedule is independent of sampling order and cheap to recompute anywhere
/// — the load generator's read-back verifier uses exactly this to know which
/// payload each block must hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteMix {
    seed: u64,
    ratio: f64,
}

impl WriteMix {
    /// A mix where a `ratio` fraction of operations write (0.0 ..= 1.0).
    ///
    /// # Panics
    /// Panics if `ratio` is not a probability.
    pub fn new(seed: u64, ratio: f64) -> WriteMix {
        assert!(
            (0.0..=1.0).contains(&ratio) && ratio.is_finite(),
            "write ratio {ratio} is not a probability"
        );
        WriteMix { seed, ratio }
    }

    /// The write fraction this mix was built with.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Whether operation number `op` is a write — a pure function of
    /// `(seed, op)`.
    #[inline]
    pub fn is_write(&self, op: u64) -> bool {
        // 53 uniform mantissa bits → [0, 1).
        let mut key = self.seed ^ op.wrapping_mul(0xA24B_AED4_963E_E407);
        let u = (splitmix64(&mut key) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.ratio
    }

    /// The number of writes among operations `0..ops` (exact, not expected).
    pub fn writes_in(&self, ops: u64) -> u64 {
        (0..ops).filter(|&op| self.is_write(op)).count() as u64
    }
}

/// Shape of the scan tail appended by [`scan_heavy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanConfig {
    /// Number of one-touch files appended after the popularity body.
    pub scan_files: usize,
    /// Size of each scan file in bytes.
    pub scan_file_bytes: u64,
    /// Every `period`-th request is replaced by the next scan file
    /// (`period == 4` → 25% of requests are scan touches).
    pub period: u64,
}

impl Default for ScanConfig {
    fn default() -> ScanConfig {
        ScanConfig {
            scan_files: 512,
            scan_file_bytes: 8 * 1024,
            period: 4,
        }
    }
}

/// Append a zero-popularity scan tail to `base`.
///
/// The returned workload has `base.num_files() + cfg.scan_files` files; the
/// body keeps its exact popularity distribution (sampling never draws a
/// scan file), and the tail exists so catalogs built from the workload
/// contain the scan files a [`ScanSource`] will touch.
///
/// # Panics
/// Panics if `cfg.scan_files` is zero or `cfg.period` is zero.
pub fn scan_heavy(base: &Workload, cfg: ScanConfig) -> Workload {
    assert!(cfg.scan_files > 0, "scan tail must not be empty");
    assert!(cfg.period > 0, "scan period must be positive");
    let body = base.num_files();
    let mut sizes = base.sizes().to_vec();
    sizes.extend(std::iter::repeat_n(cfg.scan_file_bytes, cfg.scan_files));
    let mut weights: Vec<f64> = (0..body)
        .map(|i| base.popularity(FileId(i as u32)))
        .collect();
    weights.extend(std::iter::repeat_n(0.0, cfg.scan_files));
    Workload::new(
        format!("{}-scan{}", base.name(), cfg.scan_files),
        sizes,
        &weights,
    )
}

/// Interleaves sequential scan touches into a popularity-driven stream.
///
/// Every `period`-th request (1-based) returns the next scan file in
/// sequence, wrapping after the last; all other requests come from the
/// inner source. Determinism is inherited: a seeded inner source makes the
/// whole interleaved stream a pure function of the seed.
#[derive(Debug, Clone)]
pub struct ScanSource<S> {
    inner: S,
    body_files: u32,
    scan_files: u32,
    period: u64,
    ops: u64,
    next_scan: u32,
}

impl<S: RequestSource> ScanSource<S> {
    /// Wrap `inner` (which must draw only from the first `body_files`
    /// ranks) with a sweep over the `scan_files` files that follow them —
    /// the layout [`scan_heavy`] produces.
    ///
    /// # Panics
    /// Panics if `scan_files` or `period` is zero.
    pub fn new(inner: S, body_files: usize, scan_files: usize, period: u64) -> ScanSource<S> {
        assert!(scan_files > 0, "scan tail must not be empty");
        assert!(period > 0, "scan period must be positive");
        ScanSource {
            inner,
            body_files: body_files as u32,
            scan_files: scan_files as u32,
            period,
            ops: 0,
            next_scan: 0,
        }
    }
}

impl<S: RequestSource> RequestSource for ScanSource<S> {
    fn next_request(&mut self) -> FileId {
        self.ops += 1;
        if self.ops.is_multiple_of(self.period) {
            let f = FileId(self.body_files + self.next_scan);
            self.next_scan = (self.next_scan + 1) % self.scan_files;
            f
        } else {
            self.inner.next_request()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SampledSource;
    use simcore::Rng;
    use std::sync::Arc;

    fn body() -> Workload {
        Workload::new("body", vec![1_000, 2_000, 4_000], &[2.0, 1.0, 1.0])
    }

    #[test]
    fn write_mix_is_a_pure_function_of_seed_and_op() {
        let a = WriteMix::new(7, 0.25);
        let b = WriteMix::new(7, 0.25);
        for op in 0..10_000 {
            assert_eq!(a.is_write(op), b.is_write(op));
        }
        // Order independence: querying backwards agrees with forwards.
        let fwd: Vec<bool> = (0..100).map(|op| a.is_write(op)).collect();
        let bwd: Vec<bool> = (0..100).rev().map(|op| a.is_write(op)).collect();
        assert_eq!(fwd, bwd.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn write_mix_tracks_the_ratio() {
        let mix = WriteMix::new(42, 0.2);
        let writes = mix.writes_in(50_000) as f64 / 50_000.0;
        assert!((writes - 0.2).abs() < 0.01, "observed ratio {writes}");
        assert_eq!(WriteMix::new(1, 0.0).writes_in(10_000), 0);
        assert_eq!(WriteMix::new(1, 1.0).writes_in(10_000), 10_000);
    }

    #[test]
    fn different_seeds_mark_different_ops() {
        let a = WriteMix::new(1, 0.3);
        let b = WriteMix::new(2, 0.3);
        let marks = |m: &WriteMix| (0..1_000).map(|op| m.is_write(op)).collect::<Vec<_>>();
        assert_ne!(marks(&a), marks(&b));
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn bad_ratio_panics() {
        WriteMix::new(0, 1.5);
    }

    #[test]
    fn scan_heavy_appends_weightless_tail() {
        let w = scan_heavy(
            &body(),
            ScanConfig {
                scan_files: 5,
                scan_file_bytes: 512,
                period: 3,
            },
        );
        assert_eq!(w.num_files(), 8);
        assert_eq!(w.sizes()[3..], [512; 5]);
        // Body popularity is preserved exactly; tail carries zero mass.
        assert!((w.popularity(FileId(0)) - 0.5).abs() < 1e-12);
        for f in 3..8 {
            assert_eq!(w.popularity(FileId(f)), 0.0);
        }
        // Sampling never draws a scan file.
        let mut rng = Rng::new(11);
        for _ in 0..20_000 {
            assert!(w.sample(&mut rng).index() < 3);
        }
    }

    #[test]
    fn scan_source_sweeps_sequentially_at_the_period() {
        let w = Arc::new(body());
        let inner = SampledSource::new(w, Rng::new(5));
        let mut src = ScanSource::new(inner, 3, 4, 3);
        let stream: Vec<FileId> = (0..24).map(|_| src.next_request()).collect();
        // Every 3rd request (1-based) is a scan touch, sweeping 3,4,5,6 then
        // wrapping.
        let scans: Vec<u32> = stream
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + 1) % 3 == 0)
            .map(|(_, f)| f.0)
            .collect();
        assert_eq!(scans, vec![3, 4, 5, 6, 3, 4, 5, 6]);
        // Everything else stays in the body.
        for (i, f) in stream.iter().enumerate() {
            if (i + 1) % 3 != 0 {
                assert!(f.index() < 3, "op {i} drew {f:?} outside the body");
            }
        }
    }

    #[test]
    fn scan_stream_is_deterministic_per_seed() {
        let w = Arc::new(body());
        let draw = |seed: u64| -> Vec<u32> {
            let mut src = ScanSource::new(SampledSource::new(w.clone(), Rng::new(seed)), 3, 4, 3);
            (0..500).map(|_| src.next_request().0).collect()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }
}
