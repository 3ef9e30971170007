//! The arrival-process engines: homogeneous Poisson, thinned piecewise
//! schedules with an optional flash-crowd hotspot, and popularity churn.

use crate::rate::RateSchedule;
use crate::{Arrival, ArrivalProcess, NS_PER_SEC};
use ccm_traces::distributions::exponential;
use ccm_traces::{FileId, Workload};
use simcore::Rng;
use std::sync::Arc;

/// Sample one exponential inter-arrival gap at `rate_rps`, in virtual ns,
/// capped so a pathological draw can never overflow the virtual clock.
fn exp_gap_ns(rng: &mut Rng, rate_rps: f64) -> u64 {
    exponential(rng, NS_PER_SEC as f64 / rate_rps).min(1e18) as u64
}

/// RNG substream labels, fixed so each stochastic component owns its
/// stream: changing how much randomness one consumes never shifts the
/// others (the property the bit-identical-schedule tests pin).
const SUB_TIME: u64 = 1;
const SUB_FILE: u64 = 2;
const SUB_AUX: u64 = 3;

/// Homogeneous Poisson arrivals at a constant rate, files drawn from the
/// workload's popularity distribution — the steady-state baseline.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    workload: Arc<Workload>,
    rate_rps: f64,
    t_ns: u64,
    rng_time: Rng,
    rng_file: Rng,
}

impl PoissonProcess {
    /// A seeded stream at `rate_rps` requests/sec.
    ///
    /// # Panics
    /// Panics if the rate is not finite and positive.
    pub fn new(workload: Arc<Workload>, rate_rps: f64, seed: u64) -> PoissonProcess {
        assert!(
            rate_rps.is_finite() && rate_rps > 0.0,
            "bad rate {rate_rps}"
        );
        let root = Rng::new(seed);
        PoissonProcess {
            workload,
            rate_rps,
            t_ns: 0,
            rng_time: root.substream(SUB_TIME),
            rng_file: root.substream(SUB_FILE),
        }
    }
}

impl ArrivalProcess for PoissonProcess {
    fn next_arrival(&mut self) -> Arrival {
        self.t_ns = self
            .t_ns
            .saturating_add(exp_gap_ns(&mut self.rng_time, self.rate_rps));
        Arrival {
            at_ns: self.t_ns,
            file: self.workload.sample(&mut self.rng_file),
        }
    }

    fn rate_at(&self, _t_ns: u64) -> f64 {
        self.rate_rps
    }

    fn expected_events(&self, t0_ns: u64, t1_ns: u64) -> f64 {
        assert!(t0_ns <= t1_ns, "inverted window");
        self.rate_rps * (t1_ns - t0_ns) as f64 / NS_PER_SEC as f64
    }

    fn label(&self) -> &'static str {
        "poisson"
    }
}

/// A flash-crowd content shift: during `[start_ns, start_ns + duration_ns)`
/// a fraction of arrivals is redirected onto one target object —
/// typically a *cold* file, so the crowd hammers something no cache holds
/// yet. The coin and the redirect consume a dedicated RNG substream, so a
/// hotspot never perturbs the arrival times or the base file choices.
#[derive(Debug, Clone, Copy)]
pub struct Hotspot {
    /// The object the crowd converges on.
    pub target: FileId,
    /// Fraction of window arrivals redirected to the target (0..=1).
    pub fraction: f64,
    /// Window start, virtual ns.
    pub start_ns: u64,
    /// Window length, virtual ns.
    pub duration_ns: u64,
}

impl Hotspot {
    fn covers(&self, t_ns: u64) -> bool {
        t_ns >= self.start_ns && t_ns - self.start_ns < self.duration_ns
    }
}

/// Poisson arrivals thinned to a [`RateSchedule`] — the exact generator
/// for piecewise-constant non-stationary rates: candidates arrive at the
/// schedule's peak rate and are kept with probability `rate(t) / peak`.
/// Optionally carries a [`Hotspot`] for the flash-crowd content shift.
#[derive(Debug, Clone)]
pub struct ScheduledProcess {
    workload: Arc<Workload>,
    schedule: RateSchedule,
    hotspot: Option<Hotspot>,
    label: &'static str,
    peak_rps: f64,
    t_ns: u64,
    rng_time: Rng,
    rng_file: Rng,
    rng_aux: Rng,
}

impl ScheduledProcess {
    /// A seeded stream following `schedule`, labeled `piecewise`.
    pub fn new(workload: Arc<Workload>, schedule: RateSchedule, seed: u64) -> ScheduledProcess {
        Self::labeled(workload, schedule, None, "piecewise", seed)
    }

    /// The diurnal wave: a sampled sinusoid between `trough_rps` and
    /// `peak_rps` with the given period, cycling forever.
    pub fn diurnal(
        workload: Arc<Workload>,
        trough_rps: f64,
        peak_rps: f64,
        period_ns: u64,
        steps: usize,
        seed: u64,
    ) -> ScheduledProcess {
        let schedule = RateSchedule::diurnal(trough_rps, peak_rps, period_ns, steps);
        Self::labeled(workload, schedule, None, "diurnal", seed)
    }

    /// The flash crowd: a rate step from `base_rps` to `crowd_rps` over
    /// the hotspot window, with `hotspot.fraction` of window arrivals
    /// redirected onto `hotspot.target`.
    ///
    /// # Panics
    /// Panics if the hotspot fraction is outside `[0, 1]` or its target
    /// is outside the workload.
    pub fn flash_crowd(
        workload: Arc<Workload>,
        base_rps: f64,
        crowd_rps: f64,
        hotspot: Hotspot,
        seed: u64,
    ) -> ScheduledProcess {
        let schedule =
            RateSchedule::flash_crowd(base_rps, crowd_rps, hotspot.start_ns, hotspot.duration_ns);
        Self::labeled(workload, schedule, Some(hotspot), "flash-crowd", seed)
    }

    fn labeled(
        workload: Arc<Workload>,
        schedule: RateSchedule,
        hotspot: Option<Hotspot>,
        label: &'static str,
        seed: u64,
    ) -> ScheduledProcess {
        if let Some(h) = hotspot {
            assert!(
                (0.0..=1.0).contains(&h.fraction),
                "hotspot fraction {} outside [0, 1]",
                h.fraction
            );
            assert!(
                h.target.index() < workload.num_files(),
                "hotspot target outside the workload"
            );
        }
        let peak_rps = schedule.peak_rps();
        assert!(peak_rps > 0.0, "schedule never offers load");
        let root = Rng::new(seed);
        ScheduledProcess {
            workload,
            schedule,
            hotspot,
            label,
            peak_rps,
            t_ns: 0,
            rng_time: root.substream(SUB_TIME),
            rng_file: root.substream(SUB_FILE),
            rng_aux: root.substream(SUB_AUX),
        }
    }
}

impl ArrivalProcess for ScheduledProcess {
    fn next_arrival(&mut self) -> Arrival {
        // Thinning: candidates at the peak rate, each kept with
        // probability rate(t)/peak. Every candidate consumes exactly one
        // gap draw and one acceptance draw from the time stream.
        loop {
            self.t_ns = self
                .t_ns
                .saturating_add(exp_gap_ns(&mut self.rng_time, self.peak_rps));
            let keep = self.rng_time.next_f64();
            if keep * self.peak_rps < self.schedule.rate_at(self.t_ns) {
                break;
            }
        }
        let redirect = match self.hotspot {
            Some(h) if h.covers(self.t_ns) => self.rng_aux.chance(h.fraction).then_some(h.target),
            _ => None,
        };
        let file = match redirect {
            Some(target) => {
                // Burn the base draw so the non-crowd subsequence is the
                // same stream with or without the hotspot.
                let _ = self.workload.sample(&mut self.rng_file);
                target
            }
            None => self.workload.sample(&mut self.rng_file),
        };
        Arrival {
            at_ns: self.t_ns,
            file,
        }
    }

    fn rate_at(&self, t_ns: u64) -> f64 {
        self.schedule.rate_at(t_ns)
    }

    fn expected_events(&self, t0_ns: u64, t1_ns: u64) -> f64 {
        self.schedule.expected_events(t0_ns, t1_ns)
    }

    fn label(&self) -> &'static str {
        self.label
    }
}

/// Constant-rate Poisson arrivals under **popularity churn**: every
/// `rotate_every_ns` of virtual time the popularity-rank-to-file mapping
/// rotates by `shift` positions, so the Zipf head moves onto files that
/// were cold a period ago while the marginal popularity *shape* is
/// untouched. Caches tuned to yesterday's head must re-learn.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    workload: Arc<Workload>,
    rate_rps: f64,
    rotate_every_ns: u64,
    shift: usize,
    t_ns: u64,
    rng_time: Rng,
    rng_file: Rng,
}

impl ChurnProcess {
    /// A seeded stream at `rate_rps` whose head rotates by `shift` files
    /// every `rotate_every_ns`.
    ///
    /// # Panics
    /// Panics on a non-positive rate, a zero rotation period, or a shift
    /// of zero (no churn) or ≥ the catalog (aliases a smaller shift).
    pub fn new(
        workload: Arc<Workload>,
        rate_rps: f64,
        rotate_every_ns: u64,
        shift: usize,
        seed: u64,
    ) -> ChurnProcess {
        assert!(
            rate_rps.is_finite() && rate_rps > 0.0,
            "bad rate {rate_rps}"
        );
        assert!(rotate_every_ns > 0, "zero rotation period");
        assert!(
            shift > 0 && shift < workload.num_files(),
            "shift must be in 1..num_files"
        );
        let root = Rng::new(seed);
        ChurnProcess {
            workload,
            rate_rps,
            rotate_every_ns,
            shift,
            t_ns: 0,
            rng_time: root.substream(SUB_TIME),
            rng_file: root.substream(SUB_FILE),
        }
    }

    /// The file that popularity rank `rank` maps to at virtual time
    /// `t_ns` (public so tests and reports can name the current head).
    pub fn file_for_rank(&self, rank: FileId, t_ns: u64) -> FileId {
        let n = self.workload.num_files() as u64;
        let epoch = t_ns / self.rotate_every_ns;
        let offset = (epoch % n).wrapping_mul(self.shift as u64) % n;
        FileId(((rank.0 as u64 + offset) % n) as u32)
    }
}

impl ArrivalProcess for ChurnProcess {
    fn next_arrival(&mut self) -> Arrival {
        self.t_ns = self
            .t_ns
            .saturating_add(exp_gap_ns(&mut self.rng_time, self.rate_rps));
        let rank = self.workload.sample(&mut self.rng_file);
        Arrival {
            at_ns: self.t_ns,
            file: self.file_for_rank(rank, self.t_ns),
        }
    }

    fn rate_at(&self, _t_ns: u64) -> f64 {
        self.rate_rps
    }

    fn expected_events(&self, t0_ns: u64, t1_ns: u64) -> f64 {
        assert!(t0_ns <= t1_ns, "inverted window");
        self.rate_rps * (t1_ns - t0_ns) as f64 / NS_PER_SEC as f64
    }

    fn label(&self) -> &'static str {
        "churn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    fn workload() -> Arc<Workload> {
        // 16 files, Zipf-ish non-increasing weights.
        let sizes = vec![10_000u64; 16];
        let weights: Vec<f64> = (1..=16).map(|i| 1.0 / i as f64).collect();
        Arc::new(Workload::new("test", sizes, &weights))
    }

    #[test]
    fn poisson_timestamps_are_nondecreasing_and_rate_matches() {
        let mut p = PoissonProcess::new(workload(), 1000.0, 7);
        let events = record(&mut p, 5000);
        for w in events.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
        // 5000 events at 1000/s should span ~5 virtual seconds.
        let span_s = events.last().unwrap().at_ns as f64 / NS_PER_SEC as f64;
        assert!((span_s - 5.0).abs() < 0.5, "span {span_s}s");
    }

    #[test]
    fn flash_crowd_redirects_only_inside_window() {
        let hotspot = Hotspot {
            target: FileId(15),
            fraction: 1.0,
            start_ns: NS_PER_SEC,
            duration_ns: NS_PER_SEC,
        };
        let mut p = ScheduledProcess::flash_crowd(workload(), 200.0, 2000.0, hotspot, 11);
        let events = record_until_t(&mut p, 3 * NS_PER_SEC);
        let (mut before, mut during, mut after) = (0u32, 0u32, 0u32);
        for a in &events {
            if a.at_ns < hotspot.start_ns {
                before += 1;
            } else if a.at_ns < hotspot.start_ns + hotspot.duration_ns {
                assert_eq!(a.file, FileId(15), "fraction 1.0 must redirect everything");
                during += 1;
            } else {
                after += 1;
            }
        }
        // The window runs at 10x the base rate.
        assert!(before > 0 && after > 0);
        assert!(
            during as f64 > 4.0 * (before + after) as f64,
            "{during} vs {before}+{after}"
        );
    }

    fn record_until_t(p: &mut dyn ArrivalProcess, horizon: u64) -> Vec<Arrival> {
        crate::record_until(p, horizon)
    }

    #[test]
    fn churn_rotates_the_head() {
        let rotate = NS_PER_SEC;
        let mut p = ChurnProcess::new(workload(), 2000.0, rotate, 5, 13);
        // Epoch 0: rank 0 maps to file 0; epoch 1: file 5; epoch 2: file 10.
        assert_eq!(p.file_for_rank(FileId(0), 0), FileId(0));
        assert_eq!(p.file_for_rank(FileId(0), rotate), FileId(5));
        assert_eq!(p.file_for_rank(FileId(0), 2 * rotate), FileId(10));
        // The empirically hottest file in each epoch follows the rotation.
        let events = crate::record_until(&mut p, 2 * rotate);
        let hottest = |lo: u64, hi: u64| -> FileId {
            let mut counts = [0u32; 16];
            for a in events.iter().filter(|a| a.at_ns >= lo && a.at_ns < hi) {
                counts[a.file.index()] += 1;
            }
            FileId((0..16).max_by_key(|&i| counts[i]).expect("nonempty window") as u32)
        };
        assert_eq!(hottest(0, rotate), FileId(0));
        assert_eq!(hottest(rotate, 2 * rotate), FileId(5));
    }

    #[test]
    fn hotspot_does_not_perturb_times_or_base_files() {
        let hotspot = Hotspot {
            target: FileId(15),
            fraction: 0.5,
            start_ns: 0,
            duration_ns: NS_PER_SEC,
        };
        let base = RateSchedule::flash_crowd(500.0, 500.0, 0, NS_PER_SEC);
        let mut plain = ScheduledProcess::new(workload(), base, 23);
        let mut hot = ScheduledProcess::flash_crowd(workload(), 500.0, 500.0, hotspot, 23);
        for _ in 0..500 {
            let a = plain.next_arrival();
            let b = hot.next_arrival();
            assert_eq!(a.at_ns, b.at_ns, "hotspot changed the clock");
            if b.file != FileId(15) {
                assert_eq!(a.file, b.file, "hotspot changed a non-crowd choice");
            }
        }
    }
}
