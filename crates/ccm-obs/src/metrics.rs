//! The metrics core: counters, gauges, log-bucketed latency histograms,
//! and the [`Registry`] that owns their identities.
//!
//! Handles are cheap `Arc`s over atomics, created once at component startup
//! and then updated from the hot path without any registry lock. A counter
//! increment is one relaxed atomic add on a word every caller shares. A
//! histogram is striped per thread: a record is three relaxed adds on the
//! recording thread's own cache-line-aligned stripe, allocated on that
//! thread's first record, and a snapshot sums the stripes. The registry is
//! only locked at registration and scrape time, never per event. A value
//! kept elsewhere (an occupancy, a protocol tally) is not mirrored into a
//! handle on every change: its owner registers a refresh hook
//! ([`Registry::on_snapshot`]) that copies it in when the registry is
//! scraped.
//!
//! With the `obs-off` feature, histograms and stopwatches compile to
//! nothing — the overhead-guard bench builds against it to measure the
//! instrumentation delta. Counters and gauges stay live even then: they
//! carry behaviour (the runtime's store-fallback count feeds `CacheStats`,
//! and the front tier's load-aware dispatch reads its inflight gauges), and
//! their cost is one relaxed atomic per event.

#[cfg(not(feature = "obs-off"))]
use crate::stripe::{self, STRIPES};
use simcore::histogram::{bucket_low, quantile_bucket};
use simcore::sync::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
#[cfg(not(feature = "obs-off"))]
use std::sync::OnceLock;

/// Fixed bucket count over `simcore::histogram`'s bucket scheme (16
/// sub-buckets per octave, ≤ ~6% relative quantile error). Indices saturate
/// into the last bucket, which covers values up to ~2^35 ns (≈ 34 s)
/// exactly and lumps everything larger together.
pub const HISTOGRAM_BUCKETS: usize = 512;

/// Smallest value that saturates into the final bucket (diagnostics/tests).
pub fn saturation_threshold() -> u64 {
    bucket_low(HISTOGRAM_BUCKETS - 1)
}

/// A monotonically increasing counter. One relaxed atomic add per event.
///
/// Counters are live in every build, including `obs-off` — see the module
/// docs for why.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (starts at zero).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (occupancies, depths, link states).
///
/// Gauges are live in every build, including `obs-off` — see the module
/// docs for why.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry (starts at zero).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by `d` (may be negative).
    #[inline]
    pub fn adjust(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One thread's share of a histogram, on cache lines of its own.
#[cfg(not(feature = "obs-off"))]
#[derive(Debug)]
#[repr(align(128))]
struct HistogramStripe {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

#[cfg(not(feature = "obs-off"))]
impl HistogramStripe {
    fn new() -> Box<HistogramStripe> {
        Box::new(HistogramStripe {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }
}

/// A fixed-bucket, log-scale histogram recordable from any thread: three
/// relaxed atomic adds per sample on the recording thread's stripe, no
/// lock, and one allocation per stripe on its first sample.
#[cfg(not(feature = "obs-off"))]
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<[OnceLock<Box<HistogramStripe>>; STRIPES]>);

/// A fixed-bucket, log-scale histogram (`obs-off`: compiled to nothing).
#[cfg(feature = "obs-off")]
#[derive(Clone, Debug, Default)]
pub struct Histogram;

#[cfg(not(feature = "obs-off"))]
impl Histogram {
    /// A histogram not attached to any registry (empty).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one value (nanoseconds, by convention).
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = simcore::histogram::bucket_index(value).min(HISTOGRAM_BUCKETS - 1);
        let stripe = self.0[stripe::index()].get_or_init(HistogramStripe::new);
        stripe.buckets[idx].fetch_add(1, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution: the sum of the stripes.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for stripe in self.0.iter().filter_map(OnceLock::get) {
            for (total, b) in snap.buckets.iter_mut().zip(stripe.buckets.iter()) {
                *total += b.load(Ordering::Relaxed);
            }
            snap.count += stripe.count.load(Ordering::Relaxed);
            // Wrapping, like the atomic add each stripe's sum is kept by.
            snap.sum = snap.sum.wrapping_add(stripe.sum.load(Ordering::Relaxed));
        }
        snap
    }

    /// Stripes allocated so far.
    #[cfg(test)]
    fn stripes_in_use(&self) -> usize {
        self.0.iter().filter(|s| s.get().is_some()).count()
    }
}

#[cfg(feature = "obs-off")]
impl Histogram {
    /// A histogram not attached to any registry.
    pub fn new() -> Histogram {
        Histogram
    }

    /// No-op (`obs-off`).
    #[inline]
    pub fn record(&self, _value: u64) {}

    /// Always empty (`obs-off`).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

/// A started latency measurement; `stop` records the elapsed nanoseconds.
/// Under `obs-off` no clock is read at all. `Copy`, so one start can time
/// several things that began together. It is also a moment: a trace batch
/// ([`crate::TraceRing::batch`]) stamps its events with it, so one clock
/// read can both close a latency sample ([`Stopwatch::lap`]) and date the
/// hops recorded with it.
#[cfg(not(feature = "obs-off"))]
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(pub(crate) std::time::Instant);

/// A started latency measurement (`obs-off`: compiled to nothing).
#[cfg(feature = "obs-off")]
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch;

#[cfg(not(feature = "obs-off"))]
impl Stopwatch {
    /// Start timing now.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch(std::time::Instant::now())
    }

    /// Record the elapsed nanoseconds into `h` and return them.
    #[inline]
    pub fn stop(self, h: &Histogram) -> u64 {
        let ns = self.0.elapsed().as_nanos() as u64;
        h.record(ns);
        ns
    }

    /// Record the elapsed nanoseconds into `h` and return the moment this
    /// measurement stopped, read from the clock once.
    #[inline]
    pub fn lap(self, h: &Histogram) -> Stopwatch {
        let now = std::time::Instant::now();
        h.record(now.saturating_duration_since(self.0).as_nanos() as u64);
        Stopwatch(now)
    }
}

#[cfg(feature = "obs-off")]
impl Stopwatch {
    /// Start timing (`obs-off`: reads no clock).
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch
    }

    /// No-op; returns zero (`obs-off`).
    #[inline]
    pub fn stop(self, _h: &Histogram) -> u64 {
        0
    }

    /// No-op (`obs-off`: reads no clock).
    #[inline]
    pub fn lap(self, _h: &Histogram) -> Stopwatch {
        Stopwatch
    }
}

/// A point-in-time copy of a [`Histogram`]'s distribution. Plain data:
/// mergeable across nodes, queryable for quantiles, serializable by the
/// exposition layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Fine bucket occupancy ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded values (saturating only at u64 range).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile as the lower bound of the bucket holding
    /// that rank (0 when empty; the final bucket also absorbs saturated
    /// samples, so its lower bound is the largest answer possible).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        bucket_low(quantile_bucket(&self.buckets, self.count, q).unwrap_or(HISTOGRAM_BUCKETS - 1))
    }

    /// Merge another snapshot into this one (e.g. per-node distributions
    /// into a cluster-wide one).
    ///
    /// # Panics
    /// Panics if the bucket layouts differ (cannot happen between snapshots
    /// from this crate: the layout is a compile-time constant).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket layouts differ"
        );
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// The value read from one metric at scrape time.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Monotonic counter.
    Counter(u64),
    /// Instantaneous gauge.
    Gauge(i64),
    /// Latency/size distribution.
    Histogram(HistogramSnapshot),
}

/// One metric with its identity, read at scrape time.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// Metric family name (Prometheus conventions: `ccm_<area>_<what>`,
    /// counters suffixed `_total`, values in base units named in the
    /// suffix, e.g. `_ns`).
    pub name: String,
    /// One-line description.
    pub help: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: Value,
}

/// A consistent scrape of a whole registry, sorted by `(name, labels)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All registered metrics.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// The sorted, deduplicated set of family names (diagnostics; parity
    /// tests compare these across transport backends).
    pub fn family_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.metrics.iter().map(|m| m.name.clone()).collect();
        names.dedup();
        names
    }

    /// Find one metric by family name and exact label set.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels.iter())
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// Sum every counter in the family `name` (0 if absent).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .filter_map(|m| match m.value {
                Value::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// Sum the counters in family `name` whose label set contains
    /// `key=value` (0 if none match). This is the per-class aggregation run
    /// reports use: e.g. all nodes' `ccm_rt_reads_total{class="remote"}`
    /// series folded into one number.
    pub fn counter_sum_where(&self, name: &str, key: &str, value: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name && m.labels.iter().any(|(k, v)| k == key && v == value))
            .filter_map(|m| match m.value {
                Value::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// Merge every histogram in family `name` whose label set contains
    /// `key=value` into one distribution (empty if none match) — per-node
    /// latency series folded into the cluster-wide distribution a run
    /// report quotes quantiles from.
    pub fn histogram_merged_where(&self, name: &str, key: &str, value: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for m in self
            .metrics
            .iter()
            .filter(|m| m.name == name && m.labels.iter().any(|(k, v)| k == key && v == value))
        {
            if let Value::Histogram(h) = &m.value {
                merged.merge(h);
            }
        }
        merged
    }
}

enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// A refresh hook (see [`Registry::on_snapshot`]).
type Hook = Arc<dyn Fn() + Send + Sync>;

/// The metric registry: owns metric identities, hands out update handles,
/// and produces [`Snapshot`]s for exposition. Cheap to clone (shared
/// interior, refresh hooks included); one registry per process or per
/// cluster is the intended shape, with components labeling their series
/// (`node`, `peer`, `class`).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Entry>>>,
    hooks: Arc<Mutex<Vec<Hook>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} metrics)", self.inner.lock().len())
    }
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    l
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let labels = sorted_labels(labels);
        let mut entries = self.inner.lock();
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            let handle = match &e.handle {
                Handle::Counter(c) => Handle::Counter(c.clone()),
                Handle::Gauge(g) => Handle::Gauge(g.clone()),
                Handle::Histogram(h) => Handle::Histogram(h.clone()),
            };
            let wanted = make();
            assert_eq!(
                handle.kind(),
                wanted.kind(),
                "metric {name} re-registered as a different type"
            );
            return handle;
        }
        let handle = make();
        let clone = match &handle {
            Handle::Counter(c) => Handle::Counter(c.clone()),
            Handle::Gauge(g) => Handle::Gauge(g.clone()),
            Handle::Histogram(h) => Handle::Histogram(h.clone()),
        };
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            handle: clone,
        });
        handle
    }

    /// Register (or re-fetch) a counter.
    ///
    /// # Panics
    /// Panics if `(name, labels)` is already registered as another type.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, || Handle::Counter(Counter::new())) {
            Handle::Counter(c) => c,
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Register (or re-fetch) a gauge.
    ///
    /// # Panics
    /// Panics if `(name, labels)` is already registered as another type.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, || Handle::Gauge(Gauge::new())) {
            Handle::Gauge(g) => g,
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Register (or re-fetch) a histogram.
    ///
    /// # Panics
    /// Panics if `(name, labels)` is already registered as another type.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, labels, || Handle::Histogram(Histogram::new())) {
            Handle::Histogram(h) => h,
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Run `hook` at the start of every [`Registry::snapshot`] of this
    /// registry or any clone of it, before any value is read; hooks run in
    /// registration order. A hook copies in values whose owner keeps them
    /// elsewhere — an occupancy, a protocol tally — so every scrape reads
    /// them current and the owner writes no handle when they change. A
    /// hook stays registered for the registry's life: it should hold its
    /// target weakly and do nothing once the target is gone, and it must
    /// not scrape the registry itself.
    pub fn on_snapshot(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.hooks.lock().push(Arc::new(hook));
    }

    /// Run the refresh hooks, then read every metric. Sorted by
    /// `(name, labels)` so the output is deterministic regardless of
    /// registration order.
    pub fn snapshot(&self) -> Snapshot {
        // Copied out so a hook runs under none of the registry's locks.
        let hooks = self.hooks.lock().clone();
        for hook in &hooks {
            hook();
        }
        let entries = self.inner.lock();
        let mut metrics: Vec<MetricSnapshot> = entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: match &e.handle {
                    Handle::Counter(c) => Value::Counter(c.get()),
                    Handle::Gauge(g) => Value::Gauge(g.get()),
                    Handle::Histogram(h) => Value::Histogram(h.snapshot()),
                },
            })
            .collect();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let r = Registry::new();
        let c = r.counter("x_total", "x", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 1);
        assert_eq!(snap.metrics[0].value, Value::Counter(5));
    }

    #[test]
    fn reregistration_returns_the_same_series() {
        let r = Registry::new();
        let a = r.counter("x_total", "x", &[("node", "0")]);
        let b = r.counter("x_total", "x", &[("node", "0")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.snapshot().metrics.len(), 1);
        // A different label set is a different series.
        let c = r.counter("x_total", "x", &[("node", "1")]);
        c.inc();
        assert_eq!(r.snapshot().metrics.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x", "x", &[]);
        let _ = r.gauge("x", "x", &[]);
    }

    #[test]
    fn gauge_sets_and_adjusts() {
        let g = Gauge::new();
        g.set(7);
        g.adjust(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn refresh_hooks_run_before_values_are_read() {
        let r = Registry::new();
        let level = r.gauge("level", "l", &[]);
        let doubled = r.gauge("doubled", "d", &[]);
        let source = Arc::new(AtomicI64::new(0));
        let weak = Arc::downgrade(&source);
        let target = level.clone();
        r.on_snapshot(move || {
            if let Some(source) = weak.upgrade() {
                target.set(source.load(Ordering::Relaxed));
            }
        });
        // Hooks run in registration order: this one sees the first's value.
        let (from, to) = (level.clone(), doubled.clone());
        r.on_snapshot(move || to.set(2 * from.get()));
        let read = |r: &Registry| {
            let snap = r.snapshot();
            let gauge = |name| match snap.find(name, &[]).map(|m| &m.value) {
                Some(Value::Gauge(v)) => *v,
                other => panic!("no gauge {name}: {other:?}"),
            };
            (gauge("level"), gauge("doubled"))
        };
        source.store(7, Ordering::Relaxed);
        assert_eq!(read(&r), (7, 14), "no handle was written before the scrape");
        // A clone shares the hooks.
        source.store(9, Ordering::Relaxed);
        assert_eq!(read(&r.clone()), (9, 18));
        // With its target gone the hook does nothing: the last value stays.
        drop(source);
        assert_eq!(read(&r), (9, 18));
    }

    #[test]
    fn snapshot_is_sorted_deterministically() {
        let r = Registry::new();
        r.counter("b_total", "b", &[]).inc();
        r.counter("a_total", "a", &[("node", "1")]).inc();
        r.counter("a_total", "a", &[("node", "0")]).inc();
        let names: Vec<(String, Vec<(String, String)>)> = r
            .snapshot()
            .metrics
            .into_iter()
            .map(|m| (m.name, m.labels))
            .collect();
        assert_eq!(names[0].0, "a_total");
        assert_eq!(names[0].1, vec![("node".to_string(), "0".to_string())]);
        assert_eq!(names[1].1, vec![("node".to_string(), "1".to_string())]);
        assert_eq!(names[2].0, "b_total");
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        let med = s.quantile(0.5) as f64;
        assert!((med - 500.0).abs() / 500.0 < 0.07, "median={med}");
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn a_lap_records_its_sample_and_restarts_where_it_stopped() {
        let h = Histogram::new();
        let start = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let lap = start.lap(&h);
        let first = lap.0.duration_since(start.0).as_nanos() as u64;
        assert!(first >= 1_000_000);
        let s = h.snapshot();
        assert_eq!((s.count(), s.sum), (1, first));
        lap.lap(&h);
        assert_eq!(h.snapshot().count(), 2);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn filtered_sums_and_merges() {
        let r = Registry::new();
        r.counter("reads_total", "r", &[("node", "0"), ("class", "local")])
            .add(3);
        r.counter("reads_total", "r", &[("node", "1"), ("class", "local")])
            .add(4);
        r.counter("reads_total", "r", &[("node", "0"), ("class", "remote")])
            .add(5);
        let snap = r.snapshot();
        assert_eq!(snap.counter_sum_where("reads_total", "class", "local"), 7);
        assert_eq!(snap.counter_sum_where("reads_total", "class", "remote"), 5);
        assert_eq!(snap.counter_sum_where("reads_total", "class", "nope"), 0);
        assert_eq!(snap.counter_sum("reads_total"), 12);

        let h0 = r.histogram("lat_ns", "l", &[("node", "0"), ("phase", "measure")]);
        let h1 = r.histogram("lat_ns", "l", &[("node", "1"), ("phase", "measure")]);
        h0.record(10);
        h0.record(20);
        h1.record(30);
        let merged = r
            .snapshot()
            .histogram_merged_where("lat_ns", "phase", "measure");
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum, 60);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn concurrent_records_sum_exactly() {
        const THREADS: u64 = 4;
        const RECORDS: u64 = 10_000;
        let value = |t: u64, i: u64| (t * RECORDS + i) * 7_919 % 5_000_000;
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = &h;
                s.spawn(move || (0..RECORDS).for_each(|i| h.record(value(t, i))));
            }
        });
        let mut want = HistogramSnapshot::empty();
        for t in 0..THREADS {
            for i in 0..RECORDS {
                let v = value(t, i);
                want.buckets[simcore::histogram::bucket_index(v).min(HISTOGRAM_BUCKETS - 1)] += 1;
                want.count += 1;
                want.sum += v;
            }
        }
        assert_eq!(h.snapshot(), want);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn two_recording_threads_write_two_stripes() {
        let h = Histogram::new();
        for _ in 0..2 {
            let h = h.clone();
            std::thread::spawn(move || h.record(1)).join().unwrap();
        }
        assert_eq!(h.stripes_in_use(), 2);
        assert_eq!(h.snapshot().count(), 2);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn records_saturate_into_the_last_bucket() {
        let h = Histogram::new();
        h.record(saturation_threshold() - 1);
        h.record(saturation_threshold());
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 2], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 2);
    }
}
