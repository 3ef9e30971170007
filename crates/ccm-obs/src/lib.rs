//! Observability for the cooperative caching runtime.
//!
//! Three small pieces. On the hot block path a counter costs one relaxed
//! atomic add, and a histogram sample or a trace hop writes only the
//! recording thread's own stripe, so two callers do not contend on them:
//!
//! - [`metrics`]: a [`Registry`] of [`Counter`]s (one relaxed atomic add),
//!   [`Gauge`]s, and fixed-bucket log-scale [`Histogram`]s striped per
//!   thread (the bucketing scheme is `simcore::Histogram`'s, frozen at 512
//!   buckets so snapshots from different nodes always merge), plus the
//!   refresh hooks a scrape runs first to read values kept elsewhere.
//! - [`trace`]: a bounded per-cluster [`TraceRing`] of structured
//!   block-path hops (dispatch → peer fetch → disk fallback → serve),
//!   sharded per thread and dumpable as JSON on demand or on
//!   chaos-invariant failure.
//! - [`prom`]: Prometheus text exposition of a registry [`Snapshot`], and
//!   the minimal parser the `ccmtop` scraper uses.
//!
//! The ring and the histograms pick their stripe by one per-thread index
//! (private `stripe` module): a thread's first event takes the next of
//! eight stripes, and keeps it. Building with `--features obs-off`
//! compiles histograms, stopwatches, and trace rings down to nothing
//! (counters and gauges stay live; see [`metrics`] for why) — the
//! overhead-guard bench compares the two builds.

#![warn(missing_docs)]

pub mod metrics;
pub mod prom;
pub mod report;
#[cfg(not(feature = "obs-off"))]
mod stripe;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, Registry, Snapshot, Stopwatch,
    Value, HISTOGRAM_BUCKETS,
};
pub use report::LatencySummary;
pub use trace::{Batch, Hop, TraceEvent, TraceRing};
