//! # ccm-load — trace-replay load generation for the live cluster
//!
//! The simulator reproduces the paper's figures; this crate closes the
//! loop by driving the *running* system with the same calibrated trace
//! presets and the paper's one methodology (§4): a warmed cluster, a
//! fixed request plan, statistics over the measurement window only.
//!
//! There is **one pipeline** — build the cluster → warm-up → measurement
//! window → reconcile → report ([`run`] / [`run_on`]) — described by one
//! [`LoadSpec`] and reported by one [`LoadReport`]. Two seams vary:
//!
//! * the **arrival source** ([`Arrivals`]): *closed-loop* clients striped
//!   over a recorded stream (concurrent for throughput, or in-order
//!   `deterministic` replay whose protocol statistics equal the pure
//!   [`ClusterCache`](ccm_core::ClusterCache)'s for the same stream —
//!   [`simulate`], asserted by `tests/live_conformance.rs`); or an
//!   *open-loop* [`ccm_arrivals`] schedule ([`OpenLoopProcess`]: Poisson,
//!   flash crowd, diurnal wave, popularity churn) injected regardless of
//!   completions through a bounded in-flight table whose refusals are
//!   *counted* as shed — in real time, or in bit-reproducible virtual
//!   time;
//! * the **target** ([`Target`]): the bare middleware handles (the only
//!   target that takes the shadow-verified write mix), or `ccm-front`'s
//!   HTTP front tier over the CCM cluster or the live L2S baseline
//!   ([`BackendChoice`]) — the paper's CCM-vs-L2S comparison over real
//!   sockets.
//!
//! Everything else exists once. The request plan is a pure function of
//! `(preset, head, seed)` on any transport at any concurrency; every
//! served payload is verified byte for byte against the backing store and
//! folded into an order-insensitive FNV-1a digest, so a report is also an
//! integrity certificate; and the report cross-checks the driver's own
//! counts against the runtime's `ccm_rt_reads_total` registry deltas, the
//! front tier's `ccm_front_*` counters and the backend's hit accounting
//! before quoting a hit ratio. For a deterministic spec
//! [`LoadReport::deterministic_json`] is bit-identical across reruns.
//! Combinations nobody drives (open-loop arrivals into the front tier,
//! writes anywhere but deterministic closed-loop handles, a transport
//! under L2S) are rejected by [`LoadSpec::validate`].

#![warn(missing_docs)]

mod drive;
mod report;
mod sim;
mod spec;

pub use drive::{run, run_on};
pub use report::LoadReport;
pub use sim::{simulate, SimReport};
pub use spec::{Arrivals, BackendChoice, LoadSpec, OpenLoopProcess, Target};
