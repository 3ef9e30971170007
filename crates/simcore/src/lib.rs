//! # simcore — deterministic discrete-event simulation engine
//!
//! The evaluation of the cooperative caching middleware (and of the L2S
//! baseline it is compared against) is driven entirely by an event-driven
//! simulator that "models hardware components as service centers with finite
//! queues" (HPDC 2001, §4.2). This crate provides the domain-independent
//! machinery for that simulator:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer nanosecond clock. Integer time
//!   keeps runs bit-for-bit reproducible across platforms, which the test
//!   suite relies on.
//! * [`EventQueue`] — a deterministic future-event list. Ties in time are
//!   broken by insertion sequence, so two runs with the same seed produce the
//!   same event order.
//! * [`ServiceCenter`] and [`FiniteQueue`] — the queueing building blocks the
//!   hardware models (CPU, NIC, bus, disk, router) are built from.
//! * [`stats`] — counters, Welford means, time-weighted utilization tracking,
//!   and a warm-up-aware throughput meter (the paper measures throughput
//!   "only after the caches have been warmed up").
//! * [`rng`] — an explicit SplitMix64/xoshiro256++ PRNG. We deliberately do
//!   not depend on `rand`: sequence stability across versions matters more
//!   here than distribution breadth, and the trace generators implement their
//!   own samplers on top of this.
//! * [`hash`] — FNV-1a, the one content hash every digest, ring point and
//!   re-mastering shard in the workspace is computed with.
//! * [`chan`] / [`sync`] — unbounded MPMC channels and poison-free lock
//!   wrappers for the threaded runtime. The whole workspace builds with no
//!   external dependencies (the build environment has no registry access),
//!   so the concurrency primitives the runtime needs live here.
//!
//! Nothing in this crate knows about caches, files, or networks; those live in
//! the `ccm-cluster`, `ccm-core` and `ccm-webserver` crates.

#![warn(missing_docs)]

pub mod chan;
pub mod event;
pub mod fxhash;
pub mod hash;
pub mod histogram;
pub mod rng;
pub mod service;
pub mod stats;
pub mod sync;
pub mod time;

pub use event::EventQueue;
pub use fxhash::{FxHashMap, FxHashSet};
pub use histogram::Histogram;
pub use rng::Rng;
pub use service::{FiniteQueue, ServiceCenter};
pub use stats::{Counter, Mean, ThroughputMeter, Utilization};
pub use time::{SimDuration, SimTime};
