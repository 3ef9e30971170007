//! Asynchronous disk I/O for the cooperative caching runtime.
//!
//! The simulator's headline scheduling result (§5 of the paper: FIFO disk
//! service collapses when sequential streams interleave; batching
//! head-contiguous requests restores it) lives in `ccm_cluster::Disk`. This
//! crate gives the threaded runtime the same queue on real I/O:
//!
//! * [`DiskService`] — a per-node asynchronous disk service: bounded
//!   request queue with backpressure, one worker (one head), the paper's
//!   batched C-LOOK scheduler (the simulator's own [`ccm_cluster::SchedQueue`]
//!   under [`ccm_cluster::DiskScheduler::Batched`]), one scheduled request
//!   per run of consecutive blocks the caller decided to read, and
//!   in-flight miss coalescing (concurrent requests for one block issue a
//!   single physical read and share the `Arc<[u8]>`). It reads nothing
//!   ahead and keeps no block bytes of its own.
//! * [`FileStore`] — a real file-backed [`BlockStore`]: blocks laid out in
//!   per-file extent-aligned regions of an actual data file, with correct
//!   partial tail blocks, reopenable from the same data dir.
//! * [`DiskLayout`] — the catalog → byte-address mapping both of them use,
//!   which is also what makes "head-contiguous" meaningful for the
//!   scheduler.
//! * [`DiskFaults`] — seeded slow-disk and I/O-error injection, keyed per
//!   block so same-seed replays stay bit-identical.
//!
//! The storage traits ([`BlockStore`], [`Catalog`], [`SyntheticStore`],
//! [`MemStore`]) moved here from `ccm-rt`, which now routes its miss and
//! degraded-fallback paths through [`DiskService`] and re-exports these
//! types unchanged.

#![warn(missing_docs)]

pub mod file_store;
pub mod layout;
pub mod service;
pub mod store;

pub use file_store::FileStore;
pub use layout::DiskLayout;
pub use service::{DiskConfig, DiskError, DiskFaults, DiskService, DiskStats};
pub use store::{read_file_direct, BlockStore, Catalog, MemStore, SyntheticStore};
