//! # ccm-core — the cooperative caching middleware protocol
//!
//! This crate is the paper's primary contribution: a **block-based
//! cooperative caching layer** that manages the memories of a cluster as one
//! aggregate cache (HPDC 2001, §3). It is a pure state machine — no I/O, no
//! clocks, no threads — so the same code is driven by the discrete-event
//! simulator (`ccm-webserver`) for the performance study and by the threaded
//! runtime (`ccm-rt`) as an actual middleware library.
//!
//! ## The protocol (paper §3)
//!
//! * When a block is first read from disk it becomes the **master copy**; a
//!   **global directory** records where each master lives.
//! * A node needing block `b` serves it locally if cached; otherwise it asks
//!   the directory for the master holder and fetches a **non-master copy**
//!   from it; if no master is in memory anywhere, it reads `b` from its
//!   *home node*'s disk and becomes the new master holder.
//! * Replacement approximates **global LRU**: every node knows the age of its
//!   peers' oldest blocks. An evicted non-master (or globally-oldest) block
//!   is dropped; an evicted master that is *not* globally oldest is
//!   **forwarded** to the peer holding the oldest block, which drops its own
//!   oldest block to make room. Forwarding never cascades, and a forwarded
//!   block that would be the youngest at its destination is dropped instead.
//! * The paper's key finding is a replacement modification
//!   ([`policy::ReplacementPolicy::MasterPreserving`]): *never evict a master
//!   copy while still holding any non-master copy*. This keeps cluster memory
//!   filled with the distinct working set before any block is duplicated,
//!   trading network transfers for disk reads.
//!
//! ## Layout
//!
//! * [`block`] — block/file identifiers and block-layout math.
//! * [`lru`] — the intrusive, age-ordered LRU list used by each node cache.
//! * [`node_cache`] — one node's cache: two LRU lists (masters / replicas).
//! * [`directory`] — the perfect global directory of the paper's optimistic
//!   assumptions, plus the hint-based variant of its future work (§6).
//! * [`policy`] — replacement policy variants.
//! * [`cluster_cache`] — the whole-cluster orchestrator implementing access,
//!   eviction, and forwarding; the API both front-ends drive.
//! * [`admission`] — the ghost-LRU replica-admission filter (scan
//!   resistance).
//! * [`stats`] — protocol event counters (hits, forwards, drops).

#![warn(missing_docs)]

pub mod admission;
pub mod block;
pub mod cluster_cache;
pub mod directory;
pub mod lru;
pub mod node_cache;
pub mod policy;
pub mod stats;

pub use admission::{AdmissionConfig, AdmissionStats};
pub use block::{BlockId, FileId, NodeId, BLOCK_SIZE};
pub use cluster_cache::{
    AccessOutcome, CacheConfig, ClusterCache, Departed, Departure, Disposition, EvictionEffect,
    PrefetchOutcome, RepairReport, WriteOutcome,
};
pub use directory::{DirectoryKind, HintLookup, HintResolution, HintStats};
pub use node_cache::{CopyKind, NodeCache};
pub use policy::ReplacementPolicy;
pub use stats::CacheStats;
