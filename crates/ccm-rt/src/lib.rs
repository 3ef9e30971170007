//! # ccm-rt — the cooperative caching middleware as a running library
//!
//! The paper closes with "eventually, this work should lead to an
//! implementation" (§6). This crate is that implementation in miniature: the
//! same `ccm-core` protocol state machine, but executed by real OS threads —
//! one service thread per cluster node — moving real bytes over in-process
//! channels standing in for the LAN. A "cluster" here lives inside one
//! process (the paper's repro scope: "cluster can be emulated locally"), but
//! the structure is the one a networked deployment would use: node-local
//! block stores, peer request/forward messages, and a synchronous
//! `read` API for the hosting service.
//!
//! Unlike the simulator, nothing here is optimistically atomic: a peer may
//! have dropped a block between the directory decision and the data request.
//! That is exactly the race the paper describes ("during the time that the
//! request … travels, [the master holder] may discard [the block], resulting
//! in an eventual disk read", §3), and the runtime resolves it the same way:
//! fall through to the backing store.
//!
//! * [`store`] — the backing "disk": `ccm-disk`'s store module, re-exported
//!   whole — the [`store::BlockStore`] trait, the file catalog, the
//!   synthetic and writable in-memory stores. `ccm-disk` also provides the
//!   asynchronous [`DiskService`] every node's misses are queued through.
//! * [`transport`] — peer messages and the channel LAN.
//! * [`membership`] — the epoch-versioned member table behind dynamic
//!   join/leave/crash, signalled through a condvar so joiners and the
//!   heartbeat monitor never poll.
//! * [`fault`] — deterministic fault injection: seeded fault plans and the
//!   chaos transport wrapper that drops, duplicates, and reorders data-plane
//!   messages.
//! * [`obs`] — the runtime's metric handles on the `ccm-obs` registry
//!   (hit-class counters, fetch-latency histograms, occupancy gauges) and
//!   the block-path trace ring.
//! * [`write`] — write-path coherence configuration: write-through vs.
//!   write-back, the dirty-block budget, and the durability contract.
//! * [`shard`] — lock-sharded block maps: the data-plane stores and the
//!   write-lock registry striped by block hash so different blocks never
//!   contend on one mutex.
//! * [`runtime`] — the one constructor ([`Middleware::start`], configured
//!   by [`RtConfig`]), node service threads, the shared protocol state, one
//!   path for every join and one for every departure, and the public
//!   [`runtime::Middleware`] / [`runtime::NodeHandle`] API.

#![warn(missing_docs)]

pub mod fault;
pub mod membership;
pub mod obs;
pub mod runtime;
pub mod shard;
pub mod transport;
pub mod write;

pub use ccm_disk::store;

pub use ccm_disk::{DiskConfig, DiskFaults, DiskService, DiskStats, FileStore};
pub use fault::{ChaosLan, ChaosStats, CrashEvent, FaultPlan, LinkFaults};
pub use membership::{MemberState, Membership};
pub use obs::ReadClass;
pub use runtime::{Middleware, NodeHandle, RtConfig, WriteError};
pub use shard::ShardedMap;
pub use store::{BlockStore, Catalog, MemStore, SyntheticStore};
pub use transport::{
    AttachedStores, BlockStores, Completion, Lan, PeerMsg, Pending, ReplySink, ReplyTo, Transport,
};
pub use write::{WriteConfig, WriteMode, WriteStats};
