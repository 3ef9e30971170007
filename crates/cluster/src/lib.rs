//! # ccm-cluster — simulated cluster hardware
//!
//! The service-center models of the hardware the paper simulates (§4.2):
//! "a high-performance LAN, a router, and 4–8 cluster nodes. Each node is
//! comprised of a CPU, NIC, and disk, all connected by a bus." Client
//! requests are spread over the nodes by round-robin DNS; the same network
//! carries client traffic and intra-cluster block transfers.
//!
//! * [`costs`] — every Table 1 constant, as an overridable [`costs::CostModel`]
//!   (the modeled hardware: VIA Gb/s LAN, 800 MHz PIII, IBM Deskstar 75GXP).
//! * [`disk`] — the disk model: seek + transfer timing, one metadata seek per
//!   64 KB extent, and an explicit request queue with FIFO or batching
//!   (C-LOOK) scheduling — the "-Basic" vs. "scheduled" distinction that
//!   fixes the paper's stream-interleaving bottleneck. Its queue,
//!   [`disk::SchedQueue`], is also the runtime disk service's scheduler.
//! * [`net`] — NICs, wire latency, and the client-facing router.
//! * [`layout`] — file→home-node placement and on-disk addresses (striped
//!   for the middleware, fully replicated for L2S, plus a hot-spot placement
//!   for the concentration experiment).
//! * [`node`] — a node's CPU/disk bundle and the cluster assembly.
//! * [`dns`] — round-robin DNS client assignment.

#![warn(missing_docs)]

pub mod costs;
pub mod disk;
pub mod dns;
pub mod layout;
pub mod net;
pub mod node;

pub use costs::CostModel;
pub use disk::{Disk, DiskRequest, DiskScheduler, SchedQueue};
pub use dns::RoundRobinDns;
pub use layout::{FileLayout, Placement};
pub use net::Network;
pub use node::{Cluster, Node};
