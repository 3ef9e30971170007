//! # ccm-front — the HTTP front tier: the workspace's server and client
//!
//! The paper's cluster is a *server*: clients talk HTTP to a front door,
//! and the interesting question is what happens to the bytes behind it.
//! This crate is that front door — the only HTTP server ([`FrontTier`])
//! and the only HTTP client ([`FrontClient`]) in the workspace, both over
//! `ccm-httpd`'s codec — structured as a fixed pipeline (endpoint →
//! middleware → service → backend; see [`server`]) with two deliberate
//! seams:
//!
//! * **the dispatch seam** ([`dispatch::Dispatch`]) — who serves a
//!   request: round-robin DNS, consistent-hash by URL, the L2S
//!   content-aware policy (running the *same* [`ccm_l2s::L2sRouter`] core
//!   as the simulator), or LARD-style load-aware;
//! * **the backend seam** ([`backend::FrontBackend`]) — what serves it:
//!   the cooperative caching middleware (block-granular, peer fetch,
//!   channel or TCP transport) or a live L2S baseline (whole-file LRU
//!   with de-replication, no cooperation). The seam also carries the two
//!   observability hooks a backend may override: the `/metrics` snapshot
//!   and the `/debug/trace` ring.
//!
//! The paper's own configuration — an off-the-shelf server on the
//! caching middleware behind plain round-robin DNS, no content-aware
//! front end (§7) — is the degenerate crossing: [`RoundRobin`] over
//! [`CcmBackend`]. The tier never owns the cluster underneath: whoever
//! started the middleware shuts it down, after [`FrontTier::shutdown`]
//! has dropped the tier's references to the backend.
//!
//! Crossing the two seams reproduces the paper's CCM-vs-L2S comparison
//! over real sockets: same traces, same front door, different caching
//! architecture underneath. HTTP semantics live in [`range`]
//! (`Range`/`If-Range` mapped onto block reads — a range request against
//! the CCM backend touches only the blocks covering the range, while L2S
//! must fault the whole file) and in `ccm-httpd`, the shared codec.
//!
//! Everything the tier does is visible as the `ccm_front_*` metric family
//! on `GET /metrics`: per-policy dispatch counters, handoff counters,
//! request-latency histograms, and the per-node inflight gauges that
//! double as the load-aware policy's input signal.

#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod dispatch;
pub mod range;
pub mod server;

pub use backend::{CcmBackend, FrontBackend, HitStats, L2sBackend};
pub use client::FrontClient;
pub use dispatch::{ConsistentHash, ContentAware, Dispatch, LoadAware, PolicyKind, RoundRobin};
pub use range::{etag, evaluate, RangeOutcome};
pub use server::{FrontConfig, FrontTier};
