//! # ccm-net — a real TCP peer transport for the cooperative caching runtime
//!
//! `ccm-rt` runs the paper's middleware on OS threads but ships peer
//! messages over in-process channels. This crate replaces that LAN
//! stand-in with real sockets while leaving the runtime untouched: it
//! implements the runtime's [`Transport`] trait over TCP, so
//! `Middleware`, the chaos fault injector, and the HTTP front end all run
//! unchanged over either backend.
//!
//! Two pieces:
//!
//! * [`wire`] — a hand-rolled length-prefixed binary codec for the peer
//!   protocol. In-process reply channels cannot cross a socket, so
//!   reply-bearing messages are correlated by request id instead
//!   ([`WireMsg::BlockRequest`] / [`WireMsg::BlockReply`],
//!   [`WireMsg::Barrier`] / [`WireMsg::BarrierAck`]).
//! * [`tcp`] — [`TcpLan`]: per-node loopback listeners, one lazily dialed
//!   connection per ordered node pair, per-connection pending-reply
//!   tables, and reconnect with capped exponential backoff. Failures
//!   degrade to the runtime's existing disk-fallback path (§3's "eventual
//!   disk read"), never to a hang.
//!
//! ```no_run
//! use ccm_net::TcpLan;
//! use ccm_rt::{Middleware, RtConfig};
//! use std::sync::Arc;
//!
//! let catalog = ccm_rt::Catalog::new(vec![1 << 20; 16]);
//! let disk = Arc::new(ccm_rt::SyntheticStore::new(catalog.clone(), 7));
//! let lan = Arc::new(TcpLan::loopback(4).expect("bind loopback"));
//! let cfg = RtConfig {
//!     nodes: 4,
//!     transport: Some(lan),
//!     ..RtConfig::default()
//! };
//! let mw = Middleware::start(cfg, catalog, disk);
//! # drop(mw);
//! ```
//!
//! [`Transport`]: ccm_rt::Transport

#![warn(missing_docs)]

pub mod tcp;
pub mod wire;

pub use tcp::{NetStats, TcpLan, MAX_TRAIN_BYTES};
pub use wire::{
    decode, encode, write_frame, DecodeError, FrameAssembler, FrameTrain, WireMsg, WIRE_VERSION,
};
