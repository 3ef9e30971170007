//! # coopcache — cooperative caching middleware for cluster-based servers
//!
//! A full reproduction of *Cooperative Caching Middleware for Cluster-Based
//! Servers* (Cuenca-Acuna & Nguyen, HPDC 2001): the block-based cooperative
//! caching protocol, the locality-conscious L2S baseline it is compared
//! against, the event-driven cluster simulator the paper's evaluation runs
//! on, calibrated synthetic stand-ins for its four web traces, and a
//! threaded runtime that executes the protocol as an actual middleware
//! library.
//!
//! ## Crates
//!
//! | Re-export | Crate | What it is |
//! |-----------|-------|------------|
//! | [`core`] | `ccm-core` | The paper's contribution: the cooperative caching protocol (caches, directory, replacement, forwarding) as a pure state machine |
//! | [`simcore`] | `simcore` | Deterministic discrete-event simulation engine |
//! | [`cluster`] | `ccm-cluster` | CPU/NIC/disk/LAN hardware models (Table 1) |
//! | [`traces`] | `ccm-traces` | Workload substrate: synthetic presets, CLF parser, analysis |
//! | [`l2s`] | `ccm-l2s` | The content- and load-aware baseline server |
//! | [`webserver`] | `ccm-webserver` | The simulated cluster web servers and metrics |
//! | [`rt`] | `ccm-rt` | The protocol as a running, threaded middleware |
//! | [`disk`] | `ccm-disk` | Asynchronous disk I/O: contiguity scheduling (CcmSched-style), one request per run of blocks, miss coalescing, and a real file-backed block store |
//! | [`net`] | `ccm-net` | TCP peer transport: wire codec plus the `TcpLan` socket backend |
//! | [`httpd`] | `ccm-httpd` | The HTTP/1.x codec: bounded request parsing, header multimap, response writer |
//! | [`front`] | `ccm-front` | The HTTP server and client (real sockets): a front tier with pluggable dispatch over interchangeable CCM / live-L2S backends; round-robin over CCM is the paper's own deployment |
//! | [`obs`] | `ccm-obs` | Observability: lock-free metrics registry, block-path trace ring, Prometheus exposition, `ccmtop` |
//! | [`load`] | `ccm-load` | Trace-replay load generator for the live cluster, with the runtime-vs-simulator conformance driver |
//! | [`arrivals`] | `ccm-arrivals` | Seeded open-loop arrival processes: Poisson, diurnal waves, flash crowds, popularity churn |
//!
//! ## Quick start
//!
//! Simulate the paper's headline comparison on one memory point:
//!
//! ```
//! use coopcache::traces::SynthConfig;
//! use coopcache::webserver::{self, CcmVariant, ServerKind, SimConfig};
//! use std::sync::Arc;
//!
//! let workload = Arc::new(SynthConfig {
//!     n_files: 300,
//!     total_bytes: Some(16 << 20),
//!     ..SynthConfig::default()
//! }.build());
//!
//! let cfg = SimConfig::paper(
//!     ServerKind::Ccm(CcmVariant::master_preserving()),
//!     4,          // nodes
//!     8 << 20,    // bytes of cache per node
//! ).quick();
//! let metrics = webserver::run(&cfg, &workload);
//! assert!(metrics.throughput_rps > 0.0);
//! ```
//!
//! Or run the protocol as a real in-process middleware:
//!
//! ```
//! use coopcache::core::{FileId, NodeId};
//! use coopcache::rt::{Catalog, Middleware, RtConfig, SyntheticStore};
//! use std::sync::Arc;
//!
//! let catalog = Catalog::new(vec![20_000u64; 8]);
//! let store = Arc::new(SyntheticStore::new(catalog.clone(), 1));
//! let mw = Middleware::start(RtConfig::default(), catalog, store);
//! let bytes = mw.handle(NodeId(0)).read_file(FileId(3));
//! assert_eq!(bytes.len(), 20_000);
//! mw.shutdown();
//! ```
//!
//! The `ccm-bench` crate regenerates every table and figure of the paper;
//! see DESIGN.md for the experiment index and EXPERIMENTS.md for measured
//! results.

#![warn(missing_docs)]

pub use ccm_arrivals as arrivals;
pub use ccm_cluster as cluster;
pub use ccm_core as core;
pub use ccm_disk as disk;
pub use ccm_front as front;
pub use ccm_httpd as httpd;
pub use ccm_l2s as l2s;
pub use ccm_load as load;
pub use ccm_net as net;
pub use ccm_obs as obs;
pub use ccm_rt as rt;
pub use ccm_traces as traces;
pub use ccm_webserver as webserver;
pub use simcore;
