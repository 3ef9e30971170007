//! The request-pipeline benchmark.
//!
//! Four closed-loop workloads against a 4-node cluster hosted in this
//! process through the public APIs of the `crates/*` libraries. A timed
//! run (`--trace 0`) reports the end-to-end metrics; a separate traced run
//! (`--trace 1`) reports per-layer metrics taken from outside, by timing
//! calls into public functions and reading public counters. See the
//! README beside this package for the workloads, the metric glossary and
//! how each layer's numbers should move the end-to-end ones.

#![warn(missing_docs)]

pub mod cluster;
pub mod compare;
pub mod driver;
pub mod hist;
pub mod json;
pub mod layers;
pub mod machine;
pub mod report;
pub mod spans;
pub mod timed;
pub mod traced;
pub mod verify;
pub mod workload;
