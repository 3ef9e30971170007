//! # ccm-httpd — the HTTP/1.x codec
//!
//! What every HTTP-speaking layer of the workspace genuinely shares, and
//! nothing else: request parsing ([`http::read_request`] into
//! [`http::Request`]/[`http::Headers`], bounded line by line by
//! [`http::MAX_HEAD_BYTES`]), the response writer that sends each
//! response in one write ([`http::write_response_with`]) and the
//! `/file/<id>` route
//! ([`http::route_file`]). Std-only, no workspace dependencies.
//!
//! The server and the client that speak this codec live in `ccm-front`:
//! the paper's "off-the-shelf web server on the caching layer behind
//! round-robin DNS" (§7) is `FrontTier` over `CcmBackend` with
//! `RoundRobin` dispatch — the degenerate front tier, not a second
//! server.

#![warn(missing_docs)]

pub mod http;
