//! Per-node HTTP listeners over one middleware cluster.
//!
//! [`HttpCluster::start`] spawns the `ccm-rt` middleware plus one TCP
//! listener per node on loopback ephemeral ports — the addresses a
//! round-robin DNS would rotate through. Every `GET /file/<id>` is served
//! through that node's [`NodeHandle`], so cache cooperation (remote hits,
//! master forwarding) happens underneath real socket traffic.
//!
//! Connections are handled thread-per-connection with keep-alive; shutdown
//! closes the listeners and joins every worker.
//!
//! Besides `/file/<id>`, every node serves two observability endpoints:
//! `GET /metrics` (the cluster registry in Prometheus text exposition) and
//! `GET /debug/trace` (the block-path trace ring as JSON). In one process
//! all nodes share one registry, so any node's `/metrics` shows the whole
//! cluster — exactly what a scraper pointed at round-robin DNS would see.

use crate::http::{read_request, route_file, write_response, write_response_typed, ParseError};
use ccm_core::{FileId, NodeId};
use ccm_obs::{Counter, Gauge, Histogram, Registry, Stopwatch};
use ccm_rt::{BlockStore, Catalog, Middleware, NodeHandle, RtConfig};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running HTTP cluster.
pub struct HttpCluster {
    middleware: Arc<Middleware>,
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<()>>,
}

/// Response status classes tallied per node (3xx never occurs here).
const STATUS_CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

/// Per-node HTTP-layer metric handles.
struct HttpObs {
    latency_ns: Histogram,
    inflight: Gauge,
    responses: [Counter; 3], // indexed like STATUS_CLASSES
}

impl HttpObs {
    fn new(registry: &Registry, node: NodeId) -> HttpObs {
        let n = node.index().to_string();
        HttpObs {
            latency_ns: registry.histogram(
                "ccm_http_request_latency_ns",
                "Request handling latency, parse to response written",
                &[("node", n.as_str())],
            ),
            inflight: registry.gauge(
                "ccm_http_inflight",
                "Requests currently being handled",
                &[("node", n.as_str())],
            ),
            responses: STATUS_CLASSES.map(|class| {
                registry.counter(
                    "ccm_http_responses_total",
                    "Responses written, by status class",
                    &[("node", n.as_str()), ("status", class)],
                )
            }),
        }
    }

    fn count(&self, status: u16) {
        let idx = match status / 100 {
            2 => 0,
            4 => 1,
            _ => 2,
        };
        self.responses[idx].inc();
    }
}

/// Everything one node's connection workers need.
struct NodeCtx {
    handle: NodeHandle,
    catalog: Catalog,
    middleware: Arc<Middleware>,
    obs: HttpObs,
}

fn serve_connection(stream: TcpStream, ctx: &NodeCtx) {
    // Keep slow clients from pinning worker threads forever, and avoid
    // Nagle/delayed-ACK stalls on small request/response exchanges.
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        let req = match read_request(&mut reader) {
            Ok(r) => r,
            Err(ParseError::ConnectionClosed) => return,
            Err(_) => {
                let _ = write_response(&mut writer, 400, "Bad Request", b"", false, false);
                ctx.obs.count(400);
                return;
            }
        };
        let sw = Stopwatch::start();
        ctx.obs.inflight.adjust(1);
        let (ok, status) = handle_request(&mut writer, &req, ctx);
        ctx.obs.inflight.adjust(-1);
        sw.stop(&ctx.obs.latency_ns);
        ctx.obs.count(status);
        if ok.is_err() || !req.keep_alive {
            return;
        }
    }
}

/// Dispatch one parsed request and write its response; returns the write
/// result and the status code for accounting.
fn handle_request(
    writer: &mut TcpStream,
    req: &crate::http::Request,
    ctx: &NodeCtx,
) -> (std::io::Result<()>, u16) {
    let head_only = match req.method.as_str() {
        "GET" => false,
        "HEAD" => true,
        _ => {
            let ok = write_response(
                writer,
                405,
                "Method Not Allowed",
                b"",
                req.keep_alive,
                false,
            );
            return (ok, 405);
        }
    };
    match req.path.as_str() {
        "/metrics" => {
            let body = ccm_obs::prom::render(&ctx.middleware.obs_snapshot());
            let ok = write_response_typed(
                writer,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                body.as_bytes(),
                req.keep_alive,
                head_only,
            );
            (ok, 200)
        }
        "/debug/trace" => {
            let body = ctx.middleware.trace().dump_json();
            let ok = write_response_typed(
                writer,
                200,
                "OK",
                "application/json",
                body.as_bytes(),
                req.keep_alive,
                head_only,
            );
            (ok, 200)
        }
        path => {
            let response = route_file(path)
                .filter(|&id| (id as usize) < ctx.catalog.num_files())
                .map(|id| ctx.handle.read_file(FileId(id)));
            match response {
                Some(body) => (
                    write_response(writer, 200, "OK", &body, req.keep_alive, head_only),
                    200,
                ),
                None => (
                    write_response(
                        writer,
                        404,
                        "Not Found",
                        b"no such file",
                        req.keep_alive,
                        head_only,
                    ),
                    404,
                ),
            }
        }
    }
}

impl HttpCluster {
    /// Start the middleware and one listener per node on loopback ephemeral
    /// ports.
    ///
    /// # Panics
    /// Panics if a loopback socket cannot be bound (no such environment is
    /// supported).
    pub fn start(cfg: RtConfig, catalog: Catalog, store: Arc<dyn BlockStore>) -> HttpCluster {
        HttpCluster::over(Middleware::start(cfg, catalog, store))
    }

    /// Spawn the per-node HTTP listeners over an already-running cluster,
    /// taking over its lifecycle ([`HttpCluster::shutdown`] stops both).
    /// The HTTP layer is identical whatever carries the peer traffic: start
    /// the middleware with `Middleware::start_on` and e.g. `ccm-net`'s
    /// `TcpLan` for a cluster whose cache cooperation runs over real
    /// sockets, not in-process channels.
    ///
    /// # Panics
    /// Panics if a loopback socket cannot be bound.
    pub fn over(middleware: Middleware) -> HttpCluster {
        let nodes = middleware.nodes();
        let catalog = middleware.catalog().clone();
        let middleware = Arc::new(middleware);
        let stop = Arc::new(AtomicBool::new(false));
        let mut addrs = Vec::with_capacity(nodes);
        let mut acceptors = Vec::with_capacity(nodes);

        for n in 0..nodes {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            addrs.push(listener.local_addr().expect("local addr"));
            let node = NodeId(n as u16);
            let ctx = NodeCtx {
                handle: middleware.handle(node),
                catalog: catalog.clone(),
                middleware: middleware.clone(),
                obs: HttpObs::new(middleware.registry(), node),
            };
            let stop = stop.clone();
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("httpd-node-{n}"))
                    .spawn(move || accept_loop(listener, ctx, stop))
                    .expect("spawn acceptor"),
            );
        }
        HttpCluster {
            middleware,
            addrs,
            stop,
            acceptors,
        }
    }

    /// The per-node addresses (what round-robin DNS would rotate through).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The middleware underneath (stats, invariants).
    pub fn middleware(&self) -> &Middleware {
        &self.middleware
    }

    /// Stop accepting, drain workers, and shut the middleware down.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge each acceptor out of `accept()` with a no-op connection.
        for &addr in &self.addrs {
            let _ = TcpStream::connect(addr);
        }
        for a in self.acceptors.drain(..) {
            let _ = a.join();
        }
        match Arc::try_unwrap(self.middleware) {
            Ok(mw) => mw.shutdown(),
            Err(_) => { /* a handle outlived us; Drop will clean up */ }
        }
    }
}

fn accept_loop(listener: TcpListener, ctx: NodeCtx, stop: Arc<AtomicBool>) {
    let ctx = Arc::new(ctx);
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let ctx = ctx.clone();
        workers.push(
            std::thread::Builder::new()
                .name("httpd-conn".into())
                .spawn(move || serve_connection(stream, &ctx))
                .expect("spawn worker"),
        );
        // Opportunistically reap finished workers to bound the vector.
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
}
