//! The front-door tier: per-endpoint HTTP listeners in a fixed pipeline.
//!
//! ```text
//!             ┌────────── endpoint ──────────┐
//!  client ──▶ │ accept · keep-alive · parse  │   (`ccm-httpd`, the
//!             └──────────────┬───────────────┘    shared codec)
//!             ┌────────── middleware ────────┐
//!             │ obs: latency · inflight ·    │   (`ccm_front_*` family)
//!             │ dispatch/handoff counters    │
//!             └──────────────┬───────────────┘
//!             ┌────────── service ───────────┐
//!             │ route · Range/If-Range ·     │   (the `range` module +
//!             │ Dispatch::pick               │    the dispatch seam)
//!             └──────────────┬───────────────┘
//!             ┌────────── backend ───────────┐
//!             │ CCM cluster  |  live L2S     │   (the backend seam)
//!             └──────────────────────────────┘
//! ```
//!
//! One listener per cluster node plays the round-robin-DNS arrival points;
//! a request may then be *dispatched* to a different node by the policy —
//! the `moved` distinction the paper's L2S baseline charges hand-off costs
//! for. Connections are thread-per-connection with keep-alive, and because
//! each connection is drained strictly in order, pipelined requests get
//! their responses in request order with no extra machinery.
//!
//! This is the only HTTP server in the workspace. The paper's "off-the-
//! shelf server behind round-robin DNS" (§7) is this tier with
//! [`RoundRobin`](crate::RoundRobin) dispatch over a
//! [`CcmBackend`](crate::CcmBackend). Besides `GET`/`HEAD /file/<id>`
//! every endpoint answers `/metrics` (Prometheus text), `/front/stats`
//! (dispatch counts as JSON) and `/debug/trace` (the backend's block-path
//! trace ring as JSON; `404` from a backend that keeps none).

use crate::backend::FrontBackend;
use crate::dispatch::{inflight_gauges, Dispatch};
use crate::range::{self, RangeOutcome};
use ccm_core::{FileId, NodeId};
use ccm_httpd::http::{read_request, route_file, write_response_with, ParseError, Request};
use ccm_obs::{Counter, Gauge, Histogram, Registry, Stopwatch};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Response status classes tallied per policy.
const STATUS_CLASSES: [&str; 4] = ["2xx", "4xx", "5xx", "206"];

/// Front-tier tuning knobs ([`FrontTier::start_with`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontConfig {
    /// Tier-wide cap on concurrently served file requests. At the cap a
    /// file request is answered `503 Service Unavailable` (with
    /// `Retry-After`) *before* any dispatch decision or backend work —
    /// admission control at the front door, so an overloaded cluster
    /// sheds cheaply instead of queueing. Every rejection is counted on
    /// `ccm_front_rejected_total`. `/metrics` and `/front/stats` are
    /// never rejected (the overloaded state must stay observable).
    /// `None` (the default) admits everything.
    pub max_inflight: Option<i64>,
}

/// The `ccm_front_*` metric family.
struct FrontObs {
    /// Requests dispatched, by target node (`{policy, node}`).
    dispatch_total: Vec<Counter>,
    /// Requests whose target differed from their arrival endpoint.
    handoffs: Counter,
    /// Parse-to-response-ready latency (accounting settles before the
    /// response is written, so sequential clients stay deterministic).
    latency_ns: Histogram,
    /// Responses by status class (206 gets its own bucket: partial
    /// content is what this tier exists to measure).
    responses: [Counter; 4],
    /// Outstanding backend reads per node — the load-aware policy's
    /// signal (same handles, via registry dedupe).
    inflight: Vec<Gauge>,
    /// File requests refused at the inflight cap (always registered, so
    /// a scrape sees the family even with the cap off).
    rejected: Counter,
}

impl FrontObs {
    fn new(registry: &Registry, policy: &'static str, nodes: usize) -> FrontObs {
        FrontObs {
            dispatch_total: (0..nodes)
                .map(|n| {
                    registry.counter(
                        "ccm_front_dispatch_total",
                        "Requests dispatched through the front tier, by target node",
                        &[("policy", policy), ("node", n.to_string().as_str())],
                    )
                })
                .collect(),
            handoffs: registry.counter(
                "ccm_front_handoffs_total",
                "Requests served by a node other than their arrival endpoint",
                &[("policy", policy)],
            ),
            latency_ns: registry.histogram(
                "ccm_front_request_latency_ns",
                "Front-tier request latency, parse to response ready",
                &[("policy", policy)],
            ),
            responses: STATUS_CLASSES.map(|class| {
                registry.counter(
                    "ccm_front_responses_total",
                    "Front-tier responses written, by status class",
                    &[("policy", policy), ("status", class)],
                )
            }),
            inflight: inflight_gauges(registry, nodes),
            rejected: registry.counter(
                "ccm_front_rejected_total",
                "File requests refused with an early 503 at the front tier's inflight cap",
                &[("policy", policy)],
            ),
        }
    }

    fn count(&self, status: u16) {
        let idx = match status {
            206 => 3,
            s if s / 100 == 2 => 0,
            s if s / 100 == 4 => 1,
            _ => 2,
        };
        self.responses[idx].inc();
    }
}

/// Everything the connection workers share.
struct FrontInner {
    backend: Arc<dyn FrontBackend>,
    dispatch: Arc<dyn Dispatch>,
    registry: Registry,
    obs: FrontObs,
    cfg: FrontConfig,
    /// Tier-wide count of file requests currently being served (only
    /// consulted when `cfg.max_inflight` is set).
    serving: AtomicI64,
}

/// A running front tier: one listener per cluster node over one backend.
pub struct FrontTier {
    inner: Arc<FrontInner>,
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<()>>,
}

impl FrontTier {
    /// Start one loopback listener per backend node. `registry` carries
    /// the `ccm_front_*` family; pass the middleware's registry to get
    /// front and cache metrics on one `/metrics` page (a
    /// [`CcmBackend`](crate::CcmBackend) renders the middleware's registry,
    /// so the front family is on the page only if it is this one).
    ///
    /// # Panics
    /// Panics if a loopback socket cannot be bound (no such environment
    /// is supported).
    pub fn start(
        backend: Arc<dyn FrontBackend>,
        dispatch: Arc<dyn Dispatch>,
        registry: Registry,
    ) -> FrontTier {
        Self::start_with(backend, dispatch, registry, FrontConfig::default())
    }

    /// [`FrontTier::start`] with explicit tuning — notably the
    /// [`FrontConfig::max_inflight`] admission cap.
    ///
    /// # Panics
    /// Panics if a loopback socket cannot be bound.
    pub fn start_with(
        backend: Arc<dyn FrontBackend>,
        dispatch: Arc<dyn Dispatch>,
        registry: Registry,
        cfg: FrontConfig,
    ) -> FrontTier {
        let nodes = backend.nodes();
        let obs = FrontObs::new(&registry, dispatch.name(), nodes);
        let inner = Arc::new(FrontInner {
            backend,
            dispatch,
            registry,
            obs,
            cfg,
            serving: AtomicI64::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let mut addrs = Vec::with_capacity(nodes);
        let mut acceptors = Vec::with_capacity(nodes);
        for n in 0..nodes {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            addrs.push(listener.local_addr().expect("local addr"));
            let inner = inner.clone();
            let stop = stop.clone();
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("front-ep-{n}"))
                    .spawn(move || accept_loop(listener, NodeId(n as u16), inner, stop))
                    .expect("spawn acceptor"),
            );
        }
        FrontTier {
            inner,
            addrs,
            stop,
            acceptors,
        }
    }

    /// The per-endpoint addresses (what round-robin DNS would rotate
    /// through).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The dispatch policy's label.
    pub fn policy(&self) -> &'static str {
        self.inner.dispatch.name()
    }

    /// The backend underneath.
    pub fn backend(&self) -> &Arc<dyn FrontBackend> {
        &self.inner.backend
    }

    /// Requests dispatched to each node so far.
    pub fn dispatch_counts(&self) -> Vec<u64> {
        self.inner
            .obs
            .dispatch_total
            .iter()
            .map(Counter::get)
            .collect()
    }

    /// Requests moved off their arrival endpoint so far.
    pub fn handoffs(&self) -> u64 {
        self.inner.obs.handoffs.get()
    }

    /// File requests refused at the inflight cap so far.
    pub fn rejected(&self) -> u64 {
        self.inner.obs.rejected.get()
    }

    /// Stop accepting and drain connection workers. The backend is left
    /// running — its lifecycle belongs to whoever started it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for &addr in &self.addrs {
            let _ = TcpStream::connect(addr); // nudge accept()
        }
        for a in self.acceptors.drain(..) {
            let _ = a.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    endpoint: NodeId,
    inner: Arc<FrontInner>,
    stop: Arc<AtomicBool>,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let inner = inner.clone();
        workers.push(
            std::thread::Builder::new()
                .name("front-conn".into())
                .spawn(move || serve_connection(stream, endpoint, &inner))
                .expect("spawn worker"),
        );
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
}

/// A fully prepared response, accounting already done. Writing it is the
/// *last* thing that happens for a request: once the client has read the
/// response, every counter, gauge, and dispatch-policy bracket for it has
/// already settled — which is what makes a sequential client a fully
/// deterministic driver.
struct Prepared {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    extra: Vec<(&'static str, String)>,
    body: Vec<u8>,
}

impl Prepared {
    fn new(status: u16, reason: &'static str, body: Vec<u8>) -> Prepared {
        Prepared {
            status,
            reason,
            content_type: "application/octet-stream",
            extra: Vec::new(),
            body,
        }
    }

    /// A `200` page of an observability route, with its content type.
    fn page(content_type: &'static str, body: String) -> Prepared {
        Prepared {
            content_type,
            ..Prepared::new(200, "OK", body.into_bytes())
        }
    }

    fn write(
        &self,
        writer: &mut TcpStream,
        keep_alive: bool,
        head_only: bool,
    ) -> std::io::Result<()> {
        let extra: Vec<(&str, &str)> = self.extra.iter().map(|(k, v)| (*k, v.as_str())).collect();
        write_response_with(
            writer,
            self.status,
            self.reason,
            self.content_type,
            &extra,
            &self.body,
            keep_alive,
            head_only,
        )
    }
}

/// Endpoint stage: keep-alive parse loop. Requests are answered strictly
/// in arrival order, which is exactly the ordering pipelining requires.
fn serve_connection(stream: TcpStream, endpoint: NodeId, inner: &FrontInner) {
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
                inner.obs.count(400);
                let _ =
                    Prepared::new(400, "Bad Request", Vec::new()).write(&mut writer, false, false);
                return;
            }
        };
        // Middleware stage: latency + status accounting around the
        // service call — all of it *before* the response is written.
        let head_only = req.method == "HEAD";
        let sw = Stopwatch::start();
        let prepared = handle_request(endpoint, &req, inner);
        sw.stop(&inner.obs.latency_ns);
        inner.obs.count(prepared.status);
        let ok = prepared.write(&mut writer, req.keep_alive, head_only);
        if ok.is_err() || !req.keep_alive {
            return;
        }
    }
}

/// Service stage: routing, range semantics, and the dispatch decision.
fn handle_request(endpoint: NodeId, req: &Request, inner: &FrontInner) -> Prepared {
    if req.method != "GET" && req.method != "HEAD" {
        return Prepared::new(405, "Method Not Allowed", Vec::new());
    }
    match req.path.as_str() {
        "/metrics" => {
            let snapshot = inner.registry.snapshot();
            Prepared::page(
                "text/plain; version=0.0.4; charset=utf-8",
                ccm_obs::prom::render(&snapshot),
            )
        }
        "/debug/trace" => match inner.backend.trace_json() {
            Some(body) => Prepared::page("application/json", body),
            None => Prepared::new(404, "Not Found", b"backend keeps no trace ring".to_vec()),
        },
        "/front/stats" => {
            let counts = inner
                .obs
                .dispatch_total
                .iter()
                .map(|c| c.get().to_string())
                .collect::<Vec<_>>()
                .join(",");
            let body = format!(
                "{{\"policy\":\"{}\",\"backend\":\"{}\",\"handoffs\":{},\"dispatched\":[{}]}}",
                inner.dispatch.name(),
                inner.backend.name(),
                inner.obs.handoffs.get(),
                counts
            );
            Prepared::page("application/json", body)
        }
        path => {
            let file = route_file(path)
                .filter(|&id| (id as usize) < inner.backend.catalog().num_files())
                .map(FileId);
            match file {
                Some(file) => serve_file(endpoint, req, inner, file),
                None => Prepared::new(404, "Not Found", b"no such file".to_vec()),
            }
        }
    }
}

fn serve_file(endpoint: NodeId, req: &Request, inner: &FrontInner, file: FileId) -> Prepared {
    // Admission control: over the tier-wide inflight cap, refuse now —
    // before range evaluation, dispatch, or any backend byte. The
    // rejection is the overload-control contract: counted, immediate,
    // and with a retry hint, never a silently growing queue.
    if let Some(cap) = inner.cfg.max_inflight {
        let prev = inner.serving.fetch_add(1, Ordering::SeqCst);
        if prev >= cap {
            inner.serving.fetch_sub(1, Ordering::SeqCst);
            inner.obs.rejected.inc();
            let mut p = Prepared::new(503, "Service Unavailable", b"overloaded".to_vec());
            p.extra.push(("Retry-After", "1".to_string()));
            return p;
        }
    }
    let prepared = serve_file_admitted(endpoint, req, inner, file);
    if inner.cfg.max_inflight.is_some() {
        inner.serving.fetch_sub(1, Ordering::SeqCst);
    }
    prepared
}

fn serve_file_admitted(
    endpoint: NodeId,
    req: &Request,
    inner: &FrontInner,
    file: FileId,
) -> Prepared {
    let size = inner.backend.catalog().size_of(file);
    let etag = range::etag(file, size);
    let outcome = range::evaluate(&req.headers, size, &etag);

    // An unsatisfiable range is answered at the front door — no byte of
    // the selection exists, so there is nothing to dispatch for.
    if outcome == RangeOutcome::Unsatisfiable {
        let mut p = Prepared::new(416, "Range Not Satisfiable", Vec::new());
        p.extra.push(("Content-Range", format!("bytes */{size}")));
        return p;
    }

    // Dispatch stage: pick the serving node, account the decision, and
    // bracket the backend read with the load signals.
    let target = inner.dispatch.pick(endpoint, &req.path, Some(file));
    inner.obs.dispatch_total[target.index()].inc();
    if target != endpoint {
        inner.obs.handoffs.inc();
    }
    inner.obs.inflight[target.index()].adjust(1);
    inner.dispatch.begin(target);

    let prepared = match outcome {
        RangeOutcome::Full => {
            let body = inner.backend.read_file(target, file);
            let mut p = Prepared::new(200, "OK", body);
            p.extra.push(("ETag", etag.clone()));
            p.extra.push(("Accept-Ranges", "bytes".to_string()));
            p
        }
        RangeOutcome::Partial { start, end } => {
            let body = inner.backend.read_range(target, file, start, end);
            let mut p = Prepared::new(206, "Partial Content", body);
            p.extra
                .push(("Content-Range", format!("bytes {start}-{end}/{size}")));
            p.extra.push(("ETag", etag.clone()));
            p.extra.push(("Accept-Ranges", "bytes".to_string()));
            p
        }
        RangeOutcome::Unsatisfiable => unreachable!("handled above"),
    };

    inner.dispatch.end(target);
    inner.obs.inflight[target.index()].adjust(-1);
    prepared
}
