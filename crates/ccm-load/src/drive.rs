//! The one pipeline: build the cluster, warm it up, drive the measurement
//! window, reconcile, report. Two things vary between runs and nothing
//! else does — the *arrival source* (the plan of requests and how it is
//! paced: closed-loop clients, or an open-loop schedule with its bounded
//! in-flight table) and the *target* (a [`Conn`] that reads a file through
//! the bare handles or through the HTTP front tier).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccm_core::block::{blocks_of_file, BLOCK_SIZE};
use ccm_core::{AdmissionConfig, BlockId, CacheStats, FileId, NodeId};
use ccm_front::{
    CcmBackend, FrontBackend, FrontClient, FrontTier, HitStats, L2sBackend, PolicyKind,
};
use ccm_obs::{Counter, Gauge, Histogram, LatencySummary, Registry, Stopwatch};
use ccm_rt::store::read_file_direct;
use ccm_rt::{BlockStore, Catalog, MemStore, Middleware, RtConfig, SyntheticStore, Transport};
use ccm_traces::Workload;
use simcore::hash::{fnv1a, FNV_OFFSET};

use crate::report::LoadReport;
use crate::spec::{Arrivals, LoadSpec, Target};

/// One request, as the arrival source planned it.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// Stream position: the global index for closed-loop arrivals (it
    /// keys the write mix), the phase-local index for open-loop ones (it
    /// salts the request's digest).
    seq: u64,
    /// Arrival point: round-robin DNS over the nodes.
    node: NodeId,
    file: FileId,
    /// Scheduled virtual instant (open loop; 0 for closed-loop arrivals).
    at_ns: u64,
    /// Offered arrival rate at that instant, requests/sec (open loop).
    rate_rps: i64,
    /// Rewrite the file's first block instead of reading the file.
    write: bool,
}

/// The arrival source's plan: every request of the run, split at the
/// warm-up boundary, plus the window's offered load in virtual terms.
struct Plan {
    warm: Vec<Op>,
    window: Vec<Op>,
    /// Virtual seconds the window's schedule spans (open loop).
    virtual_window_s: f64,
    /// The rate schedule's integral over the window (open loop).
    expected_events: f64,
}

impl Plan {
    fn of(spec: &LoadSpec, workload: &Arc<Workload>) -> Plan {
        let total = spec.warmup_requests + spec.measure_requests;
        let (stream, process): (Vec<(FileId, u64)>, _) = match spec.arrivals {
            Arrivals::Closed { .. } => {
                let stream = spec.record_stream();
                (stream.iter().map(|f| (FileId(f.0), 0)).collect(), None)
            }
            Arrivals::Open { process, .. } => {
                let mut process = process.build(workload.clone(), spec.seed);
                let schedule = ccm_arrivals::record(&mut *process, total);
                let stream = schedule.iter().map(|a| (FileId(a.file.0), a.at_ns));
                (stream.collect(), Some(process))
            }
        };
        // Closed-loop arrivals number the whole stream; each open-loop
        // phase numbers its arrivals from zero (the window's first arrival
        // lands on node 0 whatever the warm-up length).
        let mix = spec.write_mix();
        let phase = |range: std::ops::Range<usize>| -> Vec<Op> {
            let base = if process.is_some() { 0 } else { range.start };
            let ops = stream[range].iter().enumerate();
            ops.map(|(j, &(file, at_ns))| Op {
                seq: (base + j) as u64,
                node: NodeId(((base + j) % spec.nodes) as u16),
                file,
                at_ns,
                rate_rps: process.as_ref().map_or(0, |p| p.rate_at(at_ns) as i64),
                write: mix.is_some_and(|m| m.is_write((base + j) as u64)),
            })
            .collect()
        };
        let (t_lo, t_hi) = (stream[spec.warmup_requests].1, stream[total - 1].1);
        Plan {
            warm: phase(0..spec.warmup_requests),
            window: phase(spec.warmup_requests..total),
            virtual_window_s: (t_hi - t_lo).max(1) as f64 / ccm_arrivals::NS_PER_SEC as f64,
            expected_events: process.map_or(0.0, |p| p.expected_events(t_lo, t_hi)),
        }
    }
}

/// The running cluster: a backend (the middleware wrapped as a
/// [`CcmBackend`], or live L2S) and, when the run needs HTTP listeners,
/// the front tier over it — the target itself under [`Target::Front`], or
/// the `/metrics` scrape surface of a handle run with `serve_metrics`.
struct Cluster {
    /// The middleware, which every target but the L2S front runs.
    mw: Option<Arc<Middleware>>,
    backend: Arc<dyn FrontBackend>,
    tier: Option<FrontTier>,
    /// Requests go through the tier's sockets, not the bare handles.
    over_http: bool,
}

impl Cluster {
    fn start(
        spec: &LoadSpec,
        catalog: &Catalog,
        store: &Arc<dyn BlockStore>,
        registry: &Registry,
        transport: Option<Arc<dyn Transport>>,
    ) -> Cluster {
        let (mw, backend): (_, Arc<dyn FrontBackend>) = if spec.is_l2s() {
            let capacity_bytes = spec.capacity_blocks as u64 * BLOCK_SIZE;
            let l2s = L2sBackend::new(catalog.clone(), store.clone(), spec.nodes, capacity_bytes);
            (None, Arc::new(l2s))
        } else {
            let cfg = RtConfig {
                nodes: spec.nodes,
                capacity_blocks: spec.capacity_blocks,
                policy: spec.policy,
                // A deterministic run asserts that no fetch ever falls
                // back to the store; on a loaded (or single-core) machine
                // OS scheduling can stall a service thread well past the
                // production timeout, so give sequential replay a timeout
                // only a genuine hang hits.
                fetch_timeout: Duration::from_secs(if spec.is_deterministic() { 60 } else { 2 }),
                obs: Some(registry.clone()),
                write: spec.write,
                admission: spec.admission_ghosts.map(AdmissionConfig::new),
                transport,
                ..RtConfig::default()
            };
            let mw = Arc::new(Middleware::start(cfg, catalog.clone(), store.clone()));
            (Some(mw.clone()), Arc::new(CcmBackend::new(mw)))
        };
        // The scrape surface is the paper's own configuration: round-robin
        // over the CCM backend. The handle run never sends it a file
        // request, so it only ever answers the scraper.
        let dispatch = match spec.target {
            Target::Front { dispatch, .. } => Some(dispatch),
            Target::Handle => spec.serve_metrics.then_some(PolicyKind::RoundRobin),
        };
        let tier = dispatch.map(|d| {
            FrontTier::start(
                backend.clone(),
                d.build(registry, spec.nodes),
                registry.clone(),
            )
        });
        Cluster {
            mw,
            backend,
            tier,
            over_http: matches!(spec.target, Target::Front { .. }),
        }
    }

    /// The middleware underneath, if the target runs one.
    fn mw(&self) -> Option<&Middleware> {
        self.mw.as_deref()
    }

    /// Where the mid-window `/metrics` scrape goes: a handle run's tier.
    fn scrape_addr(&self) -> Option<SocketAddr> {
        let tier = self.tier.as_ref().filter(|_| !self.over_http)?;
        Some(tier.addrs()[0])
    }

    /// A fresh connection to the target, for one client's exclusive use.
    fn conn(&self) -> Conn<'_> {
        match &self.tier {
            Some(tier) if self.over_http => {
                let addrs = tier.addrs();
                Conn::Front(addrs, addrs.iter().map(|_| None).collect())
            }
            _ => Conn::Handle(self.mw().expect("handle target runs a middleware")),
        }
    }

    /// Drain in-flight background work so counters are stable (the L2S
    /// backend has none).
    fn quiesce(&self) {
        self.backend.quiesce();
    }

    /// Block-weighted hit accounting so far, comparable across targets.
    fn hit_stats(&self) -> HitStats {
        self.backend.hit_stats()
    }

    fn shutdown(self) {
        if let Some(tier) = self.tier {
            tier.shutdown();
        }
        drop(self.backend);
        // If a handle outlived us, Drop cleans up instead.
        if let Some(Ok(mw)) = self.mw.map(Arc::try_unwrap) {
            mw.shutdown();
        }
    }
}

/// The target seam from one client's side: read a whole file at a node.
enum Conn<'a> {
    Handle(&'a Middleware),
    /// Keep-alive connections to the front endpoints, dialled on first use.
    Front(&'a [SocketAddr], Vec<Option<FrontClient>>),
}

impl Conn<'_> {
    fn read(&mut self, node: NodeId, file: FileId) -> Vec<u8> {
        match self {
            Conn::Handle(mw) => mw.handle(node).read_file(file),
            Conn::Front(addrs, conns) => {
                let conn = conns[node.index()].get_or_insert_with(|| {
                    FrontClient::connect(addrs[node.index()]).expect("connect front endpoint")
                });
                let path = format!("/file/{}", file.0);
                let r = conn.get(&path).expect("front request failed");
                assert_eq!(r.status, 200, "front returned {} for {path}", r.status);
                r.body
            }
        }
    }
}

/// The driver's own `ccm_load_*` metric family.
struct LoadObs {
    /// Indexed by phase: warm-up, then measurement.
    requests: [Counter; 2],
    latency: [Histogram; 2],
    sheds: Counter,
    offered: Gauge,
    inflight: Gauge,
}

impl LoadObs {
    fn new(registry: &Registry) -> LoadObs {
        let requests = |phase: &str| {
            registry.counter(
                "ccm_load_requests_total",
                "Requests the load generator completed",
                &[("phase", phase)],
            )
        };
        let latency = |phase: &str| {
            registry.histogram(
                "ccm_load_request_latency_ns",
                "End-to-end request latency as the load generator sees it",
                &[("phase", phase)],
            )
        };
        LoadObs {
            requests: [requests("warmup"), requests("measure")],
            latency: [latency("warmup"), latency("measure")],
            sheds: registry.counter(
                "ccm_load_shed_total",
                "Open-loop arrivals refused at the bounded in-flight table",
                &[],
            ),
            offered: registry.gauge(
                "ccm_load_offered_rps",
                "Offered arrival rate at the schedule's current instant, requests/sec",
                &[],
            ),
            inflight: registry.gauge(
                "ccm_load_inflight",
                "Admitted open-loop requests currently outstanding (the queue-growth gauge)",
                &[],
            ),
        }
    }
}

/// `GET /metrics` from one node and check that the driver's and the
/// runtime's metric families are on the page.
fn scrape_ok(addr: SocketAddr) -> bool {
    let families = [
        "ccm_load_requests_total",
        "ccm_load_shed_total",
        "ccm_load_offered_rps",
        "ccm_rt_reads_total",
    ];
    ccm_front::client::get(addr, "/metrics").is_ok_and(|r| {
        let body = String::from_utf8_lossy(&r.body);
        r.status == 200 && families.iter().all(|f| body.contains(f))
    })
}

/// Driver-side counts for one phase (or one client's share of it).
#[derive(Clone, Copy, Default)]
struct Tally {
    served: u64,
    writes: u64,
    shed: u64,
    peak_inflight: i64,
    blocks: u64,
    bytes: u64,
    digest: u64,
}

impl Tally {
    /// Sum the counts and XOR the digests: the result is independent of
    /// how requests interleaved across clients or workers.
    fn merge(parts: impl IntoIterator<Item = Tally>) -> Tally {
        parts.into_iter().fold(Tally::default(), |mut acc, p| {
            acc.served += p.served;
            acc.writes += p.writes;
            acc.shed += p.shed;
            acc.peak_inflight = acc.peak_inflight.max(p.peak_inflight);
            acc.blocks += p.blocks;
            acc.bytes += p.bytes;
            acc.digest ^= p.digest;
            acc
        })
    }
}

/// Acked write payloads by block: what every later read is verified
/// against (under write-back the store lags the cluster).
type Shadow = HashMap<BlockId, Vec<u8>>;

/// One phase of the run (warm-up, then the measurement window) and what
/// every request of it shares.
struct Phase<'a> {
    spec: &'a LoadSpec,
    cluster: &'a Cluster,
    store: &'a dyn BlockStore,
    catalog: &'a Catalog,
    obs: &'a LoadObs,
    /// 0 = warm-up, 1 = the measurement window (indexes the phase-labelled
    /// metric series).
    window: usize,
}

impl Phase<'_> {
    /// The arrival source's digest scheme. Closed loop: each client chains
    /// FNV-1a over its own payload stream. Open loop: each request hashes
    /// its sequence number then its payload, so repeats of one file cannot
    /// cancel under the XOR fold.
    fn salted(&self) -> bool {
        matches!(self.spec.arrivals, Arrivals::Open { .. })
    }

    fn tally(&self) -> Tally {
        Tally {
            digest: if self.salted() { 0 } else { FNV_OFFSET },
            ..Tally::default()
        }
    }

    /// Drive the phase's requests the way the arrival source dictates.
    /// Closed-loop arrivals warm the way they measure; an open-loop
    /// schedule's warm-up prefix is served in order, always admitted — the
    /// overload machinery only makes sense against warm caches.
    fn drive(&self, shadow: &mut Shadow, ops: &[Op]) -> Tally {
        match self.spec.arrivals {
            Arrivals::Closed {
                clients_per_node,
                deterministic,
            } => {
                let clients = self.spec.nodes * clients_per_node;
                if deterministic {
                    self.in_order(shadow, ops, clients)
                } else {
                    self.concurrent(ops, clients)
                }
            }
            Arrivals::Open { .. } if self.window == 0 => self.in_order(shadow, ops, 1),
            Arrivals::Open {
                max_inflight,
                virtual_time: true,
                service_base_ns,
                service_per_block_ns,
                ..
            } => {
                let (admitted, gate) = self.admit_virtual(ops, max_inflight, |op| {
                    let blocks = blocks_of_file(self.catalog.size_of(op.file)) as u64;
                    service_base_ns + service_per_block_ns * blocks
                });
                // The cluster's cache trajectory sees exactly the admitted
                // subsequence, in schedule order.
                let served = self.in_order(shadow, &admitted, 1);
                Tally::merge([served, gate])
            }
            Arrivals::Open {
                max_inflight,
                workers,
                ..
            } => self.real_time(ops, max_inflight, workers),
        }
    }

    /// Serve one read: time it (from `due`, the scheduled instant, when
    /// the arrival source has one — queue wait is then in the number),
    /// verify every byte against the backing store's ground truth with the
    /// shadow spliced over it, and fold the payload into the digest.
    fn serve(
        &self,
        conn: &mut Conn,
        shadow: &Shadow,
        op: &Op,
        due: Option<Instant>,
        tally: &mut Tally,
    ) {
        let latency = &self.obs.latency[self.window];
        let sw = Stopwatch::start();
        let got = conn.read(op.node, op.file);
        match due {
            Some(due) => latency.record(due.elapsed().as_nanos() as u64),
            None => {
                sw.stop(latency);
            }
        }
        self.obs.requests[self.window].inc();
        let mut want = read_file_direct(self.store, self.catalog, op.file);
        let blocks = blocks_of_file(want.len() as u64);
        if !shadow.is_empty() {
            for b in 0..blocks {
                if let Some(p) = shadow.get(&BlockId::new(op.file, b)) {
                    let off = b as usize * BLOCK_SIZE as usize;
                    want[off..off + p.len()].copy_from_slice(p);
                }
            }
        }
        assert!(
            got == want,
            "corrupt serve: file {} returned {} bytes (want {})",
            op.file.0,
            got.len(),
            want.len()
        );
        tally.served += 1;
        tally.blocks += blocks as u64;
        tally.bytes += want.len() as u64;
        if self.salted() {
            let mut d = FNV_OFFSET;
            fnv1a(&mut d, &op.seq.to_le_bytes());
            fnv1a(&mut d, &got);
            tally.digest ^= d;
        } else {
            fnv1a(&mut tally.digest, &got);
        }
    }

    /// Rewrite the file's first block with a payload that is a pure
    /// function of the op, and remember it in the shadow.
    fn write(&self, shadow: &mut Shadow, op: &Op, tally: &mut Tally) {
        let mw = self.cluster.mw().expect("writes go to the handle target");
        let block = BlockId::new(op.file, 0);
        let fill = (op.seq as u8) ^ (op.file.0 as u8) ^ 0x5A;
        let payload = vec![fill; self.catalog.block_bytes(block) as usize];
        let sw = Stopwatch::start();
        mw.handle(op.node)
            .write_block(block, &payload)
            .expect("writable overlay refused a write");
        sw.stop(&self.obs.latency[self.window]);
        self.obs.requests[self.window].inc();
        shadow.insert(block, payload);
        tally.served += 1;
        tally.writes += 1;
    }

    /// Single-threaded in-order replay. Request `j` folds into digest slot
    /// `j % slots` — the slot the concurrent mode's client `j % slots`
    /// owns — so both modes digest identically. A deterministic spec
    /// drains the data plane between serves: every async directory update
    /// and eviction notice lands before the next arrival, so the cache
    /// trajectory is a pure function of the request sequence on *any*
    /// transport (without the barrier a replay can catch a forward or a
    /// hint mid-flight and take a legitimate but nondeterministic
    /// fallback — rarely on the channel LAN, readily over TCP).
    fn in_order(&self, shadow: &mut Shadow, ops: &[Op], slots: usize) -> Tally {
        let barrier = self.spec.is_deterministic();
        let mut conn = self.cluster.conn();
        let mut parts = vec![self.tally(); slots];
        for (j, op) in ops.iter().enumerate() {
            let tally = &mut parts[j % slots];
            if op.write {
                self.write(shadow, op, tally);
            } else {
                self.serve(&mut conn, shadow, op, None, tally);
            }
            if barrier {
                self.cluster.quiesce();
            }
        }
        Tally::merge(parts)
    }

    /// Concurrent closed-loop clients: client `k` of `K` serves requests
    /// `j ≡ k (mod K)`, and because `K` is a multiple of the node count
    /// all of them arrive at one node — `K / nodes` clients per node,
    /// exactly the paper's client model.
    fn concurrent(&self, ops: &[Op], clients: usize) -> Tally {
        let shadow = Shadow::new();
        std::thread::scope(|s| {
            let joins: Vec<_> = (0..clients)
                .map(|k| {
                    let shadow = &shadow;
                    s.spawn(move || {
                        let mut conn = self.cluster.conn();
                        let mut tally = self.tally();
                        for op in ops.iter().skip(k).step_by(clients) {
                            self.serve(&mut conn, shadow, op, None, &mut tally);
                        }
                        tally
                    })
                })
                .collect();
            let parts = joins
                .into_iter()
                .map(|j| j.join().expect("load client panicked"));
            Tally::merge(parts)
        })
    }

    /// Real-time open loop: pace the schedule against the wall clock, shed
    /// at the in-flight bound, serve on a worker pool. Arrivals fire on
    /// schedule whether or not earlier requests completed.
    fn real_time(&self, window: &[Op], max_inflight: usize, workers: usize) -> Tally {
        let inflight = AtomicI64::new(0);
        let (tx, rx) = simcore::chan::unbounded::<(Op, Instant)>();
        let origin_ns = window.first().map_or(0, |a| a.at_ns);
        let shadow = Shadow::new();
        std::thread::scope(|s| {
            let joins: Vec<_> = (0..workers)
                .map(|_| {
                    let (rx, inflight, shadow) = (rx.clone(), &inflight, &shadow);
                    s.spawn(move || {
                        let mut conn = self.cluster.conn();
                        let mut tally = self.tally();
                        while let Ok((op, due)) = rx.recv() {
                            self.serve(&mut conn, shadow, &op, Some(due), &mut tally);
                            inflight.fetch_sub(1, Ordering::SeqCst);
                        }
                        tally
                    })
                })
                .collect();
            drop(rx);

            let t0 = Instant::now();
            let mut gate = Tally::default();
            for op in window {
                let due = t0 + Duration::from_nanos(op.at_ns - origin_ns);
                while let Some(gap) = due.checked_duration_since(Instant::now()) {
                    if gap > Duration::from_micros(200) {
                        std::thread::sleep(gap - Duration::from_micros(100));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                if self.admit(op, inflight.load(Ordering::SeqCst), max_inflight, &mut gate) {
                    inflight.fetch_add(1, Ordering::SeqCst);
                    tx.send((*op, due)).expect("worker pool hung up");
                }
            }
            drop(tx);
            let parts = joins
                .into_iter()
                .map(|j| j.join().expect("open-loop worker panicked"));
            Tally::merge(parts.chain([gate]))
        })
    }

    /// The open loop's bounded in-flight table: admit `op` unless
    /// `occupancy` requests already hold one of the `max_inflight` slots; a
    /// refusal is counted, never silent.
    fn admit(&self, op: &Op, occupancy: i64, max_inflight: usize, gate: &mut Tally) -> bool {
        self.obs.offered.set(op.rate_rps);
        self.obs.inflight.set(occupancy);
        gate.peak_inflight = gate.peak_inflight.max(occupancy);
        let full = occupancy >= max_inflight as i64;
        if full {
            gate.shed += 1;
            self.obs.sheds.inc();
        }
        !full
    }

    /// Virtual-time admission: an M/D/c/c loss system over the schedule —
    /// `max_inflight` servers, no queue, `service_ns(op)` per request.
    /// Returns the admitted subsequence for in-order live replay.
    fn admit_virtual(
        &self,
        window: &[Op],
        max_inflight: usize,
        service_ns: impl Fn(&Op) -> u64,
    ) -> (Vec<Op>, Tally) {
        let mut gate = Tally::default();
        // Completion instants of the requests currently holding a slot.
        let mut busy: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut admitted = Vec::with_capacity(window.len());
        for op in window {
            while busy.peek().is_some_and(|&Reverse(done)| done <= op.at_ns) {
                busy.pop();
            }
            if self.admit(op, busy.len() as i64, max_inflight, &mut gate) {
                busy.push(Reverse(op.at_ns + service_ns(op)));
                admitted.push(*op);
            }
        }
        (admitted, gate)
    }
}

/// Run `spec` over the in-process channel LAN (or, under the L2S backend,
/// no cluster transport at all).
///
/// # Panics
/// Panics if [`LoadSpec::validate`] rejects the spec, on a corrupt serve,
/// and — for a deterministic spec — on a failed reconciliation.
pub fn run(spec: &LoadSpec) -> LoadReport {
    run_inner(spec, "channel", None)
}

/// Run `spec` over a caller-built cluster transport (e.g. `ccm-net`'s
/// `TcpLan`), labelling the report's transport with `label`.
///
/// # Panics
/// As [`run`].
pub fn run_on(spec: &LoadSpec, transport: Arc<dyn Transport>, label: &str) -> LoadReport {
    run_inner(spec, label, Some(transport))
}

fn run_inner(spec: &LoadSpec, label: &str, transport: Option<Arc<dyn Transport>>) -> LoadReport {
    if let Err(unsupported) = spec.validate(transport.is_some()) {
        panic!("{unsupported}");
    }
    let workload = Arc::new(spec.workload());
    let plan = Plan::of(spec, &workload);
    let catalog = Catalog::new(workload.sizes().to_vec());
    // Write runs need a store that accepts writes; read-only runs keep the
    // pure synthetic store (the overlay reads identically, but why pay for
    // its map).
    let store: Arc<dyn BlockStore> = if spec.write_ratio > 0.0 {
        Arc::new(MemStore::new(catalog.clone(), spec.seed))
    } else {
        Arc::new(SyntheticStore::new(catalog.clone(), spec.seed))
    };
    let registry = Registry::new();
    let cluster = Cluster::start(spec, &catalog, &store, &registry, transport);
    let obs = LoadObs::new(&registry);
    let phase = |window: usize| Phase {
        spec,
        cluster: &cluster,
        store: &*store,
        catalog: &catalog,
        obs: &obs,
        window,
    };
    let mut shadow = Shadow::new();

    // Warm-up: populate the caches, then drop the counts on the floor.
    phase(0).drive(&mut shadow, &plan.warm);
    // Counter marks at the window's edges: protocol stats, the backend's
    // hit accounting, the registry.
    let marks = || {
        cluster.quiesce();
        let stats = cluster.mw().map_or_else(CacheStats::new, |mw| mw.stats());
        (stats, cluster.hit_stats(), registry.snapshot())
    };
    let (warm_stats, warm_hits, warm_snap) = marks();

    // The measurement window, with `/metrics` scraped while it is driven
    // (the scrape reads the registry and, through the cluster's refresh
    // hook, takes the decision lock briefly to read the occupancy gauges
    // and protocol tallies; it decides nothing and moves no block, so it
    // cannot perturb the caches).
    let (out, elapsed_s, scraped) = std::thread::scope(|s| {
        let scraper = cluster
            .scrape_addr()
            .map(|addr| s.spawn(move || scrape_ok(addr)));
        let started = Instant::now();
        let out = phase(1).drive(&mut shadow, &plan.window);
        let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
        (
            out,
            elapsed_s,
            scraper.map(|j| j.join().expect("scrape panicked")),
        )
    });
    let (done_stats, done_hits, done_snap) = marks();
    let measured = done_stats.delta_since(&warm_stats);
    let hits = done_hits.hits - warm_hits.hits;
    let accesses = done_hits.accesses - warm_hits.accesses;
    let delta = |name: &str| done_snap.counter_sum(name) - warm_snap.counter_sum(name);
    let delta_where = |name: &str, key: &str, value: &str| {
        done_snap.counter_sum_where(name, key, value)
            - warm_snap.counter_sum_where(name, key, value)
    };

    // Every arrival is accounted for — admitted or shed, nothing silent —
    // on the driver's own metric family too, and the backend's
    // block-weighted access count matches the driver's block arithmetic.
    let mut reconciled = out.served + out.shed == plan.window.len() as u64
        && obs.requests[1].get() == out.served
        && obs.sheds.get() == out.shed
        && accesses == out.blocks;

    // Middleware targets: reconcile against the protocol stats and the
    // runtime's read-class registry. Every block read ticks exactly one
    // registry class; protocol stats count decisions, so per-class
    // equality is exact precisely when no data-plane fallback raced.
    // `store_fallbacks` also counts fallbacks outside the read path (an
    // eviction forward whose source bytes were already gone); those tick
    // `ccm_rt_move_fallbacks_total`, so the exact identity is read-class
    // fallbacks + move fallbacks == store fallbacks.
    let (mut write_stats, mut admission) = Default::default();
    if let Some(mw) = cluster.mw() {
        mw.check_invariants();
        let class = |c: &str| delta_where("ccm_rt_reads_total", "class", c);
        let (local, remote) = (class("local"), class("remote"));
        let (disk, fallback) = (class("disk"), class("fallback"));
        reconciled &= local + remote + disk + fallback == out.blocks
            && measured.accesses() == out.blocks
            && fallback + delta("ccm_rt_move_fallbacks_total") == measured.store_fallbacks;
        if measured.store_fallbacks == 0 {
            reconciled &= local == measured.local_hits
                && remote == measured.remote_hits
                && disk == measured.disk_reads;
        }
        if spec.write_ratio > 0.0 {
            // Driver writes vs. the protocol counter vs. the runtime's
            // `ccm_rt_writes_total` family — then the durability epilogue:
            // drain the dirty set and hold the run to the contract that no
            // write is lost on the graceful path and every acked payload
            // is on the store byte for byte.
            reconciled &=
                measured.writes == out.writes && delta("ccm_rt_writes_total") == out.writes;
            mw.flush_dirty();
            reconciled &= mw.dirty_blocks() == 0 && mw.lost_writes().is_empty();
            for (block, payload) in &shadow {
                reconciled &= store.read_block(*block) == *payload;
            }
        }
        if spec.is_deterministic() {
            assert_eq!(
                measured.store_fallbacks, 0,
                "deterministic replay must not race the data plane"
            );
        }
        (write_stats, admission) = (mw.write_stats(), mw.admission_stats());
    }

    // Front target: the tier must have dispatched and answered exactly
    // the window's requests.
    let mut handoffs = 0;
    if matches!(spec.target, Target::Front { .. }) {
        reconciled &= delta("ccm_front_dispatch_total") == out.served
            && delta_where("ccm_front_responses_total", "status", "2xx") == out.served;
        handoffs = delta("ccm_front_handoffs_total");
    }
    if spec.is_deterministic() {
        assert!(
            reconciled,
            "deterministic run failed reconciliation: served {} + shed {} of {}, driver blocks {}, \
             backend accesses {accesses}, stats {measured:?}",
            out.served,
            out.shed,
            plan.window.len(),
            out.blocks,
        );
    }

    let report = LoadReport {
        spec: spec.clone(),
        transport: if spec.is_l2s() { "-" } else { label }.to_string(),
        preset: workload.name().to_string(),
        offered_events: plan.window.len() as u64,
        expected_events: plan.expected_events,
        virtual_window_s: plan.virtual_window_s,
        served: out.served,
        shed: out.shed,
        peak_inflight: out.peak_inflight,
        blocks: out.blocks,
        bytes: out.bytes,
        digest: out.digest,
        measured,
        hits,
        accesses,
        handoffs,
        writes: out.writes,
        write_stats,
        admission,
        reconciled,
        metrics_scrape: scraped,
        elapsed_s,
        latency: LatencySummary::of(&obs.latency[1].snapshot()),
    };
    cluster.shutdown();
    report
}
