//! Shared fixtures for tests that drive a *live* `ccm-rt` cluster.
//!
//! Before this crate, the cluster spin-up, the torture driver, and the
//! deterministic trace-feed/digest driver were copy-pasted across
//! `tests/chaos.rs`, `ccm-net/tests/socket_chaos.rs`, and
//! `ccm-net/tests/socket_cluster.rs`, drifting in small ways (only the
//! channel harness dumped block-path traces; only the TCP harness checked
//! wire stats). This crate is the single copy, parameterized by
//! [`Backend`]:
//!
//! * [`start_cluster`] — a middleware cluster on either LAN backend, any
//!   membership and directory, with the `TcpLan` handle kept reachable for
//!   wire assertions.
//! * [`fixture`] — the seeded catalog + synthetic store the chaos suites
//!   share.
//! * [`run_torture`] — the fault-injection driver with both oracles
//!   (integrity vs. ground truth on every read, bit-identical replay when
//!   quiesced), now with trace-ring dumps and repair-counter
//!   reconciliation on *both* backends.
//! * [`drive`] — the deterministic single-threaded trace feed folding
//!   every delivered byte into an FNV-1a digest (the cross-backend
//!   acceptance oracle).
//!
//! This is a dev-dependency crate: it links `ccm-net` so one enum can
//! start either transport, and the resulting dev-dep cycles are fine —
//! Cargo builds libs without dev-dependencies.

#![warn(missing_docs)]

use ccm_core::{
    AdmissionConfig, AdmissionStats, BlockId, CacheStats, DirectoryKind, FileId, HintStats, NodeId,
    ReplacementPolicy,
};
use ccm_net::TcpLan;
use ccm_rt::store::read_file_direct;
use ccm_rt::{
    BlockStore, Catalog, ChaosStats, DiskFaults, FaultPlan, Membership, Middleware, RtConfig,
    SyntheticStore, Transport,
};
use ccm_traces::Workload;
use simcore::Rng;
use std::sync::Arc;
use std::time::Duration;

/// Which LAN carries the cluster's peer traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The in-process channel LAN (`ccm-rt`'s built-in transport).
    Channel,
    /// Real loopback TCP via `ccm-net`.
    Tcp,
}

impl Backend {
    /// Both backends, channel first.
    pub fn all() -> [Backend; 2] {
        [Backend::Channel, Backend::Tcp]
    }

    /// Label used in reports and assertion messages.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Channel => "channel",
            Backend::Tcp => "tcp",
        }
    }

    /// The fetch timeout the torture harness uses on this backend: short
    /// on the channel LAN so a dropped request degrades to disk quickly,
    /// wider over TCP so a real loopback round trip plus scheduling noise
    /// is never mistaken for a lost message.
    pub fn torture_fetch_timeout(self) -> Duration {
        match self {
            Backend::Channel => Duration::from_millis(25),
            Backend::Tcp => Duration::from_millis(100),
        }
    }
}

/// A running cluster plus (for TCP) the transport handle, so tests can
/// assert on wire statistics.
pub struct Cluster {
    /// The running middleware.
    pub mw: Middleware,
    /// The socket transport underneath, when `Backend::Tcp`.
    pub lan: Option<Arc<TcpLan>>,
}

impl Cluster {
    /// Stop all service threads and join them.
    pub fn shutdown(self) {
        self.mw.shutdown();
    }
}

impl std::ops::Deref for Cluster {
    type Target = Middleware;

    fn deref(&self) -> &Middleware {
        &self.mw
    }
}

/// Start a cluster on the chosen backend: `cfg` as given (its members and
/// directory included), over the channel LAN or a fresh loopback `TcpLan`
/// of `cfg.nodes` slots.
///
/// # Panics
/// Panics if the TCP backend cannot bind its loopback listeners.
pub fn start_cluster(
    backend: Backend,
    mut cfg: RtConfig,
    catalog: Catalog,
    store: Arc<dyn BlockStore>,
) -> Cluster {
    let lan = match backend {
        Backend::Channel => None,
        Backend::Tcp => Some(Arc::new(
            TcpLan::loopback(cfg.nodes).expect("bind loopback listeners"),
        )),
    };
    cfg.transport = lan.clone().map(|l| l as Arc<dyn Transport>);
    Cluster {
        mw: Middleware::start(cfg, catalog, store),
        lan,
    }
}

/// Build a chaos run's fixture deterministically from `seed`: a catalog of
/// small files and a synthetic store holding their ground-truth bytes.
pub fn fixture(seed: u64) -> (Catalog, Arc<SyntheticStore>) {
    let mut rng = Rng::new(seed).substream(1);
    let sizes: Vec<u64> = (0..40).map(|_| 1 + rng.next_below(24_000)).collect();
    let catalog = Catalog::new(sizes);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), seed));
    (catalog, store)
}

/// On an integrity failure, print the block-path trace ring entries for
/// the offending request ids before panicking — the hop sequence (dispatch
/// → peer fetch → fallback → serve) is the first thing a diagnosis needs.
/// Under `obs-off` the ring is compiled out and this prints nothing.
pub fn dump_trace(mw: &Middleware, reqs: &[u64]) {
    for &req in reqs {
        for ev in mw.trace().dump_for(req) {
            eprintln!("trace: {}", ev.to_json());
        }
    }
}

/// Everything observable from one torture run.
#[derive(Debug, PartialEq)]
pub struct TortureOutcome {
    /// Protocol counters at the end of the run.
    pub stats: CacheStats,
    /// Injected link faults.
    pub chaos: ChaosStats,
    /// Crash events executed.
    pub crashes: usize,
    /// Restart events executed.
    pub restarts: usize,
    /// Injected disk I/O errors absorbed by the synchronous store retry.
    pub disk_fallbacks: u64,
}

/// Drive `ops` single-threaded file reads through a faulted cluster on
/// `backend`, executing the plan's crash schedule and asserting the
/// integrity oracle on every read. With `quiesce_each_op` the data plane
/// is drained after every operation, which makes the statistics a
/// deterministic function of the seed (the replayability mode).
///
/// Every crash is reconciled against the repair counters: one
/// `node_repairs` tick, and the repair report's remaster/lost-master split
/// must match the stats delta exactly.
pub fn run_torture(
    backend: Backend,
    seed: u64,
    nodes: usize,
    ops: u64,
    quiesce_each_op: bool,
    disk: DiskFaults,
) -> TortureOutcome {
    let (catalog, store) = fixture(seed);
    let n_files = catalog.num_files() as u64;
    let plan = FaultPlan::torture(seed, nodes, ops).with_disk(disk);
    let crashes_planned = plan.crashes.clone();
    let cluster = start_cluster(
        backend,
        RtConfig {
            nodes,
            capacity_blocks: 24,
            policy: ReplacementPolicy::MasterPreserving,
            fetch_timeout: backend.torture_fetch_timeout(),
            faults: Some(plan),
            ..RtConfig::default()
        },
        catalog.clone(),
        store.clone(),
    );
    let mw = &cluster.mw;

    let mut op_rng = Rng::new(seed).substream(2);
    let mut down = vec![false; nodes];
    let (mut crashes, mut restarts) = (0usize, 0usize);
    for op in 0..ops {
        for ev in &crashes_planned {
            if ev.at_op == op {
                let before = mw.stats();
                let report = mw.crash_node(ev.node);
                down[ev.node.index()] = true;
                crashes += 1;
                mw.check_invariants();
                let after = mw.stats();
                assert_eq!(after.node_repairs, before.node_repairs + 1);
                assert_eq!(
                    after.remasters + after.lost_masters,
                    before.remasters
                        + before.lost_masters
                        + (report.remastered + report.lost_masters) as u64,
                );
            }
            if ev.restart_at_op == Some(op) {
                mw.restart_node(ev.node);
                down[ev.node.index()] = false;
                restarts += 1;
                mw.check_invariants();
            }
        }
        // Route the read through a deterministic live node.
        let live: Vec<NodeId> = (0..nodes)
            .filter(|&i| !down[i])
            .map(|i| NodeId(i as u16))
            .collect();
        let node = live[op_rng.next_below(live.len() as u64) as usize];
        let file = FileId(op_rng.next_below(n_files) as u32);
        let (got, reqs) = mw.handle(node).read_file_traced(file);
        let want = read_file_direct(&*store, &catalog, file);
        if got != want {
            dump_trace(mw, &reqs);
            panic!(
                "{} seed {seed} op {op}: file {file:?} corrupted under faults \
                 (block-path trace for request ids {reqs:?} dumped above)",
                backend.name()
            );
        }
        if quiesce_each_op {
            mw.quiesce();
        }
    }
    mw.quiesce();
    mw.check_invariants();
    let out = TortureOutcome {
        stats: mw.stats(),
        chaos: mw.chaos_stats(),
        crashes,
        restarts,
        disk_fallbacks: mw.disk_error_fallbacks(),
    };
    cluster.shutdown();
    out
}

/// The shared acceptance workload: small Zipf-popular files sized so a few
/// span multiple blocks, total comfortably above one node's cache
/// capacity.
pub fn acceptance_workload() -> Workload {
    ccm_traces::SynthConfig {
        name: "socket-acceptance".into(),
        n_files: 48,
        mean_size: 9_000.0,
        total_bytes: Some(1 << 20),
        seed: 42,
        ..ccm_traces::SynthConfig::default()
    }
    .build()
}

pub use simcore::hash::{fnv1a, FNV_OFFSET};

/// Everything observable from one deterministic drive.
#[derive(Debug, PartialEq, Eq)]
pub struct DriveOutcome {
    /// FNV-1a digest over every delivered byte, in op order.
    pub digest: u64,
    /// Protocol counters at the end of the drive (`store_fallbacks` must be
    /// 0 for a quiesced single-threaded drive to count as deterministic).
    pub stats: CacheStats,
}

/// Drive `ops` deterministic single-threaded reads (same seed → same node
/// and file sequence, drawn from `wl`'s popularity), asserting the
/// integrity oracle on every read and folding all delivered bytes into an
/// FNV-1a digest. Quiesces after every operation so the statistics are a
/// pure function of the op history.
pub fn drive(
    mw: &Middleware,
    store: &dyn BlockStore,
    catalog: &Catalog,
    wl: &Workload,
    nodes: usize,
    ops: u64,
    seed: u64,
) -> DriveOutcome {
    let mut rng = Rng::new(seed).substream(3);
    let mut digest = FNV_OFFSET;
    for op in 0..ops {
        let node = NodeId(rng.next_below(nodes as u64) as u16);
        let file = FileId(wl.sample(&mut rng).0);
        let got = mw.handle(node).read_file(file);
        let want = read_file_direct(store, catalog, file);
        assert_eq!(got, want, "op {op}: file {file:?} corrupted");
        fnv1a(&mut digest, &got);
        mw.quiesce();
    }
    mw.check_invariants();
    DriveOutcome {
        digest,
        stats: mw.stats(),
    }
}

/// How [`read_path_outcome`] reads each file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// One `NodeHandle::read_file` call: batched decisions and trains.
    WholeFile,
    /// A `NodeHandle::read_block` loop over the file's blocks.
    BlockByBlock,
}

/// Everything a single caller's read sequence leaves behind that must not
/// depend on whether files are read whole or block by block.
#[derive(Debug, PartialEq, Eq)]
pub struct ReadPathOutcome {
    /// FNV-1a digest over every delivered byte, in op order.
    pub digest: u64,
    /// Protocol counters, store fallbacks included.
    pub stats: CacheStats,
    /// `ccm_rt_reads_total` summed over nodes: local, remote, disk,
    /// fallback.
    pub reads: [u64; 4],
    /// `ccm_rt_store_blocks` per node: what the data plane holds, which a
    /// late or early store install or removal would change.
    pub store_blocks: Vec<i64>,
    /// Hint-directory statistics.
    pub hints: HintStats,
    /// `ccm_rt_hint_{hits,stale,forward_hops}_total`.
    pub hint_counters: [u64; 3],
    /// Replica-admission statistics.
    pub admission: AdmissionStats,
    /// `ccm_rt_admission_{admitted,rejected,ghost_hits}_total`.
    pub admission_counters: [u64; 3],
}

/// Drive `ops` seeded single-caller reads through a fresh 4-node cluster
/// on `backend` whose caches are smaller than its larger files (so reads
/// evict, forward and re-fetch their own blocks, across several 32-block
/// decision chunks), reading each file as `mode` says and quiescing after
/// every op. Every read is checked against the backing store.
///
/// # Panics
/// Panics on a corrupted read.
pub fn read_path_outcome(
    backend: Backend,
    directory: DirectoryKind,
    admission: Option<AdmissionConfig>,
    mode: ReadMode,
    ops: u64,
) -> ReadPathOutcome {
    let nodes = 4;
    let block = ccm_core::BLOCK_SIZE;
    let sizes = vec![
        70 * block - 100,
        40 * block,
        block,
        3 * block + 7,
        33 * block,
        9 * block,
        200,
        17 * block + 1,
        2 * block,
        5 * block - 1,
    ];
    let catalog = Catalog::new(sizes);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 29));
    let cluster = start_cluster(
        backend,
        RtConfig {
            nodes,
            directory,
            capacity_blocks: 24,
            fetch_timeout: Duration::from_secs(10),
            admission,
            ..RtConfig::default()
        },
        catalog.clone(),
        store.clone(),
    );
    let mw = &cluster.mw;
    let mut rng = Rng::new(31).substream(5);
    let mut digest = FNV_OFFSET;
    for op in 0..ops {
        let node = mw.handle(NodeId(rng.next_below(nodes as u64) as u16));
        let file = FileId(rng.next_below(catalog.num_files() as u64) as u32);
        let got = match mode {
            ReadMode::WholeFile => node.read_file(file),
            ReadMode::BlockByBlock => (0..catalog.blocks_of(file))
                .flat_map(|b| node.read_block(BlockId::new(file, b)).to_vec())
                .collect(),
        };
        assert_eq!(
            got,
            read_file_direct(&*store, &catalog, file),
            "{} {mode:?} op {op}: file {file:?} corrupted",
            backend.name()
        );
        fnv1a(&mut digest, &got);
        mw.quiesce();
    }
    mw.check_invariants();
    let snap = mw.registry().snapshot();
    let sum = |name: &str| snap.counter_sum(name);
    let out = ReadPathOutcome {
        digest,
        stats: mw.stats(),
        reads: ["local", "remote", "disk", "fallback"]
            .map(|class| snap.counter_sum_where("ccm_rt_reads_total", "class", class)),
        store_blocks: (0..nodes)
            .map(|n| {
                match snap
                    .find("ccm_rt_store_blocks", &[("node", &n.to_string())])
                    .map(|m| &m.value)
                {
                    Some(ccm_obs::Value::Gauge(g)) => *g,
                    other => panic!("no store gauge for node {n}: {other:?}"),
                }
            })
            .collect(),
        hints: mw.hint_stats(),
        hint_counters: [
            sum("ccm_rt_hint_hits_total"),
            sum("ccm_rt_hint_stale_total"),
            sum("ccm_rt_hint_forward_hops_total"),
        ],
        admission: mw.admission_stats(),
        admission_counters: [
            sum("ccm_rt_admission_admitted_total"),
            sum("ccm_rt_admission_rejected_total"),
            sum("ccm_rt_admission_ghost_hits_total"),
        ],
    };
    cluster.shutdown();
    out
}

/// One scheduled membership transition in a [`ChurnPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A provisioned (or previously departed) slot joins the cluster and
    /// absorbs a re-mastered share of the resident blocks.
    Join(NodeId),
    /// A member announces departure and hands its masters off first.
    Leave(NodeId),
    /// A member dies without warning; the directory is repaired around it.
    Crash(NodeId),
}

/// A seeded join/leave/crash schedule over a pre-provisioned slot table.
///
/// Slots `0..initial` start as members; `events` holds `(at_op, event)`
/// pairs in non-decreasing operation order. The derivation keeps the
/// schedule executable by construction: it never drops below two live
/// members and never removes slot 0, so the churn driver always has a
/// serving cluster to route through.
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    /// Provisioned slot count (the transport size).
    pub slots: usize,
    /// Slots `0..initial` start as `Up` members.
    pub initial: usize,
    /// `(at_op, event)` pairs, sorted by operation index.
    pub events: Vec<(u64, ChurnEvent)>,
}

impl ChurnPlan {
    /// Derive a schedule from `seed`: `n_events` transitions spread across
    /// the middle of an `ops`-operation run. Joins and removals are drawn
    /// uniformly wherever both are legal; removals split evenly between
    /// graceful leaves and crashes.
    pub fn seeded(seed: u64, slots: usize, initial: usize, ops: u64, n_events: usize) -> ChurnPlan {
        assert!(slots >= 4, "churn needs headroom: at least 4 slots");
        assert!((2..=slots).contains(&initial), "2 <= initial <= slots");
        let mut rng = Rng::new(seed).substream(7);
        let mut member: Vec<bool> = (0..slots).map(|i| i < initial).collect();
        let mut live = initial;
        let window = ops / (n_events as u64 + 2);
        let mut events = Vec::new();
        for k in 0..n_events as u64 {
            // Window k starts where window k-1 can no longer reach, so the
            // generated order survives the stable sort below even at ties.
            let at_op = window * (k + 1) + rng.next_below(window + 1);
            let joinable: Vec<usize> = (1..slots).filter(|&i| !member[i]).collect();
            let removable: Vec<usize> = (1..slots).filter(|&i| member[i]).collect();
            let can_remove = live > 2 && !removable.is_empty();
            let ev = if !joinable.is_empty() && (!can_remove || rng.next_below(2) == 0) {
                let node = joinable[rng.next_below(joinable.len() as u64) as usize];
                member[node] = true;
                live += 1;
                ChurnEvent::Join(NodeId(node as u16))
            } else {
                let node = removable[rng.next_below(removable.len() as u64) as usize];
                member[node] = false;
                live -= 1;
                if rng.next_below(2) == 0 {
                    ChurnEvent::Crash(NodeId(node as u16))
                } else {
                    ChurnEvent::Leave(NodeId(node as u16))
                }
            };
            events.push((at_op, ev));
        }
        events.sort_by_key(|&(op, _)| op);
        ChurnPlan {
            slots,
            initial,
            events,
        }
    }
}

/// Map a slot draw onto the nearest member at or after it (wrapping), so a
/// driver consumes an *identical* rng stream regardless of the membership
/// history — the key to comparing digests across static and churned runs.
///
/// # Panics
/// Panics if no slot is a member.
pub fn remap_to_member(members: &Membership, slots: usize, draw: usize) -> NodeId {
    for k in 0..slots {
        let node = NodeId(((draw + k) % slots) as u16);
        if members.is_member(node) {
            return node;
        }
    }
    panic!("no live members to route through");
}

/// Everything observable from one churn-torture run. `PartialEq` so the
/// same-seed replay oracle can demand bit-identical reruns.
#[derive(Debug, PartialEq)]
pub struct ChurnOutcome {
    /// FNV-1a digest over every delivered byte, in op order.
    pub digest: u64,
    /// Protocol counters at the end of the run.
    pub stats: CacheStats,
    /// Hint-directory accuracy counters (correct/stale/wasted hops).
    pub hints: HintStats,
    /// Final membership epoch — one bump per executed transition.
    pub epoch: u64,
    /// Join events executed.
    pub joins: usize,
    /// Graceful-leave events executed.
    pub leaves: usize,
    /// Crash events executed.
    pub crashes: usize,
}

/// Drive `ops` deterministic single-threaded reads from `wl` through a
/// hint-directory cluster while executing `plan`'s membership schedule,
/// asserting the byte-integrity oracle on every read and the quiescent
/// hint-convergence audit at the end. Quiesces after every operation so
/// the outcome is a pure function of `(backend, seed, plan, wl, ops)` —
/// the bit-identical-replay mode.
pub fn run_churn_torture(
    backend: Backend,
    seed: u64,
    plan: &ChurnPlan,
    wl: &Workload,
    ops: u64,
    capacity_blocks: usize,
) -> ChurnOutcome {
    let catalog = Catalog::new(wl.sizes().to_vec());
    let store = Arc::new(SyntheticStore::new(catalog.clone(), seed));
    let cluster = start_cluster(
        backend,
        RtConfig {
            nodes: plan.slots,
            members: Some(plan.initial),
            directory: DirectoryKind::Hint,
            capacity_blocks,
            policy: ReplacementPolicy::MasterPreserving,
            fetch_timeout: backend.torture_fetch_timeout(),
            faults: None,
            ..RtConfig::default()
        },
        catalog.clone(),
        store.clone(),
    );
    let mw = &cluster.mw;
    let members = mw.membership();
    let mut rng = Rng::new(seed).substream(3);
    let mut digest = FNV_OFFSET;
    let (mut joins, mut leaves, mut crashes) = (0usize, 0usize, 0usize);
    let mut next_event = 0usize;
    for op in 0..ops {
        while next_event < plan.events.len() && plan.events[next_event].0 == op {
            match plan.events[next_event].1 {
                ChurnEvent::Join(node) => {
                    mw.join_node(node);
                    joins += 1;
                }
                ChurnEvent::Leave(node) => {
                    mw.leave_node(node);
                    leaves += 1;
                }
                ChurnEvent::Crash(node) => {
                    mw.crash_node(node);
                    crashes += 1;
                }
            }
            mw.check_invariants();
            next_event += 1;
        }
        let node = remap_to_member(
            &members,
            plan.slots,
            rng.next_below(plan.slots as u64) as usize,
        );
        let file = FileId(wl.sample(&mut rng).0);
        let (got, reqs) = mw.handle(node).read_file_traced(file);
        let want = read_file_direct(&*store, &catalog, file);
        if got != want {
            dump_trace(mw, &reqs);
            panic!(
                "{} seed {seed} op {op}: file {file:?} corrupted under churn \
                 (block-path trace for request ids {reqs:?} dumped above)",
                backend.name()
            );
        }
        fnv1a(&mut digest, &got);
        mw.quiesce();
    }
    mw.quiesce();
    mw.check_invariants();
    mw.audit_quiescent();
    let out = ChurnOutcome {
        digest,
        stats: mw.stats(),
        hints: mw.hint_stats(),
        epoch: mw.epoch(),
        joins,
        leaves,
        crashes,
    };
    cluster.shutdown();
    out
}

/// Which cache architecture sits behind a front-tier fixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontBackendKind {
    /// The cooperative caching middleware on the given LAN backend.
    Ccm(Backend),
    /// The live L2S baseline (whole-file per-node LRU, no cooperation).
    L2s,
}

impl FrontBackendKind {
    /// Every backend: CCM on both transports, then L2S.
    pub fn all() -> [FrontBackendKind; 3] {
        [
            FrontBackendKind::Ccm(Backend::Channel),
            FrontBackendKind::Ccm(Backend::Tcp),
            FrontBackendKind::L2s,
        ]
    }

    /// Label used in reports and assertion messages.
    pub fn name(self) -> &'static str {
        match self {
            FrontBackendKind::Ccm(Backend::Channel) => "ccm/channel",
            FrontBackendKind::Ccm(Backend::Tcp) => "ccm/tcp",
            FrontBackendKind::L2s => "l2s",
        }
    }
}

/// A running front tier plus whatever backend lifecycle it must tear
/// down: the middleware cluster for CCM kinds, nothing extra for L2S.
pub struct FrontFixture {
    /// The running front tier (listeners, dispatch, metrics).
    pub front: ccm_front::FrontTier,
    /// The backend behind the dispatch seam.
    pub backend: Arc<dyn ccm_front::FrontBackend>,
    /// The shared metric registry (`ccm_front_*` plus, for CCM kinds,
    /// the full `ccm_rt_*` family).
    pub registry: ccm_obs::Registry,
    /// The cluster behind a CCM backend (handles for writes, protocol
    /// stats, invariants); `None` under L2S. Borrow it, don't clone it:
    /// [`FrontFixture::shutdown`] needs the last reference.
    pub middleware: Option<Arc<Middleware>>,
}

impl FrontFixture {
    /// Stop the front tier, then the cluster underneath (if any).
    pub fn shutdown(self) {
        let FrontFixture {
            front, middleware, ..
        } = self;
        front.shutdown();
        if let Some(mw) = middleware {
            match Arc::try_unwrap(mw) {
                Ok(mw) => mw.shutdown(),
                Err(_) => { /* a handle outlived us; Drop will clean up */ }
            }
        }
    }
}

/// Start a front tier over the chosen backend and dispatch policy.
///
/// Capacity parity across backends: the L2S whole-file caches get exactly
/// the CCM per-node budget, `cfg.capacity_blocks × BLOCK_SIZE` bytes.
///
/// # Panics
/// Panics if listeners cannot bind loopback sockets.
pub fn start_front(
    kind: FrontBackendKind,
    policy: ccm_front::PolicyKind,
    mut cfg: RtConfig,
    catalog: Catalog,
    store: Arc<dyn BlockStore>,
) -> FrontFixture {
    use ccm_front::{CcmBackend, FrontBackend, FrontTier, L2sBackend};
    let registry = cfg.obs.clone().unwrap_or_default();
    cfg.obs = Some(registry.clone());
    let (backend, middleware): (Arc<dyn FrontBackend>, Option<Arc<Middleware>>) = match kind {
        FrontBackendKind::Ccm(lan) => {
            let cluster = start_cluster(lan, cfg, catalog, store);
            let mw = Arc::new(cluster.mw);
            (Arc::new(CcmBackend::new(mw.clone())), Some(mw))
        }
        FrontBackendKind::L2s => {
            let capacity_bytes = cfg.capacity_blocks as u64 * ccm_core::BLOCK_SIZE;
            (
                Arc::new(L2sBackend::new(catalog, store, cfg.nodes, capacity_bytes)),
                None,
            )
        }
    };
    let dispatch = policy.build(&registry, backend.nodes());
    let front = FrontTier::start(backend.clone(), dispatch, registry.clone());
    FrontFixture {
        front,
        backend,
        registry,
        middleware,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic() {
        let (c1, _) = fixture(5);
        let (c2, _) = fixture(5);
        assert_eq!(c1.sizes(), c2.sizes());
    }

    #[test]
    fn churn_plans_are_deterministic_and_legal() {
        for seed in 0..16u64 {
            let a = ChurnPlan::seeded(seed, 8, 4, 400, 6);
            let b = ChurnPlan::seeded(seed, 8, 4, 400, 6);
            assert_eq!(a.events, b.events, "seed {seed}: plan not deterministic");
            // Replay the schedule against a model member table: every event
            // must be legal at its point in the sequence.
            let mut member: Vec<bool> = (0..8).map(|i| i < 4).collect();
            let mut prev = 0;
            for &(op, ev) in &a.events {
                assert!(op >= prev, "seed {seed}: events out of order");
                assert!(op < 400, "seed {seed}: event past the end of the run");
                prev = op;
                match ev {
                    ChurnEvent::Join(n) => {
                        assert!(!member[n.index()], "seed {seed}: joining a member");
                        member[n.index()] = true;
                    }
                    ChurnEvent::Leave(n) | ChurnEvent::Crash(n) => {
                        assert_ne!(n.index(), 0, "seed {seed}: slot 0 must stay up");
                        assert!(member[n.index()], "seed {seed}: removing a non-member");
                        member[n.index()] = false;
                    }
                }
                assert!(
                    member.iter().filter(|&&m| m).count() >= 2,
                    "seed {seed}: fewer than two live members"
                );
            }
        }
    }

    #[test]
    fn both_backends_spin_up_and_serve() {
        let (catalog, store) = fixture(1);
        for backend in Backend::all() {
            let cluster = start_cluster(
                backend,
                RtConfig {
                    nodes: 2,
                    capacity_blocks: 24,
                    ..RtConfig::default()
                },
                catalog.clone(),
                store.clone(),
            );
            let got = cluster.handle(NodeId(0)).read_file(FileId(0));
            assert_eq!(got, read_file_direct(&*store, &catalog, FileId(0)));
            assert_eq!(cluster.lan.is_some(), backend == Backend::Tcp);
            cluster.shutdown();
        }
    }
}
