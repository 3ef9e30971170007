//! The system under test: a 4-node cluster hosted in this process through
//! the public APIs only, its set-up, warm-up and teardown.
//!
//! The "disk" is a [`FileStore`] in a scratch directory, read with `pread`
//! from the page cache; no `DiskMechanics` are emulated, so disk latencies
//! are this sandbox's, not a device's.

use crate::verify::Checker;
use crate::workload::{Inputs, Surface, TransportKind, NODES, WARMUP_REQUESTS};
use ccm_core::{BlockId, CacheConfig, ClusterCache, FileId, NodeId, ReplacementPolicy};
use ccm_front::{CcmBackend, FrontTier, RoundRobin};
use ccm_net::TcpLan;
use ccm_obs::{Counter, Registry};
use ccm_rt::{
    FileStore, Lan, Middleware, NodeHandle, ReadClass, RtConfig, SyntheticStore, Transport,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The four read classes, in `ReadClass as usize` order.
pub const CLASSES: [ReadClass; 4] = [
    ReadClass::Local,
    ReadClass::Remote,
    ReadClass::Disk,
    ReadClass::Fallback,
];

/// How long each phase of one set-up took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `FileStore::create` (fsync included) plus the checksum table.
    pub store_create_s: f64,
    /// Transport, middleware and front tier start.
    pub cluster_start_ms: f64,
    /// Warm-up reads.
    pub warmup_s: f64,
}

/// A protocol model fed the same accesses as the live cluster.
pub fn shadow_cache(inputs: &Inputs) -> ClusterCache {
    ClusterCache::new(CacheConfig::paper(
        NODES,
        inputs.capacity_blocks,
        ReplacementPolicy::MasterPreserving,
    ))
}

/// Where this process keeps its scratch files: next to the build output
/// the executable lives in, so inside the checkout and git-ignored.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    let profile_dir = exe.parent().expect("executable has a directory");
    profile_dir.parent().unwrap_or(profile_dir).to_path_buf()
}

/// The running cluster and what the benchmark needs to drive and read it.
pub struct Sut {
    mw: Arc<Middleware>,
    /// One handle per node.
    pub handles: Vec<NodeHandle>,
    /// The socket transport, when the workload uses one.
    pub tcp: Option<Arc<TcpLan>>,
    /// The front tier, when the workload's surface is HTTP.
    pub front: Option<FrontTier>,
    /// The backing store.
    pub store: Arc<FileStore>,
    /// Reference lengths and checksums taken from the store.
    pub checker: Checker,
    /// The registry every layer reports into.
    pub registry: Registry,
    /// The runtime's `ccm_rt_reads_total` counters, `[node][class]`.
    pub reads: Vec<[Counter; 4]>,
    /// Phase times of this set-up.
    pub times: SetupTimes,
    /// Striped per-file locks the callers of a workload with writes hold
    /// around each operation (shared for a read, exclusive for a write).
    /// The store gives no atomicity between a `pwrite` and a concurrent
    /// `pread` of the same 8 KB block (two pages), and the runtime does not
    /// serialize a disk read against a write-through of the same block, so
    /// about one run in fifty saw one torn block. Operations must not fail
    /// in a benchmark, so the callers keep a file's write apart from its
    /// reads; reads of one file still run concurrently.
    pub file_locks: Vec<RwLock<()>>,
    dir: PathBuf,
}

/// Stripes of [`Sut::file_locks`].
const FILE_LOCK_STRIPES: usize = 1024;

impl Sut {
    /// Create the store, start the cluster and warm it up. When `shadow`
    /// is given it is fed every warm-up access, in order.
    pub fn start(inputs: &Inputs, shadow: Option<&mut ClusterCache>) -> Sut {
        static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
        let dir = output_dir().join(format!(
            "bench-scratch-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));

        let t = Instant::now();
        let pristine = SyntheticStore::new(inputs.catalog.clone(), inputs.seed);
        let store = Arc::new(
            FileStore::create(&dir, &inputs.catalog, &pristine).expect("create the file store"),
        );
        let checker = Checker::from_store(&*store, &inputs.catalog);
        let store_create_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let registry = Registry::new();
        let (transport, tcp): (Arc<dyn Transport>, _) = match inputs.spec.transport {
            TransportKind::Channel => (Arc::new(Lan::with_nodes(NODES)), None),
            TransportKind::Tcp => {
                let tcp = Arc::new(
                    TcpLan::loopback_obs(NODES, &registry).expect("bind loopback listeners"),
                );
                (tcp.clone(), Some(tcp))
            }
        };
        let cfg = RtConfig {
            nodes: NODES,
            capacity_blocks: inputs.capacity_blocks,
            policy: ReplacementPolicy::MasterPreserving,
            obs: Some(registry.clone()),
            ..RtConfig::default()
        };
        let mw = Arc::new(Middleware::start_on(
            cfg,
            inputs.catalog.clone(),
            store.clone(),
            transport,
        ));
        let handles: Vec<NodeHandle> = (0..NODES).map(|n| mw.handle(NodeId(n as u16))).collect();
        let front = (inputs.spec.surface == Surface::Http).then(|| {
            FrontTier::start(
                Arc::new(CcmBackend::new(mw.clone())),
                Arc::new(RoundRobin::new(NODES)),
                registry.clone(),
            )
        });
        let cluster_start_ms = t.elapsed().as_secs_f64() * 1e3;

        // Registering a series again hands back the runtime's own handle.
        let reads = (0..NODES)
            .map(|n| {
                CLASSES.map(|c| {
                    registry.counter(
                        "ccm_rt_reads_total",
                        "",
                        &[("node", n.to_string().as_str()), ("class", c.name())],
                    )
                })
            })
            .collect();
        let mut sut = Sut {
            mw,
            handles,
            tcp,
            front,
            store,
            checker,
            registry,
            reads,
            file_locks: (0..FILE_LOCK_STRIPES).map(|_| RwLock::new(())).collect(),
            times: SetupTimes {
                store_create_s,
                cluster_start_ms,
                warmup_s: 0.0,
            },
            dir,
        };
        let t = Instant::now();
        sut.warm_up(inputs, shadow);
        sut.times.warmup_s = t.elapsed().as_secs_f64();
        sut
    }

    /// Read every file once (file `f` at node `f mod 4`), replay the first
    /// [`WARMUP_REQUESTS`] stream requests as reads (request `i` at node
    /// `i mod 4`), then quiesce. One thread, so the state it leaves is a
    /// function of the inputs alone.
    fn warm_up(&self, inputs: &Inputs, mut shadow: Option<&mut ClusterCache>) {
        let every_file = (0..inputs.catalog.num_files()).map(|f| (f, FileId(f as u32)));
        let replay = (0..WARMUP_REQUESTS).map(|i| (i, inputs.file_at(i)));
        for (at, file) in every_file.chain(replay) {
            let node = at % NODES;
            std::hint::black_box(self.handles[node].read_file(file));
            if let Some(shadow) = shadow.as_deref_mut() {
                for b in 0..inputs.catalog.blocks_of(file) {
                    shadow.access(NodeId(node as u16), BlockId::new(file, b));
                }
            }
        }
        self.mw.quiesce();
    }

    /// The lock that keeps writes of `file` apart from its reads.
    pub fn file_lock(&self, file: FileId) -> &RwLock<()> {
        &self.file_locks[file.0 as usize % FILE_LOCK_STRIPES]
    }

    /// The middleware (stats, quiesce, write bookkeeping).
    pub fn middleware(&self) -> &Arc<Middleware> {
        &self.mw
    }

    /// Sum over nodes of the per-node counter family `name`.
    pub fn node_counter_sum(&self, name: &str) -> u64 {
        (0..NODES)
            .map(|n| {
                self.registry
                    .counter(name, "", &[("node", n.to_string().as_str())])
                    .get()
            })
            .sum()
    }

    /// Block reads so far by class, summed over nodes.
    pub fn reads_by_class(&self) -> [u64; 4] {
        std::array::from_fn(|c| self.reads.iter().map(|node| node[c].get()).sum())
    }

    /// Stop the front tier, the cluster and the transport, and remove the
    /// scratch directory. Every client connection must be closed first.
    /// Returns how long it took, in milliseconds.
    pub fn shutdown(self) -> f64 {
        let t = Instant::now();
        let Sut {
            mw,
            handles,
            tcp,
            front,
            store,
            dir,
            ..
        } = self;
        if let Some(front) = front {
            front.shutdown();
        }
        drop(handles);
        match Arc::try_unwrap(mw) {
            Ok(mw) => mw.shutdown(),
            Err(_) => panic!("the middleware is still shared at shutdown"),
        }
        drop(tcp);
        drop(store);
        remove_scratch(&dir);
        t.elapsed().as_secs_f64() * 1e3
    }
}

fn remove_scratch(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("benchmark: could not remove {}: {e}", dir.display());
    }
}
