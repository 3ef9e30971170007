//! Demo: an N-node cooperative caching cluster whose peer traffic runs
//! over real TCP connections, serving the synthetic trace workload with
//! one client thread per node and verifying every byte against the
//! backing-store ground truth.
//!
//! Usage: `cargo run --release -p ccm-net --bin socket_cluster [nodes] [ops] [--serve]
//! [--join] [--write-mix] [--file-store <dir>] [--replay <preset>] [--front <policy>]`
//! (defaults: 4 nodes, 4000 reads total).
//!
//! With `--file-store <dir>` the cluster is backed by a real on-disk block
//! store (`ccm-disk`'s `FileStore`): the first run populates `<dir>` from
//! the synthetic ground truth, later runs reopen it, and every node's
//! misses go through its asynchronous disk service against actual file
//! I/O. Byte verification still holds — the file store must serve exactly
//! the synthetic content it was populated with.
//!
//! With `--replay <preset>` (calgary, clarknet, nasa, rutgers) the run is
//! handed to `ccm-load`: the preset's recorded trace stream replayed over
//! this cluster by closed-loop clients with a warm-up/measurement split,
//! every byte verified, and the reconciled run report printed as JSON
//! (`LoadReport::to_json`), with `[ops]` sizing the measurement window.
//!
//! With `--write-mix` the cluster runs a mixed read/write workload over a
//! writable in-memory store in write-back mode with the ghost-LRU
//! admission filter on: each node owns a disjoint slice of the file set
//! and overwrites blocks of its own files while everyone reads the shared
//! Zipf stream over TCP. Owned reads are verified byte-exact against the
//! expected post-write image, the dirty set is flushed at the end, and
//! every write is verified durable in the backing store.
//!
//! With `--join` the cluster starts with one slot cold (n-1 members), runs
//! half the workload, then brings the last slot into the cluster live:
//! the joiner absorbs a re-mastered share of the resident blocks, the
//! heartbeat failure detector watches every member, and the hint-based
//! block-location directory (per-node hint tables, corrected on use) is
//! used in place of the paper's perfect directory. Byte verification holds
//! across the transition, and the run prints the hint-accuracy counters.
//!
//! With `--serve` the workload runs through `ccm-front`'s HTTP tier
//! (`GET /file/<id>` at per-node endpoints, round-robin dispatch over the
//! CCM backend — the paper's own configuration) instead of direct
//! middleware handles, and the process then stays up serving `/metrics`
//! (Prometheus text), `/debug/trace` and `/front/stats` (JSON) on every
//! endpoint — point `ccmtop` or `curl` at the printed addresses; Ctrl-C
//! to exit.
//!
//! With `--front <policy>` (round-robin, consistent-hash, content-aware,
//! load-aware) the replay (`calgary` unless `--replay` names another
//! preset) goes through `ccm-front`'s dispatching front tier — the same
//! `ccm-load` run with its target seam switched: requests arrive
//! round-robin at per-node HTTP endpoints, the chosen policy picks the
//! serving node (handing the request off when that is not the arrival
//! endpoint), and the cooperative caching middleware serves the blocks
//! over this crate's TCP peer transport. Every body is verified against
//! the backing store and the report carries the hand-off count.

use ccm_core::{
    AdmissionConfig, BlockId, DirectoryKind, FileId, NodeId, ReplacementPolicy, BLOCK_SIZE,
};
use ccm_front::{CcmBackend, FrontClient, FrontTier, PolicyKind};
use ccm_load::{BackendChoice, LoadSpec, Target};
use ccm_net::{NetStats, TcpLan};
use ccm_obs::Registry;
use ccm_rt::store::{read_file_direct, BlockStore};
use ccm_rt::{Catalog, FileStore, MemStore, Middleware, RtConfig, SyntheticStore, WriteConfig};
use ccm_traces::{Preset, SynthConfig};
use simcore::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let serve = args.iter().any(|a| a == "--serve");
    args.retain(|a| a != "--serve");
    let join = args.iter().any(|a| a == "--join");
    args.retain(|a| a != "--join");
    let write_mix = args.iter().any(|a| a == "--write-mix");
    args.retain(|a| a != "--write-mix");
    let file_store_dir = args.iter().position(|a| a == "--file-store").map(|i| {
        assert!(i + 1 < args.len(), "--file-store needs a directory");
        let dir = args[i + 1].clone();
        args.drain(i..=i + 1);
        dir
    });
    let front = args.iter().position(|a| a == "--front").map(|i| {
        assert!(
            i + 1 < args.len(),
            "--front needs a policy (round-robin, consistent-hash, content-aware, load-aware)"
        );
        let policy = PolicyKind::parse(&args[i + 1])
            .unwrap_or_else(|| panic!("unknown dispatch policy {:?}", args[i + 1]));
        args.drain(i..=i + 1);
        policy
    });
    let replay = args.iter().position(|a| a == "--replay").map(|i| {
        assert!(
            i + 1 < args.len(),
            "--replay needs a preset name (calgary, clarknet, nasa, rutgers)"
        );
        let name = args[i + 1].clone();
        args.drain(i..=i + 1);
        name
    });
    let nodes: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let ops: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4_000);
    assert!(nodes >= 2, "a cluster needs at least 2 nodes");

    if replay.is_some() || front.is_some() {
        let target = front.map_or(Target::Handle, |dispatch| Target::Front {
            dispatch,
            backend: BackendChoice::Ccm,
        });
        replay_preset(replay.as_deref().unwrap_or("calgary"), nodes, ops, target);
        return;
    }

    // A small web-trace stand-in: Zipf popularity, log-normal body sizes.
    let wl = SynthConfig {
        name: "socket-demo".into(),
        n_files: 400,
        mean_size: 12_000.0,
        total_bytes: Some(8 << 20),
        seed: 0xD3110,
        ..SynthConfig::default()
    }
    .build();
    let catalog = Catalog::new(wl.sizes().to_vec());
    let synth = SyntheticStore::new(catalog.clone(), 0xD3110);
    // The middleware reads the same [`BlockStore`] either way; the file
    // store just makes every miss a real positional read of blocks.dat.
    let store: Arc<dyn BlockStore> = match &file_store_dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let fs = if dir.join("manifest.txt").exists() {
                println!("reopening file-backed store under {}", dir.display());
                FileStore::open(dir).expect("open file store")
            } else {
                println!("populating file-backed store under {}", dir.display());
                FileStore::create(dir, &catalog, &synth).expect("create file store")
            };
            assert_eq!(
                fs.catalog().sizes(),
                catalog.sizes(),
                "existing store under {} serves a different catalog",
                dir.display()
            );
            Arc::new(fs)
        }
        None => Arc::new(synth),
    };
    let total_blocks: usize = (0..catalog.num_files())
        .map(|f| catalog.blocks_of(FileId(f as u32)) as usize)
        .sum();
    // Per-node memory holds ~1/(2·nodes) of the file set: small enough that
    // cooperation (remote hits, eviction forwarding) must carry the load.
    let capacity_blocks = (total_blocks / (2 * nodes)).max(8);

    // One registry spans every layer: the TCP transport's per-link series,
    // the middleware's hit-class counters, and (with --serve) the HTTP
    // front end's latency histograms all land in the same /metrics page.
    let registry = Registry::new();
    let lan = Arc::new(TcpLan::loopback_obs(nodes, &registry).expect("bind loopback listeners"));
    for i in 0..nodes {
        println!("node {i}: peer transport on {}", lan.addr(NodeId(i as u16)));
    }
    let cfg = RtConfig {
        nodes,
        capacity_blocks,
        policy: ReplacementPolicy::MasterPreserving,
        fetch_timeout: Duration::from_secs(2),
        obs: Some(registry.clone()),
        transport: Some(lan.clone()),
        ..RtConfig::default()
    };

    if write_mix {
        write_mix_demo(cfg, catalog, &wl, ops);
        return;
    }
    if serve {
        serve_http(cfg, catalog, store, ops);
        return;
    }
    if join {
        join_demo(cfg, catalog, store, &wl, ops);
        return;
    }

    let mw = Arc::new(Middleware::start(cfg, catalog.clone(), store.clone()));

    let start = Instant::now();
    let workers: Vec<_> = (0..nodes)
        .map(|i| {
            let node = NodeId(i as u16);
            let mw = mw.clone();
            let store = store.clone();
            let catalog = catalog.clone();
            let wl = wl.clone();
            let per_node = ops / nodes as u64;
            std::thread::spawn(move || {
                let mut rng = Rng::new(0xD3110).substream(10 + i as u64);
                let mut bytes = 0u64;
                for op in 0..per_node {
                    let file = FileId(wl.sample(&mut rng).0);
                    let got = mw.handle(node).read_file(file);
                    let want = read_file_direct(&*store, &catalog, file);
                    assert_eq!(got, want, "node {i} op {op}: bytes corrupted");
                    bytes += got.len() as u64;
                }
                bytes
            })
        })
        .collect();
    let bytes: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .sum();
    let elapsed = start.elapsed();

    mw.quiesce();
    mw.check_invariants();
    let stats = mw.stats();
    let fallbacks = mw.stats().store_fallbacks;
    let net = lan.net_stats();

    let accesses = stats.local_hits + stats.remote_hits + stats.disk_reads;
    println!(
        "\n{} reads ({:.1} MB) across {} nodes in {:.2?} — {:.1} MB/s",
        ops,
        bytes as f64 / (1 << 20) as f64,
        nodes,
        elapsed,
        bytes as f64 / (1 << 20) as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "block accesses: {accesses} ({:.1}% local, {:.1}% remote, {:.1}% disk; {fallbacks} fallbacks)",
        100.0 * stats.local_hits as f64 / accesses as f64,
        100.0 * stats.remote_hits as f64 / accesses as f64,
        100.0 * stats.disk_reads as f64 / accesses as f64,
    );
    println!("{}", wire_line(&net));
    println!("every byte verified against the backing store — cluster OK");
    drop(mw);
}

/// The `wire:` summary line. Frames per train is the realized coalescing
/// factor: requests a file read pipelines to one holder and replies a
/// reactor batches both raise it above 1.
fn wire_line(net: &NetStats) -> String {
    format!(
        "wire: {} connections, {} frames sent in {} trains ({:.2} frames/train), \
         {} frames received, {} teardowns",
        net.connects,
        net.frames_sent,
        net.trains_sent,
        net.frames_sent as f64 / net.trains_sent.max(1) as f64,
        net.frames_received,
        net.teardowns,
    )
}

/// `--replay <preset>` / `--front <policy>`: hand the cluster to
/// `ccm-load` — closed-loop clients replay the preset's recorded stream
/// over a fresh `TcpLan`, against the bare handles or through the
/// dispatching front tier; the driver verifies every byte, and the
/// reconciled run report is printed as one `LoadReport::to_json` cell.
fn replay_preset(name: &str, nodes: usize, ops: u64, target: Target) {
    let preset = Preset::all()
        .into_iter()
        .find(|p| p.name() == name)
        .unwrap_or_else(|| {
            panic!("unknown preset {name:?}; expected calgary, clarknet, nasa or rutgers")
        });
    let mut spec = LoadSpec::new(preset);
    spec.nodes = nodes;
    spec.measure_requests = ops as usize;
    spec.warmup_requests = (ops / 2) as usize;
    spec.target = target;
    let lan = Arc::new(TcpLan::loopback(nodes).expect("bind loopback listeners"));
    for i in 0..nodes {
        println!("node {i}: peer transport on {}", lan.addr(NodeId(i as u16)));
    }
    println!(
        "replaying {} over TCP: {} nodes, {:?} into {:?}, {} warm-up + {} measured requests\n",
        preset.name(),
        nodes,
        spec.arrivals,
        spec.target,
        spec.warmup_requests,
        spec.measure_requests,
    );
    let report = ccm_load::run_on(&spec, lan.clone(), "tcp");
    println!("{}", report.summary());
    println!("{}", wire_line(&lan.net_stats()));
    println!("{}", report.to_json());
    assert!(report.reconciled, "driver and runtime counters disagree");
    println!("\nevery byte verified against the backing store — replay OK");
}

/// `--join`: dynamic-membership demo. The cluster starts with the last
/// slot provisioned but cold, serves half the workload on the hint-based
/// directory with the heartbeat monitor running, then joins the cold slot
/// live — re-mastering a share of the resident blocks onto it — and
/// serves the rest through all nodes, verifying every byte throughout.
fn join_demo(
    mut cfg: RtConfig,
    catalog: Catalog,
    store: Arc<dyn BlockStore>,
    wl: &ccm_traces::Workload,
    ops: u64,
) {
    let nodes = cfg.nodes;
    let joiner = NodeId((nodes - 1) as u16);
    cfg.members = Some(nodes - 1);
    cfg.directory = DirectoryKind::Hint;
    let mw = Middleware::start(cfg, catalog.clone(), store.clone());
    mw.start_heartbeat(Duration::from_millis(50), Duration::from_millis(250), 3);
    println!(
        "\ncluster up: {} of {nodes} slots members, {joiner:?} provisioned cold; \
         hint directory + heartbeat monitor active",
        nodes - 1
    );

    let mut rng = Rng::new(0xD3110).substream(20);
    let mut drive = |mw: &Middleware, members: usize, count: u64| {
        for op in 0..count {
            let node = NodeId(rng.next_below(members as u64) as u16);
            let file = FileId(wl.sample(&mut rng).0);
            let got = mw.handle(node).read_file(file);
            let want = read_file_direct(&*store, &catalog, file);
            assert_eq!(got, want, "op {op}: bytes corrupted");
        }
    };

    drive(&mw, nodes - 1, ops / 2);
    mw.quiesce();
    let moved = mw.join_node(joiner);
    println!(
        "{joiner:?} joined at epoch {}: {moved} blocks re-mastered onto it",
        mw.epoch()
    );
    drive(&mw, nodes, ops - ops / 2);
    mw.quiesce();
    mw.check_invariants();
    mw.audit_quiescent();

    let h = mw.hint_stats();
    let stats = mw.stats();
    println!(
        "hint directory: {} lookups — {} correct, {} stale, {} missing, {} wasted hops",
        h.lookups, h.correct, h.stale, h.missing, h.forward_hops
    );
    println!(
        "protocol: {} local, {} remote, {} disk; {} remasters",
        stats.local_hits, stats.remote_hits, stats.disk_reads, stats.remasters
    );
    println!("every byte verified across the join — membership OK");
    mw.shutdown();
}

/// `--write-mix`: read/write coherence demo over TCP. The cluster runs in
/// write-back mode (dirty masters, bounded dirty budget) with the
/// ghost-LRU admission filter on, backed by a writable in-memory store.
/// Each node owns the files `f` with `f % nodes == node` and overwrites a
/// block of an owned file every 8th operation; every node reads the
/// shared Zipf stream. Owned reads are verified byte-exact against the
/// expected post-write image (pristine bytes with the node's own last
/// write spliced in — safe because owners are the only writers of their
/// files). At the end the dirty set is flushed and every written block is
/// read back raw from the backing store and verified durable.
fn write_mix_demo(mut cfg: RtConfig, catalog: Catalog, wl: &ccm_traces::Workload, ops: u64) {
    let nodes = cfg.nodes;
    cfg.write = WriteConfig::back(64);
    cfg.admission = Some(AdmissionConfig::new(256));
    let store = Arc::new(MemStore::new(catalog.clone(), 0xD3110));
    let mw = Arc::new(Middleware::start(cfg, catalog.clone(), store.clone()));
    println!(
        "\nwrite-back cluster up: dirty budget 64, ghost-LRU admission on; \
         node i owns files f % {nodes} == i"
    );

    let start = Instant::now();
    let workers: Vec<_> = (0..nodes)
        .map(|i| {
            let node = NodeId(i as u16);
            let mw = mw.clone();
            let catalog = catalog.clone();
            let wl = wl.clone();
            let per_node = ops / nodes as u64;
            std::thread::spawn(move || {
                let pristine = SyntheticStore::new(catalog.clone(), 0xD3110);
                let h = mw.handle(node);
                let mut rng = Rng::new(0xD3110).substream(40 + i as u64);
                // file -> (block index, last payload this node wrote)
                let mut written: std::collections::HashMap<u32, (u32, Vec<u8>)> =
                    std::collections::HashMap::new();
                for op in 0..per_node {
                    let file = FileId(wl.sample(&mut rng).0);
                    let owned = file.0 as usize % nodes == i;
                    if owned && op % 8 == 7 {
                        let b = rng.next_below(catalog.blocks_of(file) as u64) as u32;
                        let block = BlockId::new(file, b);
                        let fill = (op as u8) ^ (i as u8) ^ 0x5A;
                        let payload = vec![fill; catalog.block_bytes(block) as usize];
                        h.write_block(block, &payload)
                            .expect("MemStore accepts writes");
                        written.insert(file.0, (b, payload));
                    } else {
                        let got = h.read_file(file);
                        if owned {
                            let mut want = read_file_direct(&pristine, &catalog, file);
                            if let Some((b, payload)) = written.get(&file.0) {
                                let off = (*b as u64 * BLOCK_SIZE) as usize;
                                want[off..off + payload.len()].copy_from_slice(payload);
                            }
                            assert_eq!(got, want, "node {i} op {op}: wrong bytes for owned file");
                        }
                    }
                }
                written
            })
        })
        .collect();
    let written: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    let elapsed = start.elapsed();

    mw.quiesce();
    let flushed = mw.flush_dirty();
    mw.check_invariants();
    assert!(
        mw.lost_writes().is_empty(),
        "no crash, so nothing may be lost"
    );
    let mut writes_total = 0u64;
    for per_node in &written {
        for (&file, &(b, ref payload)) in per_node {
            let got = store.read_block(BlockId::new(FileId(file), b));
            assert_eq!(
                &got, payload,
                "file {file} block {b} not durable after flush"
            );
            writes_total += 1;
        }
    }
    let ws = mw.write_stats();
    let adm = mw.admission_stats();
    let stats = mw.stats();
    println!(
        "\n{} mixed ops across {} nodes in {:.2?} — {} writes acked, {} dirty flushed at exit",
        ops, nodes, elapsed, ws.writes, flushed
    );
    println!(
        "write-back: {} flushes total, {} dirty now, {} lost, {} recovered",
        ws.flushes, ws.dirty, ws.lost, ws.recovered
    );
    println!(
        "admission: {} admitted ({} ghost hits), {} one-touch rejections",
        adm.admitted, adm.ghost_hits, adm.rejected
    );
    println!(
        "protocol: {} local, {} remote, {} disk, {} invalidations",
        stats.local_hits, stats.remote_hits, stats.disk_reads, stats.invalidations
    );
    println!(
        "{writes_total} distinct written blocks read back raw from the store — all durable; \
         every owned read verified byte-exact — write mix OK"
    );
    match Arc::try_unwrap(mw) {
        Ok(mw) => mw.shutdown(),
        Err(_) => unreachable!("all worker threads joined"),
    }
}

/// `--serve`: the HTTP front tier over the TCP peer transport. Warms the
/// cluster with `ops` verified HTTP reads, then serves until killed.
fn serve_http(cfg: RtConfig, catalog: Catalog, store: Arc<dyn BlockStore>, ops: u64) {
    let nodes = cfg.nodes;
    let mw = Arc::new(Middleware::start(cfg, catalog.clone(), store.clone()));
    // The middleware's registry, so one /metrics page carries every layer.
    let registry = mw.registry().clone();
    let tier = FrontTier::start(
        Arc::new(CcmBackend::new(mw)),
        PolicyKind::RoundRobin.build(&registry, nodes),
        registry,
    );
    println!();
    for (i, addr) in tier.addrs().iter().enumerate() {
        println!(
            "endpoint {i}: http://{addr}  (GET /file/<id>, /metrics, /debug/trace, /front/stats)"
        );
    }

    // One keep-alive client per endpoint, seeded file picks, every body
    // checked against the backing store.
    let files = catalog.num_files() as u64;
    let per_client = ops / nodes as u64;
    std::thread::scope(|s| {
        for (t, &addr) in tier.addrs().iter().enumerate() {
            let (store, catalog) = (&store, &catalog);
            s.spawn(move || {
                let mut rng = Rng::new(0xD3110).substream(10 + t as u64);
                let mut conn = FrontClient::connect(addr).expect("connect endpoint");
                for op in 0..per_client {
                    let file = FileId(rng.next_below(files) as u32);
                    let r = conn.get(&format!("/file/{}", file.0)).expect("HTTP read");
                    let want = read_file_direct(&**store, catalog, file);
                    assert_eq!(r.status, 200, "endpoint {t} op {op}");
                    assert!(r.body == want, "endpoint {t} op {op}: bytes corrupted");
                }
            });
        }
    });
    println!(
        "\nwarmup: {} HTTP reads — every body verified against the backing store",
        per_client * nodes as u64
    );
    let addrs: Vec<String> = tier.addrs().iter().map(|a| a.to_string()).collect();
    println!(
        "scrape:  cargo run -p ccm-obs --bin ccmtop -- {}",
        addrs.join(" ")
    );
    println!("serving until killed (Ctrl-C)");
    loop {
        std::thread::park();
    }
}
