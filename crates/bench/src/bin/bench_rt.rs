//! Runtime transport micro-benchmark: per-block read latency and
//! throughput of the threaded middleware on each read path — local hit,
//! remote hit, cold disk read, and the §3 degrade path (remote miss that
//! falls back to disk) — over both LAN backends: the in-process channel
//! LAN and the real TCP loopback transport (`ccm-net`).
//!
//! Writes `BENCH_rt.json` at the repository root and prints a table.
//!
//! Usage: `cargo run --release -p ccm-bench --bin bench_rt [--quick]`

use ccm_bench::harness::{write_bench_json, ExperimentScale};
use ccm_core::{BlockId, FileId, NodeId, ReplacementPolicy, BLOCK_SIZE};
use ccm_obs::{Hop, Registry, Stopwatch, TraceRing};
use ccm_rt::store::BlockStore;
use ccm_rt::{
    Catalog, DiskConfig, DiskMechanics, DiskService, FaultPlan, FileStore, LinkFaults, Middleware,
    RtConfig, SchedPolicy, SyntheticStore,
};
use ccm_testkit::{start_cluster, Backend};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache capacity per node, in blocks; also the per-phase working set.
const CAPACITY: usize = 1024;

/// One measured phase: per-op latencies in nanoseconds.
struct Phase {
    scenario: &'static str,
    samples: Vec<u64>,
}

impl Phase {
    fn mean_ns(&self) -> f64 {
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    fn percentile_ns(&self, p: f64) -> u64 {
        let mut s = self.samples.clone();
        s.sort_unstable();
        s[((s.len() - 1) as f64 * p) as usize]
    }

    fn mb_per_s(&self) -> f64 {
        let total_ns = self.samples.iter().sum::<u64>() as f64;
        let bytes = self.samples.len() as f64 * BLOCK_SIZE as f64;
        bytes / (1 << 20) as f64 / (total_ns / 1e9)
    }
}

/// Time `node` reading each block once, in order.
fn time_reads(mw: &Middleware, node: NodeId, blocks: &[BlockId], out: &mut Vec<u64>) {
    for &b in blocks {
        let t = Instant::now();
        let data = mw.handle(node).read_block(b);
        let dt = t.elapsed().as_nanos() as u64;
        assert_eq!(data.len(), BLOCK_SIZE as usize);
        out.push(dt);
    }
}

/// Run the four scenarios on one backend. Each scenario gets a fresh
/// cluster so the cache state it measures is exactly the one named.
fn run_backend(backend: Backend, rounds: usize) -> Vec<Phase> {
    // One block per file keeps addressing trivial: block i = file i.
    let catalog = Catalog::new(vec![BLOCK_SIZE; 4 * CAPACITY]);
    let block = |i: usize| BlockId::new(FileId(i as u32), 0);
    let set_a: Vec<BlockId> = (0..CAPACITY).map(block).collect();
    let set_b: Vec<BlockId> = (CAPACITY..2 * CAPACITY).map(block).collect();
    let cfg = |faults: Option<FaultPlan>| RtConfig {
        nodes: 2,
        capacity_blocks: CAPACITY,
        policy: ReplacementPolicy::MasterPreserving,
        fetch_timeout: Duration::from_secs(2),
        faults,
        ..RtConfig::default()
    };
    let start = |faults: Option<FaultPlan>| {
        let store = Arc::new(SyntheticStore::new(catalog.clone(), 99));
        start_cluster(backend, cfg(faults), catalog.clone(), store)
    };
    let reader = NodeId(0);
    let holder = NodeId(1);
    let mut phases = Vec::new();

    // Cold disk reads: nothing cached anywhere, every read faults in from
    // the backing store (and becomes a local master).
    {
        let mw = start(None);
        let mut samples = Vec::new();
        time_reads(&mw, reader, &set_a, &mut samples);
        assert_eq!(mw.stats().disk_reads, CAPACITY as u64);
        phases.push(Phase {
            scenario: "disk_read",
            samples,
        });
        mw.shutdown();
    }

    // Local hits: prime once, then re-read the resident set.
    {
        let mw = start(None);
        time_reads(&mw, reader, &set_a, &mut Vec::new()); // prime
        let mut samples = Vec::new();
        for _ in 0..rounds {
            time_reads(&mw, reader, &set_a, &mut samples);
        }
        assert_eq!(mw.stats().local_hits, (rounds * CAPACITY) as u64);
        phases.push(Phase {
            scenario: "local_hit",
            samples,
        });
        mw.shutdown();
    }

    // Remote hits: the peer masters the set, the reader fetches each block
    // over the LAN exactly once (the fetched replicas then sit local, so
    // every sample is a genuine peer round trip).
    {
        let mw = start(None);
        time_reads(&mw, holder, &set_a, &mut Vec::new()); // peer masters A
        let mut samples = Vec::new();
        time_reads(&mw, reader, &set_a, &mut samples);
        assert_eq!(mw.stats().remote_hits, CAPACITY as u64);
        phases.push(Phase {
            scenario: "remote_hit",
            samples,
        });
        mw.shutdown();
    }

    // Degrade path (§3's "eventual disk read"): the directory points at the
    // peer, but every peer request is dropped on the wire, so each read
    // pays a failed remote attempt plus the disk fallback.
    {
        let all_drop = FaultPlan {
            seed: 1,
            link: LinkFaults {
                drop_prob: 1.0,
                dup_prob: 0.0,
                delay_prob: 0.0,
                delay_sends: 0,
            },
            crashes: Vec::new(),
            disk: Default::default(),
        };
        let mw = start(Some(all_drop));
        time_reads(&mw, holder, &set_b, &mut Vec::new()); // peer masters B
        let mut samples = Vec::new();
        time_reads(&mw, reader, &set_b, &mut samples);
        assert_eq!(mw.stats().store_fallbacks, CAPACITY as u64);
        phases.push(Phase {
            scenario: "remote_miss_fallback",
            samples,
        });
        mw.shutdown();
    }

    phases
}

/// The disk-subsystem section of the report, exercising `ccm-disk`'s
/// service directly (no middleware in the loop):
///
/// * **interleaved streams** — several client threads each scan one file
///   sequentially with a small async window, so the shared request queue
///   sees the paper's worst case: perfectly interleaved sequential streams.
///   Seek mechanics are emulated (`DiskMechanics`), so FIFO pays a seek on
///   nearly every request while the batched (CcmSched-style) scheduler
///   keeps each stream's run contiguous — fewer seeks *and* more MB/s.
/// * **coalescing** — many clients demand the same blocks concurrently;
///   with coalescing on, each block costs one physical read.
/// * **store backends** — a sequential scan through the service over the
///   synthetic store vs. the real file-backed store.
fn disk_section(quick: bool) -> String {
    // --- interleaved sequential streams: FIFO vs batched ------------------
    let streams = 8usize;
    let blocks_per_file = if quick { 16u32 } else { 64 };
    let catalog = Catalog::new(vec![BLOCK_SIZE * blocks_per_file as u64; streams]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 7));
    let mech = DiskMechanics {
        seek: Duration::from_micros(150),
        read_latency: Duration::from_micros(20),
    };
    let run_streams = |policy: SchedPolicy| {
        let svc = Arc::new(DiskService::start(
            store.clone(),
            catalog.clone(),
            DiskConfig {
                scheduler: policy,
                readahead: 0, // same physical reads under both policies
                mechanics: Some(mech),
                ..DiskConfig::default()
            },
        ));
        let t = Instant::now();
        let clients: Vec<_> = (0..streams)
            .map(|f| {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let mut window = std::collections::VecDeque::new();
                    for i in 0..blocks_per_file {
                        window.push_back(svc.read_async(BlockId::new(FileId(f as u32), i)));
                        if window.len() >= 4 {
                            window.pop_front().unwrap().recv().unwrap().unwrap();
                        }
                    }
                    for rx in window {
                        rx.recv().unwrap().unwrap();
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let secs = t.elapsed().as_secs_f64();
        let stats = svc.stats();
        let mb = (streams as u64 * blocks_per_file as u64 * BLOCK_SIZE) as f64 / (1 << 20) as f64;
        (stats.seeks, secs * 1e3, mb / secs)
    };
    let (fifo_seeks, fifo_ms, fifo_mbs) = run_streams(SchedPolicy::Fifo);
    let (bat_seeks, bat_ms, bat_mbs) = run_streams(SchedPolicy::Batched);
    assert!(
        bat_seeks < fifo_seeks,
        "batched must out-schedule FIFO on interleaved streams ({bat_seeks} vs {fifo_seeks} seeks)"
    );
    println!(
        "\ndisk: {streams} interleaved streams x {blocks_per_file} blocks: \
         fifo {fifo_seeks} seeks {fifo_ms:.1} ms ({fifo_mbs:.1} MB/s), \
         batched {bat_seeks} seeks {bat_ms:.1} ms ({bat_mbs:.1} MB/s)"
    );

    // --- miss coalescing: many clients, same blocks -----------------------
    let co_blocks = if quick { 8u32 } else { 32 };
    let clients = 8usize;
    let run_coalesce = |coalesce: bool| {
        let svc = Arc::new(DiskService::start(
            store.clone(),
            catalog.clone(),
            DiskConfig {
                coalesce,
                readahead: 0,
                mechanics: Some(DiskMechanics {
                    seek: Duration::ZERO,
                    read_latency: Duration::from_micros(100),
                }),
                ..DiskConfig::default()
            },
        ));
        let t = Instant::now();
        for i in 0..co_blocks {
            let b = BlockId::new(FileId(0), i);
            let waiting: Vec<_> = (0..clients).map(|_| svc.read_async(b)).collect();
            for rx in waiting {
                rx.recv().unwrap().unwrap();
            }
        }
        (
            svc.stats().physical_demand_reads,
            t.elapsed().as_secs_f64() * 1e3,
        )
    };
    let (on_reads, on_ms) = run_coalesce(true);
    let (off_reads, off_ms) = run_coalesce(false);
    assert_eq!(on_reads, co_blocks as u64, "coalescing: one read per block");
    println!(
        "disk: coalescing {clients} clients x {co_blocks} blocks: \
         on {on_reads} physical reads {on_ms:.1} ms, off {off_reads} reads {off_ms:.1} ms"
    );

    // --- synthetic vs file-backed store -----------------------------------
    let scan = |store: Arc<dyn BlockStore>| {
        let svc = DiskService::start(store, catalog.clone(), DiskConfig::default());
        let t = Instant::now();
        let mut n = 0u64;
        for f in 0..streams {
            for i in 0..blocks_per_file {
                svc.read(BlockId::new(FileId(f as u32), i)).unwrap();
                n += 1;
            }
        }
        t.elapsed().as_nanos() as f64 / n as f64
    };
    let synth_ns = scan(store.clone());
    let dir = std::env::temp_dir().join(format!("ccm-bench-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = FileStore::create(&dir, &catalog, &*store).expect("create file store");
    let file_ns = scan(Arc::new(fs));
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "disk: sequential scan: synthetic {synth_ns:.0} ns/blk, file-backed {file_ns:.0} ns/blk"
    );

    format!(
        "  \"disk\": {{\n    \"interleaved_streams\": {{ \"streams\": {streams}, \"blocks_per_stream\": {blocks_per_file}, \
\"fifo\": {{ \"seeks\": {fifo_seeks}, \"ms\": {fifo_ms:.1}, \"mb_per_s\": {fifo_mbs:.2} }}, \
\"batched\": {{ \"seeks\": {bat_seeks}, \"ms\": {bat_ms:.1}, \"mb_per_s\": {bat_mbs:.2} }} }},\n    \
\"coalescing\": {{ \"clients\": {clients}, \"blocks\": {co_blocks}, \
\"on\": {{ \"physical_reads\": {on_reads}, \"ms\": {on_ms:.1} }}, \
\"off\": {{ \"physical_reads\": {off_reads}, \"ms\": {off_ms:.1} }} }},\n    \
\"store\": {{ \"synthetic_ns_per_block\": {synth_ns:.0}, \"file_ns_per_block\": {file_ns:.0} }}\n  }},\n"
    )
}

/// The raw-transport section of the report: `Transport::fetch_block` round
/// trips and 16-block `Transport::fetch_blocks` trains measured directly
/// against the LAN with a minimal peer service thread — no cache, no disk,
/// just the wire. This is the committed baseline `tests/perf_gate.rs`
/// compares against; both call [`ccm_testkit::probe_transports`] so the
/// baseline and the gate share one methodology (interleaved backend
/// rounds, minimum-of-rounds means — stable on a shared box).
fn transport_section(rounds: usize) -> String {
    const BATCH: usize = 16;
    let (ch, tcp) = ccm_testkit::probe_transports(rounds, 1000, BATCH);
    println!(
        "\ntransport: fetch_block serial channel {} ns, tcp {} ns; \
         fetch_blocks x{BATCH} channel {} ns/blk, tcp {} ns/blk \
         (tcp/channel batched {:.2}x)",
        ch.serial_ns,
        tcp.serial_ns,
        ch.batched_ns,
        tcp.batched_ns,
        tcp.batched_ns as f64 / ch.batched_ns as f64
    );
    format!(
        "  \"transport_fetch\": {{ \"payload_bytes\": {BLOCK_SIZE}, \"batch\": {BATCH}, \
         \"channel\": {{ \"serial_ns\": {}, \"batched_ns\": {} }}, \
         \"tcp\": {{ \"serial_ns\": {}, \"batched_ns\": {} }} }},\n",
        ch.serial_ns, ch.batched_ns, tcp.serial_ns, tcp.batched_ns
    )
}

/// The observability section of the report: the per-event cost of the
/// instrumentation primitives, an instrumented all-local-hit read for
/// scale, and the registry's protocol counters from that run. Running the
/// bench twice — default and `--features obs-off` — and diffing the two
/// reports' `local_hit_instrumented` values is the recorded overhead
/// delta (`obs_off` says which build produced the file).
fn obs_section(rounds: usize) -> String {
    let catalog = Catalog::new(vec![BLOCK_SIZE; CAPACITY]);
    let block = |i: usize| BlockId::new(FileId(i as u32), 0);
    let blocks: Vec<BlockId> = (0..CAPACITY).map(block).collect();
    let registry = Registry::new();
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 99));
    let mw = Middleware::start(
        RtConfig {
            nodes: 2,
            capacity_blocks: CAPACITY,
            policy: ReplacementPolicy::MasterPreserving,
            fetch_timeout: Duration::from_secs(2),
            faults: None,
            obs: Some(registry.clone()),
            ..RtConfig::default()
        },
        catalog,
        store,
    );
    let reader = NodeId(0);
    time_reads(&mw, reader, &blocks, &mut Vec::new()); // prime
    let mut samples = Vec::new();
    for _ in 0..rounds {
        time_reads(&mw, reader, &blocks, &mut samples);
    }
    let read_ns = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
    mw.quiesce();
    let snap = mw.obs_snapshot();
    mw.shutdown();

    // Per-event primitive costs, same loops as the ccm-rt overhead guard.
    const ITERS: usize = 200_000;
    let c = registry.counter("bench_obs_probe_total", "probe", &[]);
    let h = registry.histogram("bench_obs_probe_ns", "probe", &[]);
    let t = Instant::now();
    for _ in 0..ITERS {
        let sw = Stopwatch::start();
        c.inc();
        sw.stop(&h);
    }
    let metric_ns = t.elapsed().as_nanos() as f64 / ITERS as f64;
    let ring = TraceRing::new(4096);
    let t = Instant::now();
    for i in 0..ITERS {
        let req = ring.next_req_id();
        ring.push(
            req,
            0,
            Hop::Dispatch {
                file: i as u32,
                block: 0,
            },
        );
        ring.push(req, 0, Hop::Serve { bytes: 8192 });
    }
    let trace_ns = t.elapsed().as_nanos() as f64 / ITERS as f64;

    println!(
        "\nobs: local-hit (instrumented) {read_ns:.0} ns/blk; per event: metrics {metric_ns:.0} ns, \
         tracing {trace_ns:.0} ns (obs-off={})",
        cfg!(feature = "obs-off"),
    );
    format!(
        "  \"obs\": {{ \"obs_off\": {}, \"local_hit_instrumented_ns\": {:.1}, \
         \"metric_event_ns\": {:.1}, \"trace_event_ns\": {:.1}, \
         \"reads_total\": {}, \"evictions_total\": {}, \"store_fallbacks_total\": {} }}\n",
        cfg!(feature = "obs-off"),
        read_ns,
        metric_ns,
        trace_ns,
        snap.counter_sum("ccm_rt_reads_total"),
        snap.counter_sum("ccm_rt_evictions_total"),
        snap.counter_sum("ccm_rt_store_fallbacks_total"),
    )
}

fn main() {
    let quick = ExperimentScale::is_quick();
    let rounds = if quick { 2 } else { 16 };

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"bench_rt\",\n");
    json.push_str(&format!("  \"block_size\": {BLOCK_SIZE},\n"));
    json.push_str(&format!("  \"capacity_blocks\": {CAPACITY},\n"));
    json.push_str("  \"nodes\": 2,\n");
    json.push_str("  \"backends\": {\n");

    println!(
        "{:<8} {:<22} {:>9} {:>12} {:>10} {:>10} {:>10}",
        "backend", "scenario", "samples", "mean ns/blk", "p50 ns", "p99 ns", "MB/s"
    );
    for (bi, backend) in Backend::all().into_iter().enumerate() {
        let phases = run_backend(backend, rounds);
        json.push_str(&format!("    \"{}\": {{\n", backend.name()));
        for (pi, ph) in phases.iter().enumerate() {
            println!(
                "{:<8} {:<22} {:>9} {:>12.0} {:>10} {:>10} {:>10.1}",
                backend.name(),
                ph.scenario,
                ph.samples.len(),
                ph.mean_ns(),
                ph.percentile_ns(0.50),
                ph.percentile_ns(0.99),
                ph.mb_per_s(),
            );
            json.push_str(&format!(
                "      \"{}\": {{ \"samples\": {}, \"ns_per_block_mean\": {:.1}, \"ns_p50\": {}, \"ns_p99\": {}, \"mb_per_s\": {:.2} }}{}\n",
                ph.scenario,
                ph.samples.len(),
                ph.mean_ns(),
                ph.percentile_ns(0.50),
                ph.percentile_ns(0.99),
                ph.mb_per_s(),
                if pi + 1 < phases.len() { "," } else { "" },
            ));
        }
        json.push_str(&format!("    }}{}\n", if bi == 0 { "," } else { "" }));
    }
    json.push_str("  },\n");
    json.push_str(&transport_section(rounds.min(8)));
    json.push_str(&disk_section(quick));
    json.push_str(&obs_section(rounds));
    json.push_str("}\n");

    write_bench_json("rt", &json);
}
