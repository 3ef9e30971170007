//! Overhead guard for the instrumented block path.
//!
//! The observability contract has two budgets, asserted separately:
//!
//! * **Metrics** (a counter increment, and the stopwatch lap that closes a
//!   block's latency sample into its histogram) must be noise even next to
//!   the cheapest read class — an all-local hit, which is one directory
//!   lookup plus an 8 KiB copy. A registry lock or a `SeqCst` fence
//!   creeping into the hot path blows this immediately.
//! * **Tracing** (the decision's clock read, then two batches of a local
//!   hit, each one hold of the caller's own ring shard: a request id and
//!   its dispatch, stamped with the decision; the local hit and the serve,
//!   stamped with the lap) is allowed to be a visible fraction of a local
//!   hit — that is the price of always-on block-path forensics — but the
//!   whole instrumentation load must never dominate the read.
//!
//! Both loops measure exactly the primitives the instrumented read path
//! executes, against the end-to-end local-hit read measured in the same
//! process. A regression that makes either primitive heavyweight shows up
//! as the corresponding ratio exploding, in either build.
//!
//! Run it in release, in both configurations, and compare the printed
//! ns/read (the cross-build delta is the instrumentation's cost):
//!
//! ```text
//! cargo test -p ccm-rt --release --test obs_overhead -- --ignored --nocapture
//! cargo test -p ccm-rt --release --features obs-off --test obs_overhead -- --ignored --nocapture
//! ```

use ccm_core::{BlockId, FileId, NodeId, ReplacementPolicy, BLOCK_SIZE};
use ccm_obs::{Hop, Registry, Stopwatch, TraceRing};
use ccm_rt::{Catalog, Middleware, RtConfig, SyntheticStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAPACITY: usize = 256;
const READS: usize = 100_000;
const PRIMITIVE_ITERS: usize = 1_000_000;

#[test]
#[ignore = "overhead guard; run in --release (see module docs)"]
fn instrumented_read_path_stays_within_noise() {
    // All-local-hit cluster: one node, working set fits in memory.
    let catalog = Catalog::new(vec![BLOCK_SIZE; CAPACITY]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 3));
    let mw = Middleware::start(
        RtConfig {
            nodes: 1,
            capacity_blocks: CAPACITY,
            policy: ReplacementPolicy::MasterPreserving,
            fetch_timeout: Duration::from_secs(2),
            faults: None,
            obs: Some(Registry::new()),
            ..RtConfig::default()
        },
        catalog,
        store,
    );
    let handle = mw.handle(NodeId(0));
    let block = |i: usize| BlockId::new(FileId((i % CAPACITY) as u32), 0);
    for i in 0..CAPACITY {
        handle.read_block(block(i)); // prime
    }

    let t = Instant::now();
    for i in 0..READS {
        handle.read_block(block(i));
    }
    let read_ns = t.elapsed().as_nanos() as f64 / READS as f64;

    // Budget 1 — metrics: one lap into a histogram (one clock read, timed
    // from the previous lap as a block is from its decision) plus one class
    // counter increment, exactly what the read path pays per block.
    let registry = Registry::new();
    let counter = registry.counter("guard_reads_total", "guard", &[]);
    let hist = registry.histogram("guard_latency_ns", "guard", &[]);
    let t = Instant::now();
    let mut sw = Stopwatch::start();
    for _ in 0..PRIMITIVE_ITERS {
        sw = sw.lap(&hist);
        counter.inc();
    }
    let metric_ns = t.elapsed().as_nanos() as f64 / PRIMITIVE_ITERS as f64;

    // Budget 2 — tracing: the decision's clock read and the two batches
    // every local-hit block read records: a request id and its dispatch,
    // then the local hit and the serve (stamped with the lap on the read
    // path; here with the decision, so this loop reads the clock once).
    let ring = TraceRing::new(4096);
    let t = Instant::now();
    for i in 0..PRIMITIVE_ITERS {
        let decided = Stopwatch::start();
        let req = {
            let mut batch = ring.batch(decided, 0);
            let req = batch.next_req_id();
            batch.push(
                req,
                Hop::Dispatch {
                    file: i as u32,
                    block: 0,
                },
            );
            req
        };
        let mut batch = ring.batch(decided, 0);
        batch.push(req, Hop::LocalHit);
        batch.push(req, Hop::Serve { bytes: 8192 });
    }
    let trace_ns = t.elapsed().as_nanos() as f64 / PRIMITIVE_ITERS as f64;

    let total_ns = metric_ns + trace_ns;
    let obs_off = cfg!(feature = "obs-off");
    println!(
        "obs_overhead: local-hit read {read_ns:.0} ns; per-read metrics {metric_ns:.0} ns \
         ({:.1}%), tracing {trace_ns:.0} ns ({:.1}%), obs-off={obs_off}",
        100.0 * metric_ns / read_ns,
        100.0 * trace_ns / read_ns,
    );
    // The metric budget is one clock read and four relaxed atomics, well
    // under a third of even the all-local read. Anything heavier (a
    // registry lock, a SeqCst fence, an allocation) lands it past this
    // bound.
    assert!(
        metric_ns < read_ns * 0.35,
        "metric primitives ({metric_ns:.0} ns) are no longer noise next to a \
         local-hit read ({read_ns:.0} ns) — a lock or fence crept into the hot path"
    );
    assert!(
        total_ns < read_ns,
        "instrumentation ({total_ns:.0} ns) dominates the local-hit read \
         ({read_ns:.0} ns) — the trace ring has become heavyweight"
    );
    mw.shutdown();
}
