//! The layer replay: the traced run's inputs pushed through each layer's
//! public functions standalone, every call (or small batch of calls) under
//! a span. Nothing here reads a private field or a counter the layers do
//! not publish; the numbers are taken from outside.

use crate::cluster::Sut;
use crate::hist::median;
use crate::report::Metrics;
use crate::spans::{SpanId, Spans, ROOT};
use crate::workload::{Inputs, NODES, WARMUP_REQUESTS};
use ccm_core::{BlockId, ClusterCache, FileId, NodeId, BLOCK_SIZE};
use ccm_front::{CcmBackend, Dispatch, FrontBackend, FrontClient, RoundRobin};
use ccm_httpd::http::{read_request, write_response_with};
use ccm_net::TcpLan;
use ccm_obs::{Counter, Histogram, Hop, TraceRing};
use ccm_rt::{BlockStore, DiskConfig, DiskService, Lan, PeerMsg, ShardedMap, Transport};
use simcore::chan::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Inputs replayed through each layer.
const REPLAY_INPUTS: usize = 2_000;
/// Calls per span for functions that take well under a microsecond, so the
/// stopwatch does not dominate what it measures.
const SMALL_BATCH: usize = 64;
const FETCH_TIMEOUT: Duration = Duration::from_secs(2);
/// Blocks per vectored fetch, as in the repository's transport probe.
const FETCH_BATCH: usize = 16;

/// Records probe spans and turns them into per-call medians.
pub struct Replay<'a> {
    spans: &'a mut Spans,
    timer_ns: f64,
    parent: SpanId,
}

impl<'a> Replay<'a> {
    /// Open the `replay` root span. `timer_ns` is what [`calibrate`]
    /// measured: the stopwatch's own cost, taken off every span before it
    /// is reported.
    pub fn begin(spans: &'a mut Spans, timer_ns: f64) -> Replay<'a> {
        let parent = spans.open("replay", ROOT, 0);
        Replay {
            spans,
            timer_ns,
            parent,
        }
    }

    /// Close the `replay` root span.
    pub fn end(self) {
        self.spans.close(self.parent);
    }

    /// Run `reps` spans called `name`, each around `batch` calls of `f`
    /// (which gets the call's running number), and return the median time
    /// of one call.
    pub fn probe(
        &mut self,
        name: &'static str,
        reps: usize,
        batch: usize,
        mut f: impl FnMut(usize),
    ) -> f64 {
        let mut durations = Vec::with_capacity(reps);
        for rep in 0..reps {
            let id = self.spans.open(name, self.parent, 0);
            for call in 0..batch {
                f(rep * batch + call);
            }
            durations.push(self.spans.close(id) as f64);
        }
        (median(durations) - self.timer_ns).max(0.0) / batch as f64
    }
}

/// Median duration of an empty span.
pub fn calibrate(spans: &mut Spans) -> f64 {
    median((0..1_000).map(|_| {
        let id = spans.open("bench.timer", ROOT, 0);
        spans.close(id) as f64
    }))
}

/// A stand-in peer: answers every block request with one 8 KB payload.
fn stub_peer(inbox: Receiver<PeerMsg>) -> JoinHandle<()> {
    let payload: Arc<[u8]> = vec![7u8; BLOCK_SIZE as usize].into();
    std::thread::spawn(move || {
        while let Ok(msg) = inbox.recv() {
            match msg {
                PeerMsg::BlockRequest { reply, .. } => {
                    let _ = reply.send(Some(payload.clone()));
                }
                PeerMsg::Shutdown => break,
                _ => {}
            }
        }
    })
}

fn stop_stub_peers(lan: &dyn Transport, peers: Vec<JoinHandle<()>>) {
    for n in 0..NODES {
        let node = NodeId(n as u16);
        lan.send(node, node, PeerMsg::Shutdown);
    }
    for p in peers {
        p.join().expect("stub peer panicked");
    }
}

/// The files of the first [`REPLAY_INPUTS`] timed requests.
fn replay_files(inputs: &Inputs) -> Vec<FileId> {
    (0..REPLAY_INPUTS)
        .map(|i| inputs.file_at(WARMUP_REQUESTS + i))
        .collect()
}

/// `ccm-httpd` and the pure parts of `ccm-front`.
pub fn http_layers(r: &mut Replay, inputs: &Inputs, sut: &Sut, m: &mut Metrics) {
    let files = replay_files(inputs);
    let heads: Vec<Vec<u8>> = files
        .iter()
        .map(|f| {
            format!(
                "GET {} HTTP/1.1\r\nHost: front\r\n\r\n",
                inputs.paths[f.0 as usize]
            )
            .into_bytes()
        })
        .collect();
    let parse = r.probe("httpd.parse", REPLAY_INPUTS, 1, |i| {
        let mut head: &[u8] = &heads[i];
        std::hint::black_box(read_request(&mut head).expect("a well-formed request"));
    });
    m.set("httpd.parse_ns", parse);

    let requests: Vec<_> = heads
        .iter()
        .map(|h| read_request(&mut &h[..]).expect("a well-formed request"))
        .collect();
    let range = r.probe("front.range", REPLAY_INPUTS, 1, |i| {
        let size = inputs.catalog.size_of(files[i]);
        let etag = ccm_front::etag(files[i], size);
        std::hint::black_box(ccm_front::evaluate(&requests[i].headers, size, &etag));
    });
    m.set("front.range_ns", range);

    let dispatch: Arc<dyn Dispatch> = Arc::new(RoundRobin::new(NODES));
    let pick = r.probe("front.dispatch", REPLAY_INPUTS, 1, |i| {
        let target = dispatch.pick(
            NodeId((i % NODES) as u16),
            &requests[i].path,
            Some(files[i]),
        );
        dispatch.begin(target);
        dispatch.end(std::hint::black_box(target));
    });
    m.set("front.dispatch_ns", pick);

    let bodies: Vec<Vec<u8>> = files
        .iter()
        .map(|&f| ccm_rt::store::read_file_direct(&*sut.store, &inputs.catalog, f))
        .collect();
    let mut sink = Vec::with_capacity(8 << 20);
    let write = r.probe("httpd.write", REPLAY_INPUTS, 1, |i| {
        sink.clear();
        let size = inputs.catalog.size_of(files[i]);
        let etag = ccm_front::etag(files[i], size);
        write_response_with(
            &mut sink,
            200,
            "OK",
            "application/octet-stream",
            &[("ETag", etag.as_str()), ("Accept-Ranges", "bytes")],
            &bodies[i],
            true,
            false,
        )
        .expect("write into memory");
        std::hint::black_box(sink.len());
    });
    m.set("httpd.write_ns", write);
}

/// The live front tier: backend call, connection set-up, dispatch counts.
pub fn front_live(r: &mut Replay, inputs: &Inputs, sut: &Sut, m: &mut Metrics) {
    let Some(front) = &sut.front else { return };
    let files = replay_files(inputs);
    let backend = CcmBackend::new(sut.middleware().clone());
    let read = r.probe("front.backend", REPLAY_INPUTS, 1, |i| {
        std::hint::black_box(backend.read_file(NodeId((i % NODES) as u16), files[i]));
    });
    m.set("front.backend_ns", read);

    let path = &inputs.paths[files[0].0 as usize];
    let connect = r.probe("front.conn_setup", 40, 1, |i| {
        let mut client =
            FrontClient::connect(front.addrs()[i % NODES]).expect("connect to the front tier");
        std::hint::black_box(client.get(path).expect("first request on a connection"));
    });
    let rtt = m.get("front.http_rtt_ns");
    m.set("front.conn_setup_us", (connect - rtt).max(0.0) / 1e3);

    let dispatched: u64 = front.dispatch_counts().iter().sum();
    m.set(
        "front.handoff_share",
        front.handoffs() as f64 / dispatched.max(1) as f64,
    );
    m.set("front.rejected", front.rejected() as f64);
    let unattributed = rtt
        - m.get("httpd.parse_ns")
        - m.get("front.range_ns")
        - m.get("front.dispatch_ns")
        - m.get("front.backend_ns")
        - m.get("httpd.write_ns");
    m.set("front.unattributed_ns", unattributed);
}

/// `ccm-rt::shard`: the per-node block map.
pub fn shard_layer(r: &mut Replay, inputs: &Inputs, m: &mut Metrics) {
    let blocks: Vec<BlockId> = replay_files(inputs)
        .into_iter()
        .map(|f| BlockId::new(f, 0))
        .collect();
    let payload: Arc<[u8]> = vec![1u8; BLOCK_SIZE as usize].into();
    let map: ShardedMap<Arc<[u8]>> = ShardedMap::new();
    for &b in &blocks {
        map.insert(b, payload.clone());
    }
    let reps = REPLAY_INPUTS / SMALL_BATCH;
    let get = r.probe("shard.get", reps, SMALL_BATCH, |i| {
        std::hint::black_box(map.get(blocks[i % blocks.len()]));
    });
    m.set("shard.get_ns", get);
    let insert = r.probe("shard.insert", reps, SMALL_BATCH, |i| {
        std::hint::black_box(map.insert(blocks[i % blocks.len()], payload.clone()));
    });
    m.set("shard.insert_ns", insert);
}

/// `ccm-core` writes, on the shadow model the traced run no longer needs.
pub fn core_write_layer(
    r: &mut Replay,
    inputs: &Inputs,
    shadow: &mut ClusterCache,
    m: &mut Metrics,
) {
    let files = replay_files(inputs);
    let write = r.probe("core.write", REPLAY_INPUTS, 1, |i| {
        let node = NodeId((i % NODES) as u16);
        std::hint::black_box(shadow.write(node, BlockId::new(files[i], 0)));
    });
    m.set("core.write_ns", write);
}

/// Both transports against stand-in peers: one fetch, and a batch of 16.
pub fn transport_layers(r: &mut Replay, m: &mut Metrics) {
    let block = |i: usize| BlockId::new(FileId(0), i as u32);

    let (lan, inboxes) = Lan::new(NODES);
    let peers: Vec<_> = inboxes.into_iter().map(stub_peer).collect();
    let fetch = r.probe("lan.fetch", REPLAY_INPUTS, 1, |i| {
        let holder = NodeId((1 + i % (NODES - 1)) as u16);
        std::hint::black_box(
            lan.fetch_block(holder, block(i), FETCH_TIMEOUT)
                .expect("the stand-in peer answers"),
        );
    });
    m.set("lan.fetch_ns", fetch);
    stop_stub_peers(&lan, peers);

    let t = Instant::now();
    let tcp = TcpLan::loopback(NODES).expect("bind loopback listeners");
    let peers: Vec<_> = (0..NODES)
        .map(|n| stub_peer(tcp.reconnect(NodeId(n as u16))))
        .collect();
    for src in 0..NODES {
        for dst in (0..NODES).filter(|&d| d != src) {
            tcp.fetch_block(
                NodeId(src as u16),
                NodeId(dst as u16),
                block(0),
                FETCH_TIMEOUT,
            )
            .expect("first fetch over a fresh link");
        }
    }
    m.set("net.mesh_setup_ms", t.elapsed().as_secs_f64() * 1e3);
    let serial = r.probe("net.fetch_serial", REPLAY_INPUTS, 1, |i| {
        let holder = NodeId((1 + i % (NODES - 1)) as u16);
        std::hint::black_box(
            tcp.fetch_block(NodeId(0), holder, block(i), FETCH_TIMEOUT)
                .expect("the stand-in peer answers"),
        );
    });
    m.set("net.fetch_serial_ns", serial);
    let batch: Vec<BlockId> = (0..FETCH_BATCH).map(block).collect();
    let batched = r.probe("net.fetch_batched", REPLAY_INPUTS / FETCH_BATCH, 1, |i| {
        let holder = NodeId((1 + i % (NODES - 1)) as u16);
        let got = tcp.fetch_blocks(NodeId(0), holder, &batch, FETCH_TIMEOUT);
        assert!(got.iter().all(Option::is_some), "a batched fetch missed");
    });
    m.set("net.fetch_batched_ns", batched / FETCH_BATCH as f64);
    stop_stub_peers(&tcp, peers);
}

/// `ccm-disk`: a standalone service over the run's store.
pub fn disk_layer(r: &mut Replay, inputs: &Inputs, sut: &Sut, m: &mut Metrics) {
    let blocks: Vec<BlockId> = replay_files(inputs)
        .into_iter()
        .map(|f| BlockId::new(f, 0))
        .collect();
    let store: Arc<dyn BlockStore> = sut.store.clone();
    let service = DiskService::start(store.clone(), inputs.catalog.clone(), DiskConfig::default());
    let through_service = r.probe("disk.service_read", REPLAY_INPUTS, 1, |i| {
        std::hint::black_box(service.read(blocks[i]).expect("a read of a stored block"));
    });
    let direct = r.probe("disk.store_read", REPLAY_INPUTS, 1, |i| {
        std::hint::black_box(store.read_block(blocks[i]));
    });
    m.set("disk.service_read_ns", through_service);
    m.set("disk.store_read_ns", direct);
    m.set("disk.queue_self_ns", through_service - direct);
    // Writing back what is there leaves the store's content as it was.
    let current: Vec<Vec<u8>> = blocks.iter().map(|&b| store.read_block(b)).collect();
    let write = r.probe("disk.write", REPLAY_INPUTS, 1, |i| {
        assert!(
            service.write_block(blocks[i], &current[i]),
            "the store refused a write"
        );
    });
    m.set("disk.write_ns", write);
    service.shutdown();
}

/// `ccm-obs`: the cost of the events a block read emits, and of a scrape.
pub fn obs_layer(r: &mut Replay, sut: &Sut, m: &mut Metrics) {
    let reps = REPLAY_INPUTS / SMALL_BATCH;
    let counter = Counter::new();
    let inc = r.probe("obs.counter_inc", reps, SMALL_BATCH, |_| counter.inc());
    m.set("obs.counter_inc_ns", inc);
    let hist = Histogram::new();
    let record = r.probe("obs.hist_record", reps, SMALL_BATCH, |i| {
        hist.record(400 + i as u64)
    });
    m.set("obs.hist_record_ns", record);
    let ring = TraceRing::new(4096);
    let push = r.probe("obs.trace_push", reps, SMALL_BATCH, |i| {
        ring.push(i as u64, 0, Hop::LocalHit)
    });
    m.set("obs.trace_push_ns", push);
    std::hint::black_box((counter.get(), hist.snapshot().count(), ring.capacity()));

    let mut snapshot = sut.registry.snapshot();
    let scrape = r.probe("obs.snapshot", 50, 1, |_| {
        snapshot = sut.registry.snapshot()
    });
    m.set("obs.snapshot_us", scrape / 1e3);
    let render = r.probe("obs.render", 50, 1, |_| {
        std::hint::black_box(ccm_obs::prom::render(&snapshot));
    });
    m.set("obs.render_us", render / 1e3);
}
