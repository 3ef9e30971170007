//! The workspace's one HTTP server over live sockets: range semantics on
//! every backend, pipelining, dispatch accounting, the malformed-input and
//! shutdown paths, cache cooperation and write coherence underneath real
//! socket traffic on both LAN backends, and the observability routes
//! (`/metrics` with the `ccm_front_*` and cluster families, `/debug/trace`).
//!
//! Round-robin dispatch rotates globally, so under one sequential client
//! request *i* is served by node *i mod N* whatever endpoint it arrived
//! at — the cross-node tests below lean on that to stay deterministic.

use ccm_core::{BlockId, FileId, NodeId, BLOCK_SIZE};
use ccm_front::client::{get, get_with, FrontClient};
use ccm_front::PolicyKind;
use ccm_rt::store::read_file_direct;
use ccm_rt::{BlockStore, Catalog, MemStore, RtConfig, SyntheticStore};
use ccm_testkit::{start_front, Backend, FrontBackendKind, FrontFixture};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Files exercising every range corner: multi-block with a partial tail,
/// an exact block multiple (tail block is full), sub-block, and empty.
fn fixture() -> (Catalog, Arc<SyntheticStore>) {
    let sizes = vec![
        2 * BLOCK_SIZE + 100, // file 0: partial tail block
        3 * BLOCK_SIZE,       // file 1: exact block multiple
        512,                  // file 2: sub-block
        0,                    // file 3: empty
    ];
    let catalog = Catalog::new(sizes);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 0xF407));
    (catalog, store)
}

fn start(
    kind: FrontBackendKind,
    policy: PolicyKind,
) -> (FrontFixture, Catalog, Arc<SyntheticStore>) {
    let (catalog, store) = fixture();
    let fx = start_front(
        kind,
        policy,
        RtConfig {
            nodes: 2,
            capacity_blocks: 64,
            ..RtConfig::default()
        },
        catalog.clone(),
        store.clone(),
    );
    (fx, catalog, store)
}

/// Round-robin over the CCM backend on `lan` — the paper's own
/// configuration (§7) — with the cluster shape the caller needs.
fn start_ccm(
    lan: Backend,
    nodes: usize,
    capacity_blocks: usize,
    catalog: &Catalog,
    store: Arc<dyn BlockStore>,
) -> FrontFixture {
    start_front(
        FrontBackendKind::Ccm(lan),
        PolicyKind::RoundRobin,
        RtConfig {
            nodes,
            capacity_blocks,
            ..RtConfig::default()
        },
        catalog.clone(),
        store,
    )
}

/// Send raw bytes on a fresh connection and read until the server closes.
fn raw_exchange(addr: std::net::SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request).unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn range_semantics_hold_on_every_backend() {
    for kind in FrontBackendKind::all() {
        let (fx, catalog, store) = start(kind, PolicyKind::RoundRobin);
        let addr = fx.front.addrs()[0];
        let label = kind.name();

        for id in [0u32, 1, 2] {
            let file = FileId(id);
            let size = catalog.size_of(file);
            let truth = read_file_direct(store.as_ref(), &catalog, file);
            let path = format!("/file/{id}");

            // Full read: 200, byte-verified, range plumbing advertised.
            let full = get_with(addr, &path, &[]).unwrap();
            assert_eq!(full.status, 200, "{label} file {id}");
            assert_eq!(full.body, truth, "{label} file {id} bytes");
            assert_eq!(full.headers.get("accept-ranges"), Some("bytes"));
            let etag = full.headers.get("etag").expect("etag on 200").to_string();

            // Bounded range: byte-identical to the 200 body's slice.
            let r = get_with(addr, &path, &[("Range", "bytes=10-137")]).unwrap();
            assert_eq!(r.status, 206, "{label} file {id}");
            assert_eq!(r.body, truth[10..=137.min(truth.len() - 1)]);
            assert_eq!(
                r.headers.get("content-range").unwrap(),
                format!("bytes 10-{}/{size}", 137.min(size - 1)),
                "{label} file {id}"
            );

            // Suffix range: the exact tail, crossing into the last block.
            let n = (size / 2).max(1);
            let r = get_with(addr, &path, &[("Range", format!("bytes=-{n}").as_str())]).unwrap();
            assert_eq!(r.status, 206, "{label} file {id} suffix");
            assert_eq!(r.body, truth[(size - n) as usize..], "{label} suffix bytes");

            // Exact-tail block: the final block alone, [size - tail, size).
            let tail = size - (size - 1) / BLOCK_SIZE * BLOCK_SIZE;
            let start_pos = size - tail;
            let spec = format!("bytes={start_pos}-");
            let r = get_with(addr, &path, &[("Range", spec.as_str())]).unwrap();
            assert_eq!(r.status, 206, "{label} file {id} tail block");
            assert_eq!(r.body, truth[start_pos as usize..]);
            assert_eq!(
                r.headers.get("content-range").unwrap(),
                format!("bytes {start_pos}-{}/{size}", size - 1)
            );

            // Out-of-bounds start: 416 with the unsatisfied-range form.
            let spec = format!("bytes={size}-");
            let r = get_with(addr, &path, &[("Range", spec.as_str())]).unwrap();
            assert_eq!(r.status, 416, "{label} file {id} out of bounds");
            assert_eq!(
                r.headers.get("content-range").unwrap(),
                format!("bytes */{size}")
            );
            assert!(r.body.is_empty());

            // If-Range: stale validator downgrades to the full body,
            // current validator keeps the range.
            let r = get_with(
                addr,
                &path,
                &[("Range", "bytes=0-9"), ("If-Range", "\"stale\"")],
            )
            .unwrap();
            assert_eq!((r.status, r.body.len()), (200, truth.len()), "{label}");
            let r = get_with(
                addr,
                &path,
                &[("Range", "bytes=0-9"), ("If-Range", etag.as_str())],
            )
            .unwrap();
            assert_eq!(r.status, 206, "{label} matching If-Range");
            assert_eq!(r.body, truth[..10]);
        }

        // The empty file: full read is 200 with zero bytes; any range on
        // it is unsatisfiable.
        let r = get_with(addr, "/file/3", &[]).unwrap();
        assert_eq!((r.status, r.body.len()), (200, 0), "{label} empty file");
        let r = get_with(addr, "/file/3", &[("Range", "bytes=0-0")]).unwrap();
        assert_eq!(r.status, 416, "{label} empty file range");

        fx.shutdown();
    }
}

#[test]
fn pipelined_requests_answer_in_order() {
    for kind in FrontBackendKind::all() {
        let (fx, catalog, store) = start(kind, PolicyKind::RoundRobin);
        let mut conn = FrontClient::connect(fx.front.addrs()[1]).unwrap();

        // Write every request before reading any response.
        let ids = [2u32, 0, 1, 2, 1, 0];
        for &id in &ids {
            conn.send("GET", &format!("/file/{id}"), &[]).unwrap();
        }
        for &id in &ids {
            let r = conn.read_pipelined().unwrap();
            let truth = read_file_direct(store.as_ref(), &catalog, FileId(id));
            assert_eq!(r.status, 200, "{} file {id}", kind.name());
            assert_eq!(r.body, truth, "{} pipelined order broken", kind.name());
        }
        fx.shutdown();
    }
}

#[test]
fn head_matches_get_and_unknown_paths_404() {
    let (fx, catalog, _store) = start(FrontBackendKind::L2s, PolicyKind::RoundRobin);
    let addr = fx.front.addrs()[0];
    let mut conn = FrontClient::connect(addr).unwrap();
    let size = catalog.size_of(FileId(0));

    let r = conn.head_with("/file/0", &[]).unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.is_empty(), "HEAD has no body");
    assert_eq!(
        r.headers.get("content-length").unwrap(),
        size.to_string(),
        "HEAD keeps the body's length"
    );

    let r = conn.get("/file/999").unwrap();
    assert_eq!(r.status, 404);
    let r = conn.get("/nope").unwrap();
    assert_eq!(r.status, 404);
    fx.shutdown();
}

#[test]
fn content_aware_policy_migrates_and_counts_handoffs() {
    let (fx, _catalog, _store) = start(FrontBackendKind::L2s, PolicyKind::ContentAware);
    // The same file requested through both endpoints must serve at one
    // node (content-aware migration), so one arrival was handed off.
    for endpoint in [0, 1] {
        let mut conn = FrontClient::connect(fx.front.addrs()[endpoint]).unwrap();
        for _ in 0..3 {
            assert_eq!(conn.get("/file/0").unwrap().status, 200);
        }
    }
    let counts = fx.front.dispatch_counts();
    assert_eq!(counts.iter().sum::<u64>(), 6);
    assert!(
        counts.contains(&6),
        "content-aware must pin the file to one node, got {counts:?}"
    );
    assert_eq!(fx.front.handoffs(), 3, "one endpoint's arrivals all moved");
    fx.shutdown();
}

#[test]
fn front_stats_endpoint_reports_dispatch() {
    let (fx, _catalog, _store) = start(FrontBackendKind::L2s, PolicyKind::RoundRobin);
    let addr = fx.front.addrs()[0];
    let mut conn = FrontClient::connect(addr).unwrap();
    for _ in 0..4 {
        conn.get("/file/1").unwrap();
    }
    let r = conn.get("/front/stats").unwrap();
    assert_eq!(r.status, 200);
    let body = String::from_utf8(r.body).unwrap();
    assert!(
        body.contains("\"policy\":\"round-robin\"") && body.contains("\"backend\":\"l2s\""),
        "unexpected stats page: {body}"
    );
    assert!(
        body.contains("\"dispatched\":[2,2]"),
        "round-robin split: {body}"
    );
    fx.shutdown();
}

#[test]
fn metrics_page_carries_the_front_family() {
    use ccm_obs::prom::parse;
    use std::collections::BTreeSet;

    // CCM backend: the same page must carry both the front family and the
    // cache families underneath (one shared registry).
    let (fx, _catalog, _store) = start(
        FrontBackendKind::Ccm(ccm_testkit::Backend::Channel),
        PolicyKind::LoadAware,
    );
    let addr = fx.front.addrs()[0];
    let mut conn = FrontClient::connect(addr).unwrap();
    for id in [0u32, 1, 2] {
        assert_eq!(conn.get(&format!("/file/{id}")).unwrap().status, 200);
    }
    assert_eq!(
        conn.get_with("/file/0", &[("Range", "bytes=0-9")])
            .unwrap()
            .status,
        206
    );
    // Every file again, twice in a row: under a sequential client
    // consecutive picks rotate over the two nodes, so each file has now
    // been read at both — cross-node reads, whoever mastered it.
    for id in [0u32, 1, 2] {
        for _ in 0..2 {
            assert_eq!(conn.get(&format!("/file/{id}")).unwrap().status, 200);
        }
    }

    let r = conn.get("/metrics").unwrap();
    assert_eq!(r.status, 200);
    let text = String::from_utf8(r.body).expect("metrics page is UTF-8");
    let samples = parse(&text).expect("page must parse as Prometheus text");
    let names: BTreeSet<&str> = samples.iter().map(|s| s.name.as_str()).collect();
    for family in [
        "ccm_front_dispatch_total",
        "ccm_front_handoffs_total",
        "ccm_front_request_latency_ns_bucket",
        "ccm_front_responses_total",
        "ccm_front_inflight",
        // The cluster behind the seam reports into the same registry.
        "ccm_rt_reads_total",
        "ccm_rt_fetch_latency_ns_bucket",
        "ccm_rt_store_blocks",
        "ccm_rt_directory_blocks",
        // So do the per-node disk services.
        "ccm_disk_requests_total",
        "ccm_disk_reads_total",
        "ccm_disk_read_latency_ns_bucket",
        "ccm_disk_queue_depth",
        // Hint-directory and membership families are always registered —
        // zero under the perfect directory, but present on every scrape.
        "ccm_rt_hint_hits_total",
        "ccm_rt_hint_stale_total",
        "ccm_rt_hint_forward_hops_total",
        "ccm_rt_epoch",
    ] {
        assert!(names.contains(family), "scrape missing {family}:\n{text}");
    }

    // Dispatch counters carry the policy label and cover the traffic.
    let dispatched: f64 = samples
        .iter()
        .filter(|s| s.name == "ccm_front_dispatch_total" && s.label("policy") == Some("load-aware"))
        .map(|s| s.value)
        .sum();
    assert!(dispatched >= 4.0, "saw {dispatched} dispatches");

    // The 206 above has its own status class.
    let partial: f64 = samples
        .iter()
        .filter(|s| s.name == "ccm_front_responses_total" && s.label("status") == Some("206"))
        .map(|s| s.value)
        .sum();
    assert!(partial >= 1.0, "206 responses must be tallied separately");

    let sum = |name: &str, labels: &[(&str, &str)]| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name && labels.iter().all(|&(k, v)| s.label(k) == Some(v)))
            .map(|s| s.value)
            .sum()
    };
    // Every request made above (the scrape itself is counted after it
    // renders, so it is not on its own page) is a tallied response.
    let ok = sum("ccm_front_responses_total", &[("status", "2xx")]);
    assert_eq!(ok + partial, 10.0, "3 + 6 full reads and one range");

    // The page reads the directory occupancy current: no data path writes
    // the gauge, the cluster's refresh hook reads it when the tier scrapes
    // the registry, and each of the fixture's 3 + 3 + 1 blocks is now
    // resident at both nodes.
    assert_eq!(
        sum("ccm_rt_directory_blocks", &[]),
        14.0,
        "the tier's /metrics must refresh the snapshot-time gauges"
    );
    // One process, one registry: both nodes' series are on the one page.
    // The cold misses were physical demand reads through a node's disk
    // service, and the cross-node reads were served from a peer's memory.
    for node in ["0", "1"] {
        assert!(
            samples
                .iter()
                .any(|s| s.name == "ccm_rt_reads_total" && s.label("node") == Some(node)),
            "node {node}'s read series missing:\n{text}"
        );
    }
    assert!(sum("ccm_disk_reads_total", &[("kind", "demand")]) > 0.0);
    assert!(
        sum("ccm_rt_reads_total", &[("class", "remote")]) > 0.0,
        "cross-node reads must include remote hits"
    );
    fx.shutdown();
}

#[test]
fn debug_trace_serves_the_ring_on_ccm_and_404s_on_l2s() {
    let (fx, _catalog, _store) = start(
        FrontBackendKind::Ccm(Backend::Channel),
        PolicyKind::RoundRobin,
    );
    let addr = fx.front.addrs()[0];
    // Two sequential reads of one file: node 0 masters it, node 1 fetches
    // it from node 0.
    for _ in 0..2 {
        assert_eq!(get(addr, "/file/0").unwrap().status, 200);
    }
    let r = get(addr, "/debug/trace").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.headers.get("content-type"), Some("application/json"));
    let body = String::from_utf8(r.body).expect("trace dump is UTF-8");
    assert!(body.starts_with("{\"capacity\":"), "got: {body:.80}");
    // The ring itself is compiled out under `obs-off`.
    if cfg!(not(feature = "obs-off")) {
        for hop in ["\"dispatch\"", "\"serve\"", "\"peer_fetch\""] {
            assert!(body.contains(hop), "trace dump missing {hop} hop:\n{body}");
        }
    }
    fx.shutdown();

    // The L2S backend keeps no ring: the route exists and says so.
    let (fx, _catalog, _store) = start(FrontBackendKind::L2s, PolicyKind::RoundRobin);
    let r = get(fx.front.addrs()[0], "/debug/trace").unwrap();
    assert_eq!(r.status, 404);
    assert_eq!(r.body, b"backend keeps no trace ring", "not the file 404");
    fx.shutdown();
}

#[test]
fn every_policy_serves_verified_bytes_through_the_ccm_backend() {
    // Both LANs: the HTTP layer is the same code whatever carries the peer
    // traffic, and the swap underneath must be invisible in the bytes.
    let (catalog, store) = fixture();
    let cells = Backend::all()
        .into_iter()
        .flat_map(|lan| PolicyKind::all().map(|policy| (lan, policy)));
    for (lan, policy) in cells {
        let fx = start_front(
            FrontBackendKind::Ccm(lan),
            policy,
            RtConfig {
                nodes: 3,
                capacity_blocks: 64,
                ..RtConfig::default()
            },
            catalog.clone(),
            store.clone(),
        );
        for endpoint in 0..3 {
            let mut conn = FrontClient::connect(fx.front.addrs()[endpoint]).unwrap();
            for id in [0u32, 1, 2] {
                let truth = read_file_direct(store.as_ref(), &catalog, FileId(id));
                let r = conn.get(&format!("/file/{id}")).unwrap();
                assert_eq!(r.status, 200, "{} endpoint {endpoint}", policy.name());
                assert_eq!(r.body, truth, "{} corrupted bytes", policy.name());
            }
        }
        assert_eq!(
            fx.front.dispatch_counts().iter().sum::<u64>(),
            9,
            "{} must account every dispatch",
            policy.name()
        );
        fx.shutdown();
    }
}

#[test]
fn ccm_backend_range_reads_touch_only_covering_blocks() {
    // A range inside block 1 of file 0 must not charge accesses for
    // blocks 0 or 2 — the point of block-granular range mapping.
    let (fx, _catalog, store) = start(
        FrontBackendKind::Ccm(ccm_testkit::Backend::Channel),
        PolicyKind::RoundRobin,
    );
    let addr = fx.front.addrs()[0];
    let spec = format!("bytes={}-{}", BLOCK_SIZE + 5, BLOCK_SIZE + 55);
    let r = get_with(addr, "/file/0", &[("Range", spec.as_str())]).unwrap();
    assert_eq!(r.status, 206);
    let truth = read_file_direct(store.as_ref(), fx.backend.catalog(), FileId(0));
    assert_eq!(
        r.body,
        truth[(BLOCK_SIZE + 5) as usize..=(BLOCK_SIZE + 55) as usize]
    );
    fx.backend.quiesce();
    let stats = fx.backend.hit_stats();
    assert_eq!(
        stats.accesses, 1,
        "a one-block range must cost exactly one block access"
    );
    fx.shutdown();
}

#[test]
fn inflight_cap_sheds_early_503_and_counts() {
    use ccm_front::{FrontConfig, FrontTier, L2sBackend};
    use ccm_obs::prom::parse;

    let (catalog, store) = fixture();
    let registry = ccm_obs::Registry::default();
    let backend = Arc::new(L2sBackend::new(catalog, store, 2, 64 * BLOCK_SIZE));
    let dispatch = PolicyKind::RoundRobin.build(&registry, 2);
    // A zero cap refuses every file request: the harshest setting, with a
    // deterministic outcome for a sequential client.
    let front = FrontTier::start_with(
        backend,
        dispatch,
        registry,
        FrontConfig {
            max_inflight: Some(0),
        },
    );
    let addr = front.addrs()[0];
    let mut conn = FrontClient::connect(addr).unwrap();
    for _ in 0..3 {
        let r = conn.get("/file/0").unwrap();
        assert_eq!(r.status, 503, "file request over the cap");
        assert_eq!(
            r.headers.get("retry-after"),
            Some("1"),
            "rejection must carry a retry hint"
        );
    }
    assert_eq!(front.rejected(), 3);
    // The control plane is never shed: the overloaded state must stay
    // observable, and the rejection counter is on the page.
    let r = conn.get("/metrics").unwrap();
    assert_eq!(r.status, 200, "/metrics must bypass the cap");
    let text = String::from_utf8(r.body).unwrap();
    let samples = parse(&text).expect("metrics page parses");
    let rejected: f64 = samples
        .iter()
        .filter(|s| s.name == "ccm_front_rejected_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(rejected, 3.0, "ccm_front_rejected_total on the page");
    front.shutdown();
}

#[test]
fn uncapped_tier_registers_rejected_family_at_zero() {
    let (fx, _catalog, _store) = start(FrontBackendKind::L2s, PolicyKind::RoundRobin);
    let mut conn = FrontClient::connect(fx.front.addrs()[0]).unwrap();
    assert_eq!(conn.get("/file/0").unwrap().status, 200);
    let r = conn.get("/metrics").unwrap();
    let text = String::from_utf8(r.body).unwrap();
    assert!(
        text.contains("ccm_front_rejected_total"),
        "rejection family must be registered with the cap off:\n{text}"
    );
    assert_eq!(fx.front.rejected(), 0);
    fx.shutdown();
}

#[test]
fn l2s_node_id_maps_to_arrival_listener() {
    // Sanity: NodeId(endpoint index) is what dispatch policies receive.
    let (fx, _catalog, _store) = start(FrontBackendKind::L2s, PolicyKind::ContentAware);
    let addrs = fx.front.addrs().to_vec();
    assert_eq!(addrs.len(), 2);
    assert_ne!(addrs[0], addrs[1]);
    let _ = NodeId(0);
    fx.shutdown();
}

#[test]
fn malformed_head_gets_400_and_close_and_other_methods_405() {
    let (fx, _catalog, _store) = start(FrontBackendKind::L2s, PolicyKind::RoundRobin);
    let addr = fx.front.addrs()[0];

    // Raw garbage → 400, then the server closes (`raw_exchange` reads to
    // EOF) — and no panic server-side: the tier keeps serving.
    let text = raw_exchange(addr, b"NOT HTTP AT ALL\r\n\r\n");
    assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");
    assert!(text.contains("Connection: close"), "got: {text}");

    // Unsupported method → 405, before any dispatch.
    let text = raw_exchange(addr, b"POST /file/0 HTTP/1.0\r\n\r\n");
    assert!(text.starts_with("HTTP/1.1 405"), "got: {text}");
    assert_eq!(fx.front.dispatch_counts().iter().sum::<u64>(), 0);

    assert_eq!(get(addr, "/file/0").unwrap().status, 200);
    let responses = |class: &str| {
        let snap = fx.registry.snapshot();
        snap.counter_sum_where("ccm_front_responses_total", "status", class)
    };
    assert_eq!((responses("4xx"), responses("2xx")), (2, 1));
    fx.shutdown();
}

#[test]
fn cross_node_reads_cooperate_on_both_lans() {
    let catalog = Catalog::new(vec![30_000u64; 2]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 42));
    let truth = read_file_direct(store.as_ref(), &catalog, FileId(0));
    for lan in Backend::all() {
        let fx = start_ccm(lan, 3, 64, &catalog, store.clone());
        // Three sequential reads of file 0 are served by nodes 0, 1, 2:
        // the first warms it, the other two must fetch from a peer.
        for &addr in fx.front.addrs() {
            let r = get(addr, "/file/0").unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.body, truth, "{} corrupted bytes", lan.name());
        }
        assert_eq!(fx.front.dispatch_counts(), [1, 1, 1]);
        let mw = fx.middleware.as_ref().expect("ccm fixture");
        mw.quiesce();
        let s = mw.stats();
        assert!(
            s.remote_hits > 0,
            "{}: peer fetches should have happened, got {s:?}",
            lan.name()
        );
        mw.check_invariants();
        fx.shutdown();
    }
}

/// A 129-block (just over 1 MiB) body is far larger than a socket's send
/// buffer, so the response's one vectored write is resumed many times on
/// a real socket; every byte must still arrive, alone and as the first of
/// a pipelined pair.
#[test]
fn a_large_body_arrives_byte_exact_on_both_lans() {
    let catalog = Catalog::new(vec![128 * BLOCK_SIZE + 100]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 11));
    let truth = read_file_direct(store.as_ref(), &catalog, FileId(0));
    for lan in Backend::all() {
        let fx = start_ccm(lan, 2, 256, &catalog, store.clone());
        let r = get(fx.front.addrs()[0], "/file/0").unwrap();
        assert_eq!(r.status, 200, "{}", lan.name());
        assert!(r.body == truth, "{}: large body corrupted", lan.name());

        let mut conn = FrontClient::connect(fx.front.addrs()[1]).unwrap();
        conn.send("GET", "/file/0", &[]).unwrap();
        conn.send("GET", "/file/0", &[]).unwrap();
        for i in 0..2 {
            let r = conn.read_pipelined().unwrap();
            assert_eq!(r.status, 200, "{} pipelined {i}", lan.name());
            assert!(r.body == truth, "{}: pipelined {i} corrupted", lan.name());
        }
        drop(conn); // the worker leaves on EOF, not the read timeout
        fx.shutdown();
    }
}

#[test]
fn concurrent_keep_alive_load_is_exact_on_both_lans() {
    const FILES: u64 = 24;
    let catalog = Catalog::new(vec![16_000u64; FILES as usize]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 42));
    let truth: Vec<Vec<u8>> = (0..FILES as u32)
        .map(|f| read_file_direct(store.as_ref(), &catalog, FileId(f)))
        .collect();
    for lan in Backend::all() {
        // 48 blocks a node for 48 blocks of files: evictions, forwards and
        // remote hits all happen under the sockets.
        let fx = start_ccm(lan, 4, 48, &catalog, store.clone());
        let addrs = fx.front.addrs();
        // 8 clients × 100 requests, each on one keep-alive connection.
        std::thread::scope(|s| {
            for t in 0..8usize {
                let truth = &truth;
                s.spawn(move || {
                    let mut rng = simcore::Rng::new(t as u64);
                    let mut conn = FrontClient::connect(addrs[t % addrs.len()]).unwrap();
                    for _ in 0..100 {
                        let id = rng.next_below(FILES) as usize;
                        let r = conn.get(&format!("/file/{id}")).unwrap();
                        assert_eq!(r.status, 200, "{} file {id}", lan.name());
                        assert_eq!(r.body, truth[id], "{} file {id} corrupted", lan.name());
                    }
                });
            }
        });
        assert_eq!(fx.front.dispatch_counts().iter().sum::<u64>(), 800);
        let mw = fx.middleware.as_ref().expect("ccm fixture");
        mw.quiesce();
        assert_eq!(mw.stats().accesses(), 800 * 2, "two blocks a file");
        mw.check_invariants();
        fx.shutdown();
    }
}

/// The HTTP surface is read-only; a write through a middleware handle
/// must invalidate the replica a peer acquired earlier, so that peer's
/// next HTTP response serves the new bytes, not its stale copy.
#[test]
fn handle_writes_are_visible_to_following_http_reads_on_both_lans() {
    let catalog = Catalog::new(vec![16_384u64; 4]);
    for lan in Backend::all() {
        let store = Arc::new(MemStore::new(catalog.clone(), 7));
        let fx = start_ccm(lan, 2, 32, &catalog, store);
        let addr = fx.front.addrs()[0];
        // Warm at both nodes: node 1 now holds a replica of node 0's master.
        for _ in 0..2 {
            assert_eq!(get(addr, "/file/0").unwrap().status, 200);
        }
        let payload = vec![0x5A; BLOCK_SIZE as usize];
        let mw = fx.middleware.as_ref().expect("ccm fixture");
        mw.handle(NodeId(0))
            .write_block(BlockId::new(FileId(0), 0), &payload)
            .unwrap();
        mw.quiesce(); // drain the Invalidate messages
        for node in 0..2 {
            let r = get(addr, "/file/0").unwrap();
            assert_eq!(
                &r.body[..payload.len()],
                &payload[..],
                "{}: node {node} served stale data",
                lan.name()
            );
        }
        assert_eq!(fx.front.dispatch_counts(), [2, 2]);
        fx.shutdown();
    }
}

#[test]
fn shutdown_returns_with_an_idle_keep_alive_connection_open() {
    let (fx, _catalog, _store) = start(
        FrontBackendKind::Ccm(Backend::Channel),
        PolicyKind::RoundRobin,
    );
    // One connection that never sent a byte, one that is idle between
    // keep-alive requests; both stay open across the shutdown.
    let _silent = TcpStream::connect(fx.front.addrs()[0]).unwrap();
    let mut idle = FrontClient::connect(fx.front.addrs()[1]).unwrap();
    assert_eq!(idle.get("/file/1").unwrap().status, 200);
    // Must not hang or panic: the workers leave on the read timeout, and
    // the fixture can then unwrap the middleware the tier no longer holds.
    fx.shutdown();
}
