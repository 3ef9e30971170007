//! The HTTP front end over the `ccm-net` TCP peer transport: sockets in
//! front of the cluster *and* sockets between the nodes. The HTTP layer
//! is byte-for-byte the one the channel-LAN tests exercise; these tests
//! pin that the swap of the peer transport underneath is invisible.

use ccm_core::{BlockId, FileId, NodeId, ReplacementPolicy};
use ccm_httpd::client::{get, load_run};
use ccm_httpd::HttpCluster;
use ccm_net::TcpLan;
use ccm_rt::{Catalog, MemStore, Middleware, RtConfig, SyntheticStore};
use std::sync::Arc;

fn start_tcp(nodes: usize, files: usize, size: u64, cap: usize) -> (HttpCluster, Catalog) {
    let catalog = Catalog::new(vec![size; files]);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 42));
    let lan = Arc::new(TcpLan::loopback(nodes).expect("bind peer listeners"));
    let cluster = HttpCluster::over(Middleware::start_on(
        RtConfig {
            nodes,
            capacity_blocks: cap,
            policy: ReplacementPolicy::MasterPreserving,
            ..RtConfig::default()
        },
        catalog.clone(),
        store,
        lan,
    ));
    (cluster, catalog)
}

fn expected_body(catalog: &Catalog, id: u32) -> Vec<u8> {
    let store = SyntheticStore::new(catalog.clone(), 42);
    ccm_rt::store::read_file_direct(&store, catalog, FileId(id))
}

/// Cross-node cooperation rides the TCP peer transport: warm a file on one
/// node, fetch it through the others, and the remote hits must have
/// crossed the wire.
#[test]
fn http_over_tcp_peers_serves_exact_bytes() {
    let (cluster, catalog) = start_tcp(3, 2, 30_000, 64);
    get(cluster.addrs()[0], "/file/0").unwrap();
    for n in 1..3 {
        let r = get(cluster.addrs()[n], "/file/0").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, expected_body(&catalog, 0), "node {n} corrupted");
    }
    let s = cluster.middleware().stats();
    assert!(s.remote_hits > 0, "peer fetches should have used the wire");
    cluster.middleware().check_invariants();
    cluster.shutdown();
}

/// Concurrent HTTP load with the peer traffic on sockets: every response
/// exact, no failures, invariants intact.
#[test]
fn concurrent_load_over_tcp_peers_is_correct() {
    let (cluster, catalog) = start_tcp(4, 24, 16_000, 48);
    let check_catalog = catalog.clone();
    let report = load_run(cluster.addrs(), 24, 8, 100, move |id, body| {
        body == expected_body(&check_catalog, id)
    });
    assert_eq!(report.failed, 0, "{report:?}");
    assert_eq!(report.ok, 800);
    cluster.middleware().check_invariants();
    cluster.shutdown();
}

/// Write invalidations travel the wire: a write on one node must
/// invalidate the replica a peer acquired earlier, so the peer's next
/// HTTP response serves the new bytes, not its stale copy.
#[test]
fn writes_invalidate_replicas_over_tcp_peers() {
    let catalog = Catalog::new(vec![16_384u64; 4]);
    let store = Arc::new(MemStore::new(catalog.clone(), 7));
    let lan = Arc::new(TcpLan::loopback(2).expect("bind peer listeners"));
    let cluster = HttpCluster::over(Middleware::start_on(
        RtConfig {
            nodes: 2,
            capacity_blocks: 32,
            policy: ReplacementPolicy::MasterPreserving,
            ..RtConfig::default()
        },
        catalog.clone(),
        store,
        lan,
    ));
    get(cluster.addrs()[0], "/file/0").unwrap();
    get(cluster.addrs()[1], "/file/0").unwrap(); // node 1 now holds a replica
    let payload = vec![0x5A; 8_192];
    cluster
        .middleware()
        .handle(NodeId(0))
        .write_block(BlockId::new(FileId(0), 0), &payload)
        .unwrap();
    cluster.middleware().quiesce(); // drain the Invalidate frames
    for n in 0..2 {
        let r = get(cluster.addrs()[n], "/file/0").unwrap();
        assert_eq!(&r.body[..8_192], &payload[..], "node {n} served stale data");
    }
    cluster.shutdown();
}
