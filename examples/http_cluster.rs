//! A real web cluster: the HTTP front tier on the cooperative caching
//! middleware, in the paper's own configuration (§7) — plain round-robin
//! dispatch, no content-aware front end.
//!
//! Starts the middleware, puts `FrontTier` over it (one HTTP endpoint per
//! node, `RoundRobin` over `CcmBackend`), drives keep-alive load across
//! the endpoints and reports the cache cooperation that happened
//! underneath the sockets. The caller owns the middleware: the tier is
//! shut down first, the cluster after it.
//!
//! Run with: `cargo run --release --example http_cluster`

use coopcache::core::FileId;
use coopcache::front::{CcmBackend, FrontClient, FrontTier, RoundRobin};
use coopcache::rt::{Catalog, Middleware, RtConfig, SyntheticStore};
use coopcache::simcore::Rng;
use std::sync::Arc;

const NODES: usize = 4;
const CLIENTS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 250;

fn main() {
    // 300 documents, 2-64 KB.
    let mut rng = Rng::new(7);
    let sizes: Vec<u64> = (0..300).map(|_| rng.next_range(2_048, 65_536)).collect();
    let catalog = Catalog::new(sizes);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 3));

    let mw = Arc::new(Middleware::start(
        RtConfig {
            nodes: NODES,
            capacity_blocks: 512, // 4 MB per node
            ..RtConfig::default()
        },
        catalog.clone(),
        store,
    ));
    let tier = FrontTier::start(
        Arc::new(CcmBackend::new(mw.clone())),
        Arc::new(RoundRobin::new(NODES)),
        mw.registry().clone(),
    );
    println!("HTTP cluster up:");
    for (n, addr) in tier.addrs().iter().enumerate() {
        println!("  endpoint {n}: http://{addr}/file/<id>");
    }

    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let (catalog, addr) = (&catalog, tier.addrs()[t % NODES]);
            s.spawn(move || {
                let mut rng = Rng::new(t as u64);
                let mut conn = FrontClient::connect(addr).expect("connect endpoint");
                for _ in 0..REQUESTS_PER_CLIENT {
                    let id = rng.next_below(catalog.num_files() as u64) as u32;
                    let r = conn.get(&format!("/file/{id}")).expect("HTTP read");
                    assert_eq!(r.status, 200, "file {id}");
                    assert_eq!(r.body.len() as u64, catalog.size_of(FileId(id)));
                }
            });
        }
    });
    let secs = started.elapsed().as_secs_f64();
    let requests = CLIENTS * REQUESTS_PER_CLIENT;
    println!(
        "\n{requests} requests over {CLIENTS} keep-alive connections in {secs:.2}s ({:.0} req/s), \
         dispatched {:?}",
        requests as f64 / secs,
        tier.dispatch_counts()
    );

    let s = mw.stats();
    println!("\nunderneath the sockets:");
    println!(
        "  {} block accesses: {:.1}% local, {:.1}% peer, {:.1}% disk",
        s.accesses(),
        100.0 * s.local_hit_rate(),
        100.0 * s.remote_hit_rate(),
        100.0 * s.miss_rate()
    );
    println!("  {} masters forwarded between nodes", s.forwards);
    mw.check_invariants();

    // The tier drops its references to the backend once its workers are
    // joined, which leaves this one the last.
    tier.shutdown();
    match Arc::try_unwrap(mw) {
        Ok(mw) => mw.shutdown(),
        Err(_) => unreachable!("the tier is gone and the clients joined"),
    }
    println!("\nclean shutdown");
}
