//! The middleware as a running library: threads, channels, real bytes.
//!
//! Starts a 4-node in-process cluster over a synthetic backing store, has
//! worker threads on every node read a shared document set through the
//! cooperative cache, and prints the protocol traffic that resulted —
//! the "building block for diverse services" usage the paper motivates
//! (file servers, web servers, …).
//!
//! Run with: `cargo run --release --example middleware_service`

use coopcache::core::{FileId, NodeId, ReplacementPolicy};
use coopcache::rt::{Catalog, Middleware, RtConfig, SyntheticStore};
use coopcache::simcore::Rng;
use std::sync::Arc;

fn main() {
    // 200 documents, 4-40 KB each.
    let mut rng = Rng::new(2026);
    let sizes: Vec<u64> = (0..200).map(|_| rng.next_range(4_096, 40_960)).collect();
    let catalog = Catalog::new(sizes);
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 7));

    let mw = Arc::new(Middleware::start(
        RtConfig {
            nodes: 4,
            capacity_blocks: 256, // 2 MB per node — forces cooperation
            policy: ReplacementPolicy::MasterPreserving,
            ..RtConfig::default()
        },
        catalog,
        store,
    ));
    println!("started a 4-node middleware cluster (2 MB cache per node)");

    // Two worker threads per node, Zipf-ish access to the documents.
    let mut workers = Vec::new();
    for w in 0..8u16 {
        let mw = mw.clone();
        workers.push(std::thread::spawn(move || {
            let handle = mw.handle(NodeId(w % 4));
            let mut rng = Rng::new(w as u64);
            let mut bytes = 0u64;
            for _ in 0..500 {
                // Square a uniform draw to skew toward hot (low) ids.
                let u = rng.next_f64();
                let f = FileId(((u * u) * 200.0) as u32);
                bytes += handle.read_file(f).len() as u64;
            }
            bytes
        }));
    }
    let total: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();

    let s = mw.stats();
    println!(
        "served {:.1} MB through the cache\n",
        total as f64 / (1 << 20) as f64
    );
    println!("protocol traffic:");
    println!("  block accesses     {:>8}", s.accesses());
    println!(
        "  local hits         {:>8} ({:.1}%)",
        s.local_hits,
        100.0 * s.local_hit_rate()
    );
    println!(
        "  remote hits        {:>8} ({:.1}%)",
        s.remote_hits,
        100.0 * s.remote_hit_rate()
    );
    println!(
        "  disk reads         {:>8} ({:.1}%)",
        s.disk_reads,
        100.0 * s.miss_rate()
    );
    println!("  masters forwarded  {:>8}", s.forwards);
    println!("  evictions dropped  {:>8}", s.evict_drops);
    println!("  data-plane races   {:>8}", mw.stats().store_fallbacks);

    mw.check_invariants();
    Arc::try_unwrap(mw).ok().expect("sole owner").shutdown();
    println!("\nclean shutdown; every byte verified against the backing store");
}
