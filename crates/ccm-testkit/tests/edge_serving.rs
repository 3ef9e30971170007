//! Edge-of-the-block-math serving tests, on both LAN backends: a zero-byte
//! file, a file of exactly one block, an exact multiple of the block size,
//! a one-byte tail block, and a one-byte file. Every serve must be
//! byte-identical to the backing store and account for exactly the number
//! of block accesses the catalog math predicts.

use ccm_core::block::{blocks_of_file, BLOCK_SIZE};
use ccm_core::{FileId, NodeId};
use ccm_rt::store::read_file_direct;
use ccm_rt::{Catalog, RtConfig, SyntheticStore};
use ccm_testkit::{start_cluster, Backend};
use std::sync::Arc;

/// The corner catalog: sizes chosen to sit exactly on the block-math
/// boundaries. A zero-byte file still occupies one (empty) block frame.
fn edge_sizes() -> Vec<u64> {
    vec![0, BLOCK_SIZE, 3 * BLOCK_SIZE, BLOCK_SIZE + 1, 1]
}

#[test]
fn edge_files_serve_byte_identical_on_both_backends() {
    let catalog = Catalog::new(edge_sizes());
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 99));
    for backend in Backend::all() {
        let cluster = start_cluster(
            backend,
            RtConfig {
                nodes: 3,
                capacity_blocks: 16,
                ..RtConfig::default()
            },
            catalog.clone(),
            store.clone(),
        );
        for f in 0..catalog.num_files() {
            let file = FileId(f as u32);
            let want = read_file_direct(&*store, &catalog, file);
            assert_eq!(want.len() as u64, catalog.size_of(file));
            // Through every node: miss, then local or remote hit paths.
            for n in 0..3 {
                let got = cluster.handle(NodeId(n)).read_file(file);
                assert_eq!(
                    got,
                    want,
                    "{}: file {f} ({} bytes) corrupted via node {n}",
                    backend.name(),
                    want.len()
                );
            }
        }
        cluster.shutdown();
    }
}

#[test]
fn edge_files_account_for_the_exact_block_counts() {
    let catalog = Catalog::new(edge_sizes());
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 99));
    // blocks_of_file is the contract the accounting must follow: an empty
    // file still has one frame, a tail byte adds a whole block.
    let expected: Vec<u64> = edge_sizes()
        .iter()
        .map(|&s| blocks_of_file(s) as u64)
        .collect();
    assert_eq!(expected, [1, 1, 3, 2, 1]);

    for backend in Backend::all() {
        let cluster = start_cluster(
            backend,
            RtConfig {
                nodes: 3,
                capacity_blocks: 16,
                ..RtConfig::default()
            },
            catalog.clone(),
            store.clone(),
        );
        for (f, want_blocks) in expected.iter().enumerate() {
            let file = FileId(f as u32);
            let before = cluster.stats().accesses();
            let got = cluster.handle(NodeId(0)).read_file(file);
            cluster.quiesce();
            assert_eq!(
                cluster.stats().accesses() - before,
                *want_blocks,
                "{}: file {f} must cost exactly {want_blocks} block accesses",
                backend.name()
            );
            assert_eq!(got.len() as u64, catalog.size_of(file));
        }
        assert_eq!(cluster.stats().store_fallbacks, 0);
        cluster.check_invariants();
        cluster.shutdown();
    }
}
