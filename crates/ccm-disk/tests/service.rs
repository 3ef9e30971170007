//! Behavioral tests for the asynchronous disk service: coalescing (the
//! acceptance-criteria assertion that concurrent same-block misses issue
//! exactly one physical read), readahead, backpressure, fault
//! determinism, write invalidation, and scheduling over a real FileStore.

use ccm_core::block::BLOCK_SIZE;
use ccm_core::{BlockId, FileId};
use ccm_disk::{
    BlockStore, Catalog, DiskConfig, DiskError, DiskFaults, DiskService, FileStore, MemStore,
    SyntheticStore,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A store whose reads block until the test opens the gate — the only
/// race-free way to hold a physical read in flight while concurrent
/// requests pile onto it.
struct GatedStore {
    inner: SyntheticStore,
    open: Mutex<bool>,
    cv: Condvar,
    reads_started: AtomicU64,
}

impl GatedStore {
    fn new(catalog: Catalog, seed: u64) -> GatedStore {
        GatedStore {
            inner: SyntheticStore::new(catalog, seed),
            open: Mutex::new(false),
            cv: Condvar::new(),
            reads_started: AtomicU64::new(0),
        }
    }

    fn open_gate(&self) {
        *self.open.lock().expect("gate") = true;
        self.cv.notify_all();
    }

    fn reads_started(&self) -> u64 {
        self.reads_started.load(Ordering::SeqCst)
    }
}

impl BlockStore for GatedStore {
    fn read_block(&self, block: BlockId) -> Vec<u8> {
        self.reads_started.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate");
        while !*open {
            open = self.cv.wait(open).expect("gate");
        }
        drop(open);
        self.inner.read_block(block)
    }
}

fn catalog() -> Catalog {
    Catalog::new(vec![BLOCK_SIZE * 16, BLOCK_SIZE * 16, BLOCK_SIZE * 2 + 17])
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// THE coalescing assertion: eight concurrent misses on one block issue a
/// single physical read, everyone gets the same bytes, and the other
/// seven are accounted as coalesce hits.
#[test]
fn concurrent_same_block_misses_issue_one_physical_read() {
    let catalog = catalog();
    let store = Arc::new(GatedStore::new(catalog.clone(), 0xC0A1));
    let svc = Arc::new(DiskService::start(
        store.clone(),
        catalog.clone(),
        DiskConfig {
            readahead: 0,
            ..DiskConfig::default()
        },
    ));
    let block = BlockId::new(FileId(0), 5);
    let readers: Vec<_> = (0..8)
        .map(|_| {
            let svc = svc.clone();
            std::thread::spawn(move || svc.read(block).expect("read through the gate"))
        })
        .collect();
    // All eight are in: one physical read started, seven attached to it.
    wait_until("one read in flight", || store.reads_started() == 1);
    wait_until("seven coalesce hits", || svc.stats().coalesce_hits == 7);
    store.open_gate();
    let want = SyntheticStore::new(catalog, 0xC0A1).read_block(block);
    for r in readers {
        assert_eq!(*r.join().expect("reader"), want, "shared bytes exact");
    }
    let stats = svc.stats();
    assert_eq!(
        stats.physical_demand_reads, 1,
        "exactly one physical read for eight concurrent misses"
    );
    assert_eq!(stats.coalesce_hits, 7);
    assert_eq!(stats.requests, 8);
}

/// A sequential scan triggers readahead, and the prefetched bytes are
/// exact.
#[test]
fn sequential_scan_hits_readahead() {
    let catalog = catalog();
    let synth = SyntheticStore::new(catalog.clone(), 0x5E0u64);
    let svc = DiskService::start(
        Arc::new(synth.clone()),
        catalog.clone(),
        DiskConfig::default(),
    );
    let file = FileId(1);
    for i in 0..catalog.blocks_of(file) {
        let b = BlockId::new(file, i);
        assert_eq!(*svc.read(b).expect("read"), synth.read_block(b));
        // Give readahead a moment to land so later reads hit the cache.
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = svc.stats();
    assert!(stats.readahead_issued > 0, "stream was never detected");
    assert!(
        stats.readahead_hits > 0,
        "no read was served from the readahead cache: {stats:?}"
    );
    assert!(
        stats.physical_reads() <= catalog.blocks_of(file) as u64 + stats.readahead_issued,
        "readahead must not multiply physical reads: {stats:?}"
    );
}

/// The demand queue cap is real backpressure: submitter number cap+2
/// blocks until a slot frees, then completes.
#[test]
fn full_demand_queue_blocks_submitters() {
    let catalog = catalog();
    let store = Arc::new(GatedStore::new(catalog.clone(), 0xB9));
    let svc = Arc::new(DiskService::start(
        store.clone(),
        catalog,
        DiskConfig {
            queue_cap: 2,
            readahead: 0,
        },
    ));
    // First request: popped by the worker, held at the gate.
    let first = svc.read_async(BlockId::new(FileId(0), 0));
    wait_until("worker at the gate", || store.reads_started() == 1);
    // Two more fill the demand queue to its cap.
    let second = svc.read_async(BlockId::new(FileId(0), 1));
    let third = svc.read_async(BlockId::new(FileId(0), 2));
    // The fourth submitter must block in read_async.
    let (done_tx, done_rx) = simcore::chan::unbounded();
    let blocked = {
        let svc = svc.clone();
        std::thread::spawn(move || {
            let r = svc.read(BlockId::new(FileId(0), 3));
            let _ = done_tx.send(());
            r
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        done_rx.try_recv().is_err(),
        "fourth submitter went through a full queue"
    );
    store.open_gate();
    for rx in [first, second, third] {
        rx.recv().expect("delivery").expect("read");
    }
    blocked
        .join()
        .expect("blocked submitter")
        .expect("read after backpressure released");
    assert_eq!(svc.stats().max_queue_depth, 2);
}

/// Fault decisions are a pure function of (seed, block): two services
/// with the same plan fail and serve exactly the same blocks, and a
/// different seed picks a different failure set.
#[test]
fn fault_injection_is_deterministic_per_seed() {
    let catalog = catalog();
    let faults = DiskFaults {
        error_prob: 0.3,
        ..DiskFaults::NONE
    };
    let pattern = |seed: u64| -> Vec<bool> {
        let svc = DiskService::start_observed(
            Arc::new(SyntheticStore::new(catalog.clone(), 1)),
            catalog.clone(),
            DiskConfig {
                readahead: 0,
                ..DiskConfig::default()
            },
            Some((seed, faults)),
            None,
            "0",
        );
        let mut out = Vec::new();
        for f in 0..catalog.num_files() {
            let file = FileId(f as u32);
            for i in 0..catalog.blocks_of(file) {
                out.push(svc.read(BlockId::new(file, i)).is_err());
            }
        }
        out
    };
    let a = pattern(7);
    assert_eq!(a, pattern(7), "same seed, same failures");
    assert!(a.iter().any(|&e| e), "error_prob 0.3 must hit something");
    assert!(!a.iter().all(|&e| e), "and must not hit everything");
    assert_ne!(a, pattern(8), "different seed, different failure set");
}

#[test]
fn injected_errors_surface_as_io_and_slow_blocks_delay() {
    let catalog = catalog();
    let all_bad = DiskService::start_observed(
        Arc::new(SyntheticStore::new(catalog.clone(), 1)),
        catalog.clone(),
        DiskConfig {
            readahead: 0,
            ..DiskConfig::default()
        },
        Some((
            3,
            DiskFaults {
                error_prob: 1.0,
                ..DiskFaults::NONE
            },
        )),
        None,
        "0",
    );
    let b = BlockId::new(FileId(0), 0);
    assert_eq!(all_bad.read(b), Err(DiskError::Io));
    assert_eq!(all_bad.stats().io_errors, 1);

    let all_slow = DiskService::start_observed(
        Arc::new(SyntheticStore::new(catalog.clone(), 1)),
        catalog,
        DiskConfig {
            readahead: 0,
            ..DiskConfig::default()
        },
        Some((
            3,
            DiskFaults {
                slow_prob: 1.0,
                slow: Duration::from_millis(25),
                ..DiskFaults::NONE
            },
        )),
        None,
        "0",
    );
    let t = Instant::now();
    all_slow.read(b).expect("slow but correct");
    assert!(t.elapsed() >= Duration::from_millis(25));
    assert_eq!(all_slow.stats().slow_faults, 1);
}

/// The MemStore write-behind interaction: a write to the store plus
/// `invalidate` guarantees the next service read returns the new bytes,
/// even when readahead prefetched the block before the write.
#[test]
fn write_then_invalidate_defeats_stale_readahead() {
    let catalog = catalog();
    let store = Arc::new(MemStore::new(catalog.clone(), 0xDB));
    let svc = DiskService::start(store.clone(), catalog.clone(), DiskConfig::default());
    let file = FileId(0);
    // Walk the start of the file so readahead has prefetched block 3.
    for i in 0..3 {
        svc.read(BlockId::new(file, i)).expect("scan");
    }
    wait_until("readahead issued", || svc.stats().readahead_issued > 0);
    std::thread::sleep(Duration::from_millis(5));
    // Write-through: mutate the store, then invalidate the service.
    let target = BlockId::new(file, 3);
    let fresh = vec![0x5A; BLOCK_SIZE as usize];
    assert!(store.write_block(target, &fresh));
    assert_eq!(store.dirty_blocks(), 1);
    svc.invalidate(target);
    assert_eq!(
        *svc.read(target).expect("post-write read"),
        fresh,
        "stale readahead bytes served after a write"
    );
}

#[test]
fn shutdown_fails_pending_and_later_reads() {
    let catalog = catalog();
    let store = Arc::new(GatedStore::new(catalog.clone(), 0xDEAD));
    let svc = DiskService::start(
        store.clone(),
        catalog,
        DiskConfig {
            readahead: 0,
            ..DiskConfig::default()
        },
    );
    let queued = svc.read_async(BlockId::new(FileId(0), 0));
    wait_until("worker at the gate", || store.reads_started() == 1);
    let waiting = svc.read_async(BlockId::new(FileId(0), 1));
    store.open_gate();
    svc.shutdown();
    // The in-flight read may have won the race; the queued one must not
    // hang either way.
    let _ = queued.recv().expect("delivery");
    let _ = waiting.recv().expect("delivery");
    assert_eq!(
        svc.read(BlockId::new(FileId(0), 2)),
        Err(DiskError::Shutdown)
    );
}

/// End to end over a real file: a batched service on a FileStore serves
/// exact bytes and pays fewer seeks than FIFO would on interleaved
/// streams.
#[test]
fn batched_service_over_file_store_serves_exact_bytes() {
    let catalog = catalog();
    let synth = SyntheticStore::new(catalog.clone(), 0xF5);
    let dir = std::env::temp_dir().join(format!("ccm-disk-svc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = FileStore::create(&dir, &catalog, &synth).expect("create store");
    let svc = Arc::new(DiskService::start(
        Arc::new(fs),
        catalog.clone(),
        DiskConfig {
            readahead: 0,
            ..DiskConfig::default()
        },
    ));
    // Two interleaved sequential streams over different files.
    let streams: Vec<_> = [FileId(0), FileId(1)]
        .into_iter()
        .map(|file| {
            let svc = svc.clone();
            let catalog = catalog.clone();
            let synth = synth.clone();
            std::thread::spawn(move || {
                for i in 0..catalog.blocks_of(file) {
                    let b = BlockId::new(file, i);
                    assert_eq!(*svc.read(b).expect("read"), synth.read_block(b));
                }
            })
        })
        .collect();
    for s in streams {
        s.join().expect("stream");
    }
    assert_eq!(svc.stats().physical_demand_reads, 32);
    drop(svc);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Synchronous writes persist through the service, invalidate cached read
/// state fetched before the write, and are refused by read-only stores.
#[test]
fn write_block_persists_and_fences_readahead() {
    let catalog = catalog();
    let store = Arc::new(MemStore::new(catalog.clone(), 0xBEEF));
    let svc = DiskService::start(
        store.clone(),
        catalog.clone(),
        DiskConfig {
            readahead: 4,
            ..DiskConfig::default()
        },
    );
    let file = FileId(0);
    // Walk a sequential stream so the readahead cache fills up.
    for i in 0..4 {
        svc.read(BlockId::new(file, i)).expect("read");
    }
    wait_until("readahead issued", || svc.stats().readahead_issued > 0);
    wait_until("readahead completed", || {
        svc.stats().physical_readahead_reads >= svc.stats().readahead_issued
    });
    // Overwrite a block that may be parked in the readahead cache.
    let target = BlockId::new(file, 5);
    let fresh = vec![0xAB; BLOCK_SIZE as usize];
    assert!(svc.write_block(target, &fresh));
    assert_eq!(svc.stats().writes, 1);
    // The next read must observe the write, not pre-write readahead bytes.
    assert_eq!(*svc.read(target).expect("read after write"), fresh);
    assert_eq!(store.read_block(target), fresh);
}

#[test]
fn write_block_to_read_only_store_is_refused() {
    let catalog = catalog();
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 7));
    let svc = DiskService::start(store, catalog, DiskConfig::default());
    assert!(!svc.write_block(BlockId::new(FileId(0), 0), &[1, 2, 3]));
    assert_eq!(svc.stats().writes, 0);
}
