//! Behavioral tests for the asynchronous disk service: coalescing (the
//! acceptance-criteria assertion that concurrent same-block misses issue
//! exactly one physical read), runs (one scheduled request per run of
//! blocks), backpressure, fault determinism, the write fence, and
//! scheduling over a real FileStore.

use ccm_cluster::{DiskScheduler, SchedQueue};
use ccm_core::block::BLOCK_SIZE;
use ccm_core::{BlockId, FileId};
use ccm_disk::{
    BlockStore, Catalog, DiskConfig, DiskError, DiskFaults, DiskLayout, DiskService, FileStore,
    MemStore, SyntheticStore,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A store whose reads take their bytes and then block until the test
/// opens the gate — the only race-free way to hold a physical read in
/// flight while concurrent requests (or a write) pile onto it.
struct GatedStore<S = SyntheticStore> {
    inner: S,
    open: Mutex<bool>,
    cv: Condvar,
    reads_started: AtomicU64,
}

impl GatedStore {
    fn new(catalog: Catalog, seed: u64) -> GatedStore {
        GatedStore::over(SyntheticStore::new(catalog, seed))
    }
}

impl<S: BlockStore> GatedStore<S> {
    fn over(inner: S) -> GatedStore<S> {
        GatedStore {
            inner,
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

impl<S: BlockStore> BlockStore for GatedStore<S> {
    fn read_block(&self, block: BlockId) -> Vec<u8> {
        let bytes = self.inner.read_block(block);
        self.reads_started.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate");
        while !*open {
            open = self.cv.wait(open).expect("gate");
        }
        bytes
    }

    fn write_block(&self, block: BlockId, data: &[u8]) -> bool {
        self.inner.write_block(block, data)
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
        DiskConfig::default(),
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

/// The demand queue cap is real backpressure: submitter number cap+2
/// blocks until a slot frees, then completes.
#[test]
fn full_demand_queue_blocks_submitters() {
    let catalog = catalog();
    let store = Arc::new(GatedStore::new(catalog.clone(), 0xB9));
    let svc = Arc::new(DiskService::start(
        store.clone(),
        catalog,
        DiskConfig { queue_cap: 2 },
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
            DiskConfig::default(),
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
        DiskConfig::default(),
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
        DiskConfig::default(),
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

#[test]
fn shutdown_fails_pending_and_later_reads() {
    let catalog = catalog();
    let store = Arc::new(GatedStore::new(catalog.clone(), 0xDEAD));
    let svc = DiskService::start(store.clone(), catalog, DiskConfig::default());
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
        DiskConfig::default(),
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

#[test]
fn write_block_to_read_only_store_is_refused() {
    let catalog = catalog();
    let store = Arc::new(SyntheticStore::new(catalog.clone(), 7));
    let svc = DiskService::start(store, catalog, DiskConfig::default());
    assert!(!svc.write_block(BlockId::new(FileId(0), 0), &[1, 2, 3]));
    assert_eq!(svc.stats().writes, 0);
}

/// A k-block run is one scheduled request: one pop, charged the seeks the
/// scheduler charges a request of `k × BLOCK_SIZE` bytes over the extents
/// it touches (as the simulator charges a run's disk submit), and a run
/// that continues the head pays only for the extents it enters.
#[test]
fn a_run_is_one_scheduler_pop_charged_as_a_span() {
    let catalog = catalog();
    let svc = DiskService::start(
        Arc::new(SyntheticStore::new(catalog.clone(), 0x5BA)),
        catalog.clone(),
        DiskConfig::default(),
    );
    let layout = DiskLayout::new(&catalog);
    let mut reference = SchedQueue::new(DiskScheduler::Batched);
    let mut want_seeks = 0;
    // Blocks 4..14 touch extents 0 and 1; blocks 14..16 continue the head
    // inside extent 1.
    for (first, span, extents) in [(4, 10, 2), (14, 2, 1)] {
        let first = BlockId::new(FileId(0), first);
        for rx in svc.read_run(first, span) {
            rx.recv().expect("delivery").expect("read");
        }
        reference.push(layout.addr_of(first), span as u64 * BLOCK_SIZE, extents, ());
        want_seeks += reference.pop().expect("one pop per run").seeks as u64;
    }
    assert_eq!(want_seeks, 3, "1 positioning + 2 metadata, then none");
    let stats = svc.stats();
    assert_eq!(stats.requests, 2, "a run counts once: {stats:?}");
    assert_eq!(stats.max_queue_depth, 1, "one queue entry per run");
    assert_eq!(stats.physical_demand_reads, 12);
    assert_eq!(stats.physical_reads(), 12);
    assert_eq!(stats.seeks, want_seeks);
    assert_eq!(stats.readahead_hits, 0);
}

/// Every block of a run comes back with exact bytes, in block order,
/// partial tail blocks included.
#[test]
fn every_block_of_a_run_comes_back_exact() {
    let catalog = catalog();
    let synth = SyntheticStore::new(catalog.clone(), 0xE4AC);
    let svc = DiskService::start(
        Arc::new(synth.clone()),
        catalog.clone(),
        DiskConfig::default(),
    );
    let mut blocks = 0;
    for f in 0..catalog.num_files() {
        let file = FileId(f as u32);
        let n = catalog.blocks_of(file);
        for (i, rx) in (0..n).zip(svc.read_run(BlockId::new(file, 0), n)) {
            let b = BlockId::new(file, i);
            assert_eq!(
                *rx.recv().expect("delivery").expect("read"),
                synth.read_block(b)
            );
        }
        blocks += n as u64;
    }
    let stats = svc.stats();
    assert_eq!(stats.requests, catalog.num_files() as u64);
    assert_eq!(
        stats.physical_demand_reads, blocks,
        "exactly the blocks asked for"
    );
}

/// Fault rolls stay per block: under an error plan, a run fails exactly
/// the blocks that fail when read one by one, and serves the rest.
#[test]
fn a_bad_block_inside_a_run_fails_alone() {
    let catalog = catalog();
    let synth = SyntheticStore::new(catalog.clone(), 1);
    let faults = DiskFaults {
        error_prob: 0.3,
        ..DiskFaults::NONE
    };
    let start = || {
        DiskService::start_observed(
            Arc::new(synth.clone()),
            catalog.clone(),
            DiskConfig::default(),
            Some((7, faults)),
            None,
            "0",
        )
    };
    let file = FileId(0);
    let n = catalog.blocks_of(file);
    let one_by_one = start();
    let bad: Vec<bool> = (0..n)
        .map(|i| one_by_one.read(BlockId::new(file, i)).is_err())
        .collect();
    assert!(bad.iter().any(|&e| e) && !bad.iter().all(|&e| e), "{bad:?}");
    let as_run = start();
    for (i, rx) in (0..n).zip(as_run.read_run(BlockId::new(file, 0), n)) {
        let b = BlockId::new(file, i);
        match rx.recv().expect("delivery") {
            Err(e) => {
                assert!(bad[i as usize], "block {i} failed in the run only");
                assert_eq!(e, DiskError::Io);
            }
            Ok(bytes) => {
                assert!(!bad[i as usize], "block {i} failed alone only");
                assert_eq!(*bytes, synth.read_block(b));
            }
        }
    }
    let errors = bad.iter().filter(|&&e| e).count() as u64;
    assert_eq!(as_run.stats().io_errors, errors);
    assert_eq!(as_run.stats().physical_demand_reads, n as u64 - errors);
}

/// A read of a block that a queued or in-flight run covers attaches to
/// that run: one physical read per block, the bytes shared.
#[test]
fn a_read_inside_a_pending_run_coalesces_onto_it() {
    let catalog = catalog();
    let store = Arc::new(GatedStore::new(catalog.clone(), 0xC0A2));
    let svc = DiskService::start(store.clone(), catalog.clone(), DiskConfig::default());
    // In flight: the worker holds block 0 of this run at the gate.
    let in_flight = svc.read_run(BlockId::new(FileId(0), 0), 8);
    wait_until("worker at the gate", || store.reads_started() == 1);
    // Queued behind it.
    let queued = svc.read_run(BlockId::new(FileId(1), 0), 4);
    // Two reads onto the in-flight run (the block being read, and one
    // ahead of it), one onto the queued run.
    let attached = [(FileId(0), 0), (FileId(0), 5), (FileId(1), 2)].map(|(file, i)| {
        let b = BlockId::new(file, i);
        (b, svc.read_async(b))
    });
    // Assert only once the gate is open: a failing assertion with the
    // worker held at the gate would hang the service's shutdown.
    let coalesced = svc.stats().coalesce_hits;
    store.open_gate();
    assert_eq!(coalesced, 3);
    let synth = SyntheticStore::new(catalog, 0xC0A2);
    for (file, run) in [(FileId(0), in_flight), (FileId(1), queued)] {
        for (i, rx) in run.into_iter().enumerate() {
            let b = BlockId::new(file, i as u32);
            assert_eq!(
                *rx.recv().expect("delivery").expect("read"),
                synth.read_block(b)
            );
        }
    }
    for (b, rx) in attached {
        assert_eq!(
            *rx.recv().expect("delivery").expect("read"),
            synth.read_block(b)
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.physical_demand_reads, 12, "no block read twice");
    assert_eq!(stats.requests, 5);
}

/// The write fence: after `write_block`, or a store write plus
/// `invalidate`, a new read of the block never attaches to a read that
/// began before the write, and it returns the new bytes.
#[test]
fn writes_fence_new_reads_off_pre_write_reads() {
    let catalog = catalog();
    for via_invalidate in [false, true] {
        let store = Arc::new(GatedStore::over(MemStore::new(catalog.clone(), 0xF3)));
        let svc = DiskService::start(store.clone(), catalog.clone(), DiskConfig::default());
        let block = BlockId::new(FileId(0), 3);
        let old = store.inner.read_block(block);
        let before = svc.read_async(block);
        wait_until("pre-write read in flight", || store.reads_started() == 1);
        let fresh = vec![0x5A; BLOCK_SIZE as usize];
        if via_invalidate {
            assert!(store.write_block(block, &fresh));
            svc.invalidate(block);
        } else {
            assert!(svc.write_block(block, &fresh));
            assert_eq!(svc.stats().writes, 1);
        }
        let after = svc.read_async(block);
        let coalesced = svc.stats().coalesce_hits;
        store.open_gate();
        assert_eq!(coalesced, 0, "attached to a pre-write read");
        assert_eq!(*before.recv().expect("delivery").expect("read"), old);
        assert_eq!(*after.recv().expect("delivery").expect("read"), fresh);
        assert_eq!(store.inner.read_block(block), fresh);
        assert_eq!(svc.stats().physical_demand_reads, 2);
    }
}
