//! Closed-loop callers and the windowed timed run.
//!
//! Request `i` of the stream goes to node `i mod 4`; caller `k` of `n`
//! serves the indices `i ≡ k (mod n)` and sends its next request only when
//! the previous one has completed. The stopwatch is around the call alone;
//! generating a write image and verifying a result happen outside it.

use crate::cluster::Sut;
use crate::hist::LogHist;
use crate::verify::{image_ok, write_image, Checker};
use crate::workload::{Inputs, NODES};
use ccm_core::{BlockId, FileId};
use ccm_front::FrontClient;
use ccm_rt::{BlockStore, NodeHandle};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What an operation was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A whole-file read.
    Read,
    /// A write-through of a file's first block.
    Write,
}

/// One closed-loop caller: its connection, counters and scratch buffer.
pub struct Caller<'a> {
    inputs: &'a Inputs,
    sut: &'a Sut,
    checker: &'a Checker,
    handles: Vec<NodeHandle>,
    http: Option<FrontClient>,
    id: u64,
    write_seq: u64,
    image: Vec<u8>,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed or returned wrong bytes.
    pub failed: u64,
    /// Blocks the reads asked for.
    pub blocks_read: u64,
    /// Files whose first block this caller wrote.
    pub written: Vec<FileId>,
    /// What the first few failed operations were.
    pub failures: Vec<String>,
}

/// Failed operations a caller describes in words; the rest are only counted.
const FAILURES_DESCRIBED: usize = 5;

impl<'a> Caller<'a> {
    /// Caller `id` of `sut`; on an HTTP workload it opens a keep-alive
    /// connection to front endpoint `id`.
    pub fn connect(inputs: &'a Inputs, sut: &'a Sut, id: usize) -> Caller<'a> {
        let http = sut.front.as_ref().map(|front| {
            FrontClient::connect(front.addrs()[id % NODES]).expect("connect to the front tier")
        });
        Caller {
            inputs,
            sut,
            checker: &sut.checker,
            handles: sut.handles.clone(),
            http,
            id: id as u64,
            write_seq: 0,
            image: Vec::new(),
            attempted: 0,
            failed: 0,
            blocks_read: 0,
            written: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn count(&mut self, ok: bool, what: &str, i: usize, file: FileId) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < FAILURES_DESCRIBED {
                self.failures
                    .push(format!("operation {i}: {what} of file {}", file.0));
            }
        }
    }

    /// Run operation `i` of the stream. Returns what it was, the time spent
    /// inside the call, and when the call returned.
    #[inline]
    pub fn op(&mut self, i: usize) -> (OpKind, u64, Instant) {
        let file = self.inputs.file_at(i);
        if self.inputs.is_write(i) {
            self.write(i, file)
        } else {
            self.read(i, file)
        }
    }

    /// Read `file` as operation `i` and verify the bytes.
    #[inline]
    pub fn read(&mut self, i: usize, file: FileId) -> (OpKind, u64, Instant) {
        self.attempted += 1;
        self.blocks_read += self.inputs.catalog.blocks_of(file) as u64;
        // See `Sut::file_locks`: only a stream with writes needs them.
        let _shared = (self.inputs.spec.write_share > 0.0)
            .then(|| self.sut.file_lock(file).read().expect("file lock poisoned"));
        let (ok, start, end) = match &mut self.http {
            Some(client) => {
                let path = &self.inputs.paths[file.0 as usize];
                let start = Instant::now();
                let response = client.get(path);
                let end = Instant::now();
                let ok =
                    response.is_ok_and(|r| r.status == 200 && self.checker.file_ok(file, &r.body));
                (ok, start, end)
            }
            None => {
                let handle = &self.handles[i % NODES];
                let start = Instant::now();
                let body = handle.read_file(file);
                let end = Instant::now();
                (self.checker.file_ok(file, &body), start, end)
            }
        };
        self.count(ok, "wrong bytes or no answer reading", i, file);
        (OpKind::Read, (end - start).as_nanos() as u64, end)
    }

    /// Write a fresh image over the first block of `file` as operation `i`.
    #[inline]
    pub fn write(&mut self, i: usize, file: FileId) -> (OpKind, u64, Instant) {
        self.attempted += 1;
        let block = BlockId::new(file, 0);
        let len = self.inputs.catalog.block_bytes(block) as usize;
        write_image(&mut self.image, len, self.id, self.write_seq);
        self.write_seq += 1;
        self.written.push(file);
        let exclusive = self
            .sut
            .file_lock(file)
            .write()
            .expect("file lock poisoned");
        let handle = &self.handles[i % NODES];
        let start = Instant::now();
        let result = handle.write_block(block, &self.image);
        let end = Instant::now();
        drop(exclusive);
        self.count(result.is_ok(), "refused write", i, file);
        (OpKind::Write, (end - start).as_nanos() as u64, end)
    }
}

/// What one window of a timed run measured, callers merged.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowStats {
    /// Operations completed in the window.
    pub done: u64,
    /// `done` over the window length.
    pub req_per_s: f64,
    /// Median time of the window's reads.
    pub p50_ns: f64,
    /// 90th percentile of the window's reads.
    pub p90_ns: f64,
    /// 99th percentile of the window's reads.
    pub p99_ns: f64,
    /// Reads timed.
    pub read_samples: u64,
    /// Median time of the window's writes (0 without writes).
    pub write_p50_ns: f64,
    /// Writes timed.
    pub write_samples: u64,
}

/// Totals of a timed run.
#[derive(Default)]
pub struct RunTotals {
    /// One entry per window.
    pub windows: Vec<WindowStats>,
    /// Operations started.
    pub attempted: u64,
    /// Operations failed, wrong, or lost to a panicking caller.
    pub failed: u64,
    /// Blocks the reads asked for.
    pub blocks_read: u64,
    /// Files whose first block was written.
    pub written: Vec<FileId>,
    /// What the first few failed operations of each caller were.
    pub failures: Vec<String>,
    /// First stream index no caller has used.
    pub next_index: usize,
}

struct CallerWindows {
    reads: Vec<LogHist>,
    writes: Vec<LogHist>,
    done: Vec<u64>,
    attempted: u64,
    failed: u64,
    blocks_read: u64,
    written: Vec<FileId>,
    failures: Vec<String>,
    ops: usize,
}

/// Drive `sut` with `callers` closed-loop callers for `windows` back-to-back
/// windows of `window` each, starting at stream index `first`. A completed
/// operation counts in the window its call returned in.
pub fn run_windows(
    inputs: &Inputs,
    sut: &Sut,
    callers: usize,
    windows: usize,
    window: Duration,
    first: usize,
) -> RunTotals {
    let barrier = Barrier::new(callers);
    let window_ns = window.as_nanos();
    // Connected here, not in the threads: a caller that cannot connect must
    // not leave the others waiting at the barrier.
    let connected: Vec<Caller> = (0..callers)
        .map(|k| Caller::connect(inputs, sut, k))
        .collect();
    let results: Vec<Option<CallerWindows>> = std::thread::scope(|scope| {
        let handles: Vec<_> = connected
            .into_iter()
            .enumerate()
            .map(|(k, mut caller)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = CallerWindows {
                        reads: vec![LogHist::new(); windows],
                        writes: vec![LogHist::new(); windows],
                        done: vec![0; windows],
                        attempted: 0,
                        failed: 0,
                        blocks_read: 0,
                        written: Vec::new(),
                        failures: Vec::new(),
                        ops: 0,
                    };
                    barrier.wait();
                    let start = Instant::now();
                    loop {
                        let (kind, ns, end) = caller.op(first + out.ops * callers + k);
                        out.ops += 1;
                        let w = ((end - start).as_nanos() / window_ns) as usize;
                        if w >= windows {
                            break;
                        }
                        out.done[w] += 1;
                        match kind {
                            OpKind::Read => out.reads[w].record(ns),
                            OpKind::Write => out.writes[w].record(ns),
                        }
                    }
                    out.attempted = caller.attempted;
                    out.failed = caller.failed;
                    out.blocks_read = caller.blocks_read;
                    out.written = std::mem::take(&mut caller.written);
                    out.failures = std::mem::take(&mut caller.failures);
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });

    let mut totals = RunTotals {
        windows: vec![WindowStats::default(); windows],
        next_index: first,
        ..RunTotals::default()
    };
    let mut reads = vec![LogHist::new(); windows];
    let mut writes = vec![LogHist::new(); windows];
    for result in results {
        let Some(r) = result else {
            // The caller panicked: whatever it was doing is a failed
            // operation, and the run cannot be correct.
            totals.attempted += 1;
            totals.failed += 1;
            totals.failures.push("a caller panicked".into());
            continue;
        };
        for w in 0..windows {
            reads[w].merge(&r.reads[w]);
            writes[w].merge(&r.writes[w]);
            totals.windows[w].done += r.done[w];
        }
        totals.attempted += r.attempted;
        totals.failed += r.failed;
        totals.blocks_read += r.blocks_read;
        totals.written.extend(r.written);
        totals.failures.extend(r.failures);
        totals.next_index = totals.next_index.max(first + r.ops * callers);
    }
    for (w, stats) in totals.windows.iter_mut().enumerate() {
        stats.req_per_s = stats.done as f64 / window.as_secs_f64();
        stats.p50_ns = reads[w].quantile(0.5);
        stats.p90_ns = reads[w].quantile(0.9);
        stats.p99_ns = reads[w].quantile(0.99);
        stats.read_samples = reads[w].count();
        stats.write_p50_ns = writes[w].quantile(0.5);
        stats.write_samples = writes[w].count();
    }
    totals.written.sort_unstable();
    totals.written.dedup();
    totals
}

/// After a run: every acknowledged write must have reached the store as one
/// complete image, and nothing may be recorded as lost. Returns how many
/// written blocks fail that.
pub fn unpersisted_writes(inputs: &Inputs, sut: &Sut, written: &[FileId]) -> u64 {
    let mw = sut.middleware();
    mw.quiesce();
    mw.flush_dirty();
    let lost = mw.lost_writes().len() as u64;
    let torn = written
        .iter()
        .filter(|&&file| {
            let block = BlockId::new(file, 0);
            let bytes = sut.store.read_block(block);
            bytes.len() as u64 != inputs.catalog.block_bytes(block) || !image_ok(&bytes)
        })
        .count() as u64;
    lost + torn
}
