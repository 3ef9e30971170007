//! The load-run specification: the fields every run shares, plus the two
//! seams — where the next request comes from ([`Arrivals`]) and what
//! serves it ([`Target`]).

use ccm_arrivals::{ArrivalProcess, ChurnProcess, Hotspot, PoissonProcess, ScheduledProcess};
use ccm_core::ReplacementPolicy;
use ccm_front::PolicyKind;
use ccm_rt::{WriteConfig, WriteMode};
use ccm_traces::{scan_heavy, FileId, Preset, ScanConfig, ScanSource, Workload, WriteMix};
use simcore::Rng;
use std::sync::Arc;

/// Which arrival process drives an open-loop run — the spec-level,
/// plain-data echo of the `ccm-arrivals` constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpenLoopProcess {
    /// Homogeneous Poisson at a constant rate — the steady-state cell.
    Poisson {
        /// Offered rate, requests/sec.
        rate_rps: f64,
    },
    /// A rate step onto the workload's *coldest* head file: `base_rps`
    /// until `start_ns`, then `peak_rps` for `duration_ns` with
    /// `crowd_fraction` of the window's arrivals redirected to the target.
    FlashCrowd {
        /// Rate outside the crowd window.
        base_rps: f64,
        /// Rate inside the crowd window.
        peak_rps: f64,
        /// Window start, virtual ns after the measurement origin.
        start_ns: u64,
        /// Window length, virtual ns.
        duration_ns: u64,
        /// Fraction of window arrivals redirected onto the cold target.
        crowd_fraction: f64,
    },
    /// A sampled sinusoid between `trough_rps` and `peak_rps` cycling with
    /// the given period.
    Diurnal {
        /// Rate at the period edges.
        trough_rps: f64,
        /// Rate mid-period.
        peak_rps: f64,
        /// Cycle length, virtual ns.
        period_ns: u64,
        /// Piecewise-constant samples per cycle.
        steps: usize,
    },
    /// Constant rate under popularity churn: the Zipf head rotates by
    /// `shift` files every `rotate_every_ns`.
    Churn {
        /// Offered rate, requests/sec.
        rate_rps: f64,
        /// Virtual time between head rotations.
        rotate_every_ns: u64,
        /// Files the rank→file mapping shifts per rotation.
        shift: usize,
    },
}

impl OpenLoopProcess {
    /// Build the seeded process over `workload`.
    pub fn build(&self, workload: Arc<Workload>, seed: u64) -> Box<dyn ArrivalProcess> {
        match *self {
            OpenLoopProcess::Poisson { rate_rps } => {
                Box::new(PoissonProcess::new(workload, rate_rps, seed))
            }
            OpenLoopProcess::FlashCrowd {
                base_rps,
                peak_rps,
                start_ns,
                duration_ns,
                crowd_fraction,
            } => {
                // The crowd converges on the coldest file of the head —
                // the "suddenly popular cold object" of the CDN story.
                let target = FileId((workload.num_files() - 1) as u32);
                Box::new(ScheduledProcess::flash_crowd(
                    workload,
                    base_rps,
                    peak_rps,
                    Hotspot {
                        target,
                        fraction: crowd_fraction,
                        start_ns,
                        duration_ns,
                    },
                    seed,
                ))
            }
            OpenLoopProcess::Diurnal {
                trough_rps,
                peak_rps,
                period_ns,
                steps,
            } => Box::new(ScheduledProcess::diurnal(
                workload, trough_rps, peak_rps, period_ns, steps, seed,
            )),
            OpenLoopProcess::Churn {
                rate_rps,
                rotate_every_ns,
                shift,
            } => Box::new(ChurnProcess::new(
                workload,
                rate_rps,
                rotate_every_ns,
                shift,
                seed,
            )),
        }
    }

    /// The process's report label.
    pub fn label(&self) -> &'static str {
        match self {
            OpenLoopProcess::Poisson { .. } => "poisson",
            OpenLoopProcess::FlashCrowd { .. } => "flash-crowd",
            OpenLoopProcess::Diurnal { .. } => "diurnal",
            OpenLoopProcess::Churn { .. } => "churn",
        }
    }
}

/// The arrival-source seam: where the next request comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// The paper's methodology (§4): a fixed set of clients per node, each
    /// firing its next request as soon as the previous one completes. The
    /// recorded stream is striped over the clients, request `i` arriving
    /// at node `i % nodes`.
    Closed {
        /// Closed-loop clients per node (in deterministic mode they only
        /// name the digest slots, so both modes digest identically).
        clients_per_node: usize,
        /// Single-threaded in-order replay with the data plane drained
        /// between serves: protocol statistics become a pure function of
        /// the stream (and match [`simulate`](crate::simulate) exactly);
        /// wall-clock figures lose meaning but stay reported.
        deterministic: bool,
    },
    /// Requests injected at the instants a seeded `ccm-arrivals` process
    /// schedules, regardless of completions, through a **bounded
    /// in-flight table**: an arrival that finds it full is *shed* —
    /// counted on `ccm_load_shed_total`, never queued without bound and
    /// never silently dropped. The warm-up prefix of the schedule is
    /// served in order, always admitted.
    Open {
        /// The arrival process.
        process: OpenLoopProcess,
        /// Size of the in-flight table.
        max_inflight: usize,
        /// Worker threads serving admitted requests (real time only).
        workers: usize,
        /// `true`: admission is simulated as an M/D/c/c loss system in
        /// virtual time and the admitted subsequence is replayed in order
        /// against the live cluster — every count, shed decision and
        /// digest is a pure function of the seed, on any transport.
        /// `false`: a dispatcher paces the schedule against the wall
        /// clock and a worker pool serves; latency is measured from the
        /// *scheduled* instant, so queueing delay is in the quantiles.
        virtual_time: bool,
        /// Virtual service time per admitted request: `base + per_block ×
        /// blocks` (the virtual-time service model).
        service_base_ns: u64,
        /// See `service_base_ns`.
        service_per_block_ns: u64,
    },
}

impl Arrivals {
    /// Closed-loop arrivals with the default 8 clients per node.
    pub fn closed(deterministic: bool) -> Arrivals {
        Arrivals::Closed {
            clients_per_node: 8,
            deterministic,
        }
    }
}

/// Which cache architecture serves behind the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// The cooperative caching middleware under [`LoadSpec::policy`].
    Ccm,
    /// The live L2S baseline: whole-file per-node LRU with
    /// de-replication, no cooperative peer fetch. Capacity parity with
    /// CCM: each node gets `capacity_blocks × 8 KB` of cache.
    L2s,
}

impl BackendChoice {
    /// Report label (`ccm` / `l2s`).
    pub fn label(self) -> &'static str {
        match self {
            BackendChoice::Ccm => "ccm",
            BackendChoice::L2s => "l2s",
        }
    }
}

/// The target seam: what serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `NodeHandle::read_file` on the arrival node — the bare middleware.
    /// The only target that accepts the write mix.
    Handle,
    /// `GET /file/<id>` over keep-alive HTTP into `ccm-front`'s endpoint
    /// for the arrival node; which node then serves is the dispatch
    /// policy's business.
    Front {
        /// The front tier's dispatch policy.
        dispatch: PolicyKind,
        /// What serves behind the dispatch seam.
        backend: BackendChoice,
    },
}

/// Everything that determines a load run, gathered so a report can echo
/// it and a rerun can reproduce it.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Which calibrated trace preset to replay.
    pub preset: Preset,
    /// Restrict the preset to its `n` hottest files (see
    /// [`Workload::head`]); `None` replays the full catalog. Live-cluster
    /// tests use a few hundred files so the synthetic store stays cheap
    /// while the Zipf shape (and the policy ordering it drives) survives.
    pub head_files: Option<usize>,
    /// Cluster size (backend nodes and arrival points).
    pub nodes: usize,
    /// Per-node cache capacity in blocks — the memory axis of the paper's
    /// figures.
    pub capacity_blocks: usize,
    /// Replacement policy under test (unused by the L2S backend, which is
    /// whole-file LRU by definition).
    pub policy: ReplacementPolicy,
    /// Requests served to warm the caches before measurement.
    pub warmup_requests: usize,
    /// Requests offered inside the measurement window.
    pub measure_requests: usize,
    /// Seed for the request stream or arrival schedule and the synthetic
    /// store.
    pub seed: u64,
    /// On the handle target, also start the front tier (round-robin over
    /// the CCM backend) beside the handles as a scrape surface and `GET`
    /// one endpoint's `/metrics` mid-run, recording whether the load and
    /// runtime metric families were live
    /// ([`LoadReport::metrics_scrape`]). Rejected with [`Target::Front`]:
    /// there the scrape would be a counted response of the tier under
    /// test.
    ///
    /// [`LoadReport::metrics_scrape`]: crate::LoadReport::metrics_scrape
    pub serve_metrics: bool,
    /// Fraction of operations that rewrite their file's first block
    /// instead of reading (0.0 = read-only replay). Write runs need
    /// deterministic closed-loop arrivals on the handle target, replace
    /// the synthetic store with a writable overlay, and verify every
    /// subsequent read against a shadow copy of the acked payloads.
    pub write_ratio: f64,
    /// Write-coherence configuration forwarded to the runtime (mode and,
    /// for write-back, the dirty budget / flush cadence).
    pub write: WriteConfig,
    /// Ghost-LRU admission capacity (`None` = admission off; `Some(n)`
    /// remembers `n` recently evicted/rejected blocks).
    pub admission_ghosts: Option<usize>,
    /// Append a one-touch scan tail to the preset and replace every
    /// `period`-th request with the next sequential scan file — the
    /// workload admission control is measured against (closed loop only).
    pub scan: Option<ScanConfig>,
    /// Where the next request comes from.
    pub arrivals: Arrivals,
    /// What serves it.
    pub target: Target,
}

impl LoadSpec {
    /// A small default cell for `preset`: 4 nodes, 8 concurrent
    /// closed-loop clients each against the bare handles, a 300-file
    /// head, cache scaled so cooperation matters.
    pub fn new(preset: Preset) -> LoadSpec {
        LoadSpec {
            preset,
            head_files: Some(300),
            nodes: 4,
            capacity_blocks: 64,
            policy: ReplacementPolicy::MasterPreserving,
            warmup_requests: 600,
            measure_requests: 1_200,
            seed: 0x10AD,
            serve_metrics: false,
            write_ratio: 0.0,
            write: WriteConfig::default(),
            admission_ghosts: None,
            scan: None,
            arrivals: Arrivals::closed(false),
            target: Target::Handle,
        }
    }

    /// Check that the spec names a combination the driver implements;
    /// the error names the offending combination. `on_transport` says
    /// whether the run supplies its own cluster transport
    /// ([`run_on`](crate::run_on)).
    pub fn validate(&self, on_transport: bool) -> Result<(), String> {
        let (open, idle) = match self.arrivals {
            Arrivals::Closed {
                clients_per_node, ..
            } => (false, clients_per_node == 0),
            Arrivals::Open {
                max_inflight,
                workers,
                virtual_time,
                ..
            } => (true, max_inflight == 0 || (!virtual_time && workers == 0)),
        };
        let (front, l2s) = (self.target != Target::Handle, self.is_l2s());
        let writes = self.write_ratio > 0.0;
        let checks = [
            (self.nodes == 0, "empty cluster"),
            (self.measure_requests == 0, "empty measurement window"),
            (idle, "arrivals with no clients, in-flight slots or workers"),
            (
                open && front,
                "open-loop arrivals into the front tier are not driven",
            ),
            (
                writes && (open || front || !self.is_deterministic()),
                "the write mix requires deterministic closed-loop arrivals on the handle target",
            ),
            (
                open && self.scan.is_some(),
                "the scan tail requires closed-loop arrivals",
            ),
            // A scrape through the tier under test is itself a counted 2xx
            // response: it would break the window's reconciliation
            // identity `ccm_front_responses_total{2xx} == served`.
            (
                front && self.serve_metrics,
                "the /metrics scrape is not driven through the front tier \
                 (the tier would count it as a 2xx response of the window)",
            ),
            (
                l2s && on_transport,
                "the L2S backend has no cluster transport",
            ),
            (
                l2s && self.admission_ghosts.is_some(),
                "the L2S backend has no replica admission filter",
            ),
        ];
        match checks.iter().find(|(bad, _)| *bad) {
            Some((_, what)) => Err(format!("unsupported load spec: {what}")),
            None => Ok(()),
        }
    }

    /// Whether the run is a pure function of the seed: in-order
    /// closed-loop replay, or open-loop arrivals in virtual time.
    pub fn is_deterministic(&self) -> bool {
        match self.arrivals {
            Arrivals::Closed { deterministic, .. } => deterministic,
            Arrivals::Open { virtual_time, .. } => virtual_time,
        }
    }

    /// The workload this spec replays: head truncation applied, then the
    /// scan tail (if any) appended with zero popularity weight.
    ///
    /// # Panics
    /// Panics if `head_files` is zero or exceeds the preset's catalog.
    pub fn workload(&self) -> Workload {
        let full = self.preset.workload();
        let base = match self.head_files {
            Some(n) => full.head(n),
            None => full,
        };
        match self.scan {
            Some(sc) => scan_heavy(&base, sc),
            None => base,
        }
    }

    /// The recorded closed-loop request stream — a pure function of the
    /// spec, shared by the live driver and the protocol simulator.
    /// Without a scan tail this is exactly `workload().record(..)`; with
    /// one, a [`ScanSource`] replaces every `period`-th request with the
    /// next sequential scan file.
    pub fn record_stream(&self) -> Vec<FileId> {
        let wl = Arc::new(self.workload());
        let total = self.warmup_requests + self.measure_requests;
        let rng = Rng::new(self.seed).substream(1);
        match self.scan {
            None => {
                let mut rng = rng;
                wl.record(total, &mut rng)
            }
            Some(sc) => {
                let body = wl.num_files() - sc.scan_files;
                let mut src = ScanSource::new(wl.requests(rng), body, sc.scan_files, sc.period);
                (0..total)
                    .map(|_| ccm_traces::RequestSource::next_request(&mut src))
                    .collect()
            }
        }
    }

    /// The deterministic write marking for this spec's operation stream,
    /// or `None` for a read-only replay. The mix seed is derived from the
    /// stream seed so one spec field controls both.
    pub fn write_mix(&self) -> Option<WriteMix> {
        (self.write_ratio > 0.0).then(|| WriteMix::new(self.seed ^ 0x5752_4954, self.write_ratio))
    }

    /// Whether the live L2S baseline serves (it runs no middleware).
    pub(crate) fn is_l2s(&self) -> bool {
        let l2s = BackendChoice::L2s;
        matches!(self.target, Target::Front { backend, .. } if backend == l2s)
    }

    /// The cache-policy label a report quotes: the replacement policy's
    /// figure label, or `whole-file-lru` under the L2S backend.
    pub fn policy_label(&self) -> &'static str {
        if self.is_l2s() {
            "whole-file-lru"
        } else {
            self.policy.label()
        }
    }

    /// Coherence mode label (`through` / `back`).
    pub fn write_mode_label(&self) -> &'static str {
        match self.write.mode {
            WriteMode::Through => "through",
            WriteMode::Back => "back",
        }
    }
}
