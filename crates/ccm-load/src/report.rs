//! The run report: one JSON cell per run, whatever the seams.

use crate::spec::{Arrivals, LoadSpec, Target};
use ccm_core::{AdmissionStats, CacheStats};
use ccm_obs::LatencySummary;
use ccm_rt::WriteStats;

/// Everything one load run produced. Rendered from one ordered field
/// list, split in two:
///
/// * the **deterministic section** ([`LoadReport::deterministic_json`]):
///   the spec echo plus every seed-determined observation — request/block/
///   byte counts, shed decisions, payload digest, cache counters over the
///   measurement window, reconciliation verdict. For a deterministic spec
///   ([`LoadSpec::is_deterministic`]) it is bit-identical across reruns,
///   and across cluster transports up to the `backend` label.
/// * the **timing section** (transport label, wall-clock throughput and
///   latency quantiles), appended by [`LoadReport::to_json`] — real time,
///   different every run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The spec the run executed.
    pub spec: LoadSpec,
    /// Cluster transport label (`channel` / `tcp`); `-` under the L2S
    /// backend, which has none.
    pub transport: String,
    /// Workload name, head truncation included (e.g. `calgary-head300`).
    pub preset: String,

    /// Arrivals offered in the window (= `spec.measure_requests`).
    pub offered_events: u64,
    /// Open loop: the rate schedule's integral over the window — the
    /// rate-conservation oracle the offered count is checked against.
    pub expected_events: f64,
    /// Open loop: virtual seconds the window's schedule spans.
    pub virtual_window_s: f64,
    /// Requests completed in the window, every read byte-verified.
    pub served: u64,
    /// Open loop: arrivals refused at the in-flight bound (counted, never
    /// silent).
    pub shed: u64,
    /// Open loop: highest in-flight occupancy observed.
    pub peak_inflight: i64,
    /// Blocks the window's reads covered (driver count).
    pub blocks: u64,
    /// Payload bytes delivered in the window.
    pub bytes: u64,
    /// Order-insensitive FNV-1a digest of the window's payload (closed
    /// loop: XOR over the per-client chained digests; open loop: XOR over
    /// per-request sequence-salted digests).
    pub digest: u64,

    /// Protocol counters, delta over the window (all zero under L2S).
    pub measured: CacheStats,
    /// Block-weighted cache hits over the window (backend accounting).
    pub hits: u64,
    /// Block-weighted cache accesses over the window.
    pub accesses: u64,
    /// Front target: requests dispatched off their arrival endpoint.
    pub handoffs: u64,
    /// Writes the driver issued inside the window.
    pub writes: u64,
    /// The runtime's write-path counters by run end: `flushes` is 0 under
    /// write-through (which persists inline), `lost` must be 0 on the
    /// graceful path.
    pub write_stats: WriteStats,
    /// Replica-admission filter decisions by run end.
    pub admission: AdmissionStats,
    /// Every cross-check held: offered = served + shed; driver counts vs.
    /// protocol counters vs. the runtime's `ccm_rt_reads_total` registry
    /// deltas; the `ccm_load_*` family; for the front target the
    /// `ccm_front_*` dispatch/response counters and the backend's hit
    /// accounting; for write runs `ccm_rt_writes_total` and the
    /// durability epilogue (dirty set drained, nothing lost, every acked
    /// payload on the store).
    pub reconciled: bool,

    /// `Some(ok)` when the run served HTTP and scraped `/metrics` mid-run
    /// (`ok` = the load and runtime families were present).
    pub metrics_scrape: Option<bool>,
    /// Measurement-window wall time, seconds.
    pub elapsed_s: f64,
    /// Per-request latency over the window as the driver sees it (open
    /// loop in real time: from the *scheduled* instant, queue wait
    /// included).
    pub latency: LatencySummary,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

fn or_null<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

impl LoadReport {
    /// The report's `backend` label: the cluster transport for the handle
    /// target, the cache architecture (`ccm` / `l2s`) behind the front.
    pub fn backend(&self) -> &str {
        match self.spec.target {
            Target::Handle => &self.transport,
            Target::Front { backend, .. } => backend.label(),
        }
    }

    /// Block-weighted cluster-memory hit ratio (local + remote) over the
    /// window.
    pub fn total_hit_ratio(&self) -> f64 {
        ratio(self.hits, self.accesses)
    }

    /// Fraction of offered arrivals shed at the in-flight bound.
    pub fn shed_ratio(&self) -> f64 {
        ratio(self.shed, self.offered_events)
    }

    /// Served requests per wall second over the window.
    pub fn rps(&self) -> f64 {
        self.served as f64 / self.elapsed_s
    }

    /// Verified payload megabytes per wall second — the goodput figure.
    pub fn mb_per_s(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0) / self.elapsed_s
    }

    /// Offered load over the window in virtual time (open loop).
    pub fn offered_rps(&self) -> f64 {
        self.offered_events as f64 / self.virtual_window_s
    }

    /// The seed-determined fields, in report order, values already
    /// rendered as JSON.
    fn deterministic_fields(&self) -> Vec<(&'static str, String)> {
        let (s, m) = (&self.spec, &self.measured);
        let mut f = vec![
            ("backend", quoted(self.backend())),
            ("preset", quoted(&self.preset)),
        ];
        match s.target {
            Target::Handle => f.push(("policy", quoted(s.policy_label()))),
            Target::Front { dispatch, .. } => f.extend([
                ("dispatch", quoted(dispatch.name())),
                ("cache_policy", quoted(s.policy_label())),
            ]),
        }
        f.extend([
            ("nodes", s.nodes.to_string()),
            ("capacity_blocks", s.capacity_blocks.to_string()),
            ("seed", s.seed.to_string()),
        ]);
        match s.arrivals {
            Arrivals::Closed {
                clients_per_node,
                deterministic,
            } => f.extend([
                ("clients_per_node", clients_per_node.to_string()),
                ("warmup_requests", s.warmup_requests.to_string()),
                ("measure_requests", s.measure_requests.to_string()),
                ("deterministic", deterministic.to_string()),
                ("requests", self.served.to_string()),
            ]),
            Arrivals::Open {
                process,
                max_inflight,
                virtual_time,
                ..
            } => f.extend([
                ("process", quoted(process.label())),
                ("virtual_time", virtual_time.to_string()),
                ("max_inflight", max_inflight.to_string()),
                ("warmup_events", s.warmup_requests.to_string()),
                ("measure_events", s.measure_requests.to_string()),
                ("offered_events", self.offered_events.to_string()),
                ("expected_events", format!("{:.1}", self.expected_events)),
                ("served", self.served.to_string()),
                ("shed", self.shed.to_string()),
                ("shed_ratio", format!("{:.6}", self.shed_ratio())),
                ("offered_rps", format!("{:.1}", self.offered_rps())),
                (
                    "achieved_rps_virtual",
                    format!("{:.1}", self.served as f64 / self.virtual_window_s),
                ),
            ]),
        }
        f.extend([
            ("blocks", self.blocks.to_string()),
            ("bytes", self.bytes.to_string()),
            ("digest", quoted(&format!("{:#018x}", self.digest))),
        ]);
        match s.target {
            Target::Handle => f.extend([
                ("local_hits", m.local_hits.to_string()),
                ("remote_hits", m.remote_hits.to_string()),
                ("disk_reads", m.disk_reads.to_string()),
                ("store_fallbacks", m.store_fallbacks.to_string()),
                ("forwards", m.forwards.to_string()),
                ("local_hit_ratio", format!("{:.6}", m.local_hit_rate())),
                ("total_hit_ratio", format!("{:.6}", self.total_hit_ratio())),
                ("write_ratio", format!("{:.3}", s.write_ratio)),
                ("write_mode", quoted(s.write_mode_label())),
                ("writes", self.writes.to_string()),
                ("flushes", self.write_stats.flushes.to_string()),
                ("lost_writes", self.write_stats.lost.to_string()),
                ("admission_ghosts", or_null(s.admission_ghosts)),
                ("admission_admitted", self.admission.admitted.to_string()),
                ("admission_rejected", self.admission.rejected.to_string()),
                (
                    "admission_ghost_hits",
                    self.admission.ghost_hits.to_string(),
                ),
            ]),
            Target::Front { .. } => f.extend([
                ("hits", self.hits.to_string()),
                ("accesses", self.accesses.to_string()),
                ("hit_ratio", format!("{:.6}", self.total_hit_ratio())),
                ("handoffs", self.handoffs.to_string()),
            ]),
        }
        f.push(("reconciled", self.reconciled.to_string()));
        f
    }

    fn render(fields: &[(&'static str, String)]) -> String {
        let body: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        format!("{{ {} }}", body.join(", "))
    }

    /// The seed-determined projection of the report: no wall-clock field,
    /// and the transport label only where it is the `backend`.
    pub fn deterministic_json(&self) -> String {
        Self::render(&self.deterministic_fields())
    }

    /// The full cell: deterministic section plus transport, throughput
    /// and latency.
    pub fn to_json(&self) -> String {
        let mut f = self.deterministic_fields();
        f.extend([
            ("transport", quoted(&self.transport)),
            ("peak_inflight", self.peak_inflight.to_string()),
            ("metrics_scrape", or_null(self.metrics_scrape)),
            ("elapsed_s", format!("{:.3}", self.elapsed_s)),
            ("rps", format!("{:.1}", self.rps())),
            ("mb_per_s", format!("{:.2}", self.mb_per_s())),
            ("latency_ns", self.latency.to_json()),
        ]);
        Self::render(&f)
    }

    /// One human line for progress output.
    pub fn summary(&self) -> String {
        let s = &self.spec;
        let arrivals = match s.arrivals {
            Arrivals::Closed { .. } => "closed-loop",
            Arrivals::Open { process, .. } => process.label(),
        };
        let target = match s.target {
            Target::Handle => "handle",
            Target::Front { dispatch, .. } => dispatch.name(),
        };
        format!(
            "{:<8} {:<18} {:<17} {:<11} > {:<15} cap {:>4}: {:>7.1} req/s, {:>6.2} MB/s, \
             p50 {:>8} ns, p99 {:>8} ns, hit {:>5.1}% ({:.1}% local), shed {}/{}, \
             handoffs {}, fallbacks {}",
            self.backend(),
            self.preset,
            s.policy_label(),
            arrivals,
            target,
            s.capacity_blocks,
            self.rps(),
            self.mb_per_s(),
            self.latency.p50_ns,
            self.latency.p99_ns,
            100.0 * self.total_hit_ratio(),
            100.0 * self.measured.local_hit_rate(),
            self.shed,
            self.offered_events,
            self.handoffs,
            self.measured.store_fallbacks,
        )
    }
}
