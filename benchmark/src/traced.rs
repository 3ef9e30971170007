//! The traced run, kept apart from the timed run (which records nothing):
//! a fresh cluster, the same warm-up, one caller and a fixed number of
//! requests, so that the class counts repeat exactly for a seed.
//!
//! The benchmark records a `request` span per operation and child spans
//! around each call it makes on the live cluster; a shadow `ClusterCache`
//! fed the same accesses classes every block read. The layer replay then
//! pushes the same inputs through each layer standalone. It reports the
//! per-layer metrics.

use crate::cluster::{shadow_cache, Sut, CLASSES};
use crate::driver::{run_windows, unpersisted_writes};
use crate::hist::median;
use crate::layers::{self, Replay};
use crate::machine::noise_probe_seconds;
use crate::report::{Metrics, Outcome};
use crate::spans::{Spans, ROOT};
use crate::verify::write_image;
use crate::workload::{Inputs, Spec, Surface, TransportKind, CALLERS, NODES, WARMUP_REQUESTS};
use ccm_core::{AccessOutcome, BlockId, ClusterCache, FileId, NodeId};
use ccm_front::FrontClient;
use ccm_rt::{DiskStats, ReadClass};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How much a traced run does.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Requests traced.
    pub requests: usize,
    /// Length of each untraced window run afterwards (one with one caller,
    /// then [`SCALE_WINDOWS`] with two).
    pub window: Duration,
}

/// Two-caller windows behind `rt.scale_2v1` and `bench.window_cv`.
const SCALE_WINDOWS: usize = 3;

/// Span name of a block read, by the class the runtime counted it in.
fn read_span_name(class: ReadClass) -> &'static str {
    match class {
        ReadClass::Local => "rt.read_block.local",
        ReadClass::Remote => "rt.read_block.remote",
        ReadClass::Disk => "rt.read_block.disk",
        ReadClass::Fallback => "rt.read_block.fallback",
    }
}

/// Span name of a shadow-model access, by its outcome.
fn access_span_name(outcome: &AccessOutcome) -> (&'static str, ReadClass) {
    match outcome {
        AccessOutcome::LocalHit { .. } => ("core.access.local", ReadClass::Local),
        AccessOutcome::RemoteHit { .. } => ("core.access.remote", ReadClass::Remote),
        AccessOutcome::DiskRead { .. } => ("core.access.disk", ReadClass::Disk),
    }
}

/// What the traced requests counted.
#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
    /// Block reads by the class the runtime's counters moved in.
    live: [u64; 4],
    /// Block reads by the class the shadow model gave them.
    shadow: [u64; 4],
    /// Reads whose live class differs from the shadow's.
    mismatch: u64,
    writes: u64,
    written: Vec<FileId>,
}

/// The class whose counter moved across one block read.
fn class_moved(before: &[u64; 4], after: &[u64; 4]) -> Option<ReadClass> {
    let mut moved = CLASSES
        .iter()
        .zip(before.iter().zip(after))
        .filter(|(_, (b, a))| a > b);
    let first = moved.next().map(|(c, _)| *c);
    first.filter(|_| moved.next().is_none())
}

/// Trace `plan.requests` library operations: each block read and write is
/// its own call on the live cluster, under its own span.
fn trace_lib(
    inputs: &Inputs,
    sut: &Sut,
    shadow: &mut ClusterCache,
    spans: &mut Spans,
    requests: usize,
) -> Counts {
    let read = |node: usize| -> [u64; 4] { std::array::from_fn(|c| sut.reads[node][c].get()) };
    let mut counts = Counts::default();
    let mut image = Vec::new();
    let mut body = Vec::new();
    let mut classes: Vec<Option<ReadClass>> = Vec::new();
    for n in 0..requests {
        let i = WARMUP_REQUESTS + n;
        let file = inputs.file_at(i);
        let node = i % NODES;
        let handle = &sut.handles[node];
        let req = n as u32 + 1;
        counts.attempted += 1;
        if inputs.is_write(i) {
            let block = BlockId::new(file, 0);
            write_image(
                &mut image,
                inputs.catalog.block_bytes(block) as usize,
                0,
                counts.writes,
            );
            let request = spans.open("request", ROOT, req);
            let call = spans.open("rt.write_block", request, req);
            let result = handle.write_block(block, &image);
            spans.close(call);
            spans.close(request);
            counts.failed += u64::from(result.is_err());
            counts.writes += 1;
            counts.written.push(file);
            let model = spans.open("core.write", ROOT, req);
            std::hint::black_box(shadow.write(NodeId(node as u16), block));
            spans.close(model);
            continue;
        }
        body.clear();
        let request = spans.open("request", ROOT, req);
        classes.clear();
        let blocks = inputs.catalog.blocks_of(file);
        for b in 0..blocks {
            let before = read(node);
            let call = spans.open("rt.read_block", request, req);
            let data = handle.read_block(BlockId::new(file, b));
            spans.close(call);
            body.extend_from_slice(&data);
            let class = class_moved(&before, &read(node));
            if let Some(class) = class {
                spans.rename(call, read_span_name(class));
                counts.live[class as usize] += 1;
            }
            classes.push(class);
        }
        spans.close(request);
        counts.failed += u64::from(!sut.checker.file_ok(file, &body));
        // The model sees the same accesses, after the request so that its
        // time stays out of the request's span.
        for b in 0..blocks {
            let model = spans.open("core.access", ROOT, req);
            let outcome = shadow.access(NodeId(node as u16), BlockId::new(file, b));
            spans.close(model);
            let (name, class) = access_span_name(&outcome);
            spans.rename(model, name);
            counts.shadow[class as usize] += 1;
            counts.mismatch += u64::from(classes[b as usize] != Some(class));
        }
    }
    counts
}

/// Trace `requests` GETs over one keep-alive connection: the request goes
/// out under `http.send` and the response comes back under `http.recv`.
fn trace_http(
    inputs: &Inputs,
    sut: &Sut,
    shadow: &mut ClusterCache,
    spans: &mut Spans,
    requests: usize,
) -> Counts {
    let front = sut
        .front
        .as_ref()
        .expect("an HTTP workload has a front tier");
    let mut client = FrontClient::connect(front.addrs()[0]).expect("connect to the front tier");
    let mut counts = Counts::default();
    for n in 0..requests {
        let file = inputs.file_at(WARMUP_REQUESTS + n);
        let path = &inputs.paths[file.0 as usize];
        let req = n as u32 + 1;
        counts.attempted += 1;
        let before = sut.reads_by_class();
        let request = spans.open("request", ROOT, req);
        let send = spans.open("http.send", request, req);
        let sent = client.send("GET", path, &[]);
        spans.close(send);
        let recv = spans.open("http.recv", request, req);
        let response = sent.and_then(|()| client.read_pipelined());
        spans.close(recv);
        spans.close(request);
        let ok = response.is_ok_and(|r| r.status == 200 && sut.checker.file_ok(file, &r.body));
        counts.failed += u64::from(!ok);
        let after = sut.reads_by_class();
        // Round-robin dispatch serves the n-th request of the tier at node
        // n mod 4; the model follows it there.
        let node = NodeId((n % NODES) as u16);
        let mut moved = [0u64; 4];
        for c in 0..4 {
            moved[c] = after[c] - before[c];
            counts.live[c] += moved[c];
        }
        let mut modelled = [0u64; 4];
        for b in 0..inputs.catalog.blocks_of(file) {
            let model = spans.open("core.access", ROOT, req);
            let outcome = shadow.access(node, BlockId::new(file, b));
            spans.close(model);
            let (name, class) = access_span_name(&outcome);
            spans.rename(model, name);
            modelled[class as usize] += 1;
            counts.shadow[class as usize] += 1;
        }
        counts.mismatch += (0..4).map(|c| moved[c].abs_diff(modelled[c])).sum::<u64>() / 2;
    }
    counts
}

/// Median duration of the spans called `name`, net of the stopwatch
/// (0 when there are none).
fn span_median(spans: &Spans, name: &str, timer_ns: f64) -> f64 {
    (median(spans.durations(name).map(|d| d as f64)) - timer_ns).max(0.0)
}

/// Run workload `spec` traced and report the per-layer metrics. The spans
/// are written to `trace-<workload>.json` in the build output directory.
pub fn run(spec: Spec, seed: u64, plan: Plan) -> Outcome {
    let noise_before = noise_probe_seconds();
    let inputs = Inputs::generate(spec, seed);
    let mut shadow = shadow_cache(&inputs);
    let sut = Sut::start(&inputs, Some(&mut shadow));
    let mut m = Metrics::default();
    m.set("traces.build_ms", inputs.build_ms);
    m.set("traces.record_ns_per_req", inputs.record_ns_per_req);
    m.set("setup.store_create_s", sut.times.store_create_s);
    m.set("setup.cluster_start_ms", sut.times.cluster_start_ms);
    m.set("setup.warmup_s", sut.times.warmup_s);

    // Counter and statistics baselines, after the warm-up.
    let evictions = sut.node_counter_sum("ccm_rt_evictions_total");
    let forwards = sut.node_counter_sum("ccm_rt_forwards_total");
    let store_fallbacks = sut.node_counter_sum("ccm_rt_store_fallbacks_total");
    let fetch_sheds = sut.node_counter_sum("ccm_rt_fetch_shed_total");
    let net_before = sut.tcp.as_ref().map(|t| t.net_stats());
    let disk_before = disk_totals(&sut);

    let mut spans = Spans::with_capacity(plan.requests * 8 + 64 * 1024);
    let timer_ns = layers::calibrate(&mut spans);
    let t = Instant::now();
    let counts = match spec.surface {
        Surface::Lib => trace_lib(&inputs, &sut, &mut shadow, &mut spans, plan.requests),
        Surface::Http => trace_http(&inputs, &sut, &mut shadow, &mut spans, plan.requests),
    };
    let traced_rate = plan.requests as f64 / t.elapsed().as_secs_f64();
    sut.middleware().quiesce();
    // What the runtime's trace ring still holds of those reads: events per
    // block read, for the estimate of what observability costs a read.
    let ring = sut.middleware().trace().dump();
    let mut ring_reads: Vec<u64> = ring.iter().map(|e| e.req_id).collect();
    ring_reads.sort_unstable();
    ring_reads.dedup();
    let hops_per_read = ring.len() as f64 / ring_reads.len().max(1) as f64;
    m.set("obs.hops_per_read", hops_per_read);

    let mut problems = Vec::new();
    let block_reads: u64 = counts.live.iter().sum();
    let kreads = block_reads.max(1) as f64 / 1e3;
    if counts.live != counts.shadow || counts.mismatch > 0 {
        problems.push(format!(
            "live read classes {:?} differ from the model's {:?} ({} reads)",
            counts.live, counts.shadow, counts.mismatch
        ));
    }
    let shares = [
        "rt.local_share",
        "rt.remote_share",
        "rt.disk_share",
        "rt.fallback_share",
    ];
    for (name, count) in shares.into_iter().zip(counts.live) {
        m.set(name, count as f64 / block_reads.max(1) as f64);
    }
    m.set("core.model_mismatch", counts.mismatch as f64);
    let per_kread = |name: &str, before: u64| (sut.node_counter_sum(name) - before) as f64 / kreads;
    m.set(
        "rt.evictions_per_kread",
        per_kread("ccm_rt_evictions_total", evictions),
    );
    m.set(
        "rt.forwards_per_kread",
        per_kread("ccm_rt_forwards_total", forwards),
    );
    m.set(
        "rt.store_fallbacks_per_kread",
        per_kread("ccm_rt_store_fallbacks_total", store_fallbacks),
    );
    m.set(
        "rt.fetch_sheds",
        (sut.node_counter_sum("ccm_rt_fetch_shed_total") - fetch_sheds) as f64,
    );
    if let (Some(tcp), Some(before)) = (&sut.tcp, net_before) {
        let now = tcp.net_stats();
        let frames = (now.frames_sent - before.frames_sent) as f64;
        let trains = (now.trains_sent - before.trains_sent).max(1) as f64;
        m.set("net.frames_per_train", frames / trains);
        m.set(
            "net.frames_per_remote_hit",
            frames / counts.live[ReadClass::Remote as usize].max(1) as f64,
        );
        m.set("net.connects", (now.connects - before.connects) as f64);
        m.set("net.teardowns", (now.teardowns - before.teardowns) as f64);
    }
    let disk = disk_totals(&sut);
    let disk_requests = (disk.requests - disk_before.requests).max(1) as f64;
    m.set(
        "disk.coalesce_share",
        (disk.coalesce_hits - disk_before.coalesce_hits) as f64 / disk_requests,
    );
    m.set(
        "disk.readahead_hit_share",
        (disk.readahead_hits - disk_before.readahead_hits) as f64 / disk_requests,
    );
    m.set(
        "disk.physical_per_request",
        (disk.physical_reads() - disk_before.physical_reads()) as f64 / disk_requests,
    );
    m.set(
        "disk.seeks_per_kread",
        (disk.seeks - disk_before.seeks) as f64 / kreads,
    );
    m.set("disk.max_queue_depth", disk.max_queue_depth as f64);

    // Live spans, by class.
    for (metric, span) in [
        ("rt.read_local_ns", "rt.read_block.local"),
        ("rt.read_remote_ns", "rt.read_block.remote"),
        ("rt.read_disk_ns", "rt.read_block.disk"),
        ("rt.read_fallback_ns", "rt.read_block.fallback"),
        ("rt.write_ns", "rt.write_block"),
        ("core.access_local_ns", "core.access.local"),
        ("core.access_remote_ns", "core.access.remote"),
        ("core.access_disk_ns", "core.access.disk"),
    ] {
        m.set(metric, span_median(&spans, span, timer_ns));
    }
    let request_ns = span_median(&spans, "request", timer_ns);
    if spec.surface == Surface::Http {
        m.set("front.http_rtt_ns", request_ns);
    }
    let requests_total_ns: u64 = spans.durations("request").sum();

    // Untraced windows on the same cluster: one caller, then two.
    let first = WARMUP_REQUESTS + plan.requests;
    let one = run_windows(&inputs, &sut, 1, 1, plan.window, first);
    let two = run_windows(
        &inputs,
        &sut,
        CALLERS,
        SCALE_WINDOWS,
        plan.window,
        one.next_index,
    );
    let one_rate = one.windows[0].req_per_s;
    let two_rates: Vec<f64> = two.windows.iter().map(|w| w.req_per_s).collect();
    let two_rate = median(two_rates.iter().copied());
    m.set("rt.scale_2v1", two_rate / one_rate);
    m.set("bench.trace_overhead_frac", 1.0 - traced_rate / one_rate);
    let mean = two_rates.iter().sum::<f64>() / two_rates.len() as f64;
    let variance =
        two_rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / two_rates.len() as f64;
    m.set("bench.window_cv", variance.sqrt() / mean);
    let attempted = counts.attempted + one.attempted + two.attempted;
    let failed = counts.failed + one.failed + two.failed;
    let mut written = counts.written;
    written.extend(one.written);
    written.extend(two.written);

    // The layer replay.
    let mut replay = Replay::begin(&mut spans, timer_ns);
    layers::http_layers(&mut replay, &inputs, &sut, &mut m);
    layers::front_live(&mut replay, &inputs, &sut, &mut m);
    layers::shard_layer(&mut replay, &inputs, &mut m);
    layers::core_write_layer(&mut replay, &inputs, &mut shadow, &mut m);
    layers::transport_layers(&mut replay, &mut m);
    layers::disk_layer(&mut replay, &inputs, &sut, &mut m);
    layers::obs_layer(&mut replay, &sut, &mut m);
    replay.end();

    let fetch_ns = match spec.transport {
        TransportKind::Channel => m.get("lan.fetch_ns"),
        TransportKind::Tcp => m.get("net.fetch_serial_ns"),
    };
    let below = [
        m.get("shard.get_ns"),
        fetch_ns,
        m.get("disk.service_read_ns"),
    ];
    let access = [
        m.get("core.access_local_ns"),
        m.get("core.access_remote_ns"),
        m.get("core.access_disk_ns"),
    ];
    let read = [
        m.get("rt.read_local_ns"),
        m.get("rt.read_remote_ns"),
        m.get("rt.read_disk_ns"),
    ];
    for (c, name) in ["rt.self_local_ns", "rt.self_remote_ns", "rt.self_disk_ns"]
        .into_iter()
        .enumerate()
    {
        // Where the benchmark made the block reads itself (not over HTTP).
        if read[c] > 0.0 {
            m.set(name, read[c] - access[c] - below[c]);
        }
    }
    let explained = match spec.surface {
        Surface::Http => {
            (m.get("httpd.parse_ns")
                + m.get("front.range_ns")
                + m.get("front.dispatch_ns")
                + m.get("front.backend_ns")
                + m.get("httpd.write_ns"))
                / request_ns
        }
        Surface::Lib => {
            // Per block read the runtime pushes `hops_per_read` trace events,
            // records one latency and bumps one counter.
            let obs = hops_per_read * m.get("obs.trace_push_ns")
                + m.get("obs.hist_record_ns")
                + m.get("obs.counter_inc_ns");
            let reads: f64 = (0..3)
                .map(|c| counts.live[c] as f64 * (access[c] + below[c] + obs))
                .sum();
            let writes = counts.writes as f64 * (m.get("core.write_ns") + m.get("disk.write_ns"));
            (reads + writes) / requests_total_ns.max(1) as f64
        }
    };
    m.set("bench.explained_share", explained);

    written.sort_unstable();
    written.dedup();
    let unpersisted = unpersisted_writes(&inputs, &sut, &written);
    if unpersisted > 0 {
        problems.push(format!(
            "{unpersisted} written blocks are lost or not one complete image in the store"
        ));
    }
    m.set("setup.shutdown_ms", sut.shutdown());
    m.set("bench.noise_ratio", noise_probe_seconds() / noise_before);

    let trace_path = crate::cluster::output_dir().join(format!("trace-{}.json", spec.name));
    let written_trace = std::fs::File::create(&trace_path)
        .and_then(|f| spans.write_json(std::io::BufWriter::new(f)));
    if let Err(e) = written_trace {
        problems.push(format!("could not write {}: {e}", trace_path.display()));
    }

    let mut summary = String::from("\"spans\":{");
    for (i, (name, t)) in spans.summary().iter().enumerate() {
        let _ = write!(
            summary,
            "{}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            if i > 0 { "," } else { "" },
            t.count,
            t.total_ns,
            t.self_ns
        );
    }
    summary.push('}');
    let detail = vec![
        format!("\"traced_requests\":{}", plan.requests),
        format!(
            "\"class_counts\":{{\"local\":{},\"remote\":{},\"disk\":{},\"fallback\":{}}}",
            counts.live[0], counts.live[1], counts.live[2], counts.live[3]
        ),
        format!("\"writes\":{}", counts.writes),
        format!("\"block_reads\":{block_reads}"),
        format!("\"timer_ns\":{timer_ns}"),
        format!("\"traced_req_per_s\":{traced_rate}"),
        format!("\"one_caller_req_per_s\":{one_rate}"),
        format!("\"two_caller_req_per_s\":{two_rate}"),
        format!(
            "\"trace_file\":{}",
            crate::json::quote(&trace_path.display().to_string())
        ),
        summary,
    ];
    Outcome {
        workload: spec.name,
        traced: true,
        seed,
        attempted,
        failed: failed + problems.len() as u64,
        metrics: m,
        extra: Vec::new(),
        problems: one
            .failures
            .into_iter()
            .chain(two.failures)
            .chain(problems)
            .collect(),
        detail,
    }
}

/// Disk-service statistics summed over the nodes (the queue depth is the
/// deepest any node saw).
fn disk_totals(sut: &Sut) -> DiskStats {
    let mut t = DiskStats::default();
    for n in 0..NODES {
        let s = sut.middleware().disk_stats(NodeId(n as u16));
        t.requests += s.requests;
        t.physical_demand_reads += s.physical_reads();
        t.coalesce_hits += s.coalesce_hits;
        t.readahead_hits += s.readahead_hits;
        t.seeks += s.seeks;
        t.max_queue_depth = t.max_queue_depth.max(s.max_queue_depth);
    }
    t
}
