//! The timed run: set-up, ten back-to-back windows with two closed-loop
//! callers, nothing recorded but the benchmark's own histograms, then the
//! end-of-run checks. It reports the end-to-end metrics.

use crate::cluster::Sut;
use crate::driver::{run_windows, unpersisted_writes};
use crate::hist::{median, quantile};
use crate::machine::{cpu_seconds, noise_probe_seconds, peak_rss_mb};
use crate::report::{Metrics, Outcome};
use crate::workload::{Inputs, Spec, CALLERS, WARMUP_REQUESTS};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A further set-up is made only while the set-ups so far, plus one more
/// like the last, stay within this many seconds.
const SETUP_BUDGET_S: f64 = 8.0;

/// How long a timed run measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Windows.
    pub windows: usize,
    /// Length of each.
    pub window: Duration,
    /// Set-ups the run makes at most; `setup_s` is their median.
    pub max_setups: usize,
}

/// Generate the inputs and set the cluster up, several times when that is
/// cheap: the first set-ups are torn down again and the last one is
/// returned with every set-up's duration.
pub fn set_up(
    spec: Spec,
    seed: u64,
    max_setups: usize,
    process_start: Instant,
) -> (Inputs, Sut, Vec<f64>) {
    let mut durations = Vec::new();
    let mut from = process_start;
    loop {
        let inputs = Inputs::generate(spec, seed);
        let sut = Sut::start(&inputs, None);
        let took = from.elapsed().as_secs_f64();
        durations.push(took);
        let spent: f64 = durations.iter().sum();
        if durations.len() >= max_setups || spent + took > SETUP_BUDGET_S {
            return (inputs, sut, durations);
        }
        sut.shutdown();
        from = Instant::now();
    }
}

/// Run workload `spec` timed and report the end-to-end metrics.
pub fn run(spec: Spec, seed: u64, plan: Plan, process_start: Instant) -> Outcome {
    let noise_before = noise_probe_seconds();
    let (inputs, sut, setups) = set_up(spec, seed, plan.max_setups, process_start);

    let reads_before: u64 = sut.reads_by_class().iter().sum();
    let cpu_before = cpu_seconds();
    let totals = run_windows(
        &inputs,
        &sut,
        CALLERS,
        plan.windows,
        plan.window,
        WARMUP_REQUESTS,
    );
    let cpu_s = cpu_seconds() - cpu_before;
    let classes = sut.reads_by_class();
    let reads_counted = classes.iter().sum::<u64>() - reads_before;

    let mut problems = Vec::new();
    if reads_counted != totals.blocks_read {
        problems.push(format!(
            "the callers read {} blocks but ccm_rt_reads_total moved by {reads_counted}",
            totals.blocks_read
        ));
    }
    let done: u64 = totals.windows.iter().map(|w| w.done).sum();
    let unpersisted = unpersisted_writes(&inputs, &sut, &totals.written);
    if unpersisted > 0 {
        problems.push(format!(
            "{unpersisted} written blocks are lost or not one complete image in the store"
        ));
    }
    sut.shutdown();
    let noise_ratio = noise_probe_seconds() / noise_before;

    let mut m = Metrics::default();
    m.set("setup_s", median(setups.iter().copied()));
    m.set(
        "req_per_s",
        median(totals.windows.iter().map(|w| w.req_per_s)),
    );
    m.set(
        "lat_p50_us",
        median(totals.windows.iter().map(|w| w.p50_ns)) / 1e3,
    );
    // The lower quartile, not the median: interference on a shared box
    // comes in phases of seconds and only ever lengthens the tail, so the
    // quieter windows repeat from run to run where the median does not; a
    // change that lengthens the tail itself moves every window.
    m.set(
        "lat_p99_us",
        quantile(totals.windows.iter().map(|w| w.p99_ns), 0.25) / 1e3,
    );
    m.set("cpu_ms_per_kreq", cpu_s * 1e3 / (done.max(1) as f64 / 1e3));
    m.set("peak_rss_mb", peak_rss_mb());

    let mut windows = String::from("\"windows\":[");
    for (i, w) in totals.windows.iter().enumerate() {
        let _ = write!(
            windows,
            "{}{{\"req_per_s\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"read_samples\":{},\"write_p50_ns\":{},\"write_samples\":{}}}",
            if i > 0 { "," } else { "" },
            w.req_per_s,
            w.p50_ns,
            w.p90_ns,
            w.p99_ns,
            w.read_samples,
            w.write_p50_ns,
            w.write_samples
        );
    }
    windows.push(']');
    let detail = vec![
        format!(
            "\"plan\":{{\"callers\":{CALLERS},\"windows\":{},\"window_s\":{}}}",
            plan.windows,
            plan.window.as_secs_f64()
        ),
        windows,
        format!(
            "\"setups_s\":[{}]",
            setups
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ),
        format!("\"blocks_read\":{}", totals.blocks_read),
        format!("\"capacity_blocks\":{}", inputs.capacity_blocks),
        format!("\"file_set_blocks\":{}", inputs.total_blocks),
    ];
    // Reported beside the contract's metrics: `write_p50_us` exists only
    // where the stream has writes, and the contract wants every end-to-end
    // metric from every workload.
    let mut extra = vec![("bench.noise_ratio", noise_ratio, "ratio")];
    if totals.windows.iter().any(|w| w.write_samples > 0) {
        let p50 = median(totals.windows.iter().map(|w| w.write_p50_ns));
        extra.push(("write_p50_us", p50 / 1e3, "us"));
    }
    Outcome {
        workload: spec.name,
        traced: false,
        seed,
        attempted: totals.attempted,
        failed: totals.failed + problems.len() as u64,
        metrics: m,
        extra,
        problems: totals.failures.into_iter().chain(problems).collect(),
        detail,
    }
}
