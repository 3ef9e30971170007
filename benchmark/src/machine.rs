//! What the benchmark reads about the machine and its own process: CPU
//! time, peak memory, the stamp every result carries, and the noise probe.

use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat`: `USER_HZ`, 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used so far, over all of
/// its threads (0 if `/proc` is unreadable).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields 14 and 15 are the 12th and 13th after it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => (utime + stime) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds a fixed arithmetic loop takes. Timed before and after a run;
/// the ratio of the two (`bench.noise_ratio`) is near 1 on a quiet machine
/// and moves when a neighbour took the processor during the run.
pub fn noise_probe_seconds() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// True when the `ccm-obs` this binary links was built with `obs-off`
/// (its histograms then record nothing).
pub fn obs_off() -> bool {
    let h = ccm_obs::Histogram::new();
    h.record(1);
    h.snapshot().count() == 0
}

/// The machine stamp carried by every result, as JSON object members.
pub fn stamp_json(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "\"nproc\":{nproc},\"rustc\":{},\"profile\":{},\"obs_off\":{},\"commit\":{},\"seed\":{seed}",
        crate::json::quote(env!("BENCH_RUSTC_VERSION")),
        crate::json::quote(env!("BENCH_PROFILE")),
        obs_off(),
        crate::json::quote(&commit),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable_and_move() {
        let before = cpu_seconds();
        let mut spin = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 60 {
            spin = spin.wrapping_add(1);
        }
        std::hint::black_box(spin);
        assert!(cpu_seconds() > before, "CPU time did not advance");
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn stamp_is_a_json_object_body() {
        let v = crate::json::parse(&format!("{{{}}}", stamp_json(9))).unwrap();
        assert_eq!(v.get("seed").unwrap().as_f64(), Some(9.0));
        assert!(v.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert!(v.get("rustc").unwrap().as_str().unwrap().contains("rustc"));
    }
}
