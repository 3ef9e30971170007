//! `ccmtop`: scrape every node of a running cluster's `/metrics` endpoint
//! and render a per-node live table — hit-class breakdown, eviction and
//! forwarding activity, HTTP load, and fetch-latency quantiles.
//!
//! Usage:
//!   ccmtop [--watch <secs>] <host:port> [<host:port> ...]
//!
//! Addresses are the HTTP listeners printed by `socket_cluster --serve`.
//! Without `--watch` it scrapes once and exits (scriptable); with it, the
//! table refreshes in place until interrupted. The scraper is std-only:
//! one short-lived TCP connection and a plain HTTP/1.1 GET per node.

use ccm_obs::prom::{parse, Sample};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: ccmtop [--watch <secs>] <host:port> [<host:port> ...]");
    std::process::exit(2);
}

/// GET `path` from `addr`, returning the body. Plain HTTP/1.1, one
/// connection per request.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send {addr}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {addr}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("{addr}: HTTP {status}"));
    }
    Ok(body.to_string())
}

type SeriesKey = (String, Vec<(String, String)>);

/// Scrape every address and merge the samples by series identity (last
/// scrape wins). In the single-process `socket_cluster` every node serves
/// the same cluster-wide registry, so merging rather than summing is what
/// keeps the numbers honest; with one process per node the node labels
/// keep the series disjoint and the merge is a plain union.
fn scrape(addrs: &[String]) -> (BTreeMap<SeriesKey, f64>, Vec<String>) {
    let mut merged = BTreeMap::new();
    let mut errors = Vec::new();
    for addr in addrs {
        match http_get(addr, "/metrics").and_then(|body| parse(&body)) {
            Ok(samples) => {
                for Sample {
                    name,
                    mut labels,
                    value,
                } in samples
                {
                    labels.sort();
                    merged.insert((name, labels), value);
                }
            }
            Err(e) => errors.push(e),
        }
    }
    (merged, errors)
}

fn get(series: &BTreeMap<SeriesKey, f64>, name: &str, labels: &[(&str, &str)]) -> f64 {
    let mut key: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    key.sort();
    series.get(&(name.to_string(), key)).copied().unwrap_or(0.0)
}

/// Distinct values of `label` across all series of family `name`, sorted.
fn label_values(series: &BTreeMap<SeriesKey, f64>, name: &str, label: &str) -> Vec<String> {
    let mut vals: Vec<String> = series
        .keys()
        .filter(|(n, _)| n == name)
        .filter_map(|(_, ls)| ls.iter().find(|(k, _)| k == label).map(|(_, v)| v.clone()))
        .collect();
    vals.sort();
    vals.dedup();
    vals
}

/// Approximate quantile from the exposed cumulative `_bucket` series:
/// the smallest `le` bound whose cumulative count reaches the rank.
fn bucket_quantile(
    series: &BTreeMap<SeriesKey, f64>,
    family: &str,
    fixed: &[(&str, &str)],
    q: f64,
) -> Option<f64> {
    let bucket = format!("{family}_bucket");
    let mut bounds: Vec<(f64, f64)> = series
        .iter()
        .filter(|((n, ls), _)| {
            n == &bucket
                && fixed
                    .iter()
                    .all(|(k, v)| ls.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .filter_map(|((_, ls), &c)| {
            let le = ls.iter().find(|(k, _)| k == "le")?.1.clone();
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, c))
        })
        .collect();
    bounds.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN bounds"));
    let total = bounds.last()?.1;
    if total == 0.0 {
        return None;
    }
    let target = (q * total).ceil().max(1.0);
    bounds
        .iter()
        .find(|&&(_, c)| c >= target)
        .map(|&(bound, _)| bound)
}

fn fmt_ns(ns: f64) -> String {
    if ns.is_infinite() {
        ">10s".to_string()
    } else if ns >= 1e9 {
        format!("{:.1}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.0}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn render(series: &BTreeMap<SeriesKey, f64>, errors: &[String]) {
    let nodes = label_values(series, "ccm_rt_reads_total", "node");
    println!(
        "{:<5} {:>9} {:>9} {:>9} {:>9} {:>6} {:>8} {:>8} {:>7} {:>9} {:>9}",
        "node",
        "local",
        "remote",
        "disk",
        "fallbk",
        "hit%",
        "evict",
        "fwd",
        "store",
        "http",
        "inflight"
    );
    for node in &nodes {
        let n = node.as_str();
        let class = |c: &str| get(series, "ccm_rt_reads_total", &[("node", n), ("class", c)]);
        let (local, remote, disk, fb) = (
            class("local"),
            class("remote"),
            class("disk"),
            class("fallback"),
        );
        let total = local + remote + disk;
        let hit = if total > 0.0 {
            100.0 * (local + remote) / total
        } else {
            0.0
        };
        // Requests the front tier dispatched to this node, whatever the
        // policy label.
        let http: f64 = series
            .iter()
            .filter(|((name, labels), _)| {
                name == "ccm_front_dispatch_total"
                    && labels.iter().any(|(k, v)| k == "node" && v == n)
            })
            .map(|(_, v)| v)
            .sum();
        println!(
            "{:<5} {:>9} {:>9} {:>9} {:>9} {:>6.1} {:>8} {:>8} {:>7} {:>9} {:>9}",
            n,
            local,
            remote,
            disk,
            fb,
            hit,
            get(series, "ccm_rt_evictions_total", &[("node", n)]),
            get(series, "ccm_rt_forwards_total", &[("node", n)]),
            get(series, "ccm_rt_store_blocks", &[("node", n)]),
            http,
            get(series, "ccm_front_inflight", &[("node", n)]),
        );
    }
    if nodes.is_empty() {
        println!("(no ccm_rt_reads_total series yet — is the cluster serving /metrics?)");
    }

    let classes = label_values(series, "ccm_rt_fetch_latency_ns_count", "class");
    if !classes.is_empty() {
        let line: Vec<String> = classes
            .iter()
            .filter_map(|c| {
                let p50 = bucket_quantile(series, "ccm_rt_fetch_latency_ns", &[("class", c)], 0.5)?;
                let p99 =
                    bucket_quantile(series, "ccm_rt_fetch_latency_ns", &[("class", c)], 0.99)?;
                Some(format!("{c} p50≤{} p99≤{}", fmt_ns(p50), fmt_ns(p99)))
            })
            .collect();
        println!("fetch latency: {}", line.join("  |  "));
    }
    let dropped = get(series, "ccm_chaos_dropped_total", &[]);
    let duplicated = get(series, "ccm_chaos_duplicated_total", &[]);
    let delayed = get(series, "ccm_chaos_delayed_total", &[]);
    if dropped + duplicated + delayed > 0.0 {
        println!("chaos: {dropped} dropped, {duplicated} duplicated, {delayed} delayed");
    }
    let frames_out = series
        .iter()
        .filter(|((n, _), _)| n == "ccm_net_frames_out_total")
        .map(|(_, v)| v)
        .sum::<f64>();
    let bytes_out = series
        .iter()
        .filter(|((n, _), _)| n == "ccm_net_bytes_out_total")
        .map(|(_, v)| v)
        .sum::<f64>();
    if frames_out > 0.0 {
        println!(
            "wire: {frames_out} frames / {:.1} MB sent across all peer links",
            bytes_out / (1 << 20) as f64
        );
    }
    for e in errors {
        eprintln!("scrape error: {e}");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut watch: Option<u64> = None;
    if let Some(pos) = args.iter().position(|a| a == "--watch") {
        if pos + 1 >= args.len() {
            usage();
        }
        watch = Some(args[pos + 1].parse().unwrap_or_else(|_| usage()));
        args.drain(pos..=pos + 1);
    }
    if args.is_empty() || args.iter().any(|a| a.starts_with('-')) {
        usage();
    }

    loop {
        let (series, errors) = scrape(&args);
        if let Some(secs) = watch {
            // Clear and home, terminal-style.
            print!("\x1b[2J\x1b[H");
            println!(
                "ccmtop — {} node endpoint(s), refresh {}s\n",
                args.len(),
                secs
            );
            render(&series, &errors);
            std::io::stdout().flush().ok();
            std::thread::sleep(Duration::from_secs(secs));
        } else {
            render(&series, &errors);
            if series.is_empty() && !errors.is_empty() {
                std::process::exit(1);
            }
            return;
        }
    }
}
