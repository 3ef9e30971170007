//! Prometheus text exposition (format version 0.0.4) and the minimal
//! parser `ccmtop` uses to read it back.
//!
//! Rendering works from a [`Snapshot`], so a scrape is one registry read
//! plus string formatting — no locks held across I/O. Histograms are
//! emitted as the conventional cumulative `_bucket{le=...}` series over a
//! coarse decade grid (1µs … 10s in nanoseconds, plus `+Inf`), condensing
//! the fine log-scale buckets; a fine bucket that straddles a boundary is
//! counted at the next-larger bound, so bucket counts stay conservative
//! and `+Inf` always equals `_count`.

use crate::metrics::{MetricSnapshot, Snapshot, Value, HISTOGRAM_BUCKETS};
use simcore::histogram::bucket_low;

/// Upper bounds (nanoseconds) of the exposed histogram buckets. The
/// in-memory histograms stay fine-grained; this grid is only the wire
/// rendering.
pub const LE_BOUNDS_NS: [u64; 8] = [
    1_000,          // 1µs
    10_000,         // 10µs
    100_000,        // 100µs
    1_000_000,      // 1ms
    10_000_000,     // 10ms
    100_000_000,    // 100ms
    1_000_000_000,  // 1s
    10_000_000_000, // 10s
];

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    format!("{{{}}}", parts.join(","))
}

fn type_of(m: &MetricSnapshot) -> &'static str {
    match m.value {
        Value::Counter(_) => "counter",
        Value::Gauge(_) => "gauge",
        Value::Histogram(_) => "histogram",
    }
}

/// Render a snapshot as Prometheus text format. Deterministic for a given
/// snapshot (families sorted by name, series by label set).
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for m in &snapshot.metrics {
        if last_family != Some(m.name.as_str()) {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            out.push_str(&format!("# TYPE {} {}\n", m.name, type_of(m)));
            last_family = Some(m.name.as_str());
        }
        match &m.value {
            Value::Counter(v) => {
                out.push_str(&format!("{}{} {v}\n", m.name, label_block(&m.labels, None)));
            }
            Value::Gauge(v) => {
                out.push_str(&format!("{}{} {v}\n", m.name, label_block(&m.labels, None)));
            }
            Value::Histogram(h) => {
                // Walk the fine buckets once, emitting the cumulative count
                // at each coarse bound. Fine bucket `i` covers values in
                // [bucket_low(i), bucket_low(i+1)); it is counted at bound B
                // only when that whole range is ≤ B. The final fine bucket
                // is open-ended (saturation), so it lands in +Inf only.
                let mut fine = 0usize;
                let mut cumulative = 0u64;
                for &bound in &LE_BOUNDS_NS {
                    while fine < HISTOGRAM_BUCKETS - 1 && bucket_low(fine + 1) <= bound + 1 {
                        cumulative += h.buckets[fine];
                        fine += 1;
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        m.name,
                        label_block(&m.labels, Some(("le", &bound.to_string()))),
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    m.name,
                    label_block(&m.labels, Some(("le", "+Inf"))),
                    h.count,
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    m.name,
                    label_block(&m.labels, None),
                    h.sum
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    m.name,
                    label_block(&m.labels, None),
                    h.count
                ));
            }
        }
    }
    out
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Sample name as written (histogram series keep their `_bucket`/
    /// `_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse Prometheus text format into samples. Comment (`#`) and blank
/// lines are skipped; malformed lines yield an error naming the line.
/// Handles everything [`render`] emits (it is not a full OpenMetrics
/// parser).
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        let (name_part, value_part) = if let Some(close) = line.find('}') {
            (&line[..close + 1], line[close + 1..].trim())
        } else {
            let sp = line.find(' ').ok_or_else(|| err("no value"))?;
            (&line[..sp], line[sp + 1..].trim())
        };
        let (name, labels) = match name_part.find('{') {
            None => (name_part.to_string(), Vec::new()),
            Some(open) => {
                let name = name_part[..open].to_string();
                let inner = name_part[open + 1..name_part.len() - 1].trim();
                let mut labels = Vec::new();
                if !inner.is_empty() {
                    for pair in split_label_pairs(inner).map_err(|e| err(&e))? {
                        labels.push(pair);
                    }
                }
                (name, labels)
            }
        };
        let value: f64 = match value_part {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse().map_err(|_| err("bad value"))?,
        };
        if name.is_empty() {
            return Err(err("empty name"));
        }
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Split `k1="v1",k2="v2"` respecting escaped quotes inside values.
fn split_label_pairs(inner: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let bytes = inner.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let eq = inner[i..]
            .find('=')
            .map(|o| i + o)
            .ok_or("label without '='")?;
        let key = inner[i..eq].trim().to_string();
        if bytes.get(eq + 1) != Some(&b'"') {
            return Err("label value not quoted".to_string());
        }
        let mut j = eq + 2;
        let mut value = String::new();
        loop {
            match bytes.get(j) {
                None => return Err("unterminated label value".to_string()),
                Some(b'\\') => {
                    match bytes.get(j + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("bad escape in label value".to_string()),
                    }
                    j += 2;
                }
                Some(b'"') => {
                    j += 1;
                    break;
                }
                Some(&c) => {
                    value.push(c as char);
                    j += 1;
                }
            }
        }
        pairs.push((key, value));
        i = j;
        if bytes.get(i) == Some(&b',') {
            i += 1;
        }
    }
    Ok(pairs)
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn render_parse_round_trip() {
        let r = Registry::new();
        r.counter("ccm_x_total", "things", &[("node", "0")]).add(3);
        r.counter("ccm_x_total", "things", &[("node", "1")]).add(5);
        r.gauge("ccm_depth", "queue depth", &[]).set(-2);
        let h = r.histogram("ccm_lat_ns", "latency", &[("class", "local")]);
        h.record(500);
        h.record(2_000_000);
        let text = render(&r.snapshot());
        let samples = parse(&text).expect("parse own output");
        let find = |name: &str, labels: &[(&str, &str)]| {
            samples
                .iter()
                .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
                .unwrap_or_else(|| panic!("missing {name} {labels:?}"))
                .value
        };
        assert_eq!(find("ccm_x_total", &[("node", "0")]), 3.0);
        assert_eq!(find("ccm_x_total", &[("node", "1")]), 5.0);
        assert_eq!(find("ccm_depth", &[]), -2.0);
        assert_eq!(find("ccm_lat_ns_count", &[("class", "local")]), 2.0);
        assert_eq!(find("ccm_lat_ns_sum", &[("class", "local")]), 2_000_500.0);
        // 500ns sample is ≤ the 1µs bound; the 2ms sample only at ≥10ms.
        assert_eq!(find("ccm_lat_ns_bucket", &[("le", "1000")]), 1.0);
        assert_eq!(find("ccm_lat_ns_bucket", &[("le", "10000000")]), 2.0);
        assert_eq!(find("ccm_lat_ns_bucket", &[("le", "+Inf")]), 2.0);
    }

    #[test]
    fn help_and_type_emitted_once_per_family() {
        let r = Registry::new();
        r.counter("a_total", "a", &[("node", "0")]).inc();
        r.counter("a_total", "a", &[("node", "1")]).inc();
        let text = render(&r.snapshot());
        assert_eq!(text.matches("# HELP a_total").count(), 1);
        assert_eq!(text.matches("# TYPE a_total counter").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("x_total", "x", &[("path", "a\"b\\c\nd")]).inc();
        let text = render(&r.snapshot());
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""));
        let samples = parse(&text).expect("parse escaped");
        assert_eq!(samples[0].label("path"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("no_value_here").is_err());
        assert!(parse("x{unquoted=3} 1").is_err());
        assert!(parse("x 1").unwrap().len() == 1);
    }

    #[test]
    fn inf_bucket_equals_count_even_when_saturated() {
        let r = Registry::new();
        let h = r.histogram("big_ns", "big", &[]);
        h.record(u64::MAX); // saturates into the final fine bucket
        h.record(1);
        let text = render(&r.snapshot());
        let samples = parse(&text).expect("parse");
        let inf = samples
            .iter()
            .find(|s| s.name == "big_ns_bucket" && s.label("le") == Some("+Inf"))
            .expect("+Inf bucket");
        assert_eq!(inf.value, 2.0);
        let ten_s = samples
            .iter()
            .find(|s| s.name == "big_ns_bucket" && s.label("le") == Some("10000000000"))
            .expect("10s bucket");
        assert_eq!(ten_s.value, 1.0, "saturated sample must not land under 10s");
    }
}
