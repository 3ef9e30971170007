//! Spans recorded by the benchmark around the calls it makes into each
//! layer, kept in a preallocated buffer and written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of that interval its
//! child spans cover; overlapping children are counted once.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle of a recorded span (its position in the buffer, plus one).
pub type SpanId = u32;

/// "No parent": the span is a root.
pub const ROOT: SpanId = 0;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// This span's id (never 0).
    pub id: SpanId,
    /// The span that caused it, or [`ROOT`].
    pub parent: SpanId,
    /// The request the span belongs to; spans of one request share it.
    pub req: u32,
    /// Layer boundary the span was taken at.
    pub name: &'static str,
    /// Start, in nanoseconds since the buffer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the buffer was created.
    pub end_ns: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span buffer of one traced run.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A buffer with room for `capacity` spans; recording within the
    /// capacity never allocates.
    pub fn with_capacity(capacity: usize) -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start a span now.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u32) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// End span `id` now and return its duration.
    #[inline]
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Rename a span once its outcome is known (a block read is classed
    /// only after it returns).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize - 1].name = name;
    }

    /// Every span recorded, in the order they were opened.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Spans::all`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Per span name: how many, their total duration and total self time.
    pub fn summary(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Durations of the spans called `name`.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::duration_ns)
    }

    /// Write the buffer as a JSON array of
    /// `{id, parent, req, name, start_ns, end_ns}` objects.
    pub fn write_json(&self, mut w: impl Write) -> std::io::Result<()> {
        w.write_all(b"[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(
                w,
                "\n{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.write_all(b"\n]\n")?;
        w.flush()
    }
}

/// Totals of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Self time of every span of `spans` (which may be in any order): its
/// duration minus the length of the union of its children's intervals,
/// each clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let position: BTreeMap<SpanId, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<(usize, u64, u64)> = spans
        .iter()
        .filter_map(|c| {
            let p = *position.get(&c.parent)?;
            let start = c.start_ns.max(spans[p].start_ns);
            let end = c.end_ns.min(spans[p].end_ns);
            (start < end).then_some((p, start, end))
        })
        .collect();
    children.sort_unstable();
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    let mut covered_to = 0u64;
    let mut current = usize::MAX;
    for (p, start, end) in children {
        if p != current {
            current = p;
            covered_to = 0;
        }
        let from = start.max(covered_to);
        if end > from {
            out[p] -= end - from;
            covered_to = end;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_cover_of_children_once() {
        let spans = [
            span(1, ROOT, 0, 100),
            // Two overlapping children cover 10..50 together.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            // A grandchild takes from its own parent only.
            span(4, 2, 15, 25),
            // A disjoint child, and one that sticks out past its parent.
            span(5, 1, 60, 70),
            span(6, 1, 95, 120),
            // A child entirely inside another child adds no cover.
            span(7, 1, 32, 38),
        ];
        let selfs = self_times(&spans);
        // Root: 100 - (40 + 10 + 5).
        assert_eq!(selfs[0], 45);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 10);
        assert_eq!(selfs[5], 25);
        assert_eq!(selfs[6], 6);
    }

    #[test]
    fn self_time_ignores_recording_order_and_unknown_parents() {
        let spans = [
            span(3, 2, 5, 9),
            span(2, 9, 0, 10), // parent 9 was never recorded
            span(4, 2, 1, 3),
        ];
        assert_eq!(self_times(&spans), vec![4, 4, 2]);
    }

    #[test]
    fn buffer_records_nested_spans_and_summarises_by_name() {
        let mut s = Spans::with_capacity(8);
        let req = s.open("request", ROOT, 7);
        let child = s.open("child", req, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(child);
        s.close(req);
        s.rename(child, "child.local");
        let all = s.all();
        assert_eq!(all[1].parent, all[0].id);
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        let summary = s.summary();
        assert_eq!(summary["child.local"].count, 1);
        assert_eq!(
            summary["request"].self_ns,
            all[0].duration_ns() - all[1].duration_ns()
        );
        let mut json = Vec::new();
        s.write_json(&mut json).unwrap();
        let text = String::from_utf8(json).unwrap();
        assert!(text.contains("\"name\":\"child.local\""));
        assert_eq!(
            crate::json::parse(&text).unwrap().as_array().unwrap().len(),
            2
        );
    }
}
