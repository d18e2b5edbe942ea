//! In-memory spans recorded around calls into the workspace crates.
//!
//! A span is a name, a start and end in ns from the run's origin, the
//! index of the span that caused it and a request id shared by the
//! spans of one request (0 outside requests). Spans are kept in memory
//! and written as JSONL when the run ends, so recording costs a push.
//! When tracing is off nothing is recorded.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or step name.
    pub name: String,
    /// Start, ns from the tracer's origin.
    pub start_ns: u64,
    /// End, ns from the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id (0 outside requests).
    pub req: u64,
}

/// The span store of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id (`None` when off).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name: name.to_owned(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            req,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Opens a root span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &str) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, None, 0)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.offset(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Self time of every span: its duration minus the part of it
    /// that its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| self_time(s.start_ns, s.end_ns, c))
            .collect()
    }

    /// Writes every span, with its self time, as one JSON object per
    /// line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 112);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        std::fs::write(path, out)
    }
}

/// Duration of `[start, end)` not covered by any child interval.
/// Children may overlap each other and stick out of the parent; only
/// the union of their parts inside the parent is subtracted.
pub fn self_time(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    let total = end.saturating_sub(start);
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in children {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    total - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time(0, 100, vec![]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, vec![(10, 20), (50, 70)]), 70);
        // Overlapping children count their union once.
        assert_eq!(self_time(0, 100, vec![(10, 40), (30, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time(0, 100, vec![(10, 60), (20, 30)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(10, 100, vec![(0, 20), (90, 130)]), 70);
        // Full cover leaves no self time.
        assert_eq!(self_time(0, 100, vec![(0, 60), (50, 100)]), 0);
    }

    #[test]
    fn tracer_links_children_and_stays_empty_when_off() {
        let mut off = Tracer::new(false);
        assert!(off.open("root").is_none());
        assert!(off.spans.is_empty());

        let mut t = Tracer::new(true);
        let origin = t.origin;
        let at = |ns: u64| origin + std::time::Duration::from_nanos(ns);
        let root = t.record("root", at(0), at(100), None, 0);
        t.record("a", at(10), at(40), root, 0);
        t.record("b", at(30), at(60), root, 0);
        assert_eq!(t.self_times_ns(), vec![50, 30, 30]);
        assert_eq!(t.spans[1].parent, root);
    }
}
