//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and the op it
//! belongs to (spans of one op share the op id). Spans stay in memory
//! and are written out once, when the run ends. An untraced run keeps a
//! disabled tracer whose calls return at once.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Span id; 0 means "none" (no parent, or tracing is off).
pub type SpanId = u32;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as SpanId
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let end = self.now();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Records a span whose bounds were taken by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
        self.spans.len() as SpanId
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Count, total and self time of every span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != 0 {
                child_ns[span.parent as usize - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = totals.entry(span.name).or_default();
            let dur = span.end_ns - span.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        totals
    }

    /// Writes every span as one tab-separated line:
    /// `id parent op name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", 0, 1);
        assert_eq!(id, 0);
        t.close(id);
        assert!(t.totals().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms| base + Duration::from_millis(ms);
        let parent = t.record("window", 0, 0, at(0), at(10));
        t.record("op", parent, 1, at(1), at(4));
        t.record("op", parent, 2, at(5), at(7));
        let totals = t.totals();
        assert_eq!(totals["window"].total_ns, 10_000_000);
        assert_eq!(totals["window"].self_ns, 5_000_000);
        assert_eq!(totals["op"].count, 2);
        assert_eq!(totals["op"].self_ns, 5_000_000);
    }
}
