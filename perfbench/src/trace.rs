//! In-memory span store for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! program's public functions — nothing is traced inside the program.
//! Each span carries a name, start and end (nanoseconds since the trace
//! epoch), its parent span and the request or unit id it belongs to.
//! The store is written out as JSON lines once the run is over.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name, e.g. `serve.parse`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request line or unit the span belongs to.
    pub id: u64,
}

/// The span store of one traced run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty store whose epoch is now.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.since(Instant::now())
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn since(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its index (for children to point at).
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Closes a span pushed before its end was known.
    pub fn set_end(&mut self, span: usize, end: u64) {
        self.spans[span].end = end;
    }

    /// Self time per span name: span time minus the time of its direct
    /// children, summed over all spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            *out.entry(s.name).or_insert(0) += s.end.saturating_sub(s.start).saturating_sub(*c);
        }
        out
    }

    /// Writes every span as one JSON line to `path`, creating its
    /// directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start, s.end, s.id
            );
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Trace::new();
        let root = t.push("line", 0, 100, None, 7);
        t.push("parse", 10, 30, Some(root), 7);
        t.push("write", 40, 90, Some(root), 7);
        let st = t.self_times();
        assert_eq!(st["line"], 30);
        assert_eq!(st["parse"], 20);
        assert_eq!(st["write"], 50);
    }
}
