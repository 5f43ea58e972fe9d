//! In-memory spans for the traced run.
//!
//! A span is recorded around a call into one layer's public functions:
//! name, start, end, the span that caused it, and the request it belongs
//! to. Spans stay in memory and are written out once, when the run ends,
//! so writing them costs nothing while the layers are timed. A layer's self
//! time is its span time minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `NONE` marks a root.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and reads no clock, so
/// the untraced run carries none of its cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: SpanId) {
        if id != NONE {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
        }
    }

    /// Records a span whose ends were timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// time its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Total span time per name, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let ms = |n| base + Duration::from_millis(n);
        let root = t.record("root", NONE, 0, ms(0), ms(10));
        t.record("child", root, 0, ms(2), ms(5));
        t.record("child", root, 0, ms(6), ms(7));
        let s = t.self_seconds();
        assert!((s["root"] - 0.006).abs() < 1e-9);
        assert!((s["child"] - 0.004).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", NONE, 0);
        t.exit(id);
        assert_eq!(t.len(), 0);
    }
}
