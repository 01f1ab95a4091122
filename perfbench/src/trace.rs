//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start, end and the span that caused it; every
//! span under one root shares that root's trace id. Spans stay in memory
//! while the traced run works and are written out once, at exit, as
//! JSON lines. A layer's self time is its span's duration minus the part
//! of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `probing.run_with_faults`.
    pub name: &'static str,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Index of the root span of this span's tree.
    pub trace: usize,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (`u64::MAX` while open).
    pub end_ns: u64,
}

/// Single-threaded span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        let idx = self.spans.len();
        let trace = parent.map_or(idx, |p| self.spans[p].trace);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, trace, start_ns, end_ns: u64::MAX });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span (for work timed on another thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let parent = self.open.last().copied();
        let idx = self.spans.len();
        let trace = parent.map_or(idx, |p| self.spans[p].trace);
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, parent, trace, start_ns: at(start), end_ns: at(end) });
        idx
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall duration of span `idx`, ns.
    pub fn duration_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Duration of span `idx` minus the part of its interval covered by
    /// its direct children (overlapping children count once).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in kids {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        self.duration_ns(idx).saturating_sub(covered)
    }

    /// `(count, total self ns)` over every closed span named `name`.
    pub fn self_total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.end_ns != u64::MAX)
            .fold((0, 0), |(n, t), (i, _)| (n + 1, t + self.self_ns(i)))
    }

    /// Total self time of spans named `name`, µs.
    pub fn self_us(&self, name: &str) -> f64 {
        self.self_total(name).1 as f64 / 1e3
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.trace,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, parent, start_ns, end_ns) in spans {
            let trace = parent.unwrap_or(t.spans.len());
            t.spans.push(Span { name, parent, trace, start_ns, end_ns });
        }
        t
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let t = fixed(&[
            ("root", None, 0, 100),
            ("a", Some(0), 10, 40),
            ("b", Some(0), 30, 60),  // overlaps a: union 10..60
            ("c", Some(0), 80, 130), // clipped to 80..100
            ("grandchild", Some(1), 15, 20),
        ]);
        assert_eq!(t.self_ns(0), 100 - 50 - 20);
        assert_eq!(t.self_ns(1), 30 - 5);
        assert_eq!(t.self_total("a"), (1, 25));
    }

    #[test]
    fn nested_spans_share_a_trace() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
        });
        t.span("second", |_| ());
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].trace, 0);
        assert_eq!(s[2].trace, 2);
        assert!(t.self_ns(0) <= t.duration_ns(0));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
