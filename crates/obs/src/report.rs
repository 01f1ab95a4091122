//! Run reports (TSV/JSON artifacts) and the rate-limited progress
//! reporter that replaces scattered `eprintln!` progress lines.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use crate::snapshot::Snapshot;
use crate::stage::Stage;

/// A finished run's observability summary: a labelled [`Snapshot`] delta
/// plus wall-clock context, renderable as TSV or JSON.
///
/// Timings and counter values vary run to run, so reports are artifacts
/// for humans and dashboards — they are deliberately *not* golden-compared.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Human-readable run label (e.g. the experiment id).
    pub label: String,
    /// Worker threads used by the run (0 when not applicable).
    pub threads: usize,
    /// End-to-end wall time in seconds.
    pub wall_seconds: f64,
    /// Metric activity attributable to this run (a snapshot delta).
    pub snapshot: Snapshot,
}

impl RunReport {
    /// Runs `f` and reports the metric activity it caused (a delta of the
    /// global registry around the call) with its wall time. With metrics
    /// disabled the report is present but all-zero, and `f`'s result is
    /// unaffected. Concurrent activity elsewhere in the process lands in
    /// the delta too.
    pub fn measure<T>(label: &str, threads: usize, f: impl FnOnce() -> T) -> (T, RunReport) {
        let obs = crate::global();
        let before = Snapshot::capture(obs);
        let start = Instant::now();
        let out = f();
        let wall_seconds = start.elapsed().as_secs_f64();
        let snapshot = Snapshot::capture(obs).delta(&before);
        (out, RunReport { label: label.to_string(), threads, wall_seconds, snapshot })
    }

    /// Blocks analysed per wall-clock second, or 0 for instant runs.
    pub fn blocks_per_second(&self) -> f64 {
        let blocks = self.snapshot.counter("pipeline.blocks_analyzed") as f64;
        if self.wall_seconds > 0.0 {
            blocks / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Renders the report as TSV: `meta`, `counter`, `hist` and `length`
    /// record types, one per line, stably ordered.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# sleepwatch run report\t{}", self.label);
        let _ = writeln!(out, "meta\tthreads\t{}", self.threads);
        let _ = writeln!(out, "meta\twall_seconds\t{:.6}", self.wall_seconds);
        let _ = writeln!(out, "meta\tblocks_per_second\t{:.3}", self.blocks_per_second());
        for (k, v) in &self.snapshot.counters {
            let _ = writeln!(out, "counter\t{k}\t{v}");
        }
        let _ = writeln!(out, "# hist\tname\tcount\tmean\tp50\tp90\tp99");
        for (k, h) in &self.snapshot.histograms {
            let _ = writeln!(
                out,
                "hist\t{k}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99)
            );
        }
        for (k, (pairs, overflow)) in &self.snapshot.lengths {
            for &(key, n) in pairs {
                let _ = writeln!(out, "length\t{k}\t{key}\t{n}");
            }
            if *overflow > 0 {
                let _ = writeln!(out, "length\t{k}\toverflow\t{overflow}");
            }
        }
        out
    }

    /// Renders the report as a single JSON object (handwritten writer —
    /// this crate is dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"label\":{}", json_str(&self.label));
        let _ = write!(out, ",\"threads\":{}", self.threads);
        let _ = write!(out, ",\"wall_seconds\":{:.6}", self.wall_seconds);
        let _ = write!(out, ",\"blocks_per_second\":{:.3}", self.blocks_per_second());
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.snapshot.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("},\"stages\":{");
        let mut first = true;
        for stage in Stage::ALL {
            if let Some(h) = self.snapshot.stage(stage) {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\"{}\":{{\"count\":{},\"mean_us\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3}}}",
                    stage.name(),
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99)
                );
            }
        }
        out.push_str("},\"lengths\":{");
        for (i, (k, (pairs, _))) in self.snapshot.lengths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{{");
            for (j, &(key, n)) in pairs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{key}\":{n}");
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A rate-limited progress printer for long loops.
///
/// Threads call [`Reporter::report`] as often as they like; at most one
/// line per interval reaches the sink, plus exactly one final line when
/// `done == total`. Safe to share across worker threads (the interval
/// gate is a CAS, so racing reporters print once).
///
/// All output funnels through a single mutex-guarded writer (stderr by
/// default), so progress lines, [`Reporter::warn`] lines from transport
/// reconnect storms, and the final summary never interleave mid-burst.
/// Warnings are coalesced: the first in an interval prints, later ones
/// are counted and accounted for in the next printed warning or the
/// final line.
pub struct Reporter {
    label: String,
    every_micros: u64,
    start: Instant,
    /// Micros-since-start of the last printed line, +1 (0 = never).
    last_print: AtomicU64,
    /// Micros-since-start of the last printed warning, +1 (0 = never).
    last_warn: AtomicU64,
    /// Warnings swallowed by the interval gate since the last printed one.
    warns_suppressed: AtomicU64,
    /// Every warning ever offered, printed or not.
    warns_total: AtomicU64,
    finished: AtomicBool,
    sink: std::sync::Mutex<Box<dyn std::io::Write + Send>>,
}

impl Reporter {
    /// Creates a reporter printing at most every 2 seconds.
    pub fn new(label: impl Into<String>) -> Self {
        Reporter::with_interval(label, Duration::from_secs(2))
    }

    /// Creates a reporter with a custom print interval.
    pub fn with_interval(label: impl Into<String>, every: Duration) -> Self {
        Reporter::with_sink(label, every, Box::new(std::io::stderr()))
    }

    /// Creates a reporter writing to an explicit sink instead of stderr —
    /// tests pin line atomicity and warning coalescing through this.
    pub fn with_sink(
        label: impl Into<String>,
        every: Duration,
        sink: Box<dyn std::io::Write + Send>,
    ) -> Self {
        Reporter {
            label: label.into(),
            every_micros: every.as_micros() as u64,
            start: Instant::now(),
            last_print: AtomicU64::new(0),
            last_warn: AtomicU64::new(0),
            warns_suppressed: AtomicU64::new(0),
            warns_total: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            sink: std::sync::Mutex::new(sink),
        }
    }

    /// Writes whole lines under one lock acquisition, so a multi-line
    /// burst cannot interleave with a concurrent reporter call.
    fn emit(&self, lines: &[String]) {
        let mut w = self.sink.lock().expect("reporter sink poisoned");
        for line in lines {
            let _ = writeln!(w, "{line}");
        }
        let _ = w.flush();
    }

    /// Reports progress `done` out of `total`. Prints when the interval
    /// has elapsed since the last line, and always (exactly once) when
    /// the run completes. The final line accounts for any warnings still
    /// coalesced at that point.
    pub fn report(&self, done: usize, total: usize) {
        if done >= total {
            if !self.finished.swap(true, Relaxed) {
                let secs = self.start.elapsed().as_secs_f64();
                let mut lines = vec![format!("{}: {done}/{total} done in {secs:.1}s", self.label)];
                let pending = self.warns_suppressed.swap(0, Relaxed);
                if pending > 0 {
                    lines.push(format!("{}: {pending} warnings coalesced", self.label));
                }
                self.emit(&lines);
            }
            return;
        }
        let now = self.start.elapsed().as_micros() as u64 + 1;
        let last = self.last_print.load(Relaxed);
        if now.saturating_sub(last) < self.every_micros {
            return;
        }
        if self.last_print.compare_exchange(last, now, Relaxed, Relaxed).is_ok() {
            let pct = if total > 0 { done as f64 * 100.0 / total as f64 } else { 0.0 };
            self.emit(&[format!("{}: {done}/{total} ({pct:.1}%)", self.label)]);
        }
    }

    /// Prints a one-off annotation line immediately (not rate-limited).
    pub fn note(&self, msg: &str) {
        self.emit(&[format!("{}: {msg}", self.label)]);
    }

    /// Reports a warning (e.g. a transport reconnect). The first warning
    /// in an interval prints immediately; a storm of follow-ups inside
    /// the interval is coalesced into a count carried by the next printed
    /// warning (`… (+N coalesced)`) or the final progress line.
    pub fn warn(&self, msg: &str) {
        self.warns_total.fetch_add(1, Relaxed);
        let now = self.start.elapsed().as_micros() as u64 + 1;
        let last = self.last_warn.load(Relaxed);
        if last != 0 && now.saturating_sub(last) < self.every_micros {
            self.warns_suppressed.fetch_add(1, Relaxed);
            return;
        }
        if self.last_warn.compare_exchange(last, now, Relaxed, Relaxed).is_ok() {
            let pending = self.warns_suppressed.swap(0, Relaxed);
            let line = if pending > 0 {
                format!("{}: warning: {msg} (+{pending} coalesced)", self.label)
            } else {
                format!("{}: warning: {msg}", self.label)
            };
            self.emit(&[line]);
        } else {
            self.warns_suppressed.fetch_add(1, Relaxed);
        }
    }

    /// Every warning offered so far, printed or coalesced.
    pub fn warnings(&self) -> u64 {
        self.warns_total.load(Relaxed)
    }

    /// True once the final `done == total` line has been printed.
    pub fn finished(&self) -> bool {
        self.finished.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Buckets, Histogram};
    use crate::registry::Registry;

    fn sample_report() -> RunReport {
        let reg = Registry::with_state(true);
        reg.probing.probes_sent.add(1234);
        reg.pipeline.blocks_analyzed.add(60);
        reg.fft.by_length.add(524, 60);
        let h = Histogram::new(true, Buckets::Log2Micros);
        h.record(150.0);
        let mut snapshot = Snapshot::capture(&reg);
        snapshot.histograms.insert("stage.probe", h.snapshot());
        RunReport { label: "fig1".into(), threads: 2, wall_seconds: 0.5, snapshot }
    }

    #[test]
    fn tsv_has_meta_counters_and_stages() {
        let r = sample_report();
        let tsv = r.to_tsv();
        assert!(tsv.starts_with("# sleepwatch run report\tfig1\n"), "{tsv}");
        assert!(tsv.contains("meta\tthreads\t2"), "{tsv}");
        assert!(tsv.contains("meta\twall_seconds\t0.500000"), "{tsv}");
        if !cfg!(feature = "off") {
            assert!(tsv.contains("counter\tprobing.probes_sent\t1234"), "{tsv}");
            assert!(tsv.contains("meta\tblocks_per_second\t120.000"), "{tsv}");
            assert!(tsv.contains("length\tfft.by_length\t524\t60"), "{tsv}");
        }
        assert!(tsv.contains("hist\tstage.total\t"), "{tsv}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = sample_report();
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"label\":\"fig1\""), "{j}");
        assert!(j.contains("\"counters\":{"), "{j}");
        assert!(j.contains("\"stages\":{"), "{j}");
        // Balanced braces (no nesting surprises from the hand writer).
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes, "{j}");
    }

    #[test]
    fn json_escapes_label() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn reporter_prints_final_exactly_once() {
        let r = Reporter::with_interval("test", Duration::from_secs(3600));
        r.report(1, 10); // suppressed: interval not elapsed... or first print
        assert!(!r.finished());
        r.report(10, 10);
        assert!(r.finished());
        r.report(10, 10); // second final call must not re-print (swap gate)
        assert!(r.finished());
    }

    #[test]
    fn reporter_handles_zero_total() {
        let r = Reporter::new("empty");
        r.report(0, 0);
        assert!(r.finished());
    }

    /// Shared buffer sink that appends whatever the reporter writes.
    #[derive(Clone, Default)]
    struct BufSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for BufSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Pins the reconnect-storm contract: under concurrent progress and
    /// warning traffic every emitted line is whole (single writer, no
    /// interleaving), the warning storm collapses to one printed line,
    /// and every suppressed warning is accounted for by the time the
    /// final line lands.
    #[test]
    fn reporter_storm_is_coalesced_behind_one_writer() {
        let sink = BufSink::default();
        let r = std::sync::Arc::new(Reporter::with_sink(
            "ingest",
            Duration::from_secs(3600),
            Box::new(sink.clone()),
        ));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        r.report(t * 200 + i, 1_000_000);
                        r.warn("reconnect: backing off");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.warnings(), 800);
        r.report(1_000_000, 1_000_000);

        let bytes = sink.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("reporter wrote valid utf-8");
        assert!(text.ends_with('\n'), "unterminated tail: {text:?}");
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines {
            assert!(line.starts_with("ingest: "), "torn or foreign line: {line:?}");
        }
        let warn_lines = lines.iter().filter(|l| l.contains("warning:")).count();
        assert_eq!(warn_lines, 1, "storm was not coalesced:\n{text}");
        assert_eq!(
            lines.iter().filter(|l| l.contains("done in")).count(),
            1,
            "final line must print exactly once"
        );
        // 800 warnings offered: 1 printed, every other one accounted for
        // either on the printed warning ("+K coalesced") or the final
        // accounting line — none lost.
        let on_warn_line = lines
            .iter()
            .find_map(|l| {
                let (_, tail) = l.split_once("(+")?;
                tail.strip_suffix(" coalesced)")?.parse::<u64>().ok()
            })
            .unwrap_or(0);
        let on_final = lines
            .iter()
            .find_map(|l| {
                l.strip_prefix("ingest: ")?.strip_suffix(" warnings coalesced")?.parse::<u64>().ok()
            })
            .unwrap_or(0);
        assert_eq!(1 + on_warn_line + on_final, 800, "lost warnings:\n{text}");
    }
}
