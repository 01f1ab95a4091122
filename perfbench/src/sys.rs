//! Process accounting read from `/proc`, the output digest, and the
//! line protocol a measured child process reports through.

use std::fmt::Write as _;

/// Linux reports `utime`/`stime` in USER_HZ ticks, fixed at 100/s.
const TICKS_PER_S: f64 = 100.0;

/// User+system CPU seconds of this process so far, all threads
/// (including threads that have already exited).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / TICKS_PER_S
}

/// Resets the peak resident set (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker threads a workload may use: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 64-bit FNV-1a, the digest of a workload's output bytes.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Digest of one byte string.
    pub fn of(bytes: &[u8]) -> Digest {
        let mut d = Digest::default();
        d.update(bytes);
        d
    }

    /// The digest as a number.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Lower-case hex.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What a measured child reports: `@key value` lines on stdout, read
/// back by the parent. Numbers keep every digit.
#[derive(Default)]
pub struct Report {
    text: String,
}

impl Report {
    /// Adds a number.
    pub fn num(&mut self, key: &str, v: f64) {
        let _ = writeln!(self.text, "@{key} {v:?}");
    }

    /// Adds a word (digest, flag).
    pub fn word(&mut self, key: &str, v: &str) {
        debug_assert!(!v.contains(char::is_whitespace));
        let _ = writeln!(self.text, "@{key} {v}");
    }

    /// Prints the report.
    pub fn emit(self) {
        print!("{}", self.text);
    }
}

/// Parses `@key value` lines from a child's stdout, in order.
pub fn parse_report(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix('@'))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(Digest::of(b"").hex(), "cbf29ce484222325");
        assert_eq!(Digest::of(b"a").hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn report_round_trips() {
        let mut r = Report::default();
        r.num("wall_s", 0.125);
        r.word("digest", "00ff");
        let parsed = parse_report(&format!("noise\n{}", r.text));
        assert_eq!(parsed[0], ("wall_s".to_string(), "0.125".to_string()));
        assert_eq!(parsed[1], ("digest".to_string(), "00ff".to_string()));
    }

    #[test]
    fn proc_accounting_reads() {
        assert!(cpu_seconds() >= 0.0);
        reset_peak_rss();
        assert!(peak_rss_mib() > 0.0);
    }
}
