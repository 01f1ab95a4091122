//! Open-loop HTTP load: requests go out on a fixed schedule whether or
//! not earlier ones were answered, over a few keep-alive connections.
//!
//! Each request is timed from when it was *due*, not from when the
//! generator got round to sending it, so a stall anywhere (server, wire
//! or generator) is charged to every request it delays. How late the
//! generator itself ran is reported separately.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::stats::{percentile, supports, Tally};
use crate::sys::Digest;

/// Latency limit on a rate's p99, ms (the serve layer's existing budget).
pub const P99_LIMIT_MS: f64 = 5.0;

/// Requests per window a rate's p99 is judged over: the fewest that can
/// support a p99 with ten samples beyond it.
pub const WINDOW: usize = 1000;

/// A request that has not been answered this long after it was sent is
/// a failure (timeout).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// One request's outcome, in schedule order.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// When it was due, s after the phase epoch.
    pub due_s: f64,
    /// When the generator wrote it, s after the epoch.
    pub sent_s: f64,
    /// When its response was complete, s after the epoch (`None`: no answer).
    pub done_s: Option<f64>,
    /// HTTP status (0 when unanswered).
    pub status: u16,
    /// FNV-1a of the response body.
    pub body: u64,
}

/// Latency, lateness and failure accounting of one phase.
#[derive(Clone, Debug, Default)]
pub struct Accounting {
    /// Answered requests' latency from due time, ms, schedule order.
    pub latency_ms: Vec<f64>,
    /// Generator lateness (sent − due), ms, schedule order.
    pub late_ms: Vec<f64>,
    /// Failures against attempts: unanswered or non-200.
    pub tally: Tally,
    /// First due to last completion, s.
    pub span_s: f64,
}

/// Folds samples into latency-from-due, lateness and failures.
pub fn account(samples: &[Sample]) -> Accounting {
    let mut a = Accounting::default();
    let mut last_done = 0.0f64;
    for s in samples {
        a.late_ms.push(((s.sent_s - s.due_s) * 1e3).max(0.0));
        let ok = s.done_s.is_some() && s.status == 200;
        a.tally.record(ok);
        if let Some(done) = s.done_s {
            a.latency_ms.push((done - s.due_s) * 1e3);
            last_done = last_done.max(done);
        }
    }
    let first_due = samples.first().map_or(0.0, |s| s.due_s);
    a.span_s = (last_done - first_due).max(0.0);
    a
}

/// True when latency grew across the phase: the median of the last
/// fifth exceeds twice the median of the first fifth plus 0.5 ms.
pub fn backlog_growing(latency_ms: &[f64]) -> bool {
    let k = latency_ms.len() / 5;
    if k == 0 {
        return false;
    }
    let med = |xs: &[f64]| crate::stats::median(xs).unwrap_or(0.0);
    med(&latency_ms[latency_ms.len() - k..]) > 2.0 * med(&latency_ms[..k]) + 0.5
}

impl Accounting {
    /// Ascending copy of the latencies.
    pub fn sorted_latency(&self) -> Vec<f64> {
        let mut v = self.latency_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median over consecutive [`WINDOW`]-request windows of each
    /// window's p99. A stall of the machine inflates the p99 of the few
    /// windows it lands in; a rate the service cannot carry inflates most.
    pub fn window_p99_ms(&self) -> Option<f64> {
        let p99s: Vec<f64> = self
            .latency_ms
            .chunks_exact(WINDOW)
            .filter_map(|w| {
                let mut w = w.to_vec();
                w.sort_by(f64::total_cmp);
                supports(w.len(), 99.0).then(|| percentile(&w, 99.0)).flatten()
            })
            .collect();
        crate::stats::median(&p99s)
    }

    /// Answered requests per second over the phase.
    pub fn achieved_per_s(&self) -> f64 {
        if self.span_s > 0.0 {
            self.latency_ms.len() as f64 / self.span_s
        } else {
            0.0
        }
    }
}

/// The rate ladder's record: each offered rate with its typical-window
/// p99, `None` when the rate failed requests or built a backlog.
#[derive(Debug, Default)]
pub struct Ladder {
    rungs: Vec<(f64, Option<f64>)>,
}

/// Window p99 treated as "plainly past the limit".
const FAR_PAST: f64 = 4.0 * P99_LIMIT_MS;

impl Ladder {
    /// Records a rung; true once the ladder should stop: the rate failed
    /// or built a backlog, its p99 is far past the limit, or three rungs
    /// in a row were over the limit.
    pub fn push(&mut self, rate: f64, acc: &Accounting) -> bool {
        let ok = acc.tally.failed == 0 && !backlog_growing(&acc.latency_ms);
        let p99 = acc.window_p99_ms().filter(|_| ok);
        self.rungs.push((rate, p99));
        let over = |r: &(f64, Option<f64>)| r.1.map_or(true, |p| p > P99_LIMIT_MS);
        p99.map_or(true, |p| p > FAR_PAST)
            || (self.rungs.len() >= 3 && self.rungs.iter().rev().take(3).all(over))
    }

    /// The highest rate whose p99 is within the limit, read off a
    /// non-decreasing fit of p99 against rate (so one stalled rung does
    /// not end the ladder early) and interpolated between rungs. Rungs
    /// that failed or built a backlog count as far past the limit.
    pub fn sustained_rate(&self) -> f64 {
        let ys: Vec<f64> = self.rungs.iter().map(|r| r.1.unwrap_or(FAR_PAST * 4.0)).collect();
        let fit = monotone_fit(&ys);
        let rates: Vec<f64> = self.rungs.iter().map(|r| r.0).collect();
        match fit.iter().position(|&p| p > P99_LIMIT_MS) {
            None => rates.last().copied().unwrap_or(0.0),
            // Below the first rung: scale its rate by how far over it was.
            Some(0) => rates[0] * P99_LIMIT_MS / fit[0],
            Some(j) => {
                let (r0, r1, f0, f1) = (rates[j - 1], rates[j], fit[j - 1], fit[j]);
                r0 + (r1 - r0) * (P99_LIMIT_MS - f0) / (f1 - f0)
            }
        }
    }
}

/// Least-squares non-decreasing fit (pool adjacent violators).
pub fn monotone_fit(ys: &[f64]) -> Vec<f64> {
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &y in ys {
        blocks.push((y, 1));
        while blocks.len() >= 2 && blocks[blocks.len() - 2].0 > blocks[blocks.len() - 1].0 {
            let (m2, c2) = blocks.pop().expect("two blocks");
            let (m1, c1) = blocks.pop().expect("two blocks");
            blocks.push(((m1 * c1 as f64 + m2 * c2 as f64) / (c1 + c2) as f64, c1 + c2));
        }
    }
    blocks.into_iter().flat_map(|(m, c)| std::iter::repeat(m).take(c)).collect()
}

/// Sends `seq` (indices into `targets`) to `addr` at `rate` requests/s,
/// round-robin over `conns` keep-alive connections, and returns every
/// request's outcome in schedule order.
pub fn run_phase(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    seq: &[u32],
    targets: &[String],
) -> Vec<Sample> {
    let conns = conns.max(1);
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect to query server");
            let _ = s.set_nodelay(true);
            s.set_read_timeout(Some(RESPONSE_TIMEOUT)).expect("set read timeout");
            s
        })
        .collect();
    let requests: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| format!("GET {t} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes())
        .collect();
    // Connections are up before the clock starts: set-up is not load.
    let epoch = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| i as f64 / rate;
    let mut samples: Vec<Sample> =
        (0..seq.len()).map(|i| Sample { due_s: due(i), ..Sample::default() }).collect();
    std::thread::scope(|s| {
        let mut lanes = Vec::new();
        for (c, stream) in streams.into_iter().enumerate() {
            let mine: Vec<usize> = (c..seq.len()).step_by(conns).collect();
            let mut writer = stream.try_clone().expect("clone connection");
            let reader = stream;
            let (requests, mine_w) = (&requests, mine.clone());
            let w = s.spawn(move || {
                let mut sent = vec![0.0f64; mine_w.len()];
                let mut buf = Vec::new();
                let mut k = 0;
                while k < mine_w.len() {
                    let due_at = epoch + Duration::from_secs_f64(due(mine_w[k]));
                    let now = Instant::now();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    // Everything due by now goes out in one write.
                    let now = Instant::now();
                    buf.clear();
                    let first = k;
                    while k < mine_w.len() && epoch + Duration::from_secs_f64(due(mine_w[k])) <= now
                    {
                        buf.extend_from_slice(&requests[seq[mine_w[k]] as usize]);
                        k += 1;
                    }
                    if writer.write_all(&buf).is_err() {
                        break;
                    }
                    let at = now.saturating_duration_since(epoch).as_secs_f64();
                    sent[first..k].iter_mut().for_each(|t| *t = at);
                }
                sent
            });
            let expected = mine.len();
            let r = s.spawn(move || {
                let mut rd = BufReader::with_capacity(64 * 1024, reader);
                let mut got = Vec::with_capacity(expected);
                for _ in 0..expected {
                    match read_response(&mut rd) {
                        Some((status, body)) => {
                            let at = Instant::now().saturating_duration_since(epoch).as_secs_f64();
                            got.push((at, status, body));
                        }
                        None => break,
                    }
                }
                got
            });
            lanes.push((mine, w, r));
        }
        for (mine, w, r) in lanes {
            let sent = w.join().expect("load writer thread");
            let got = r.join().expect("load reader thread");
            for (j, &i) in mine.iter().enumerate() {
                samples[i].sent_s = sent[j];
                if let Some(&(at, status, body)) = got.get(j) {
                    samples[i].done_s = Some(at);
                    samples[i].status = status;
                    samples[i].body = body;
                }
            }
        }
    });
    samples
}

/// Reads one response; `None` on timeout, EOF or bad framing.
fn read_response<R: BufRead>(r: &mut R) -> Option<(u16, u64)> {
    let mut line = String::new();
    r.read_line(&mut line).ok().filter(|&n| n > 0)?;
    let status: u16 = line.split(' ').nth(1)?.parse().ok()?;
    let mut len = None;
    loop {
        line.clear();
        r.read_line(&mut line).ok().filter(|&n| n > 0)?;
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = vec![0u8; len?];
    r.read_exact(&mut body).ok()?;
    Some((status, Digest::of(&body).value()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(due_s: f64, sent_s: f64, done_s: Option<f64>, status: u16) -> Sample {
        Sample { due_s, sent_s, done_s, status, body: 0 }
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // The generator stalled 10 ms on the second request: its latency
        // includes the stall, and the stall shows as lateness.
        let a = account(&[
            sample(0.000, 0.000, Some(0.001), 200),
            sample(0.001, 0.011, Some(0.012), 200),
        ]);
        assert!((a.latency_ms[0] - 1.0).abs() < 1e-9);
        assert!((a.latency_ms[1] - 11.0).abs() < 1e-9);
        assert!((a.late_ms[1] - 10.0).abs() < 1e-9);
        assert_eq!(a.tally, Tally { attempted: 2, failed: 0 });
        assert!((a.span_s - 0.012).abs() < 1e-12);
    }

    #[test]
    fn unanswered_and_non_200_count_as_failed() {
        let a = account(&[
            sample(0.0, 0.0, Some(0.001), 200),
            sample(0.1, 0.1, None, 0),
            sample(0.2, 0.2, Some(0.201), 503),
        ]);
        assert_eq!(a.tally, Tally { attempted: 3, failed: 2 });
        assert_eq!(a.latency_ms.len(), 2);
        assert!(Ladder::default().push(1e3, &a), "a rate that failed requests ends the ladder");
    }

    #[test]
    fn one_stalled_window_does_not_fail_a_rate() {
        let mut v: Vec<Sample> =
            (0..5000).map(|i| sample(i as f64, i as f64, Some(i as f64 + 0.001), 200)).collect();
        for s in v.iter_mut().take(1000).skip(900) {
            s.done_s = Some(s.due_s + 0.020);
        }
        let a = account(&v);
        assert!(percentile(&a.sorted_latency(), 99.0).unwrap() > P99_LIMIT_MS);
        assert!((a.window_p99_ms().unwrap() - 1.0).abs() < 1e-9);
        assert!(!Ladder::default().push(1e3, &a));
    }

    #[test]
    fn window_p99_needs_a_full_window() {
        let v: Vec<Sample> =
            (0..1000).map(|i| sample(i as f64, i as f64, Some(i as f64 + 0.002), 200)).collect();
        assert!((account(&v).window_p99_ms().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(account(&v[..999]).window_p99_ms(), None);
    }

    #[test]
    fn monotone_fit_pools_violators() {
        assert_eq!(monotone_fit(&[1.0, 3.0, 2.0, 4.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(monotone_fit(&[5.0, 1.0, 0.0]), vec![2.0, 2.0, 2.0]);
        assert!(monotone_fit(&[]).is_empty());
    }

    fn rung(p99: Option<f64>) -> Accounting {
        let mut a = Accounting::default();
        match p99 {
            Some(p) => {
                a.latency_ms = vec![p; WINDOW];
                a.tally = Tally { attempted: WINDOW as u64, failed: 0 };
            }
            None => a.tally = Tally { attempted: 1, failed: 1 },
        }
        a
    }

    #[test]
    fn ladder_reads_the_limit_off_the_fit() {
        let mut l = Ladder::default();
        // A lone stalled rung at 20k/s is pooled with its neighbours.
        for (rate, p) in [(10.0, 1.0), (20.0, 7.0), (30.0, 1.0), (40.0, 3.0), (50.0, 7.0)] {
            assert!(!l.push(rate * 1e3, &rung(Some(p))));
        }
        assert!(l.push(60e3, &rung(None)), "a failing rung ends the ladder");
        // fit: 1, 11/3, 11/3, 11/3, 7, far -> crosses 5 ms at 44k.
        let r = l.sustained_rate();
        assert!((r - 44_000.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn ladder_stops_after_three_rungs_over_the_limit() {
        let mut l = Ladder::default();
        assert!(!l.push(1e3, &rung(Some(6.0))));
        assert!(!l.push(2e3, &rung(Some(6.0))));
        assert!(l.push(3e3, &rung(Some(6.0))));
        assert!((l.sustained_rate() - 1e3 * 5.0 / 6.0).abs() < 1e-6);
        let mut top = Ladder::default();
        top.push(1e3, &rung(Some(1.0)));
        assert_eq!(top.sustained_rate(), 1e3, "never over the limit: the top rung");
    }

    #[test]
    fn growing_latency_is_a_backlog() {
        let flat: Vec<f64> = (0..100).map(|i| 0.2 + (i % 3) as f64 * 0.01).collect();
        assert!(!backlog_growing(&flat));
        let growing: Vec<f64> = (0..100).map(|i| 0.2 + i as f64 * 0.05).collect();
        assert!(backlog_growing(&growing));
    }
}
