//! The estimators every reported number goes through.
//!
//! Timings are summarised as a median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail
//! figure is never read off a handful of points. Run-to-run spread uses
//! the quartiles of Python's `statistics.quantiles(xs, n=4)` (the
//! default "exclusive" method), which is what the acceptance check
//! applies to the same numbers.

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles a tail is read at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The three cut points of `statistics.quantiles(xs, n=4)` (exclusive
/// method); `None` for fewer than two samples, where Python raises.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the steadiness
/// figure a metric's bound is compared with.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let q = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q[2] - q[0]) / med.abs())
}

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps p·n that is whole in exact arithmetic from rounding up).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest ladder percentile of `n` samples with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// True when percentile `p` is reportable from `n` samples.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND
}

/// Failure accounting for one measured operation stream. An operation
/// that fails or is refused also counts as missing any latency limit, so
/// callers never drop it from the attempted total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or answered wrong.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed share of attempted (0 when nothing was attempted).
    pub fn failed_fraction(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&xs).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        // 20 samples: p50 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_fraction(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(t, Tally { attempted: 4, failed: 1 });
        t.absorb(Tally { attempted: 4, failed: 1 });
        assert_eq!(t.failed_fraction(), 0.25);
    }
}
