//! Online diurnal detection: classify as observations arrive.
//!
//! The batch pipeline ([`crate::analyze`]) stores a full series and runs
//! one FFT at the end. An operational monitor wants a verdict *while*
//! collecting — and at 3.7 M blocks it cannot afford a full spectrum per
//! block per round. [`OnlineDetector`] keeps a bounded window of recent
//! `Âs` values and re-classifies on a coarse schedule, preceded by a cheap
//! Goertzel screen of the daily bin so obviously-flat blocks never pay for
//! a full FFT.

use sleepwatch_availability::Estimates;
use sleepwatch_spectral::{classify, diurnal_energy_ratio, DiurnalClass, DiurnalConfig, Spectrum};

/// Configuration for [`OnlineDetector`].
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Sliding-window length in rounds (default: 14 days).
    pub window_rounds: usize,
    /// Re-classify every this many rounds once the window is full
    /// (default: half a day).
    pub reclassify_every: usize,
    /// Goertzel energy-ratio screen below which the full FFT is skipped
    /// and the block stays non-diurnal (0 disables the screen).
    pub screen_threshold: f64,
    /// Sampling period in seconds.
    pub sample_period: f64,
    /// Classifier margins.
    pub diurnal: DiurnalConfig,
    /// Number of consecutive identical raw verdicts required before the
    /// public classification changes (1 = report immediately). Smooths the
    /// flapping the loose relaxed class otherwise shows on noisy flat
    /// blocks.
    pub hysteresis: u32,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            window_rounds: 1_833,
            reclassify_every: 65,
            screen_threshold: 2.0,
            sample_period: 660.0,
            diurnal: DiurnalConfig::default(),
            hysteresis: 1,
        }
    }
}

/// A plain-data copy of an [`OnlineDetector`]'s full state.
///
/// Snapshots exist so a live ingest shard can checkpoint warm-up state
/// and a resumed process can continue *exactly* where the killed one
/// stopped: a detector restored from a snapshot is behaviorally
/// indistinguishable from one that ran uninterrupted (see the round-trip
/// equivalence tests). The window is stored in chronological order, so
/// the snapshot is independent of the ring buffer's internal rotation.
#[derive(Debug, Clone)]
pub struct DetectorSnapshot {
    /// Detector configuration, restored verbatim.
    pub cfg: OnlineConfig,
    /// Window contents in chronological order (oldest first). Shorter
    /// than `cfg.window_rounds` while the detector is still warming up.
    pub window: Vec<f64>,
    /// Rounds ingested so far.
    pub rounds_seen: u64,
    /// Rounds since the last reclassification pass.
    pub since_classify: usize,
    /// Public classification.
    pub class: DiurnalClass,
    /// Phase of the daily component, when known.
    pub phase: Option<f64>,
    /// In-flight hysteresis state: candidate class and streak length.
    pub pending: Option<(DiurnalClass, u32)>,
    /// Full FFT classifications performed.
    pub classifications: u64,
    /// Reclassifications skipped by the Goertzel screen.
    pub screens_skipped: u64,
}

const SNAPSHOT_MAGIC: u32 = 0x5357_4454; // "SWDT"
const SNAPSHOT_VERSION: u16 = 1;

/// Little-endian field reader over a byte slice; every accessor returns
/// `None` past the end, so malformed input can never panic.
struct Fields<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Fields<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

impl DetectorSnapshot {
    /// Serializes the snapshot to a self-describing little-endian byte
    /// record (magic, version, config, verdict state, window).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96 + 8 * self.window.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.cfg.window_rounds as u64).to_le_bytes());
        out.extend_from_slice(&(self.cfg.reclassify_every as u64).to_le_bytes());
        out.extend_from_slice(&self.cfg.screen_threshold.to_le_bytes());
        out.extend_from_slice(&self.cfg.sample_period.to_le_bytes());
        out.extend_from_slice(&self.cfg.diurnal.strict_ratio.to_le_bytes());
        out.extend_from_slice(&(self.cfg.diurnal.bin_tolerance as u64).to_le_bytes());
        out.extend_from_slice(&self.cfg.diurnal.min_days.to_le_bytes());
        out.extend_from_slice(&self.cfg.hysteresis.to_le_bytes());
        out.extend_from_slice(&self.rounds_seen.to_le_bytes());
        out.extend_from_slice(&(self.since_classify as u64).to_le_bytes());
        out.extend_from_slice(&self.classifications.to_le_bytes());
        out.extend_from_slice(&self.screens_skipped.to_le_bytes());
        out.push(self.class.code());
        match self.phase {
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.to_le_bytes());
            }
            None => out.push(0),
        }
        match self.pending {
            Some((c, n)) => {
                out.push(1);
                out.push(c.code());
                out.extend_from_slice(&n.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.window.len() as u64).to_le_bytes());
        for v in &self.window {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes a record produced by [`DetectorSnapshot::encode`]. Returns
    /// `None` for anything malformed: wrong magic or version, truncated
    /// fields, invalid tags, a window longer than its config allows, or
    /// trailing garbage.
    pub fn decode(bytes: &[u8]) -> Option<DetectorSnapshot> {
        let mut f = Fields { bytes, at: 0 };
        if f.u32()? != SNAPSHOT_MAGIC || f.u16()? != SNAPSHOT_VERSION {
            return None;
        }
        let cfg = OnlineConfig {
            window_rounds: usize::try_from(f.u64()?).ok()?,
            reclassify_every: usize::try_from(f.u64()?).ok()?,
            screen_threshold: f.f64()?,
            sample_period: f.f64()?,
            diurnal: DiurnalConfig {
                strict_ratio: f.f64()?,
                bin_tolerance: usize::try_from(f.u64()?).ok()?,
                min_days: f.f64()?,
            },
            hysteresis: f.u32()?,
        };
        if cfg.window_rounds < 4 {
            return None;
        }
        let rounds_seen = f.u64()?;
        let since_classify = usize::try_from(f.u64()?).ok()?;
        let classifications = f.u64()?;
        let screens_skipped = f.u64()?;
        let class = DiurnalClass::from_code(f.u8()?)?;
        let phase = match f.u8()? {
            0 => None,
            1 => Some(f.f64()?),
            _ => return None,
        };
        let pending = match f.u8()? {
            0 => None,
            1 => Some((DiurnalClass::from_code(f.u8()?)?, f.u32()?)),
            _ => return None,
        };
        let len = usize::try_from(f.u64()?).ok()?;
        if len > cfg.window_rounds {
            return None;
        }
        let mut window = Vec::with_capacity(len);
        for _ in 0..len {
            window.push(f.f64()?);
        }
        if f.at != bytes.len() {
            return None;
        }
        Some(DetectorSnapshot {
            cfg,
            window,
            rounds_seen,
            since_classify,
            class,
            phase,
            pending,
            classifications,
            screens_skipped,
        })
    }
}

/// Incremental diurnal detector over a sliding window of `Âs` estimates.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    cfg: OnlineConfig,
    window: Vec<f64>,
    head: usize,
    filled: bool,
    rounds_seen: u64,
    since_classify: usize,
    class: DiurnalClass,
    phase: Option<f64>,
    pending: Option<(DiurnalClass, u32)>,
    classifications: u64,
    screens_skipped: u64,
}

impl OnlineDetector {
    /// Creates a detector.
    pub fn new(cfg: OnlineConfig) -> Self {
        assert!(cfg.window_rounds >= 4, "window too small to classify");
        OnlineDetector {
            window: Vec::with_capacity(cfg.window_rounds),
            head: 0,
            filled: false,
            rounds_seen: 0,
            since_classify: 0,
            class: DiurnalClass::NonDiurnal,
            phase: None,
            pending: None,
            classifications: 0,
            screens_skipped: 0,
            cfg,
        }
    }

    /// Feeds one round's estimates; returns the current classification.
    pub fn push(&mut self, estimates: &Estimates) -> DiurnalClass {
        self.push_value(estimates.a_short)
    }

    /// Feeds one raw `Âs` value.
    pub fn push_value(&mut self, a_short: f64) -> DiurnalClass {
        if self.window.len() < self.cfg.window_rounds {
            self.window.push(a_short);
            self.filled = self.window.len() == self.cfg.window_rounds;
        } else {
            self.window[self.head] = a_short;
            self.head = (self.head + 1) % self.cfg.window_rounds;
        }
        self.rounds_seen += 1;
        self.since_classify += 1;
        if self.filled && self.since_classify >= self.cfg.reclassify_every {
            self.since_classify = 0;
            self.reclassify();
        }
        self.class
    }

    /// The window in chronological order.
    fn ordered_window(&self) -> Vec<f64> {
        if !self.filled || self.head == 0 {
            self.window.clone()
        } else {
            let mut out = Vec::with_capacity(self.window.len());
            out.extend_from_slice(&self.window[self.head..]);
            out.extend_from_slice(&self.window[..self.head]);
            out
        }
    }

    fn reclassify(&mut self) {
        let series = self.ordered_window();
        let (raw_class, raw_phase) = if self.cfg.screen_threshold > 0.0
            && diurnal_energy_ratio(&series, self.cfg.sample_period) < self.cfg.screen_threshold
        {
            self.screens_skipped += 1;
            (DiurnalClass::NonDiurnal, None)
        } else {
            let spectrum = Spectrum::compute(&series, self.cfg.sample_period);
            let report = classify(&spectrum, &self.cfg.diurnal);
            self.classifications += 1;
            (report.class, report.phase)
        };
        self.apply_verdict(raw_class, raw_phase);
    }

    /// Applies hysteresis: a change must repeat `hysteresis` times in a row
    /// before it becomes the public classification.
    fn apply_verdict(&mut self, raw_class: DiurnalClass, raw_phase: Option<f64>) {
        if raw_class == self.class {
            self.pending = None;
            self.phase = raw_phase.or(self.phase);
            return;
        }
        let needed = self.cfg.hysteresis.max(1);
        let count = match self.pending {
            Some((c, n)) if c == raw_class => n + 1,
            _ => 1,
        };
        if count >= needed {
            self.class = raw_class;
            self.phase = raw_phase;
            self.pending = None;
        } else {
            self.pending = Some((raw_class, count));
        }
    }

    /// Current verdict.
    pub fn class(&self) -> DiurnalClass {
        self.class
    }

    /// Phase of the daily component, when diurnal.
    pub fn phase(&self) -> Option<f64> {
        self.phase
    }

    /// `true` once the window holds a full span.
    pub fn warmed_up(&self) -> bool {
        self.filled
    }

    /// Rounds ingested.
    pub fn rounds_seen(&self) -> u64 {
        self.rounds_seen
    }

    /// Full FFT classifications performed (cost accounting).
    pub fn classifications(&self) -> u64 {
        self.classifications
    }

    /// Re-classifications avoided by the Goertzel screen.
    pub fn screens_skipped(&self) -> u64 {
        self.screens_skipped
    }

    /// Captures the detector's full state for checkpointing.
    pub fn snapshot(&self) -> DetectorSnapshot {
        DetectorSnapshot {
            cfg: self.cfg,
            window: self.ordered_window(),
            rounds_seen: self.rounds_seen,
            since_classify: self.since_classify,
            class: self.class,
            phase: self.phase,
            pending: self.pending,
            classifications: self.classifications,
            screens_skipped: self.screens_skipped,
        }
    }

    /// Rebuilds a detector from a snapshot. The restored detector is
    /// behaviorally identical to the one that produced the snapshot: fed
    /// the same remaining stream, it yields the same verdicts, phases and
    /// cost counters as an uninterrupted detector.
    pub fn restore(snap: &DetectorSnapshot) -> OnlineDetector {
        assert!(snap.cfg.window_rounds >= 4, "window too small to classify");
        assert!(
            snap.window.len() <= snap.cfg.window_rounds,
            "snapshot window exceeds its configured length"
        );
        let mut window = Vec::with_capacity(snap.cfg.window_rounds);
        window.extend_from_slice(&snap.window);
        // The snapshot window is chronological, so `head = 0` points at
        // the oldest sample and the ring resumes rotating correctly.
        OnlineDetector {
            cfg: snap.cfg,
            filled: window.len() == snap.cfg.window_rounds,
            window,
            head: 0,
            rounds_seen: snap.rounds_seen,
            since_classify: snap.since_classify,
            class: snap.class,
            phase: snap.phase,
            pending: snap.pending,
            classifications: snap.classifications,
            screens_skipped: snap.screens_skipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RPD: f64 = 86_400.0 / 660.0;

    fn diurnal_value(round: usize) -> f64 {
        let frac = (round as f64 / RPD).fract();
        if frac < 0.4 {
            0.8
        } else {
            0.2
        }
    }

    fn small_cfg() -> OnlineConfig {
        OnlineConfig {
            window_rounds: (7.0 * RPD) as usize,
            reclassify_every: 50,
            ..Default::default()
        }
    }

    #[test]
    fn detects_diurnal_after_warmup() {
        let mut det = OnlineDetector::new(small_cfg());
        let mut first_detection = None;
        for r in 0..(10.0 * RPD) as usize {
            let class = det.push_value(diurnal_value(r));
            if class.is_strict() && first_detection.is_none() {
                first_detection = Some(r);
            }
        }
        let at = first_detection.expect("diurnal block detected");
        assert!(det.warmed_up());
        // Detection within one reclassify interval of window fill.
        assert!(at <= (7.0 * RPD) as usize + 51, "detected at {at}");
    }

    #[test]
    fn flat_stream_never_classifies_and_skips_ffts() {
        let mut det = OnlineDetector::new(small_cfg());
        for r in 0..(10.0 * RPD) as usize {
            let noise = ((r as f64 * 12.9898).sin() * 43_758.545_3).fract() * 0.05;
            assert_eq!(det.push_value(0.6 + noise), DiurnalClass::NonDiurnal);
        }
        assert!(det.screens_skipped() > 0, "screen should fire");
        assert_eq!(det.classifications(), 0, "no full FFT needed for flat blocks");
    }

    #[test]
    fn behavior_change_flips_the_verdict() {
        // Diurnal for 10 days, then permanently flat: the verdict must
        // decay back to NonDiurnal once the window slides past the change.
        let mut det = OnlineDetector::new(small_cfg());
        let change = (10.0 * RPD) as usize;
        for r in 0..change {
            det.push_value(diurnal_value(r));
        }
        assert!(det.class().is_diurnal(), "diurnal before the change");
        for r in change..change + (9.0 * RPD) as usize {
            det.push_value(0.6 + 0.02 * ((r % 7) as f64));
        }
        assert_eq!(det.class(), DiurnalClass::NonDiurnal, "verdict follows behaviour");
    }

    #[test]
    fn no_verdict_before_warmup() {
        let mut det = OnlineDetector::new(small_cfg());
        for r in 0..100 {
            assert_eq!(det.push_value(diurnal_value(r)), DiurnalClass::NonDiurnal);
        }
        assert!(!det.warmed_up());
        assert_eq!(det.classifications(), 0);
    }

    #[test]
    fn screen_can_be_disabled() {
        let mut cfg = small_cfg();
        cfg.screen_threshold = 0.0;
        let mut det = OnlineDetector::new(cfg);
        for _ in 0..(8.0 * RPD) as usize {
            det.push_value(0.5);
        }
        assert!(det.classifications() > 0, "without the screen every pass FFTs");
    }

    #[test]
    fn phase_is_available_when_diurnal() {
        let mut det = OnlineDetector::new(small_cfg());
        for r in 0..(9.0 * RPD) as usize {
            det.push_value(diurnal_value(r));
        }
        assert!(det.class().is_diurnal());
        assert!(det.phase().is_some());
    }

    #[test]
    fn hysteresis_suppresses_single_round_flaps() {
        // Raw verdicts: N, R, N, R, R, R — with hysteresis 2 the public
        // class only changes once the verdict repeats.
        let mut det = OnlineDetector::new(OnlineConfig {
            window_rounds: 8,
            hysteresis: 2,
            ..Default::default()
        });
        use DiurnalClass::*;
        det.apply_verdict(Relaxed, Some(0.1));
        assert_eq!(det.class(), NonDiurnal, "first flap suppressed");
        det.apply_verdict(NonDiurnal, None);
        det.apply_verdict(Relaxed, Some(0.1));
        assert_eq!(det.class(), NonDiurnal, "counter reset by the revert");
        det.apply_verdict(Relaxed, Some(0.2));
        assert_eq!(det.class(), Relaxed, "two in a row switch the verdict");
        assert_eq!(det.phase(), Some(0.2));
    }

    #[test]
    #[should_panic(expected = "window too small")]
    fn rejects_tiny_window() {
        let _ = OnlineDetector::new(OnlineConfig { window_rounds: 2, ..Default::default() });
    }

    /// Feeds a raw-verdict sequence through the hysteresis filter and
    /// returns the rounds-between-flips of the public classification.
    fn flip_gaps(hysteresis: u32, raw: &[DiurnalClass]) -> Vec<usize> {
        let mut det = OnlineDetector::new(OnlineConfig {
            window_rounds: 8,
            hysteresis,
            ..Default::default()
        });
        let mut last_class = det.class();
        let mut last_flip = 0usize;
        let mut gaps = Vec::new();
        for (i, &c) in raw.iter().enumerate() {
            det.apply_verdict(c, None);
            if det.class() != last_class {
                gaps.push(i - last_flip);
                last_flip = i;
                last_class = det.class();
            }
        }
        gaps
    }

    #[test]
    fn verdicts_never_flap_faster_than_the_hysteresis_window() {
        use DiurnalClass::*;
        // A block flipping diurnal → flat → diurnal, with single-round
        // noise sprinkled in: adversarial input for the filter.
        let mut raw = Vec::new();
        raw.extend(std::iter::repeat(Strict).take(10));
        raw.push(NonDiurnal); // one-round dropout
        raw.extend(std::iter::repeat(Strict).take(5));
        raw.extend(std::iter::repeat(NonDiurnal).take(10));
        raw.push(Strict); // one-round blip
        raw.extend(std::iter::repeat(NonDiurnal).take(5));
        raw.extend(std::iter::repeat(Strict).take(10));
        for h in [2u32, 3, 5] {
            let gaps = flip_gaps(h, &raw);
            // After the first flip, consecutive public flips must be at
            // least the hysteresis window apart: a change needs h
            // consecutive identical raw verdicts to take effect.
            for &g in gaps.iter().skip(1) {
                assert!(g >= h as usize, "hysteresis {h}: public class flipped after {g} rounds");
            }
        }
    }

    #[test]
    fn single_round_flips_are_invisible_above_hysteresis_one() {
        use DiurnalClass::*;
        // Strictly alternating raw verdicts: with hysteresis ≥ 2 the
        // public class must never move at all.
        let raw: Vec<DiurnalClass> =
            (0..40).map(|i| if i % 2 == 0 { Strict } else { NonDiurnal }).collect();
        assert!(flip_gaps(2, &raw).is_empty(), "alternating verdicts leaked through");
        // With hysteresis 1 the same stream flaps constantly — the
        // difference is exactly what the filter is for.
        assert!(flip_gaps(1, &raw).len() > 10);
    }

    #[test]
    fn hysteresis_delays_but_does_not_lose_real_changes() {
        use DiurnalClass::*;
        let mut raw = Vec::new();
        raw.extend(std::iter::repeat(Strict).take(8));
        raw.extend(std::iter::repeat(NonDiurnal).take(8));
        raw.extend(std::iter::repeat(Strict).take(8));
        let mut det = OnlineDetector::new(OnlineConfig {
            window_rounds: 8,
            hysteresis: 3,
            ..Default::default()
        });
        let mut classes = Vec::new();
        for &c in &raw {
            det.apply_verdict(c, if c == Strict { Some(0.3) } else { None });
            classes.push(det.class());
        }
        // All three phases eventually surface...
        assert_eq!(classes[7], Strict);
        assert_eq!(classes[15], NonDiurnal);
        assert_eq!(classes[23], Strict);
        // ...each exactly hysteresis−1 verdicts late (the change lands on
        // the 3rd consecutive new verdict).
        assert_eq!(classes[8 + 1], Strict, "still old class one verdict in");
        assert_eq!(classes[8 + 2], NonDiurnal, "flips on the 3rd new verdict");
    }

    /// Asserts every externally observable detector property matches.
    fn assert_same_state(a: &OnlineDetector, b: &OnlineDetector, ctx: &str) {
        assert_eq!(a.class(), b.class(), "{ctx}: class");
        assert_eq!(a.phase(), b.phase(), "{ctx}: phase");
        assert_eq!(a.warmed_up(), b.warmed_up(), "{ctx}: warmed_up");
        assert_eq!(a.rounds_seen(), b.rounds_seen(), "{ctx}: rounds_seen");
        assert_eq!(a.classifications(), b.classifications(), "{ctx}: classifications");
        assert_eq!(a.screens_skipped(), b.screens_skipped(), "{ctx}: screens_skipped");
    }

    /// The round-trip equivalence pin: at *every* cut point — before
    /// warm-up, mid-window, straddling reclassify boundaries, and right
    /// through a behaviour change — a detector restored from a snapshot
    /// must track an uninterrupted detector exactly, round by round, for
    /// the whole remaining stream.
    #[test]
    fn snapshot_restore_equals_uninterrupted_detector() {
        let total = (12.0 * RPD) as usize;
        let change = (9.0 * RPD) as usize;
        let value = |r: usize| if r < change { diurnal_value(r) } else { 0.55 };
        let cuts = [
            1,
            100,                       // before warm-up
            (7.0 * RPD) as usize - 1,  // one round short of window fill
            (7.0 * RPD) as usize + 49, // one round before a reclassify
            (7.0 * RPD) as usize + 50, // exactly on a reclassify
            change + 17,               // after the behaviour change
        ];
        for cut in cuts {
            let mut uninterrupted = OnlineDetector::new(small_cfg());
            let mut first_half = OnlineDetector::new(small_cfg());
            for r in 0..cut {
                uninterrupted.push_value(value(r));
                first_half.push_value(value(r));
            }
            let snap = first_half.snapshot();
            let mut restored = OnlineDetector::restore(&snap);
            assert_same_state(&uninterrupted, &restored, &format!("cut {cut}, at restore"));
            for r in cut..total {
                let want = uninterrupted.push_value(value(r));
                let got = restored.push_value(value(r));
                assert_eq!(want, got, "cut {cut}: verdict diverged at round {r}");
            }
            assert_same_state(&uninterrupted, &restored, &format!("cut {cut}, end of stream"));
        }
    }

    #[test]
    fn snapshot_survives_nested_snapshot_restore_chains() {
        // Restoring, running, and snapshotting again must compose: three
        // chained restore hops still match the uninterrupted detector.
        let total = (10.0 * RPD) as usize;
        let mut reference = OnlineDetector::new(small_cfg());
        let mut hopped = OnlineDetector::new(small_cfg());
        for r in 0..total {
            reference.push_value(diurnal_value(r));
            if r % 300 == 299 {
                hopped = OnlineDetector::restore(&hopped.snapshot());
            }
            hopped.push_value(diurnal_value(r));
        }
        assert_same_state(&reference, &hopped, "after three restore hops");
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let mut det = OnlineDetector::new(OnlineConfig { hysteresis: 2, ..small_cfg() });
        for r in 0..(8.0 * RPD) as usize {
            det.push_value(diurnal_value(r));
        }
        let snap = det.snapshot();
        let bytes = snap.encode();
        let decoded = DetectorSnapshot::decode(&bytes).expect("decode own encoding");
        assert_eq!(bytes, decoded.encode(), "re-encode must be byte-identical");
        // The decoded snapshot restores to the same behaviour too.
        let mut a = OnlineDetector::restore(&snap);
        let mut b = OnlineDetector::restore(&decoded);
        for r in 0..200 {
            assert_eq!(a.push_value(diurnal_value(r)), b.push_value(diurnal_value(r)));
        }
        assert_same_state(&a, &b, "decoded snapshot");
    }

    #[test]
    fn snapshot_decode_rejects_malformed_input() {
        let mut det = OnlineDetector::new(small_cfg());
        for r in 0..500 {
            det.push_value(diurnal_value(r));
        }
        let bytes = det.snapshot().encode();
        assert!(DetectorSnapshot::decode(&[]).is_none(), "empty");
        for cut in [1, 4, 6, 40, bytes.len() - 1] {
            assert!(DetectorSnapshot::decode(&bytes[..cut]).is_none(), "truncated at {cut}");
        }
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(DetectorSnapshot::decode(&wrong_magic).is_none(), "magic");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(DetectorSnapshot::decode(&trailing).is_none(), "trailing garbage");
    }

    #[test]
    fn end_to_end_flap_rate_is_bounded_on_flipping_input() {
        // Full detector path (window + reclassify + hysteresis): a block
        // that is diurnal for 10 days, flat for 10, diurnal for 10 again
        // must produce at most a handful of public transitions — never a
        // flap per reclassification.
        let cfg = OnlineConfig { hysteresis: 2, ..small_cfg() };
        let reclassify = cfg.reclassify_every;
        let mut det = OnlineDetector::new(cfg);
        let phase_len = (10.0 * RPD) as usize;
        let mut flips = Vec::new();
        let mut last = det.class();
        for r in 0..3 * phase_len {
            let v = match r / phase_len {
                0 | 2 => diurnal_value(r),
                _ => 0.55,
            };
            det.push_value(v);
            if det.class() != last {
                flips.push(r);
                last = det.class();
            }
        }
        assert!(
            (2..=6).contains(&flips.len()),
            "expected a few genuine transitions, saw {} at {flips:?}",
            flips.len()
        );
        // Consecutive flips are at least hysteresis reclassification
        // periods apart.
        for w in flips.windows(2) {
            assert!(
                w[1] - w[0] >= 2 * reclassify,
                "public flips {} and {} closer than the hysteresis window",
                w[0],
                w[1]
            );
        }
    }
}
