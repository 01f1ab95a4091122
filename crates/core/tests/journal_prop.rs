//! Property-based tests for the checkpoint journal codec: decoding is
//! total (never panics, whatever the bytes), the CRC framing catches
//! every single-bit flip and single-byte corruption, and replay always
//! yields an intact prefix of the records actually written.

use proptest::prelude::*;
use sleepwatch_core::journal::{
    crc32, decode_header, decode_record, encode_header, encode_record, replay, JournalHeader,
    ReplayOutcome, HEADER_LEN, RECORD_LEN,
};
use sleepwatch_core::{analyze_world, AnalysisConfig, WorldBlockReport};
use sleepwatch_simnet::{World, WorldConfig};
use std::sync::OnceLock;

/// A small analyzed world shared by every case: real reports exercise the
/// codec's full field range (located and unlocated blocks, every class).
fn reports() -> &'static Vec<WorldBlockReport> {
    static REPORTS: OnceLock<Vec<WorldBlockReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let world = World::generate(WorldConfig {
            num_blocks: 24,
            seed: 7,
            span_days: 1.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, world.cfg.span_days);
        let analysis = analyze_world(&world, &cfg, 2, None);
        assert!(analysis.quarantined.is_empty());
        analysis.reports
    })
}

fn header() -> JournalHeader {
    JournalHeader { world_seed: 7, num_blocks: 24, rounds: 131, start_time: 0 }
}

/// Journal bytes holding the first `k` reports.
fn journal_bytes(k: usize) -> Vec<u8> {
    let mut bytes = encode_header(&header()).to_vec();
    for r in &reports()[..k] {
        bytes.extend_from_slice(&encode_record(r).expect("table country"));
    }
    bytes
}

fn dbg(r: &WorldBlockReport) -> String {
    format!("{r:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode_record` is total over arbitrary byte slices.
    #[test]
    fn decode_record_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..RECORD_LEN * 2)) {
        let _ = decode_record(&bytes);
    }

    /// `decode_header` is total over arbitrary byte slices.
    #[test]
    fn decode_header_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..HEADER_LEN * 2)) {
        let _ = decode_header(&bytes);
    }

    /// `replay` is total over arbitrary byte soup: garbage never
    /// resumes (a random 48-byte prefix does not spell the magic), and a
    /// `Resumed` outcome never claims more bytes than the input holds.
    #[test]
    fn replay_never_panics_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        match replay(&bytes, &header()) {
            Ok(ReplayOutcome::Resumed { reports, valid_len, .. }) => {
                prop_assert_eq!(valid_len as usize, HEADER_LEN + reports.len() * RECORD_LEN);
                prop_assert!(valid_len as usize <= bytes.len());
            }
            Ok(ReplayOutcome::Fresh { .. } | ReplayOutcome::HeaderMismatch { .. }) | Err(_) => {}
        }
    }

    /// Every record encodes and decodes back to itself.
    #[test]
    fn record_roundtrip(idx in 0usize..24) {
        let original = &reports()[idx];
        let frame = encode_record(original).expect("table country");
        let back = decode_record(&frame).expect("own encoding decodes");
        prop_assert_eq!(dbg(original), dbg(&back));
    }

    /// Any single-bit flip anywhere in a frame is caught by the CRC (or
    /// the magic/validation layers underneath it).
    #[test]
    fn any_bit_flip_is_caught(idx in 0usize..24, bit in 0usize..RECORD_LEN * 8) {
        let mut frame = encode_record(&reports()[idx]).expect("table country");
        frame[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode_record(&frame).is_none(), "flip of bit {} went undetected", bit);
    }

    /// Corrupting one byte of a journal discards exactly the frames from
    /// the damaged one onward: replay returns the intact prefix.
    #[test]
    fn replay_keeps_exactly_the_intact_prefix(
        k in 1usize..24,
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let mut bytes = journal_bytes(k);
        let body = bytes.len() - HEADER_LEN;
        let pos = HEADER_LEN + ((pos_frac * body as f64) as usize).min(body - 1);
        bytes[pos] ^= xor;
        let damaged_frame = (pos - HEADER_LEN) / RECORD_LEN;
        match replay(&bytes, &header()) {
            Ok(ReplayOutcome::Resumed { reports: got, discarded, .. }) => {
                prop_assert_eq!(got.len(), damaged_frame);
                prop_assert_eq!(discarded as usize, k - damaged_frame);
                for (g, want) in got.iter().zip(reports()) {
                    prop_assert_eq!(dbg(g), dbg(want));
                }
            }
            other => prop_assert!(false, "expected Resumed, got {:?}", other),
        }
    }

    /// Truncating a journal anywhere keeps only the complete frames
    /// before the cut.
    #[test]
    fn replay_of_truncation_keeps_complete_frames(k in 1usize..24, cut_frac in 0.0f64..1.0) {
        let bytes = journal_bytes(k);
        let cut = HEADER_LEN + ((cut_frac * (bytes.len() - HEADER_LEN) as f64) as usize);
        match replay(&bytes[..cut], &header()) {
            Ok(ReplayOutcome::Resumed { reports: got, .. }) => {
                prop_assert_eq!(got.len(), (cut - HEADER_LEN) / RECORD_LEN);
            }
            other => prop_assert!(false, "expected Resumed, got {:?}", other),
        }
    }

    /// The CRC itself detects any single-byte change in what it covers.
    #[test]
    fn crc_detects_single_byte_changes(pos in 0usize..80, xor in 1u8..=255) {
        let mut data = [0u8; 80];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37);
        }
        let clean = crc32(&data);
        data[pos] ^= xor;
        prop_assert_ne!(clean, crc32(&data));
    }
}
