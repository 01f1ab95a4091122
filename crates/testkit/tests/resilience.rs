//! Kill-and-resume differential oracle for the world-run checkpoint
//! journal.
//!
//! For every named [`FaultPlan`] preset we run the 500-block resilience
//! world once to completion through a journaled `WorldRun`, which
//! doubles as the reference output *and* produces a complete journal.
//! We then simulate two kinds of crash by truncating a copy of that
//! journal — at an exact record boundary, and mid-record (a torn write) —
//! and resume from each severed copy. The resumed analyses must serialize
//! to TSVs byte-identical to the uninterrupted run, at 1 and at 8 worker
//! threads.

use sleepwatch_core::journal::record_boundaries;
use sleepwatch_core::WorldRun;
use sleepwatch_probing::FaultPlan;
use sleepwatch_testkit::resilience::{
    dataset_tsv, resilience_cfg, resilience_world, scratch_path, RESILIENCE_BLOCKS,
};
use std::path::Path;

const PRESET_SEED: u64 = 0xFA_17;

fn preset(name: &str) -> FaultPlan {
    FaultPlan::presets(PRESET_SEED)
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no preset named {name}"))
        .1
}

/// Truncates a copy of `journal` to `len` bytes at a fresh scratch path.
fn severed_copy(journal: &Path, tag: &str, len: usize) -> std::path::PathBuf {
    let bytes = std::fs::read(journal).expect("read complete journal");
    assert!(len < bytes.len(), "sever point {len} is not inside the journal");
    let path = scratch_path(tag);
    std::fs::write(&path, &bytes[..len]).expect("write severed copy");
    path
}

/// The oracle body: reference run at 8 threads, then resume from a
/// record-boundary sever at 1 thread and a mid-record sever at 8 threads.
fn kill_and_resume(name: &str) {
    let world = resilience_world();
    let cfg = resilience_cfg(&world, preset(name));
    let journal = scratch_path(&format!("{name}-ref"));

    let reference = WorldRun { threads: 8, journal: Some(&journal), ..WorldRun::default() }
        .analyze(&world, &cfg)
        .expect("reference run");
    assert!(reference.quarantined.is_empty(), "{name}: unexpected quarantines");
    let want = dataset_tsv(&reference);

    let bytes = std::fs::read(&journal).expect("read journal");
    let bounds = record_boundaries(&bytes);
    assert_eq!(
        bounds.len() - 1,
        RESILIENCE_BLOCKS,
        "{name}: journal should hold one record per block"
    );
    assert_eq!(*bounds.last().unwrap(), bytes.len(), "{name}: trailing bytes in the journal");

    // Crash after a clean fsync: the tail ends exactly on a record boundary.
    let boundary = bounds[RESILIENCE_BLOCKS / 2];
    let at_boundary = severed_copy(&journal, &format!("{name}-boundary"), boundary);
    let resumed = WorldRun { threads: 1, journal: Some(&at_boundary), ..WorldRun::default() }
        .analyze(&world, &cfg)
        .expect("boundary resume");
    assert!(resumed.quarantined.is_empty());
    assert_eq!(
        want,
        dataset_tsv(&resumed),
        "{name}: resume from record-boundary sever at 1 thread diverged"
    );

    // Torn write: the crash landed mid-record and left a damaged suffix.
    let mid_record = boundary + (bounds[RESILIENCE_BLOCKS / 2 + 1] - boundary) / 2;
    let torn = severed_copy(&journal, &format!("{name}-torn"), mid_record);
    let resumed = WorldRun { threads: 8, journal: Some(&torn), ..WorldRun::default() }
        .analyze(&world, &cfg)
        .expect("torn resume");
    assert!(resumed.quarantined.is_empty());
    assert_eq!(
        want,
        dataset_tsv(&resumed),
        "{name}: resume from mid-record sever at 8 threads diverged"
    );
}

#[test]
fn kill_and_resume_loss_light() {
    kill_and_resume("loss-light");
}

#[test]
fn kill_and_resume_loss_heavy() {
    kill_and_resume("loss-heavy");
}

#[test]
fn kill_and_resume_blackout() {
    kill_and_resume("blackout");
}

#[test]
fn kill_and_resume_restart_storm() {
    kill_and_resume("restart-storm");
}

#[test]
fn kill_and_resume_truncated() {
    kill_and_resume("truncated");
}

#[test]
fn kill_and_resume_dup_reorder() {
    kill_and_resume("dup-reorder");
}

#[test]
fn kill_and_resume_churn() {
    kill_and_resume("churn");
}

/// A bit flip in the journal body (not just truncation) must also resume
/// to a byte-identical result: replay keeps the valid prefix and recomputes
/// everything from the first damaged record onward.
#[test]
fn bit_flipped_tail_resumes_identically() {
    let world = resilience_world();
    let cfg = resilience_cfg(&world, FaultPlan::none());
    let journal = scratch_path("flip-ref");
    let reference = WorldRun { threads: 8, journal: Some(&journal), ..WorldRun::default() }
        .analyze(&world, &cfg)
        .expect("reference run");
    let want = dataset_tsv(&reference);

    let mut bytes = std::fs::read(&journal).expect("read journal");
    // 17 bytes into record 100 — inside every record's fixed prefix.
    let victim = record_boundaries(&bytes)[100] + 17;
    bytes[victim] ^= 0x40;
    let flipped = scratch_path("flip");
    std::fs::write(&flipped, &bytes).expect("write flipped copy");

    let resumed = WorldRun { threads: 8, journal: Some(&flipped), ..WorldRun::default() }
        .analyze(&world, &cfg)
        .expect("resume");
    assert!(resumed.quarantined.is_empty());
    assert_eq!(want, dataset_tsv(&resumed), "resume over a bit-flipped record diverged");
}

/// With no journal on disk at all, the resumable entry point must match
/// the plain `analyze_world` path byte for byte.
#[test]
fn resumable_matches_plain_run() {
    let world = resilience_world();
    let cfg = resilience_cfg(&world, preset("blackout"));
    let plain = sleepwatch_core::analyze_world(&world, &cfg, 8, None);
    let journal = scratch_path("plain-vs-resumable");
    let resumable = WorldRun { threads: 8, journal: Some(&journal), ..WorldRun::default() }
        .analyze(&world, &cfg)
        .expect("run");
    assert_eq!(dataset_tsv(&plain), dataset_tsv(&resumable));
}
