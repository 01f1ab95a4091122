//! Paper-scale kill-and-resume oracle for the lazy [`WorldSource`] path.
//!
//! A 100k-block world is analyzed through the streaming stats sink with a
//! checkpoint journal, the journal is severed mid-run to simulate a kill,
//! and the run is resumed. The resumed aggregate must equal the
//! uninterrupted one exactly — and, the point of lazy sharding, resume
//! must **never regenerate already-journaled blocks**: the
//! `simnet.blocks_generated` delta across the resume equals exactly the
//! blocks the journal did not cover, and a fully-journaled replay
//! generates nothing at all.
//!
//! Single test in its own binary: the generation-counter arithmetic needs
//! a process where no concurrent test is generating blocks.

use sleepwatch_core::journal::record_boundaries;
use sleepwatch_core::{AnalysisConfig, WorldRun};
use sleepwatch_obs::Snapshot;
use sleepwatch_simnet::{WorldConfig, WorldSource};
use sleepwatch_testkit::resilience::scratch_path;
use std::path::Path;

const BLOCKS: usize = 100_000;
/// Records surviving the simulated kill.
const JOURNALED: usize = 60_000;

fn severed_copy(journal: &Path, tag: &str, len: usize) -> std::path::PathBuf {
    let bytes = std::fs::read(journal).expect("read complete journal");
    assert!(len < bytes.len(), "sever point {len} is not inside the journal");
    let path = scratch_path(tag);
    std::fs::write(&path, &bytes[..len]).expect("write severed copy");
    path
}

#[test]
fn resume_at_paper_scale_never_regenerates_journaled_shards() {
    sleepwatch_obs::set_global_enabled(true);
    let obs = sleepwatch_obs::global();
    let source = WorldSource::new(WorldConfig {
        num_blocks: BLOCKS,
        seed: 0x5eed_bade,
        span_days: 1.0,
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(source.cfg().start_time, 1.0);
    let journal = scratch_path("src-resume-ref");

    // Reference: uninterrupted run, which also writes a complete journal.
    let before = Snapshot::capture(obs);
    let reference = WorldRun { threads: 4, journal: Some(&journal), ..WorldRun::default() }
        .stats(&source, &cfg)
        .expect("reference run");
    let d = Snapshot::capture(obs).delta(&before);
    assert!(reference.quarantined.is_empty());
    assert_eq!(reference.blocks, BLOCKS);
    assert_eq!(
        d.counter("simnet.blocks_generated"),
        BLOCKS as u64,
        "fresh run generates every block exactly once"
    );
    assert!(d.counter("world.source_chunks") > 0, "lazy chunks must be counted");

    // Kill: sever the journal at a record boundary partway through.
    let bytes = std::fs::read(&journal).expect("read journal");
    let severed =
        severed_copy(&journal, "src-resume-severed", record_boundaries(&bytes)[JOURNALED]);
    let before = Snapshot::capture(obs);
    let resumed = WorldRun { threads: 4, journal: Some(&severed), ..WorldRun::default() }
        .stats(&source, &cfg)
        .expect("resumed run");
    let d = Snapshot::capture(obs).delta(&before);
    assert_eq!(reference, resumed, "resumed aggregate diverged from uninterrupted run");
    assert_eq!(
        d.counter("simnet.blocks_generated"),
        (BLOCKS - JOURNALED) as u64,
        "resume must synthesize only the blocks the journal did not cover"
    );

    // Replay: the severed journal is now complete; nothing regenerates.
    let before = Snapshot::capture(obs);
    let replayed = WorldRun { threads: 4, journal: Some(&severed), ..WorldRun::default() }
        .stats(&source, &cfg)
        .expect("replay run");
    let d = Snapshot::capture(obs).delta(&before);
    assert_eq!(reference, replayed);
    assert_eq!(d.counter("simnet.blocks_generated"), 0, "full replay must not generate");
    assert_eq!(d.counter("world.source_chunks"), 0, "fully replayed chunks are skipped");

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&severed);
}
