//! World-scale differential oracle for the sharded streaming ingest
//! engine.
//!
//! The single-block batch≡online exact-agreement test
//! (`testkit/tests/oracles.rs`) scaled to a whole world: for every named
//! [`FaultPlan`] preset the world is streamed through `core::ingest` at
//! 1, 4 and 8 shards (each with a different event interleaving), and
//! every per-block verdict — class, phase, the full joined report — must
//! agree *exactly* with the batch pipeline (`analyze_block` /
//! `analyze_world`) on the same rounds. Kill-and-resume from a severed
//! mid-stream checkpoint journal must heal to the same verdict set, and
//! the ingest journal is interchangeable with the batch one.
//!
//! Scale: `INGEST_ORACLE_BLOCKS` blocks when set (CI runs 5000); the
//! default keeps debug tier-1 runs tractable while release runs cover
//! the full world.

use std::collections::HashMap;

use sleepwatch_core::journal::record_boundaries;
use sleepwatch_core::{
    analyze_block, analyze_world, ingest_world, ingest_world_resumable, world_feed, AnalysisConfig,
    IngestConfig, OnlineConfig, OnlineDetector, WorldAnalysis, WorldRun,
};
use sleepwatch_probing::{FaultPlan, RoundEvent, TrinocularProber};
use sleepwatch_simnet::{World, WorldConfig, WorldSource};
use sleepwatch_testkit::oracles::{assert_batch_online_agree, clean_checked};
use sleepwatch_testkit::resilience::scratch_path;

const PRESET_SEED: u64 = 0xFA_17;
const SHARDS: [usize; 3] = [1, 4, 8];
const ORACLE_SEED: u64 = 0x001A_6E57;
/// Long enough (≈229 rounds) to cover every named fault preset,
/// including the blackout window ending at round 225 — the calibration
/// the resilience suite established.
const ORACLE_DAYS: f64 = 1.75;

fn oracle_blocks() -> usize {
    std::env::var("INGEST_ORACLE_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 400 } else { 5_000 })
}

fn preset(name: &str) -> FaultPlan {
    FaultPlan::presets(PRESET_SEED)
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no preset named {name}"))
        .1
}

fn oracle_world_cfg() -> WorldConfig {
    WorldConfig {
        num_blocks: oracle_blocks(),
        seed: ORACLE_SEED,
        span_days: ORACLE_DAYS,
        ..Default::default()
    }
}

fn oracle_source() -> WorldSource {
    WorldSource::new(oracle_world_cfg())
}

fn oracle_cfg(plan: FaultPlan) -> AnalysisConfig {
    let wcfg = oracle_world_cfg();
    AnalysisConfig { faults: plan, ..AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days) }
}

fn batch_reference(cfg: &AnalysisConfig) -> WorldAnalysis {
    let world = World::generate(oracle_world_cfg());
    analyze_world(&world, cfg, 8, None)
}

/// The live-detector counters `(live_strict, live_classifications)` a
/// world run must report: each block's `Round` values, in feed order,
/// pushed through an [`OnlineDetector`] at the live configuration (the
/// default monitoring window clamped to the run length), tallied at the
/// block's `Finish`.
fn live_reference(source: &WorldSource, cfg: &AnalysisConfig) -> (u64, u64) {
    let live = OnlineConfig {
        window_rounds: (cfg.rounds as usize).min(OnlineConfig::default().window_rounds).max(4),
        ..OnlineConfig::default()
    };
    let (feed, quarantined) = world_feed(source, cfg, &IngestConfig::default());
    assert!(quarantined.is_empty(), "reference feed quarantined blocks");
    let mut lanes: HashMap<u64, OnlineDetector> = HashMap::new();
    let (mut strict, mut classifications) = (0u64, 0u64);
    for ev in feed {
        match ev {
            RoundEvent::Round { block_id, a_short, .. } => {
                lanes
                    .entry(block_id)
                    .or_insert_with(|| OnlineDetector::new(live))
                    .push_value(a_short);
            }
            RoundEvent::Finish { block_id, .. } => {
                if let Some(det) = lanes.remove(&block_id) {
                    strict += u64::from(det.class().is_strict());
                    classifications += det.classifications();
                }
            }
        }
    }
    (strict, classifications)
}

/// The oracle body: at every shard count (each with its own arrival
/// order), the streamed world must reproduce the batch analysis
/// element for element — verdicts, phases, and the whole joined report.
fn world_differential(name: &str) {
    let source = oracle_source();
    let cfg = oracle_cfg(preset(name));
    let batch = batch_reference(&cfg);
    assert!(batch.quarantined.is_empty(), "{name}: reference run quarantined blocks");
    let (live_strict, live_classifications) = live_reference(&source, &cfg);
    for (i, shards) in SHARDS.into_iter().enumerate() {
        let icfg = IngestConfig {
            shards,
            // A different seed per shard count: every configuration sees
            // a genuinely different interleaving of the same streams.
            interleave_seed: 0xD150_12DE ^ ((i as u64) << 8),
            ..Default::default()
        };
        let streamed = ingest_world(&source, &cfg, &icfg);
        assert!(streamed.quarantined.is_empty(), "{name}@{shards}: quarantines");
        assert_eq!(
            streamed.reports.len(),
            batch.reports.len(),
            "{name}@{shards}: block count diverged"
        );
        for (s, b) in streamed.reports.iter().zip(&batch.reports) {
            assert_eq!(
                s.summary.block_id, b.summary.block_id,
                "{name}@{shards}: report order diverged"
            );
            assert_eq!(
                s.summary.class, b.summary.class,
                "{name}@{shards}: class diverged on block {}",
                b.summary.block_id
            );
            assert_eq!(
                s.summary.phase, b.summary.phase,
                "{name}@{shards}: phase diverged on block {}",
                b.summary.block_id
            );
            assert_eq!(
                format!("{s:?}"),
                format!("{b:?}"),
                "{name}@{shards}: joined report diverged on block {}",
                b.summary.block_id
            );
        }
        assert_eq!(streamed.stats.blocks, batch.reports.len(), "{name}@{shards}: stats.blocks");
        assert!(streamed.stats.rounds_routed > 0, "{name}@{shards}: no rounds routed");
        assert_eq!(streamed.stats.live_strict, live_strict, "{name}@{shards}: live_strict");
        assert_eq!(
            streamed.stats.live_classifications, live_classifications,
            "{name}@{shards}: live_classifications"
        );
    }

    // Spot-check the per-block anchor directly: a handful of streamed
    // summaries against scalar `analyze_block` on the same config.
    let stride = (batch.reports.len() / 7).max(1);
    for report in batch.reports.iter().step_by(stride) {
        let block = source.generate_block(report.summary.block_id);
        let scalar = analyze_block(&block, &cfg);
        assert_eq!(
            report.summary,
            scalar.summary(),
            "{name}: analyze_block disagrees on block {}",
            block.id
        );
    }
}

#[test]
fn world_differential_loss_light() {
    world_differential("loss-light");
}

#[test]
fn world_differential_loss_heavy() {
    world_differential("loss-heavy");
}

#[test]
fn world_differential_blackout() {
    world_differential("blackout");
}

#[test]
fn world_differential_restart_storm() {
    world_differential("restart-storm");
}

#[test]
fn world_differential_truncated() {
    world_differential("truncated");
}

#[test]
fn world_differential_dup_reorder() {
    world_differential("dup-reorder");
}

#[test]
fn world_differential_churn() {
    world_differential("churn");
}

/// The original exact-agreement pin at world scale: for a sweep of
/// blocks, the full-window `OnlineDetector` must agree with the batch
/// spectral classifier on that block's *actual* cleaned (faulted)
/// series — the detector-level half of the streaming story.
#[test]
fn online_detector_agrees_with_batch_across_the_world() {
    let source = oracle_source();
    let cfg = oracle_cfg(preset("loss-light"));
    // Every 5th block keeps the sweep broad but the suite fast; the
    // engine-level oracle above already covers all blocks.
    for id in (0..source.len() as u64).step_by(5) {
        let block = source.generate_block(id);
        let mut prober = TrinocularProber::new(&block, cfg.trinocular);
        let run = prober.run_with_faults(&block, cfg.start_time, cfg.rounds, &cfg.faults);
        let (series, _fill) = clean_checked(&run, cfg.rounds as usize, cfg.start_time);
        assert_batch_online_agree(&series, &cfg.diurnal, &format!("block {id}"));
    }
}

/// Kill-and-resume heals to the same verdict set: a reference streamed
/// run, a journal severed mid-stream (at a record boundary *and* inside
/// a record), and resumes at different shard counts must all agree —
/// with each other and with batch analysis.
#[test]
fn killed_and_resumed_ingest_heals_to_the_same_verdicts() {
    let source = oracle_source();
    let cfg = oracle_cfg(preset("dup-reorder"));
    let icfg = |shards: usize| IngestConfig { shards, ..Default::default() };

    let journal = scratch_path("ingest-resume-ref");
    let reference =
        ingest_world_resumable(&source, &cfg, &icfg(8), &journal).expect("reference run");
    assert_eq!(reference.stats.replayed, 0);
    assert!(reference.stats.checkpoints > 0, "no durable checkpoint reached");
    let want: Vec<String> = reference.reports.iter().map(|r| format!("{r:?}")).collect();

    let bytes = std::fs::read(&journal).expect("read journal");
    let boundaries = record_boundaries(&bytes);
    assert!(boundaries.len() > 2, "journal too short to sever");
    // Sever at a record boundary and mid-record: both must resume; the
    // torn record costs only itself.
    let at_boundary = boundaries[boundaries.len() / 2];
    let mid_record = at_boundary + 7;
    for (tag, cut, shards) in
        [("boundary", at_boundary, 1usize), ("mid-record", mid_record, 4usize)]
    {
        let severed = scratch_path(&format!("ingest-resume-{tag}"));
        std::fs::write(&severed, &bytes[..cut.min(bytes.len())]).expect("write severed copy");
        let resumed =
            ingest_world_resumable(&source, &cfg, &icfg(shards), &severed).expect("resumed run");
        assert!(resumed.stats.replayed > 0, "{tag}: nothing replayed from the journal");
        assert!(
            resumed.stats.replayed < resumed.stats.blocks,
            "{tag}: everything replayed — the kill was not mid-stream"
        );
        let got: Vec<String> = resumed.reports.iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(want, got, "{tag}: resumed verdict set diverged");
        let _ = std::fs::remove_file(&severed);
    }
    let _ = std::fs::remove_file(&journal);
}

/// The ingest journal speaks the batch journal's format: a run killed
/// under a journaled `WorldRun` can be finished by the streaming
/// engine (and vice versa) with identical verdicts.
#[test]
fn batch_and_ingest_checkpoints_are_interchangeable() {
    let source = oracle_source();
    let cfg = oracle_cfg(preset("loss-light"));
    let world = World::generate(oracle_world_cfg());
    let batch = analyze_world(&world, &cfg, 8, None);

    // Batch writes, ingest finishes.
    let journal = scratch_path("ingest-cross-batch");
    WorldRun { threads: 8, journal: Some(&journal), ..WorldRun::default() }
        .analyze(&world, &cfg)
        .expect("batch journaled run");
    let bytes = std::fs::read(&journal).expect("read journal");
    let cut = record_boundaries(&bytes)[batch.reports.len() / 3];
    std::fs::write(&journal, &bytes[..cut]).expect("sever");
    let finished = ingest_world_resumable(&source, &cfg, &IngestConfig::default(), &journal)
        .expect("ingest resume of batch journal");
    assert!(finished.stats.replayed > 0);
    for (s, b) in finished.reports.iter().zip(&batch.reports) {
        assert_eq!(format!("{s:?}"), format!("{b:?}"), "ingest finish of batch journal");
    }

    // Ingest writes, batch finishes.
    let bytes = std::fs::read(&journal).expect("read finished journal");
    let cut = record_boundaries(&bytes)[batch.reports.len() / 2];
    std::fs::write(&journal, &bytes[..cut]).expect("sever again");
    let batch_finished = WorldRun { threads: 4, journal: Some(&journal), ..WorldRun::default() }
        .analyze(&world, &cfg)
        .expect("batch resume");
    for (s, b) in batch_finished.reports.iter().zip(&batch.reports) {
        assert_eq!(format!("{s:?}"), format!("{b:?}"), "batch finish of ingest journal");
    }
    let _ = std::fs::remove_file(&journal);
}
