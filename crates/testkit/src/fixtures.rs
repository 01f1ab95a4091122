//! Shared deterministic fixtures for the conformance and oracle suites.
//!
//! Everything here is keyed by fixed seeds, so every caller — any thread
//! count, any test ordering — reconstructs bit-identical inputs.

use sleepwatch_core::{analyze_world, AnalysisConfig, WorldRun, WorldRunMode};
use sleepwatch_probing::{Blackout, EChurn, FaultPlan, LossBurst, TrinocularConfig};
use sleepwatch_simnet::{BlockProfile, BlockSpec, World, WorldConfig};

/// The small conformance world: 60 blocks, 4 days, fixed seed.
pub fn small_world() -> World {
    World::generate(WorldConfig { num_blocks: 60, seed: 21, span_days: 4.0, ..Default::default() })
}

/// Analysis configuration for [`small_world`], using the `A12w` prober so
/// the restart artifact path is under conformance coverage too.
pub fn small_world_cfg(world: &World) -> AnalysisConfig {
    let mut cfg = AnalysisConfig::over_days(world.cfg.start_time, world.cfg.span_days);
    cfg.trinocular = TrinocularConfig::a12w();
    cfg
}

/// Runs the full pipeline over [`small_world`] with `threads` workers and
/// serializes the result as the canonical TSV dataset.
pub fn world_dataset_tsv(threads: usize) -> String {
    let world = small_world();
    let cfg = small_world_cfg(&world);
    let analysis = analyze_world(&world, &cfg, threads, None);
    let mut buf = Vec::new();
    sleepwatch_core::write_dataset(&mut buf, &analysis).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("dataset is ASCII")
}

/// [`world_dataset_tsv`] generalized over the run mode and fault plan —
/// the differential hook for the scratch-vs-fresh equivalence suite:
/// `SummaryOnly` (worker-local scratch arenas) and `FullDetail`
/// (per-block fresh allocation) must serialize byte-identically.
pub fn world_dataset_tsv_mode(
    threads: usize,
    mode: WorldRunMode,
    faults: Option<FaultPlan>,
) -> String {
    let world = small_world();
    let mut cfg = small_world_cfg(&world);
    if let Some(plan) = faults {
        cfg.faults = plan;
    }
    let analysis = WorldRun { threads, mode, ..WorldRun::default() }
        .analyze(&world, &cfg)
        .expect("runs without a journal cannot fail");
    let mut buf = Vec::new();
    sleepwatch_core::write_dataset(&mut buf, &analysis).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("dataset is ASCII")
}

/// The conformance fault regime: several mechanisms at once (loss bursts,
/// a blackout, record corruption and mid-run churn), so the faulted golden
/// pins the determinism of the whole fault layer.
pub fn conformance_faults() -> FaultPlan {
    FaultPlan {
        seed: 0xFA_17,
        loss_burst: Some(LossBurst {
            epoch_rounds: 131,
            burst_chance: 0.5,
            max_len_rounds: 20,
            loss: 0.5,
        }),
        blackout: Some(Blackout { start_round: 140, len_rounds: 40 }),
        duplicate_rate: 0.03,
        reorder_rate: 0.03,
        churn: Some(EChurn { at_round: 300, fraction: 0.2 }),
        ..FaultPlan::none()
    }
}

/// Like [`world_dataset_tsv`] but with [`conformance_faults`] injected.
pub fn faulted_world_dataset_tsv(threads: usize) -> String {
    let world = small_world();
    let mut cfg = small_world_cfg(&world);
    cfg.faults = conformance_faults();
    let analysis = analyze_world(&world, &cfg, threads, None);
    let mut buf = Vec::new();
    sleepwatch_core::write_dataset(&mut buf, &analysis).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("dataset is ASCII")
}

/// A strongly diurnal block: 30 stable + 170 diurnal addresses with an
/// 8 am onset and 9 h of daily activity.
pub fn diurnal_block(id: u64, seed: u64) -> BlockSpec {
    BlockSpec::bare(
        id,
        seed,
        BlockProfile {
            n_stable: 30,
            n_diurnal: 170,
            stable_avail: 0.9,
            diurnal_avail: 0.85,
            onset_hours: 8.0,
            onset_spread: 2.0,
            duration_hours: 9.0,
            duration_spread: 1.0,
            sigma_start: 0.5,
            sigma_duration: 0.5,
            utc_offset_hours: 0.0,
        },
    )
}

/// An always-on block with no daily structure.
pub fn flat_block(id: u64, seed: u64) -> BlockSpec {
    BlockSpec::bare(id, seed, BlockProfile::always_on(120, 0.85))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_reproducible() {
        assert_eq!(world_dataset_tsv(2), world_dataset_tsv(2));
    }

    #[test]
    fn fixture_blocks_have_expected_shape() {
        let d = diurnal_block(1, 7);
        assert_eq!(d.ever_active_addrs().len(), 200);
        let f = flat_block(2, 7);
        assert_eq!(f.ever_active_addrs().len(), 120);
    }
}
