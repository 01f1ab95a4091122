//! Differential equivalence: the scratch-reuse world pipeline
//! (`WorldRunMode::SummaryOnly`, the default) against the per-block-fresh
//! path (`WorldRunMode::FullDetail`).
//!
//! The scratch path must be a pure performance change: for every fault
//! preset, at every thread count, the serialized dataset TSV must be
//! byte-identical between the two modes — and the resumable-journal path
//! must agree with both, whether the journal starts empty or replays a
//! completed run.

use sleepwatch_core::{WorldRun, WorldRunMode};
use sleepwatch_probing::FaultPlan;
use sleepwatch_testkit::fixtures::{
    conformance_faults, small_world, small_world_cfg, world_dataset_tsv_mode,
};

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

/// Fault regimes under differential coverage: the fault-free default,
/// every named preset, and the combined conformance regime.
fn fault_regimes() -> Vec<(String, FaultPlan)> {
    let mut regimes = vec![("none".to_string(), FaultPlan::none())];
    regimes.extend(FaultPlan::presets(0xD1FF).into_iter().map(|(n, p)| (n.to_string(), p)));
    regimes.push(("conformance".to_string(), conformance_faults()));
    regimes
}

#[test]
fn summary_only_matches_full_detail_under_every_fault_regime() {
    for (name, plan) in fault_regimes() {
        // The FullDetail baseline is schedule-independent (pinned by the
        // goldens suite), so one thread count suffices for the reference.
        let fresh = world_dataset_tsv_mode(1, WorldRunMode::FullDetail, Some(plan));
        for threads in THREAD_COUNTS {
            let scratch = world_dataset_tsv_mode(threads, WorldRunMode::SummaryOnly, Some(plan));
            assert_eq!(
                scratch, fresh,
                "scratch path diverged from fresh path (regime {name}, {threads} threads)"
            );
        }
    }
}

#[test]
fn full_detail_is_thread_count_invariant() {
    // Belt and braces for the baseline itself: FullDetail at 1/4/8
    // threads serializes identically, so the cross-mode comparison above
    // can anchor on a single reference run.
    let reference = world_dataset_tsv_mode(1, WorldRunMode::FullDetail, None);
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            world_dataset_tsv_mode(*threads, WorldRunMode::FullDetail, None),
            reference,
            "FullDetail diverged at {threads} threads"
        );
    }
}

/// Serializes a world analysis for comparison.
fn tsv(analysis: &sleepwatch_core::WorldAnalysis) -> String {
    let mut buf = Vec::new();
    sleepwatch_core::write_dataset(&mut buf, analysis).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("dataset is ASCII")
}

#[test]
fn resumable_journal_path_agrees_across_modes() {
    let world = small_world();
    let dir = std::env::temp_dir().join(format!("sw-scratch-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, plan) in [("none", FaultPlan::none()), ("conformance", conformance_faults())] {
        let mut cfg = small_world_cfg(&world);
        cfg.faults = plan;
        let fresh =
            tsv(&WorldRun { threads: 2, mode: WorldRunMode::FullDetail, ..WorldRun::default() }
                .analyze(&world, &cfg)
                .unwrap());
        for threads in THREAD_COUNTS {
            let path = dir.join(format!("{name}-{threads}.journal"));
            let _ = std::fs::remove_file(&path);
            // First pass writes the journal from scratch…
            let run = WorldRun {
                threads,
                mode: WorldRunMode::SummaryOnly,
                journal: Some(&path),
                ..WorldRun::default()
            };
            let first = run.analyze(&world, &cfg).unwrap();
            assert_eq!(tsv(&first), fresh, "journaled scratch run (regime {name}, {threads}t)");
            // …and a second pass replays every block from it.
            let replayed = run.analyze(&world, &cfg).unwrap();
            assert_eq!(tsv(&replayed), fresh, "journal replay (regime {name}, {threads}t)");
            let _ = std::fs::remove_file(&path);
        }
    }
    let _ = std::fs::remove_dir(&dir);
}
