//! Panic-quarantine conformance: a planted per-block panic must never
//! take down a world run. The panicking block is quarantined with a
//! diagnostic, every other block's output is untouched, and the outcome
//! is identical at every thread count.
//!
//! Planted panics belong to the planting thread and the runs it starts,
//! so they never trip other suites' worlds. Within this binary the tests
//! still serialize on [`lock`], which keeps each one's metric deltas its
//! own.

use sleepwatch_core::{analyze_world, worldrun::hooks, WorldRun};
use sleepwatch_obs::Snapshot;
use sleepwatch_testkit::resilience::{dataset_tsv, scratch_path};
use sleepwatch_testkit::{fixtures, goldens_dir};
use std::sync::{Mutex, MutexGuard, PoisonError};

static GATE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clears planted panics on drop, so an assertion failure in one test
/// cannot leak armed hooks into the next.
struct HookGuard;

impl Drop for HookGuard {
    fn drop(&mut self) {
        hooks::clear_block_panics();
    }
}

fn plant(block_id: u64) -> HookGuard {
    hooks::clear_block_panics();
    hooks::plant_block_panic(block_id);
    HookGuard
}

/// The recorded fault-free golden with the rows for `block_ids` removed —
/// what a run that quarantined exactly those blocks must serialize to.
fn golden_minus(block_ids: &[u64]) -> String {
    let golden = std::fs::read_to_string(goldens_dir().join("world_small.tsv"))
        .expect("recorded golden world_small.tsv");
    golden
        .lines()
        .filter(|line| {
            let id = line.split('\t').next().unwrap_or("");
            !block_ids.iter().any(|b| id == b.to_string())
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn planted_panic_is_quarantined_identically_at_every_thread_count() {
    let _g = lock();
    let _hooks = plant(17);
    let world = fixtures::small_world();
    let cfg = fixtures::small_world_cfg(&world);

    sleepwatch_obs::set_global_enabled(true);
    let before = Snapshot::capture(sleepwatch_obs::global());

    let mut outputs = Vec::new();
    for threads in [1, 4, 8] {
        let analysis = analyze_world(&world, &cfg, threads, None);
        assert_eq!(
            analysis.quarantined.len(),
            1,
            "exactly one block should be quarantined at {threads} threads"
        );
        let q = &analysis.quarantined[0];
        assert_eq!(q.block_id, 17);
        assert!(
            q.diagnostic.contains("planted panic"),
            "diagnostic should carry the panic message, got {:?}",
            q.diagnostic
        );
        assert_eq!(analysis.reports.len(), world.blocks.len() - 1);
        assert!(analysis.reports.iter().all(|r| r.summary.block_id != 17));
        outputs.push(dataset_tsv(&analysis));
    }
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "quarantined runs diverged across thread counts"
    );

    let delta = Snapshot::capture(sleepwatch_obs::global()).delta(&before);
    assert_eq!(
        delta.counter("resilience.blocks_quarantined"),
        3,
        "one quarantine per run, three runs"
    );

    // Conformance against the recorded golden: the surviving rows are
    // byte-for-byte the fault-free golden minus the quarantined block.
    assert_eq!(outputs[0], golden_minus(&[17]));
}

#[test]
fn multiple_planted_panics_quarantine_each_block() {
    let _g = lock();
    let _hooks = plant(3);
    hooks::plant_block_panic(41);
    let world = fixtures::small_world();
    let cfg = fixtures::small_world_cfg(&world);

    let analysis = analyze_world(&world, &cfg, 4, None);
    let mut ids: Vec<u64> = analysis.quarantined.iter().map(|q| q.block_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![3, 41]);
    assert_eq!(analysis.reports.len(), world.blocks.len() - 2);
    assert_eq!(dataset_tsv(&analysis), golden_minus(&[3, 41]));
}

/// Quarantined blocks are deliberately *not* journaled: once the cause of
/// the panic is fixed, resuming from the same journal re-analyzes exactly
/// the quarantined blocks and heals the output back to the recorded
/// golden, byte for byte.
#[test]
fn quarantined_blocks_heal_on_resume() {
    let _g = lock();
    let world = fixtures::small_world();
    let cfg = fixtures::small_world_cfg(&world);
    let journal = scratch_path("heal");

    {
        let _hooks = plant(5);
        let crashed = WorldRun { threads: 4, journal: Some(&journal), ..WorldRun::default() }
            .analyze(&world, &cfg)
            .expect("quarantined run");
        assert_eq!(crashed.quarantined.len(), 1);
        assert_eq!(crashed.quarantined[0].block_id, 5);
        assert_eq!(dataset_tsv(&crashed), golden_minus(&[5]));
    }

    // Hook cleared: the "bug" is fixed. Resume from the same journal.
    let healed = WorldRun { threads: 4, journal: Some(&journal), ..WorldRun::default() }
        .analyze(&world, &cfg)
        .expect("healed run");
    assert!(healed.quarantined.is_empty());
    let golden = std::fs::read_to_string(goldens_dir().join("world_small.tsv"))
        .expect("recorded golden world_small.tsv");
    assert_eq!(dataset_tsv(&healed), golden);
}
