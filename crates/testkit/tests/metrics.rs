//! Metrics-invariant conformance: the observability layer's counters must
//! agree exactly with ground truth derivable from the pipeline's outputs
//! and the public `FaultPlan` API — under the fault-free run and under
//! every named fault preset.
//!
//! Every test serializes on [`lock`] because the global registry is
//! process-wide; activity is isolated with snapshot deltas around the
//! measured call.

use sleepwatch_core::{analyze_world, AnalysisConfig, WorldRun, WorldRunMode};
use sleepwatch_obs::Snapshot;
use sleepwatch_probing::{FaultPlan, TrinocularProber};
use sleepwatch_simnet::World;
use sleepwatch_testkit::fixtures;
use std::sync::{Mutex, MutexGuard, PoisonError};

static GATE: Mutex<()> = Mutex::new(());

/// Serializes metric-asserting tests (a poisoned lock is fine: the global
/// registry carries no invariant between tests, deltas isolate each one).
fn lock() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with the global registry guaranteed enabled, restoring the
/// enabled default afterwards.
fn with_metrics<T>(f: impl FnOnce() -> T) -> T {
    sleepwatch_obs::set_global_enabled(true);
    let out = f();
    sleepwatch_obs::set_global_enabled(true);
    out
}

/// Delta of global-registry activity across `f`.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let before = Snapshot::capture(sleepwatch_obs::global());
    let out = f();
    let delta = Snapshot::capture(sleepwatch_obs::global()).delta(&before);
    (out, delta)
}

/// Ground-truth fault tallies recomputed through the public [`FaultPlan`]
/// API only — the same per-round queries the prober makes, in the same
/// order, with none of the prober's private randomness.
#[derive(Debug, Default, PartialEq, Eq)]
struct ExpectedFaults {
    loss_bursts: u64,
    blackouts: u64,
    blackout_rounds: u64,
    storm_restarts: u64,
    truncations: u64,
    truncated_rounds: u64,
    cfg_restarts: u64,
    churn_events: u64,
}

fn expected_faults(
    plan: &FaultPlan,
    block_id: u64,
    rounds: u64,
    cfg_restart_interval: Option<u64>,
) -> ExpectedFaults {
    let mut e = ExpectedFaults::default();
    let mut in_blackout = false;
    let mut in_burst = false;
    for r in 0..rounds {
        if plan.truncates_at(r) {
            e.truncations += 1;
            e.truncated_rounds += rounds - r;
            break;
        }
        if plan.churn_at(r).is_some() {
            e.churn_events += 1;
        }
        if plan.blacked_out(r) {
            if !in_blackout {
                e.blackouts += 1;
                in_blackout = true;
            }
            e.blackout_rounds += 1;
            continue;
        }
        in_blackout = false;
        if plan.storm_restart_at(block_id, r).is_some() {
            e.storm_restarts += 1;
        }
        if plan.loss_at(block_id, r) > 0.0 {
            if !in_burst {
                e.loss_bursts += 1;
            }
            in_burst = true;
        } else {
            in_burst = false;
        }
        if cfg_restart_interval.is_some_and(|k| r > 0 && r % k == 0) {
            e.cfg_restarts += 1;
        }
    }
    e
}

/// Expected duplicate/reorder injections: replay each block's record
/// stream under a mangle-free copy of the plan (record-stream corruption
/// is the final step, so the pre-mangle stream is identical), then apply
/// the real plan's `mangle_records` and take its own accounting. Run with
/// metrics disabled so the replay leaves no trace in the registry.
fn expected_mangles(world: &World, cfg: &AnalysisConfig, plan: &FaultPlan) -> (u64, u64) {
    let mut unmangled = *plan;
    unmangled.duplicate_rate = 0.0;
    unmangled.reorder_rate = 0.0;
    sleepwatch_obs::set_global_enabled(false);
    let mut dups = 0u64;
    let mut swaps = 0u64;
    for block in &world.blocks {
        let mut prober = TrinocularProber::new(block, cfg.trinocular);
        let run = prober.run_with_faults(block, cfg.start_time, cfg.rounds, &unmangled);
        let mut records = run.records.clone();
        let (d, s) = plan.mangle_records(block.id, &mut records);
        dups += d;
        swaps += s;
    }
    sleepwatch_obs::set_global_enabled(true);
    (dups, swaps)
}

/// The fault-free world run: every counter the pipeline owns agrees with
/// ground truth computable from its outputs.
#[test]
fn world_run_counters_match_ground_truth() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let cfg = fixtures::small_world_cfg(&world);
        let (analysis, d) = measure(|| analyze_world(&world, &cfg, 2, None));
        let n = world.blocks.len() as u64;

        assert_eq!(d.counter("pipeline.blocks_analyzed"), n);
        assert_eq!(d.counter("world.runs"), 1);
        assert_eq!(d.counter("world.blocks_total"), n);
        assert_eq!(d.counter("probing.runs"), n);
        assert_eq!(d.counter("probing.eb_refreshes"), n, "one E(b) walk per prober");

        let ground_truth_probes: u64 =
            analysis.reports.iter().map(|r| r.summary.total_probes).sum();
        assert_eq!(d.counter("probing.probes_sent"), ground_truth_probes);

        assert_eq!(d.counter("cleaning.series_cleaned"), n);
        let fill = d.histogram("cleaning.fill_fraction").expect("fill histogram captured");
        assert_eq!(fill.count, n, "one fill-fraction sample per block");

        // Plan-cache conservation: every counted transform went through
        // exactly one counted cache lookup.
        assert_eq!(
            d.counter("plan_cache.hits") + d.counter("plan_cache.misses"),
            d.counter("fft.transforms"),
            "hits + misses must equal FFT transforms"
        );
        assert_eq!(d.counter("plan_cache.prewarms"), 1, "analyze_world prewarms once");

        // Every block was geolocated (hit or miss) and link-classified.
        assert_eq!(d.counter("geo.locate_hits") + d.counter("geo.locate_misses"), n);
        assert_eq!(d.counter("linktype.blocks_classified"), n);

        // Worker accounting: per-thread work sums to the world, nothing
        // overflowed the table.
        let workers = d.length_counts("world.worker_blocks");
        let (pairs, overflow) = d.lengths.get("world.worker_blocks").expect("worker table");
        assert_eq!(*overflow, 0);
        assert_eq!(pairs, workers);
        assert_eq!(workers.iter().map(|&(_, c)| c).sum::<u64>(), n);
        assert!(workers.iter().all(|&(w, _)| w < 2), "worker ids are 0..threads");

        // No faults were configured, so no fault counter may move.
        for key in [
            "faults.loss_bursts",
            "faults.lost_probes",
            "faults.blackouts",
            "faults.blackout_rounds",
            "faults.storm_restarts",
            "faults.storm_lost_rounds",
            "faults.truncations",
            "faults.truncated_rounds",
            "faults.duplicates",
            "faults.reorders",
        ] {
            assert_eq!(d.counter(key), 0, "{key} moved on a fault-free run");
        }

        // Stage timers: one sample per block for each per-block stage, one
        // for the whole run.
        for stage in ["stage.probe", "stage.estimate", "stage.clean", "stage.fft", "stage.classify"]
        {
            assert_eq!(d.histogram(stage).map(|h| h.count), Some(n), "{stage} sample count");
        }
        assert_eq!(d.histogram("stage.total").map(|h| h.count), Some(1));
        assert_eq!(d.histogram("stage.join").map(|h| h.count), Some(1));
    });
}

/// Under every named fault preset (plus the combined conformance regime),
/// the fault-event counters equal the counts independently recomputed from
/// the public `FaultPlan` API.
#[test]
fn fault_counters_match_plan_under_every_preset() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let base_cfg = fixtures::small_world_cfg(&world);
        let mut regimes = FaultPlan::presets(23);
        regimes.push(("conformance", fixtures::conformance_faults()));

        for (name, plan) in regimes {
            let mut cfg = base_cfg;
            cfg.faults = plan;
            let (_, d) = measure(|| analyze_world(&world, &cfg, 2, None));

            let mut want = ExpectedFaults::default();
            for block in &world.blocks {
                let e = expected_faults(
                    &plan,
                    block.id,
                    cfg.rounds,
                    cfg.trinocular.restart_interval_rounds,
                );
                want.loss_bursts += e.loss_bursts;
                want.blackouts += e.blackouts;
                want.blackout_rounds += e.blackout_rounds;
                want.storm_restarts += e.storm_restarts;
                want.truncations += e.truncations;
                want.truncated_rounds += e.truncated_rounds;
                want.cfg_restarts += e.cfg_restarts;
                want.churn_events += e.churn_events;
            }

            assert_eq!(d.counter("faults.loss_bursts"), want.loss_bursts, "{name}");
            assert_eq!(d.counter("faults.blackouts"), want.blackouts, "{name}");
            assert_eq!(d.counter("faults.blackout_rounds"), want.blackout_rounds, "{name}");
            assert_eq!(d.counter("faults.storm_restarts"), want.storm_restarts, "{name}");
            assert_eq!(d.counter("faults.truncations"), want.truncations, "{name}");
            assert_eq!(d.counter("faults.truncated_rounds"), want.truncated_rounds, "{name}");
            assert_eq!(d.counter("faults.cfg_restarts"), want.cfg_restarts, "{name}");
            // One refresh per prober construction plus one per churn event.
            assert_eq!(
                d.counter("probing.eb_refreshes"),
                world.blocks.len() as u64 + want.churn_events,
                "{name}"
            );

            // Storm-lost rounds depend on the prober's private restart
            // draw; they are bounded by the storms that landed.
            assert!(
                d.counter("faults.storm_lost_rounds") <= want.storm_restarts,
                "{name}: more storm-lost rounds than storms"
            );
            if want.loss_bursts > 0 {
                assert!(
                    d.counter("faults.lost_probes") > 0,
                    "{name}: bursts fired but no probe was ever lost"
                );
            } else {
                assert_eq!(d.counter("faults.lost_probes"), 0, "{name}");
            }

            // Record-stream corruption: exact, via the plan's own
            // accounting replayed on the pre-mangle record streams.
            let (dups, swaps) = expected_mangles(&world, &cfg, &plan);
            assert_eq!(d.counter("faults.duplicates"), dups, "{name}");
            assert_eq!(d.counter("faults.reorders"), swaps, "{name}");

            // The structural invariants hold under faults too.
            assert_eq!(d.counter("pipeline.blocks_analyzed"), world.blocks.len() as u64, "{name}");
            assert_eq!(
                d.counter("plan_cache.hits") + d.counter("plan_cache.misses"),
                d.counter("fft.transforms"),
                "{name}: plan-cache conservation broke"
            );
        }
    });
}

/// Scratch-arena accounting: every analyzed block is classified as either
/// a reuse or a grow, worker batches never reallocate, and the peak-arena
/// gauge reports a real footprint.
#[test]
fn scratch_counters_match_run_shape() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let cfg = fixtures::small_world_cfg(&world);
        let n = world.blocks.len() as u64;

        // SummaryOnly (the default): worker-local arenas warm up once,
        // then every block is a reuse.
        let (_, d) = measure(|| analyze_world(&world, &cfg, 2, None));
        assert_eq!(
            d.counter("pipeline.scratch_reuses") + d.counter("pipeline.scratch_grows"),
            n,
            "every block must be classified as reuse or grow"
        );
        assert!(d.counter("pipeline.scratch_grows") >= 1, "warm-up must register as a grow");
        assert!(d.counter("pipeline.scratch_reuses") > 0, "steady state must register reuses");
        assert_eq!(d.counter("world.batch_grows"), 0, "worker batches must never reallocate");
        assert!(d.counter("world.peak_block_bytes") > 0, "peak arena gauge must be populated");

        // FullDetail allocates a fresh arena per block: all grows, and
        // the batch-reuse fix holds there too.
        let (_, d) = measure(|| {
            WorldRun { threads: 2, mode: WorldRunMode::FullDetail, ..WorldRun::default() }
                .analyze(&world, &cfg)
                .unwrap()
        });
        assert_eq!(d.counter("pipeline.scratch_grows"), n);
        assert_eq!(d.counter("pipeline.scratch_reuses"), 0);
        assert_eq!(d.counter("world.batch_grows"), 0);
    });
}

/// The disabled registry records nothing — and the analysis output is
/// byte-identical with metrics on, off, and across thread counts.
#[test]
fn disabled_metrics_are_inert_and_output_invariant() {
    let _g = lock();
    let enabled = with_metrics(|| fixtures::world_dataset_tsv(2));

    sleepwatch_obs::set_global_enabled(false);
    let before = Snapshot::capture(sleepwatch_obs::global());
    let disabled_t1 = fixtures::world_dataset_tsv(1);
    let disabled_t4 = fixtures::world_dataset_tsv(4);
    let after = Snapshot::capture(sleepwatch_obs::global());
    sleepwatch_obs::set_global_enabled(true);

    assert_eq!(enabled, disabled_t1, "metrics state leaked into the dataset");
    assert_eq!(disabled_t1, disabled_t4, "thread count leaked into the dataset");

    let d = after.delta(&before);
    assert!(d.counters.values().all(|&v| v == 0), "disabled registry moved: {:?}", d.counters);
    assert!(d.histograms.values().all(|h| h.count == 0));
    assert!(d.lengths.values().all(|(pairs, of)| pairs.is_empty() && *of == 0));
}

/// Survey probes account separately from adaptive probes, keeping the
/// `probes_sent == Σ total_probes` ground-truth equality exact.
#[test]
fn survey_probes_are_counted_separately() {
    let _g = lock();
    with_metrics(|| {
        let block = fixtures::diurnal_block(3, 17);
        let (result, d) = measure(|| sleepwatch_probing::survey_block(&block, 0, 40));
        assert_eq!(d.counter("probing.survey_probes"), result.total_probes);
        assert_eq!(result.total_probes, 256 * result.rounds);
        assert_eq!(d.counter("probing.probes_sent"), 0, "surveys must not count as adaptive");
    });
}
