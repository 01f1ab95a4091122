//! Observability overhead gate: `analyze_world` with the instrumented
//! global registry vs `Registry::disabled()` semantics (global switched to
//! the disabled registry, whose hot path touches zero atomics).
//!
//! Not a Criterion bench: this is a pass/fail harness. It interleaves
//! enabled/disabled runs (A/B/A/B…) so drift — thermal, scheduler,
//! allocator state — lands on both sides equally, takes medians, writes
//! the measurement to `BENCH_obs.json` at the workspace root, and fails
//! if instrumentation costs more than the budgeted 3 %.
//!
//! Run with `cargo bench -p sleepwatch-bench --bench obs_overhead`.
//! `OBS_BENCH_ITERS` overrides the sample count for noisy machines.

use sleepwatch_bench::median;
use sleepwatch_core::{analyze_world, AnalysisConfig};
use sleepwatch_probing::TrinocularConfig;
use sleepwatch_simnet::{World, WorldConfig};
use std::time::Instant;

/// Timing budget: instrumented may cost at most 3 % over disabled.
const MAX_OVERHEAD: f64 = 1.03;

fn run_once(world: &World, cfg: &AnalysisConfig) -> f64 {
    let start = Instant::now();
    let analysis = analyze_world(world, cfg, 2, None);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(analysis.len(), world.blocks.len());
    secs
}

fn main() {
    let iters: usize =
        std::env::var("OBS_BENCH_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(7);

    let world = World::generate(WorldConfig {
        num_blocks: 40,
        seed: 33,
        span_days: 3.0,
        ..Default::default()
    });
    let mut cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
    cfg.trinocular = TrinocularConfig::a12w();

    // Warm both paths: plan cache, allocator, page cache.
    sleepwatch_obs::set_global_enabled(true);
    run_once(&world, &cfg);
    sleepwatch_obs::set_global_enabled(false);
    run_once(&world, &cfg);

    let mut enabled = Vec::with_capacity(iters);
    let mut disabled = Vec::with_capacity(iters);
    for _ in 0..iters {
        sleepwatch_obs::set_global_enabled(true);
        enabled.push(run_once(&world, &cfg));
        sleepwatch_obs::set_global_enabled(false);
        disabled.push(run_once(&world, &cfg));
    }
    sleepwatch_obs::set_global_enabled(true);

    let med_on = median(&mut enabled);
    let med_off = median(&mut disabled);
    let ratio = med_on / med_off;

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"blocks\": {},\n  \"iters\": {},\n  \
         \"enabled_median_s\": {:.6},\n  \"disabled_median_s\": {:.6},\n  \
         \"overhead_ratio\": {:.4},\n  \"budget_ratio\": {:.2}\n}}\n",
        world.blocks.len(),
        iters,
        med_on,
        med_off,
        ratio,
        MAX_OVERHEAD
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("obs_overhead: enabled {med_on:.4}s, disabled {med_off:.4}s, ratio {ratio:.4}");

    assert!(
        ratio <= MAX_OVERHEAD,
        "metrics overhead {:.2}% exceeds the {:.0}% budget (enabled {med_on:.4}s vs \
         disabled {med_off:.4}s over {iters} interleaved runs)",
        (ratio - 1.0) * 100.0,
        (MAX_OVERHEAD - 1.0) * 100.0
    );
}
