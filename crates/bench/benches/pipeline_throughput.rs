//! Pipeline throughput gate: the scratch-arena world path
//! (`WorldRunMode::SummaryOnly`, the default) against the per-block-fresh
//! baseline (`WorldRunMode::FullDetail`).
//!
//! Not a Criterion bench: a pass/fail harness in the `BENCH_obs.json`
//! mould. It interleaves the two modes (A/B/A/B…) so drift lands on both
//! sides equally, takes medians, writes blocks/sec plus steady-state
//! allocations/block to `BENCH_pipeline.json` at the workspace root, and
//! fails if the scratch path allocates in steady state or loses
//! measurable throughput against the baseline it replaced.
//!
//! Run with `cargo bench -p sleepwatch-bench --bench pipeline_throughput`.
//! `PIPELINE_BENCH_ITERS` overrides the sample count for noisy machines.

use sleepwatch_bench::median;
use sleepwatch_core::{
    analyze_block, analyze_block_with_scratch, AnalysisConfig, BlockScratch, WorldRun, WorldRunMode,
};
use sleepwatch_probing::TrinocularConfig;
use sleepwatch_simnet::{World, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// Regression budget: the scratch path may be at most 2 % slower than the
/// fresh-path baseline (it should be faster; the slack absorbs machine
/// noise without letting a real regression through).
const MAX_SLOWDOWN: f64 = 1.02;

struct CountingAlloc;

std::thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.with(|c| c.get())
}

fn run_once(world: &World, cfg: &AnalysisConfig, mode: WorldRunMode) -> f64 {
    let start = Instant::now();
    let analysis = WorldRun { threads: 2, mode, ..WorldRun::default() }
        .analyze(world, cfg)
        .expect("runs without a journal cannot fail");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(analysis.len(), world.blocks.len());
    secs
}

/// Steady-state allocations per block on one thread: one warm pass over
/// every block sizes the arena to the world's full diversity (grow-only
/// contract — the largest walk, outage list and series win), then a
/// second full pass is counted.
fn allocs_per_block(world: &World, cfg: &AnalysisConfig, scratch: bool) -> f64 {
    let mut arena = BlockScratch::new();
    for block in &world.blocks {
        if scratch {
            analyze_block_with_scratch(block, cfg, &mut arena);
        } else {
            analyze_block(block, cfg);
        }
    }
    let before = allocations();
    for block in &world.blocks {
        if scratch {
            analyze_block_with_scratch(block, cfg, &mut arena);
        } else {
            analyze_block(block, cfg);
        }
    }
    (allocations() - before) as f64 / world.blocks.len() as f64
}

fn main() {
    let iters: usize =
        std::env::var("PIPELINE_BENCH_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(7);

    let world = World::generate(WorldConfig {
        num_blocks: 40,
        seed: 33,
        span_days: 3.0,
        ..Default::default()
    });
    let mut cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
    cfg.trinocular = TrinocularConfig::a12w();

    // Warm both paths: plan cache, allocator, page cache.
    run_once(&world, &cfg, WorldRunMode::SummaryOnly);
    run_once(&world, &cfg, WorldRunMode::FullDetail);

    let scratch_allocs = allocs_per_block(&world, &cfg, true);
    let fresh_allocs = allocs_per_block(&world, &cfg, false);

    let mut summary = Vec::with_capacity(iters);
    let mut full = Vec::with_capacity(iters);
    for _ in 0..iters {
        summary.push(run_once(&world, &cfg, WorldRunMode::SummaryOnly));
        full.push(run_once(&world, &cfg, WorldRunMode::FullDetail));
    }

    let med_summary = median(&mut summary);
    let med_full = median(&mut full);
    let n = world.blocks.len() as f64;
    let bps_summary = n / med_summary;
    let bps_full = n / med_full;
    let speedup = med_full / med_summary;

    let json = format!(
        "{{\n  \"bench\": \"pipeline_throughput\",\n  \"blocks\": {},\n  \"iters\": {},\n  \
         \"summary_only_median_s\": {:.6},\n  \"full_detail_median_s\": {:.6},\n  \
         \"summary_only_blocks_per_s\": {:.2},\n  \"full_detail_blocks_per_s\": {:.2},\n  \
         \"speedup_ratio\": {:.4},\n  \"scratch_allocs_per_block\": {:.2},\n  \
         \"fresh_allocs_per_block\": {:.2},\n  \"max_slowdown_ratio\": {:.2}\n}}\n",
        world.blocks.len(),
        iters,
        med_summary,
        med_full,
        bps_summary,
        bps_full,
        speedup,
        scratch_allocs,
        fresh_allocs,
        MAX_SLOWDOWN
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "pipeline_throughput: scratch {bps_summary:.1} blocks/s vs fresh {bps_full:.1} \
         blocks/s (speedup {speedup:.3}×), {scratch_allocs:.2} vs {fresh_allocs:.2} \
         allocs/block"
    );

    assert_eq!(
        scratch_allocs, 0.0,
        "scratch path allocated {scratch_allocs:.2} times/block in steady state"
    );
    assert!(fresh_allocs > 0.0, "fresh path reported zero allocations — the counter is broken");
    assert!(
        med_summary <= med_full * MAX_SLOWDOWN,
        "scratch path lost throughput: {med_summary:.4}s vs fresh {med_full:.4}s \
         ({:.2}% over the {:.0}% budget, {iters} interleaved runs)",
        (med_summary / med_full - 1.0) * 100.0,
        (MAX_SLOWDOWN - 1.0) * 100.0
    );
}
