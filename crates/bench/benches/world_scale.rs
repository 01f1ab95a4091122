//! Paper-scale world gate: lazy sharded generation + batched same-length
//! FFTs, measured end to end and at the kernel.
//!
//! Two measurements, both recorded in `BENCH_world.json` at the workspace
//! root:
//!
//! 1. **`batch_fft` microbench** — one-at-a-time `real_with_scratch`
//!    against the 4- and 8-lane `real_batch_with_scratch` at the series
//!    lengths world runs actually produce: 4582 rounds (35-day paper
//!    span, even packed-half path) and 131 rounds (1-day smoke span, odd
//!    Bluestein path). Gate: the 8-lane kernel must be ≥
//!    `BATCH_FFT_MIN_SPEEDUP`× the scalar loop. Timings take the minimum
//!    across samples — the noise-robust estimator on shared machines.
//! 2. **End-to-end world run** — `WORLD_BENCH_BLOCKS` blocks (default
//!    50 000) over `WORLD_BENCH_DAYS` days (default 35, the paper's A12w
//!    span) through the full lazy path: `WorldSource` → chunked claiming →
//!    batched FFTs → streaming `WorldRunStats`. Gates: sustained
//!    throughput per worker thread, and a bounded per-worker arena
//!    footprint via the `world.peak_block_bytes` gauge.
//!
//! The committed numbers extrapolate the paper's full 3.7M-block survey;
//! run with `WORLD_BENCH_BLOCKS=3700000` to reproduce it outright.
//!
//! Run with `cargo bench -p sleepwatch-bench --bench world_scale`.

use sleepwatch_bench::{best, env_or};
use sleepwatch_core::{AnalysisConfig, WorldRun};
use sleepwatch_obs::Snapshot;
use sleepwatch_simnet::{WorldConfig, WorldSource};
use sleepwatch_spectral::{plan_for, BatchRealScratch, Complex, FftPlan};
use std::time::Instant;

/// The paper's survey size (§3: ~3.7M responsive /24 blocks).
const PAPER_BLOCKS: f64 = 3_700_000.0;

/// The 8-lane batched kernel must beat the one-at-a-time loop by at least
/// this factor at every measured length.
const BATCH_FFT_MIN_SPEEDUP: f64 = 1.5;

/// Sustained end-to-end throughput floor per worker thread at the 35-day
/// span (conservative: the reference machine sustains ~540). Scaled
/// inversely when `WORLD_BENCH_DAYS` shortens the series.
const MIN_BLOCKS_PER_SEC_PER_THREAD_35D: f64 = 350.0;

/// Per-worker arena ceiling (scratches + batch workspace + chunk buffer).
/// The whole point of lazy sharding: peak memory must not scale with the
/// world.
const MAX_ARENA_BYTES: u64 = 64 * 1024 * 1024;

fn series_group(n: usize, lanes: usize) -> Vec<Vec<f64>> {
    (0..lanes)
        .map(|l| (0..n).map(|j| ((l * 131 + j) as f64 * 0.113).sin() + 0.5).collect())
        .collect()
}

/// ns/series for the scalar one-at-a-time loop over `lanes` series.
fn scalar_ns(plan: &FftPlan, series: &[Vec<f64>], reps: usize) -> f64 {
    let mut scratch = vec![Complex::ZERO; plan.real_scratch_len()];
    let mut outs: Vec<Vec<Complex>> =
        series.iter().map(|_| vec![Complex::ZERO; plan.len()]).collect();
    let start = Instant::now();
    for _ in 0..reps {
        for (s, out) in series.iter().zip(outs.iter_mut()) {
            plan.real_with_scratch(s, out, &mut scratch);
        }
    }
    let total = start.elapsed().as_secs_f64();
    assert!(outs.iter().all(|o| o[0].re.is_finite()));
    total * 1e9 / (reps * series.len()) as f64
}

/// ns/series for the batched kernel at `lane_width` lanes per call.
fn batched_ns(plan: &FftPlan, series: &[Vec<f64>], lane_width: usize, reps: usize) -> f64 {
    let mut scratch = BatchRealScratch::new();
    let mut outs: Vec<Vec<Complex>> =
        series.iter().map(|_| vec![Complex::ZERO; plan.len()]).collect();
    let start = Instant::now();
    for _ in 0..reps {
        for (group_in, group_out) in series.chunks(lane_width).zip(outs.chunks_mut(lane_width)) {
            let ins: Vec<&[f64]> = group_in.iter().map(|s| s.as_slice()).collect();
            let mut out_refs: Vec<&mut [Complex]> =
                group_out.iter_mut().map(|o| o.as_mut_slice()).collect();
            plan.real_batch_with_scratch(&ins, &mut out_refs, &mut scratch);
        }
    }
    let total = start.elapsed().as_secs_f64();
    assert!(outs.iter().all(|o| o[0].re.is_finite()));
    total * 1e9 / (reps * series.len()) as f64
}

struct FftRow {
    n: usize,
    scalar: f64,
    lane4: f64,
    lane8: f64,
}

fn bench_batch_fft(lengths: &[usize]) -> Vec<FftRow> {
    let samples = 7;
    lengths
        .iter()
        .map(|&n| {
            let plan = plan_for(n);
            let series = series_group(n, 8);
            // Repetitions sized to keep each sample around a few ms.
            let reps = (4_000_000 / n).max(8);
            // Warm every path (plan twiddles, scratch capacity).
            scalar_ns(&plan, &series, 2);
            batched_ns(&plan, &series, 4, 2);
            batched_ns(&plan, &series, 8, 2);
            let mut s = Vec::new();
            let mut b4 = Vec::new();
            let mut b8 = Vec::new();
            for _ in 0..samples {
                s.push(scalar_ns(&plan, &series, reps));
                b4.push(batched_ns(&plan, &series, 4, reps));
                b8.push(batched_ns(&plan, &series, 8, reps));
            }
            FftRow { n, scalar: best(&s), lane4: best(&b4), lane8: best(&b8) }
        })
        .collect()
}

fn main() {
    let blocks = env_or("WORLD_BENCH_BLOCKS", 50_000.0) as usize;
    let days = env_or("WORLD_BENCH_DAYS", 35.0);
    let threads = env_or(
        "WORLD_BENCH_THREADS",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) as f64,
    ) as usize;

    sleepwatch_obs::set_global_enabled(true);
    let obs = sleepwatch_obs::global();

    // ---- Kernel microbench at the two series lengths world runs
    // produce: 131 rounds (1-day spans, odd Bluestein) and 4582 rounds
    // (the paper's 35-day span, even packed-half path).
    let fft = bench_batch_fft(&[131, 4582]);
    for row in &fft {
        println!(
            "batch_fft n={}: scalar {:.0} ns/series, 4-lane {:.0} ({:.2}x), 8-lane {:.0} ({:.2}x)",
            row.n,
            row.scalar,
            row.lane4,
            row.scalar / row.lane4,
            row.lane8,
            row.scalar / row.lane8,
        );
    }

    // ---- End-to-end lazy world run through the streaming stats sink.
    let source = WorldSource::new(WorldConfig {
        num_blocks: blocks,
        seed: 0xbe_9c4,
        span_days: days,
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(source.cfg().start_time, days);
    let before = Snapshot::capture(obs);
    let start = Instant::now();
    let stats = WorldRun { threads, ..WorldRun::default() }
        .stats(&source, &cfg)
        .expect("runs without a journal cannot fail");
    let wall = start.elapsed().as_secs_f64();
    let d = Snapshot::capture(obs).delta(&before);

    assert_eq!(stats.blocks, blocks, "every block must be analyzed");
    assert!(stats.quarantined.is_empty(), "bench world must run clean");

    let bps = blocks as f64 / wall;
    let bps_thread = bps / threads as f64;
    let peak_arena = d.counter("world.peak_block_bytes");
    let chunks = d.counter("world.source_chunks");
    let batched_ffts = d.counter("spectral.batched_ffts");
    let batched_series = d.counter("spectral.batched_series");
    let paper_hours = PAPER_BLOCKS / bps / 3600.0;
    println!(
        "world_scale: {blocks} blocks x {days} days on {threads} thread(s): {wall:.1}s \
         ({bps:.0} blocks/s, {bps_thread:.0}/thread), peak arena {:.1} MiB, \
         {chunks} chunks, {batched_ffts} batched FFT calls ({batched_series} series) \
         -> full 3.7M survey ~{paper_hours:.2}h",
        peak_arena as f64 / (1024.0 * 1024.0),
    );

    let min_bps_thread = MIN_BLOCKS_PER_SEC_PER_THREAD_35D * (35.0 / days);
    let json = format!(
        "{{\n  \"bench\": \"world_scale\",\n  \"blocks\": {blocks},\n  \"days\": {days},\n  \
         \"threads\": {threads},\n  \"wall_s\": {wall:.3},\n  \"blocks_per_s\": {bps:.2},\n  \
         \"blocks_per_s_per_thread\": {bps_thread:.2},\n  \
         \"paper_3700000_extrapolated_hours\": {paper_hours:.3},\n  \
         \"peak_arena_bytes\": {peak_arena},\n  \"source_chunks\": {chunks},\n  \
         \"batched_fft_calls\": {batched_ffts},\n  \"batched_fft_series\": {batched_series},\n  \
         \"strict_diurnal_fraction\": {:.6},\n  \"batch_fft\": [\n{}\n  ],\n  \
         \"gates\": {{\n    \"min_blocks_per_s_per_thread\": {min_bps_thread:.2},\n    \
         \"max_arena_bytes\": {MAX_ARENA_BYTES},\n    \
         \"min_batch_fft_speedup\": {BATCH_FFT_MIN_SPEEDUP}\n  }}\n}}\n",
        stats.strict_fraction().1,
        fft.iter()
            .map(|r| format!(
                "    {{\"n\": {}, \"scalar_ns_per_series\": {:.1}, \
                 \"lane4_ns_per_series\": {:.1}, \"lane8_ns_per_series\": {:.1}, \
                 \"lane8_speedup\": {:.3}}}",
                r.n,
                r.scalar,
                r.lane4,
                r.lane8,
                r.scalar / r.lane8
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_world.json");
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));

    // ---- Gates.
    for row in &fft {
        let speedup = row.scalar / row.lane8;
        assert!(
            speedup >= BATCH_FFT_MIN_SPEEDUP,
            "batched FFT at n={} is only {speedup:.2}x the scalar loop \
             (gate {BATCH_FFT_MIN_SPEEDUP}x)",
            row.n
        );
    }
    assert!(
        bps_thread >= min_bps_thread,
        "world throughput {bps_thread:.0} blocks/s/thread under the \
         {min_bps_thread:.0} floor at {days} days"
    );
    assert!(peak_arena > 0, "peak arena gauge must be populated");
    assert!(
        peak_arena <= MAX_ARENA_BYTES,
        "per-worker arena {peak_arena} bytes exceeds the {MAX_ARENA_BYTES} ceiling — \
         lazy sharding is no longer bounding memory"
    );
    assert!(batched_ffts > 0, "SummaryOnly world runs must use the batched FFT path");
    assert_eq!(batched_series, blocks as u64, "every block's FFT should ride a batch");
}
