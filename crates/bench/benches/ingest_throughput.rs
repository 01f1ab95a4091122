//! Streaming-ingest gate: the sharded engine must keep up with a live
//! feed without buying that speed with unbounded memory or routing
//! overhead.
//!
//! A pre-probed world (`STREAM_BENCH_BLOCKS` blocks, default 2000, over
//! `STREAM_BENCH_DAYS` days, default 1.75) is flattened into one
//! interleaved event feed, then consumed three ways:
//!
//! 1. **Direct** — the queue-less single-lane baseline
//!    ([`ingest_direct`]): per-block pushes straight into detector
//!    lanes, no routing, no threads. This is the floor the engine's
//!    machinery is measured against.
//! 2. **Engine** at 1, 4 and 8 shards ([`ingest_events`]): bounded
//!    queues, backpressure, worker threads. Gates: sustained throughput
//!    of at least [`MIN_ROUNDS_PER_S_PER_SHARD`] rounds/s/shard on the
//!    single-shard config, and peak queue depth within
//!    `capacity + batch_events` on every config (the bounded-memory
//!    contract: depth × 32 B/event × shards).
//! 3. **Calibration** — the same event count through both paths with
//!    one hot lane and no finalization, so the per-event analysis work
//!    is trivial, cache-resident and identical on both sides. The
//!    direct/engine wall difference is then the queue machinery itself
//!    — routing, batching, locking, handoff — free of the cache and
//!    scheduler interference that a feeder and a worker time-slicing a
//!    single core inject into the end-to-end wall clock. Gate:
//!    machinery cost at most [`MAX_OVERHEAD`] of the real direct
//!    pipeline time (the "≤5 % overhead vs a direct per-block push"
//!    contract). The end-to-end ratio stays in the JSON as an
//!    informational figure; on multi-core hosts pipelining hides the
//!    feeder and it approaches 1.0 on its own.
//!
//! Every configuration must also produce verdicts byte-identical to the
//! direct baseline — a throughput number for a wrong answer is
//! worthless. Timings take the minimum across samples, the noise-robust
//! estimator on shared machines. Results land in `BENCH_stream.json` at
//! the workspace root so CI can archive the artifact next to
//! `BENCH_world.json`.
//!
//! Run with `cargo bench -p sleepwatch-bench --bench ingest_throughput`.

use sleepwatch_bench::{best, env_or};
use sleepwatch_core::{ingest_direct, ingest_events, AnalysisConfig, IngestConfig};
use sleepwatch_probing::{interleave, replay_run, RoundEvent, TrinocularProber};
use sleepwatch_simnet::{WorldConfig, WorldSource};
use std::time::Instant;

/// Minimum sustained per-shard routing+analysis rate, rounds/s.
const MIN_ROUNDS_PER_S_PER_SHARD: f64 = 200_000.0;
/// Maximum queue-machinery cost as a fraction of the direct pipeline's
/// wall time.
const MAX_OVERHEAD: f64 = 0.05;

fn main() {
    let blocks = env_or("STREAM_BENCH_BLOCKS", 2_000.0) as usize;
    let days = env_or("STREAM_BENCH_DAYS", 1.75);
    let samples = env_or("STREAM_BENCH_SAMPLES", 3.0) as usize;

    let source = WorldSource::new(WorldConfig {
        num_blocks: blocks,
        seed: 0x57_12EA,
        span_days: days,
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(source.cfg().start_time, days);

    // Probe every block up front: the bench times the engine, not the
    // prober, so the feed is a ready-made in-memory event stream.
    let start = Instant::now();
    let streams: Vec<Vec<RoundEvent>> = (0..blocks as u64)
        .map(|id| {
            let block = source.generate_block(id);
            let mut prober = TrinocularProber::new(&block, cfg.trinocular);
            replay_run(&prober.run_with_faults(&block, cfg.start_time, cfg.rounds, &cfg.faults))
        })
        .collect();
    let feed = interleave(streams, 0xFEED_F00D);
    let probe_s = start.elapsed().as_secs_f64();
    let rounds = feed.iter().filter(|e| matches!(e, RoundEvent::Round { .. })).count();
    println!(
        "ingest_throughput: {blocks} blocks x {days} days = {rounds} rounds \
         ({} events, probed in {probe_s:.1}s)",
        feed.len()
    );

    // ---- Direct baseline: per-block push, no queue, no threads.
    let mut direct_times = Vec::new();
    let mut want = Vec::new();
    for _ in 0..samples {
        let start = Instant::now();
        let out = ingest_direct(&source, &cfg, feed.iter().copied());
        direct_times.push(start.elapsed().as_secs_f64());
        assert!(out.quarantined.is_empty(), "direct baseline quarantined blocks");
        assert_eq!(out.reports.len(), blocks, "direct baseline lost blocks");
        want = out.reports.iter().map(|r| format!("{r:?}")).collect();
    }
    let direct_s = best(&direct_times);

    // ---- Engine at 1, 4 and 8 shards.
    let mut lines = Vec::new();
    let mut engine_1shard_s = f64::NAN;
    let mut rate_1shard = f64::NAN;
    for shards in [1usize, 4, 8] {
        let mut icfg = IngestConfig { shards, ..Default::default() };
        icfg.queue_capacity = env_or("STREAM_BENCH_CAPACITY", icfg.queue_capacity as f64) as usize;
        icfg.batch_events = env_or("STREAM_BENCH_BATCH", icfg.batch_events as f64) as usize;
        let depth_bound = icfg.queue_capacity + icfg.batch_events;
        let mut times = Vec::new();
        let mut high_water = 0usize;
        for _ in 0..samples {
            let start = Instant::now();
            let out = ingest_events(&source, &cfg, &icfg, feed.iter().copied());
            times.push(start.elapsed().as_secs_f64());
            assert!(out.quarantined.is_empty(), "{shards} shards: quarantined blocks");
            let got: Vec<String> = out.reports.iter().map(|r| format!("{r:?}")).collect();
            assert_eq!(got, want, "{shards} shards: verdicts diverged from direct baseline");
            assert!(
                out.stats.queue_high_water <= depth_bound,
                "{shards} shards: queue depth {} escaped its bound {depth_bound}",
                out.stats.queue_high_water
            );
            high_water = high_water.max(out.stats.queue_high_water);
        }
        let wall = best(&times);
        let per_shard = rounds as f64 / wall / shards as f64;
        let peak_bytes = depth_bound * std::mem::size_of::<RoundEvent>() * shards;
        if shards == 1 {
            engine_1shard_s = wall;
            rate_1shard = per_shard;
        }
        println!(
            "engine {shards} shard(s): {wall:.3}s, {:.0} rounds/s total, \
             {per_shard:.0} rounds/s/shard, queue peak {high_water} events \
             (bound {depth_bound} = {peak_bytes} B)",
            rounds as f64 / wall
        );
        lines.push(format!(
            "    {{\"shards\": {shards}, \"wall_s\": {wall:.4}, \
             \"rounds_per_s_per_shard\": {per_shard:.0}, \
             \"queue_peak_events\": {high_water}, \"queue_bound_events\": {depth_bound}, \
             \"queue_bound_bytes\": {peak_bytes}}}"
        ));
    }

    // ---- Machinery calibration: same event count, one hot lane, no
    // Finish so nothing finalizes. Per-event apply work is identical and
    // trivial on both paths; the wall gap is the queue layer alone.
    let calib: Vec<RoundEvent> = (0..feed.len() as u64)
        .map(|i| RoundEvent::Round { block_id: 0, round: i, a_short: 0.5 })
        .collect();
    let one = IngestConfig { shards: 1, ..Default::default() };
    let mut calib_direct = Vec::new();
    let mut calib_engine = Vec::new();
    for _ in 0..samples {
        let start = Instant::now();
        let out = ingest_direct(&source, &cfg, calib.iter().copied());
        calib_direct.push(start.elapsed().as_secs_f64());
        assert_eq!(out.stats.rounds_routed, calib.len() as u64, "direct dropped calib events");

        let start = Instant::now();
        let out = ingest_events(&source, &cfg, &one, calib.iter().copied());
        calib_engine.push(start.elapsed().as_secs_f64());
        assert_eq!(out.stats.rounds_routed, calib.len() as u64, "engine dropped calib events");
    }
    let machinery_s = (best(&calib_engine) - best(&calib_direct)).max(0.0);
    let overhead = machinery_s / direct_s;
    let end_to_end = engine_1shard_s / direct_s;
    println!(
        "direct baseline {direct_s:.3}s; queue machinery {:.1} ms over {} events \
         = {:.1}% of direct (gate {:.0}%); end-to-end 1-shard ratio {end_to_end:.3}x \
         (informational)",
        machinery_s * 1e3,
        calib.len(),
        overhead * 1e2,
        MAX_OVERHEAD * 1e2,
    );

    let json = format!(
        "{{\n  \"bench\": \"ingest_throughput\",\n  \"blocks\": {blocks},\n  \
         \"days\": {days},\n  \"rounds\": {rounds},\n  \"events\": {},\n  \
         \"direct_s\": {direct_s:.4},\n  \"engine_1shard_s\": {engine_1shard_s:.4},\n  \
         \"machinery_s\": {machinery_s:.4},\n  \"machinery_overhead\": {overhead:.4},\n  \
         \"end_to_end_ratio\": {end_to_end:.4},\n  \"configs\": [\n{}\n  ],\n  \
         \"gates\": {{\n    \"min_rounds_per_s_per_shard\": {MIN_ROUNDS_PER_S_PER_SHARD},\n    \
         \"max_machinery_overhead\": {MAX_OVERHEAD}\n  }}\n}}\n",
        feed.len(),
        lines.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));

    // ---- Gates.
    assert!(
        rate_1shard >= MIN_ROUNDS_PER_S_PER_SHARD,
        "single-shard engine sustains only {rate_1shard:.0} rounds/s \
         (gate {MIN_ROUNDS_PER_S_PER_SHARD})"
    );
    assert!(
        overhead <= MAX_OVERHEAD,
        "queue machinery costs {:.1}% of the direct per-block push \
         (gate {:.0}%) — the queue layer must be nearly free",
        overhead * 1e2,
        MAX_OVERHEAD * 1e2,
    );
}
