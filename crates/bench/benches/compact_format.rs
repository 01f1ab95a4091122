//! Compact-binary-format gate: the seed-joined container must earn its
//! keep against the TSV dataset it mirrors.
//!
//! A paper-shaped world (`FORMAT_BENCH_BLOCKS` blocks, default 50 000,
//! over `FORMAT_BENCH_DAYS` days, default 35) is analyzed once, then the
//! same rows are serialized both ways:
//!
//! 1. **Size** — the seed-joined binary container versus the TSV bytes.
//!    Gate: TSV must be at least [`MIN_SIZE_RATIO`]× larger. The
//!    self-contained mode is measured and reported too, ungated: it keeps
//!    the strings, so it lands well short of the seed-joined ratio.
//! 2. **Decode-to-analysis** — time from serialized bytes to a finished
//!    [`DatasetStats`] aggregate: `BinDataset::parse` +
//!    `DatasetStats::from_bin` against `read_dataset` +
//!    `DatasetStats::from_rows`. Both paths must agree exactly, and the
//!    binary path must be no slower than the TSV parse. Timings take the
//!    minimum across samples — the noise-robust estimator on shared
//!    machines.
//!
//! Results land in `BENCH_format.json` at the workspace root, gates
//! included, so CI can archive the artifact next to `BENCH_world.json`.
//!
//! Run with `cargo bench -p sleepwatch-bench --bench compact_format`.

use sleepwatch_bench::{best, env_or};
use sleepwatch_core::{
    analyze_world, dataset_rows, encode_dataset, read_dataset, write_dataset_rows, AnalysisConfig,
    BinDataset, DatasetMode, DatasetStats,
};
use sleepwatch_simnet::{World, WorldConfig};
use std::time::Instant;

/// The TSV dataset must be at least this many times larger than the
/// seed-joined binary container.
const MIN_SIZE_RATIO: f64 = 10.0;

fn main() {
    let blocks = env_or("FORMAT_BENCH_BLOCKS", 50_000.0) as usize;
    let days = env_or("FORMAT_BENCH_DAYS", 35.0);
    let threads = env_or(
        "FORMAT_BENCH_THREADS",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) as f64,
    ) as usize;

    let world = World::generate(WorldConfig {
        num_blocks: blocks,
        seed: 0xbe_9c4,
        span_days: days,
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(world.cfg.start_time, days);
    let start = Instant::now();
    let analysis = analyze_world(&world, &cfg, threads, None);
    let analyze_s = start.elapsed().as_secs_f64();
    let rows = dataset_rows(&analysis);

    // ---- Size: TSV vs both container modes.
    let mut tsv = Vec::new();
    write_dataset_rows(&mut tsv, &rows).expect("serialize TSV");
    let start = Instant::now();
    let bin = encode_dataset(&rows, DatasetMode::SeedJoined(&world.cfg)).expect("encode bin");
    let encode_s = start.elapsed().as_secs_f64();
    let bin_self = encode_dataset(&rows, DatasetMode::SelfContained).expect("encode self bin");

    let ratio = tsv.len() as f64 / bin.len() as f64;
    let ratio_self = tsv.len() as f64 / bin_self.len() as f64;
    println!(
        "compact_format: {blocks} blocks x {days} days: TSV {} B ({:.1} B/row), \
         seed-joined {} B ({:.2} B/row, {ratio:.1}x), \
         self-contained {} B ({:.2} B/row, {ratio_self:.1}x)",
        tsv.len(),
        tsv.len() as f64 / blocks as f64,
        bin.len(),
        bin.len() as f64 / blocks as f64,
        bin_self.len(),
        bin_self.len() as f64 / blocks as f64,
    );

    // ---- Decode-to-analysis: serialized bytes to a DatasetStats
    // aggregate, both formats, minimum over samples.
    let samples = 7;
    let mut tsv_times = Vec::new();
    let mut bin_times = Vec::new();
    let mut want = None;
    for _ in 0..samples {
        let start = Instant::now();
        let parsed = read_dataset(&tsv[..]).expect("parse TSV");
        let stats = DatasetStats::from_rows(&parsed);
        tsv_times.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let ds = BinDataset::parse(&bin, Some(&world.cfg)).expect("parse bin");
        let bin_stats = DatasetStats::from_bin(&ds);
        bin_times.push(start.elapsed().as_secs_f64());

        assert_eq!(stats, bin_stats, "TSV and binary paths must aggregate identically");
        want = Some(stats);
    }
    let want = want.expect("at least one sample");
    assert_eq!(want.rows, blocks as u64, "every block must survive the roundtrip");

    let tsv_s = best(&tsv_times);
    let bin_s = best(&bin_times);
    let speedup = tsv_s / bin_s;
    println!(
        "decode_to_stats: TSV {:.1} ms, binary {:.1} ms ({speedup:.2}x); \
         analyze {analyze_s:.1}s on {threads} thread(s), encode {:.1} ms",
        tsv_s * 1e3,
        bin_s * 1e3,
        encode_s * 1e3,
    );

    let json = format!(
        "{{\n  \"bench\": \"compact_format\",\n  \"blocks\": {blocks},\n  \"days\": {days},\n  \
         \"tsv_bytes\": {},\n  \"bin_bytes\": {},\n  \"bin_self_bytes\": {},\n  \
         \"tsv_bytes_per_row\": {:.3},\n  \"bin_bytes_per_row\": {:.3},\n  \
         \"size_ratio\": {ratio:.3},\n  \"size_ratio_self\": {ratio_self:.3},\n  \
         \"encode_s\": {encode_s:.4},\n  \"tsv_decode_to_stats_s\": {tsv_s:.4},\n  \
         \"bin_decode_to_stats_s\": {bin_s:.4},\n  \"decode_speedup\": {speedup:.3},\n  \
         \"strict_rows\": {},\n  \
         \"gates\": {{\n    \"min_size_ratio\": {MIN_SIZE_RATIO},\n    \
         \"min_decode_speedup\": 1.0\n  }}\n}}\n",
        tsv.len(),
        bin.len(),
        bin_self.len(),
        tsv.len() as f64 / blocks as f64,
        bin.len() as f64 / blocks as f64,
        want.strict,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_format.json");
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));

    // ---- Gates.
    assert!(
        ratio >= MIN_SIZE_RATIO,
        "seed-joined container is only {ratio:.2}x smaller than TSV (gate {MIN_SIZE_RATIO}x)"
    );
    assert!(
        speedup >= 1.0,
        "binary decode-to-stats is {speedup:.2}x the TSV parse — the compact \
         format must not cost analysis time"
    );
}
