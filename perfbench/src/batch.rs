//! `batch-35d`: the paper run. A lazy `WorldSource` → `analyze_world_source`
//! at `threads = nproc` → `dataset_rows` (the geo/AS/link join) →
//! `encode_dataset` (`SLPWBIN1`). Probing and the batched 8-lane Bluestein
//! FFT at n=4451 own the time here; transport, ingest, journal and serve
//! do no work.
//!
//! The traced variant also replays a sample of blocks through each
//! layer's public call in turn (generate → probe → estimate → clean →
//! batched FFT → classify) so per-block layer self times can be set
//! against the end-to-end per-block time.

use std::time::Instant;

use sleepwatch_availability::cleaning::{clean_series_into, CleanScratch};
use sleepwatch_core::{
    analyze_block, analyze_world_source, dataset_rows, decode_dataset, encode_dataset,
    AnalysisConfig, DatasetMode, DatasetRow,
};
use sleepwatch_obs::{Snapshot, Stage};
use sleepwatch_probing::TrinocularProber;
use sleepwatch_simnet::{WorldConfig, WorldSource, ROUND_SECONDS};
use sleepwatch_spectral::{
    classify, plan_for, trend_default, BatchRealScratch, Complex, DiurnalClass, SpectrumScratch,
    MAX_BATCH_LANES,
};

use crate::stats::{median, Tally};
use crate::sys::{cpu_seconds, nproc, peak_rss_mib, reset_peak_rss, Digest};
use crate::trace::Tracer;
use crate::workload::{mix_seed, PassOut, Values};

/// The paper's 35-day window.
pub const DAYS: f64 = 35.0;
/// Blocks in the measured world.
pub const BLOCKS: usize = 2000;
/// Blocks when another workload's traced run measures this layer stack.
pub const MINI_BLOCKS: usize = 512;
/// Every `SPOT_EVERY`-th block is re-analyzed through the non-batched path.
const SPOT_EVERY: usize = 50;
/// Blocks replayed layer by layer in the traced run (whole 8-lane groups).
const SAMPLE_BLOCKS: usize = 8 * MAX_BATCH_LANES;
/// FFT lengths the kernel rows cover: the 35-day batch series after the
/// midnight trim, and the live detector's window.
pub const KERNEL_LENGTHS: [usize; 2] = [4451, 1833];

/// The world a seed selects.
pub fn world(seed: u64, blocks: usize) -> WorldConfig {
    WorldConfig {
        num_blocks: blocks,
        seed: mix_seed(seed, 0xba7c),
        span_days: DAYS,
        ..Default::default()
    }
}

/// The analysis configuration for `source`.
pub fn config(source: &WorldSource) -> AnalysisConfig {
    AnalysisConfig::over_days(source.cfg().start_time, DAYS)
}

/// Rows and their `SLPWBIN1` bytes for a whole world, as the batch
/// pipeline produces them — the reference other workloads compare with.
pub fn reference(source: &WorldSource, cfg: &AnalysisConfig) -> (Vec<DatasetRow>, Vec<u8>) {
    let analysis = analyze_world_source(source, cfg, nproc(), None);
    assert!(analysis.quarantined.is_empty(), "reference world quarantined blocks");
    let rows = dataset_rows(&analysis);
    let bytes = encode_dataset(&rows, DatasetMode::SelfContained).expect("encode reference rows");
    (rows, bytes)
}

/// One measured pass; `tracer` selects the traced variant.
pub fn pass(seed: u64, blocks: usize, tracer: Option<&mut Tracer>) -> PassOut {
    let mut out = PassOut::default();
    let threads = nproc();

    let t = Instant::now();
    let source = WorldSource::new(world(seed, blocks));
    let cfg = config(&source);
    sleepwatch_spectral::prewarm(cfg.rounds as usize);
    out.setup_s = t.elapsed().as_secs_f64();

    let obs = sleepwatch_obs::global();
    let before = Snapshot::capture(obs);
    reset_peak_rss();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let analysis = analyze_world_source(&source, &cfg, threads, None);
    let t1 = Instant::now();
    let rows = dataset_rows(&analysis);
    let t2 = Instant::now();
    let bytes = encode_dataset(&rows, DatasetMode::SelfContained).expect("encode dataset");
    let t3 = Instant::now();
    out.wall_s = (t3 - t0).as_secs_f64();
    out.cpu_s = cpu_seconds() - cpu0;
    out.peak_rss_mib = peak_rss_mib();
    let delta = Snapshot::capture(obs).delta(&before);
    out.e2e.set("blocks_per_s", blocks as f64 / out.wall_s);
    out.e2e.set("rounds_per_s", (blocks as u64 * cfg.rounds) as f64 / out.wall_s);

    // Correctness: nothing quarantined; a spread of blocks agrees with
    // the non-batched single-block path; the container decodes back to
    // the rows that were encoded.
    let mut tally = Tally::default();
    for _ in &analysis.quarantined {
        tally.record(false);
    }
    let by_id = |id: u64| analysis.reports.iter().find(|r| r.summary.block_id == id);
    for id in (0..blocks as u64).step_by(SPOT_EVERY) {
        let want = analyze_block(&source.generate_block(id), &cfg).summary();
        let ok = by_id(id).is_some_and(|r| r.summary == want);
        if !ok {
            out.fail(format!("block {id}: batched summary differs from analyze_block"));
        }
    }
    tally.attempted += (blocks - analysis.quarantined.len()) as u64;
    match decode_dataset(&bytes, None) {
        Ok(back) if back == rows => {}
        _ => out.fail("SLPWBIN1 bytes do not decode to the encoded rows".into()),
    }
    out.tally = tally;
    out.digest = Digest::of(&bytes).hex();

    if let Some(tr) = tracer {
        tr.record("worldrun.analyze_world_source", t0, t1);
        tr.record("geoecon.dataset_rows", t1, t2);
        tr.record("binfmt.encode_dataset", t2, t3);
        let layers = &mut out.layers;
        let n = blocks as f64;
        let world_us = (t1 - t0).as_secs_f64() * 1e6;
        let join_us = (t2 - t1).as_secs_f64() * 1e6 / n;
        let encode_us = (t3 - t2).as_secs_f64() * 1e6 / n;
        layers.set("geoecon.join_us", join_us);
        layers.set("binfmt.encode_us", encode_us);
        layers.set("binfmt.bytes_per_row", bytes.len() as f64 / rows.len().max(1) as f64);
        layers.set("probing.probes_sent", delta.counter("probing.probes_sent") as f64);
        let fill = delta.histogram("cleaning.fill_fraction").map_or(0.0, |h| h.mean());
        layers.set("availability.fill_fraction", fill);
        let transforms = delta.counter("fft.transforms").max(1) as f64;
        layers.set(
            "spectral.batched_fraction",
            delta.counter("spectral.batched_series") as f64 / transforms,
        );
        layers.set("spectral.plan_cache_misses", delta.counter("plan_cache.misses") as f64);
        let lengths = delta.length_counts("fft.by_length");
        let dominant = lengths.iter().max_by_key(|(_, c)| *c).map_or(0, |(len, _)| *len);
        layers.set("spectral.fft_len", dominant as f64);
        let uncovered: Vec<usize> =
            lengths.iter().map(|&(len, _)| len).filter(|l| !KERNEL_LENGTHS.contains(l)).collect();
        let mut stage_sum = 0.0;
        for (stage, key) in [
            (Stage::Probe, "obs.stage_us.probe"),
            (Stage::Estimate, "obs.stage_us.estimate"),
            (Stage::Clean, "obs.stage_us.clean"),
            (Stage::Fft, "obs.stage_us.fft"),
            (Stage::Classify, "obs.stage_us.classify"),
        ] {
            let h = delta.stage(stage);
            stage_sum += h.map_or(0.0, |h| h.sum_micros as f64 / 1e6);
            layers.set(key, h.map_or(0.0, |h| h.mean()));
        }
        layers.set("worldrun.parallel_efficiency", stage_sum / (world_us * threads as f64));
        for len in uncovered {
            out.fail(format!("world run used FFT length {len}, which no kernel row covers"));
        }

        let sampled = decompose(tr, &source, &cfg, blocks, &analysis.reports, &mut out);
        let layers = &mut out.layers;
        let per = |name: &str| tr.self_us(name) / sampled as f64;
        let layer_us = [
            ("simnet.generate_us", per("simnet.generate_block")),
            ("probing.probe_us", per("probing.run_with_faults")),
            ("availability.estimate_us", per("availability.estimate")),
            ("availability.clean_us", per("availability.clean_series_into")),
            ("spectral.fft_us", per("spectral.real_batch_with_scratch")),
            ("spectral.classify_us", per("spectral.classify")),
        ];
        let mut layer_sum = join_us + encode_us;
        for (name, v) in layer_us {
            layers.set(name, v);
            layer_sum += v;
        }
        let per_block = world_us * threads as f64 / n + join_us + encode_us;
        layers.set("trace.per_block_us", per_block);
        layers.set("trace.layer_sum_us", layer_sum);
        // What the layer calls do not account for: orchestration, chunk
        // claiming, batching and idle workers inside the world run.
        layers.set("worldrun.self_us", per_block - layer_sum);
    }
    out
}

/// Replays evenly spaced blocks through each layer's public call, one
/// 8-lane FFT group at a time, under spans. Each replayed verdict must
/// equal the world run's. Returns the number of blocks replayed.
fn decompose(
    tr: &mut Tracer,
    source: &WorldSource,
    cfg: &AnalysisConfig,
    blocks: usize,
    reports: &[sleepwatch_core::WorldBlockReport],
    out: &mut PassOut,
) -> usize {
    let step = (blocks / SAMPLE_BLOCKS).max(1);
    let ids: Vec<u64> = (0..blocks).step_by(step).take(SAMPLE_BLOCKS).map(|i| i as u64).collect();
    let mut clean = CleanScratch::default();
    let mut batch = BatchRealScratch::new();
    let mut spectra: Vec<SpectrumScratch> =
        (0..MAX_BATCH_LANES).map(|_| SpectrumScratch::new()).collect();
    tr.span("batch.decompose", |tr| {
        for group in ids.chunks(MAX_BATCH_LANES) {
            tr.span("batch.group", |tr| {
                let mut lanes = Vec::with_capacity(group.len());
                for &id in group {
                    let block = tr.span("simnet.generate_block", |_| source.generate_block(id));
                    let run = tr.span("probing.run_with_faults", |_| {
                        TrinocularProber::new(&block, cfg.trinocular).run_with_faults(
                            &block,
                            cfg.start_time,
                            cfg.rounds,
                            &cfg.faults,
                        )
                    });
                    let obs: Vec<(u64, f64)> = tr.span("availability.estimate", |_| {
                        run.records.iter().map(|r| (r.round, r.a_short)).collect()
                    });
                    let mut series = Vec::new();
                    let fill = tr.span("availability.clean_series_into", |_| {
                        clean_series_into(
                            &obs,
                            cfg.rounds as usize,
                            cfg.start_time,
                            ROUND_SECONDS,
                            &mut clean,
                            &mut series,
                        )
                    });
                    lanes.push((id, series, fill));
                }
                let len = lanes[0].1.len();
                assert!(lanes.iter().all(|l| l.1.len() == len), "sampled series lengths differ");
                tr.span("spectral.real_batch_with_scratch", |_| {
                    let plan = plan_for(len);
                    let ins: Vec<&[f64]> = lanes.iter().map(|l| l.1.as_slice()).collect();
                    let mut outs: Vec<&mut [Complex]> = spectra
                        .iter_mut()
                        .take(lanes.len())
                        .map(|s| s.prepare_coeffs(len, sleepwatch_spectral::ROUND_SECONDS))
                        .collect();
                    plan.real_batch_with_scratch(&ins, &mut outs, &mut batch);
                });
                for ((id, series, fill), spec) in lanes.iter().zip(&spectra) {
                    let (class, phase) = tr.span("spectral.classify", |_| {
                        let mut d = classify(spec.spectrum(), &cfg.diurnal);
                        std::hint::black_box(trend_default(series));
                        if *fill > cfg.max_fill_fraction {
                            d.class = DiurnalClass::NonDiurnal;
                            d.phase = None;
                        }
                        (d.class, d.phase)
                    });
                    let want = reports.iter().find(|r| r.summary.block_id == *id);
                    if !want.is_some_and(|r| r.summary.class == class && r.summary.phase == phase) {
                        out.fail(format!("layer-by-layer replay of block {id} disagrees"));
                    }
                }
            });
        }
    });
    ids.len()
}

/// ns per series of the scalar and 8-lane real FFT kernels at `n`, each
/// the median of several timed samples.
pub fn kernel_row(n: usize) -> (f64, f64) {
    let plan = plan_for(n);
    let series: Vec<Vec<f64>> = (0..MAX_BATCH_LANES)
        .map(|l| (0..n).map(|j| ((l * 131 + j) as f64 * 0.113).sin() + 0.5).collect())
        .collect();
    let mut outs: Vec<Vec<Complex>> = series.iter().map(|_| vec![Complex::ZERO; n]).collect();
    let mut scratch = vec![Complex::ZERO; plan.real_scratch_len()];
    let mut batch = BatchRealScratch::new();
    let reps = (200_000 / n).max(4);
    let mut scalar = Vec::new();
    let mut lane8 = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            for (s, o) in series.iter().zip(outs.iter_mut()) {
                plan.real_with_scratch(s, o, &mut scratch);
            }
        }
        scalar.push(t.elapsed().as_secs_f64() * 1e9 / (reps * series.len()) as f64);
        let t = Instant::now();
        for _ in 0..reps {
            let ins: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
            let mut o: Vec<&mut [Complex]> = outs.iter_mut().map(|o| o.as_mut_slice()).collect();
            plan.real_batch_with_scratch(&ins, &mut o, &mut batch);
        }
        lane8.push(t.elapsed().as_secs_f64() * 1e9 / (reps * series.len()) as f64);
        std::hint::black_box(&outs);
    }
    (median(&scalar).unwrap_or(0.0), median(&lane8).unwrap_or(0.0))
}

/// Records the kernel rows into `layers`.
pub fn kernel_rows(layers: &mut Values) {
    for n in KERNEL_LENGTHS {
        let (scalar, lane8) = kernel_row(n);
        layers.set_owned(format!("spectral.fft_ns.n{n}.scalar"), scalar);
        layers.set_owned(format!("spectral.fft_ns.n{n}.lane8"), lane8);
    }
}
