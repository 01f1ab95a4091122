//! `serve-mix`: the query service under an open loop. The generator
//! analyzes a one-day world and encodes it as `SLPWBIN1` bytes; set-up is
//! `rows_from_dataset_bytes` then `ServeState::build`; a `QueryServer`
//! with `threads = nproc` and the default LRU answers a request mix sent
//! on a fixed schedule over `nproc` keep-alive connections — first at the
//! reference rate, then up a ladder of offered rates.
//!
//! The mix makes each request class use the serve layer differently:
//! indexed block lookups (70%), precomputed group routes (15%), ad-hoc
//! `/v1/query` filters drawn Zipf-like from a key space four times the
//! LRU's capacity so both hits and fold-everything misses occur (14%),
//! and `/metrics` (1%).

use std::collections::{BTreeSet, HashMap};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sleepwatch_core::serve::{route, DEFAULT_LRU_CAPACITY};
use sleepwatch_core::{
    analyze_world_source, dataset_rows, encode_dataset, rows_from_dataset_bytes, AnalysisConfig,
    DatasetMode, DatasetRow, QueryServer, ServeConfig, ServeState,
};
use sleepwatch_obs::Snapshot;
use sleepwatch_simnet::{WorldConfig, WorldSource};

use crate::load::{account, run_phase, Accounting, Ladder, Sample};
use crate::stats::{median, percentile, tail_percentile, Tally};
use crate::sys::{cpu_seconds, nproc, peak_rss_mib, reset_peak_rss, Digest};
use crate::trace::Tracer;
use crate::workload::{mix_seed, PassOut};

/// Blocks in the served world.
pub const BLOCKS: usize = 50_000;
/// Days the served world covers.
pub const DAYS: f64 = 1.0;
/// The reference rate p50/p99 are read at, requests/s.
pub const REF_RATE: f64 = 8_000.0;
/// Length of the reference phase, s.
const REF_SECONDS: f64 = 3.0;
/// Requests at the reference rate before it is measured, so the LRU
/// holds its working set as in a long-running server.
const WARMUP_REQUESTS: usize = 8_000;
/// The rate ladder: from `LADDER_START` up by `LADDER_STEP` per rung, at
/// most `LADDER_RUNGS` rungs, ending once the service is plainly past its
/// limit (see [`crate::load::Ladder`]).
const LADDER_START: f64 = 16_000.0;
const LADDER_STEP: f64 = 1.15;
const LADDER_RUNGS: usize = 16;
/// Length of one ladder rung, s.
const RUNG_SECONDS: f64 = 0.3;
/// Distinct `/v1/query` filters, a multiple of the LRU capacity.
const QUERY_KEYS: usize = 4 * DEFAULT_LRU_CAPACITY;
/// Zipf exponent of the filter popularity.
const ZIPF_S: f64 = 1.0;
/// Requests of the reference phase when another workload's traced run
/// measures this layer.
const MINI_REQUESTS: usize = 4_000;
/// `route()` calls timed per request class.
const ROUTE_SAMPLES: usize = 300;

/// The world a seed selects.
pub fn world(seed: u64) -> WorldConfig {
    WorldConfig {
        num_blocks: BLOCKS,
        seed: mix_seed(seed, 0x5e7e),
        span_days: DAYS,
        ..Default::default()
    }
}

/// Analyzes the seed's world and encodes it: the bytes the pass loads.
pub fn generate(seed: u64) -> Vec<u8> {
    let source = WorldSource::new(world(seed));
    let cfg = AnalysisConfig::over_days(source.cfg().start_time, DAYS);
    let analysis = analyze_world_source(&source, &cfg, nproc(), None);
    assert!(analysis.quarantined.is_empty(), "serve world quarantined blocks");
    encode_dataset(&dataset_rows(&analysis), DatasetMode::SelfContained)
        .expect("encode serve world")
}

/// Request class of a target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Block,
    Group,
    Query,
    Metrics,
}

/// Distinct request targets and the class of each.
struct Targets {
    paths: Vec<String>,
    class: Vec<Class>,
    blocks: Vec<u32>,
    groups: [Vec<u32>; 5],
    queries: Vec<u32>,
    metrics: u32,
}

impl Targets {
    fn push(&mut self, path: String, class: Class) -> u32 {
        self.paths.push(path);
        self.class.push(class);
        (self.paths.len() - 1) as u32
    }

    fn build(rows: &[DatasetRow], seed: u64) -> Targets {
        let mut t = Targets {
            paths: Vec::new(),
            class: Vec::new(),
            blocks: Vec::new(),
            groups: Default::default(),
            queries: Vec::new(),
            metrics: 0,
        };
        for r in rows {
            let i = t.push(format!("/v1/block/{}", r.block_id), Class::Block);
            t.blocks.push(i);
        }
        let countries: BTreeSet<&str> = rows.iter().filter_map(|r| r.country.as_deref()).collect();
        let asns: BTreeSet<u32> = rows.iter().map(|r| r.asn).collect();
        let links: BTreeSet<&str> =
            rows.iter().flat_map(|r| r.links.iter().map(|l| l.as_str())).collect();
        let g = t.push("/v1/summary".into(), Class::Group);
        t.groups[0].push(g);
        let g = t.push("/v1/outages".into(), Class::Group);
        t.groups[1].push(g);
        for c in &countries {
            let g = t.push(format!("/v1/country/{c}"), Class::Group);
            t.groups[2].push(g);
        }
        for a in &asns {
            let g = t.push(format!("/v1/as/{a}"), Class::Group);
            t.groups[3].push(g);
        }
        for l in &links {
            let g = t.push(format!("/v1/link/{l}"), Class::Group);
            t.groups[4].push(g);
        }
        let mut filters = Vec::new();
        for c in &countries {
            filters.push(format!("country={c}"));
            filters.push(format!("country={c}&stationary=true"));
            filters.push(format!("country={c}&stationary=false"));
            for l in &links {
                filters.push(format!("country={c}&link={l}"));
            }
        }
        for l in &links {
            filters.push(format!("link={l}&stationary=true"));
            filters.push(format!("link={l}&stationary=false"));
            for c in &countries {
                filters.push(format!("country={c}&link={l}&stationary=true"));
            }
        }
        for a in &asns {
            filters.push(format!("as={a}"));
            filters.push(format!("as={a}&stationary=true"));
            filters.push(format!("as={a}&stationary=false"));
        }
        let mut rng = Rng(mix_seed(seed, 0x9e7));
        for i in (1..filters.len()).rev() {
            filters.swap(i, rng.below(i + 1));
        }
        for f in filters.into_iter().take(QUERY_KEYS) {
            let q = t.push(format!("/v1/query?{f}"), Class::Query);
            t.queries.push(q);
        }
        t.metrics = t.push("/metrics".into(), Class::Metrics);
        t
    }

    /// A request sequence of `n` drawn from the mix.
    fn sequence(&self, n: usize, rng: &mut Rng, zipf: &[f64]) -> Vec<u32> {
        (0..n)
            .map(|_| {
                let u = rng.unit();
                if u < 0.70 {
                    self.blocks[rng.below(self.blocks.len())]
                } else if u < 0.85 {
                    let live: Vec<&Vec<u32>> =
                        self.groups.iter().filter(|g| !g.is_empty()).collect();
                    let g = live[rng.below(live.len())];
                    g[rng.below(g.len())]
                } else if u < 0.99 {
                    let x = rng.unit() * zipf[zipf.len() - 1];
                    self.queries[zipf.partition_point(|&c| c < x).min(self.queries.len() - 1)]
                } else {
                    self.metrics
                }
            })
            .collect()
    }
}

/// Cumulative Zipf weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(ZIPF_S);
            acc
        })
        .collect()
}

/// splitmix64 stream: the request mix is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// The request plan a seed selects: targets, the Zipf table, the
/// reference sequence, and the generator the ladder continues from.
fn plan(rows: &[DatasetRow], seed: u64, ref_n: usize) -> (Targets, Vec<f64>, [Vec<u32>; 2], Rng) {
    let targets = Targets::build(rows, seed);
    let zipf = zipf_cdf(targets.queries.len());
    let mut rng = Rng(mix_seed(seed, 0x10ad));
    let warm = targets.sequence(WARMUP_REQUESTS.min(ref_n), &mut rng, &zipf);
    let ref_seq = targets.sequence(ref_n, &mut rng, &zipf);
    (targets, zipf, [warm, ref_seq], rng)
}

/// Folds one answered reference request into the output digest
/// (`/metrics` is left out: its body is the live registry).
fn digest_answer(d: &mut Digest, targets: &Targets, target: u32, body: u64) {
    if targets.class[target as usize] != Class::Metrics {
        d.update(targets.paths[target as usize].as_bytes());
        d.update(&body.to_le_bytes());
    }
}

/// The digest a full pass over `bytes` must report: the reference
/// phase's answers as `route()` gives them.
pub fn expected_digest(seed: u64, bytes: &[u8]) -> String {
    let rows = rows_from_dataset_bytes(bytes, None).expect("decode served dataset");
    let state = ServeState::build(rows, DEFAULT_LRU_CAPACITY);
    let (targets, _, [_, ref_seq], _) = plan(state.rows(), seed, (REF_RATE * REF_SECONDS) as usize);
    let mut d = Digest::default();
    for &t in &ref_seq {
        let body = route(&state, &targets.paths[t as usize]).2;
        digest_answer(&mut d, &targets, t, Digest::of(body.as_bytes()).value());
    }
    d.hex()
}

/// `route()`'s status and body digest for every distinct target in
/// `seq`, computed on `nproc` threads.
fn expected_answers(
    state: &ServeState,
    targets: &Targets,
    seq: impl Iterator<Item = u32>,
) -> HashMap<u32, (u16, u64)> {
    let distinct: Vec<u32> = seq.collect::<BTreeSet<u32>>().into_iter().collect();
    let per = distinct.len().div_ceil(nproc()).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = distinct
            .chunks(per)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&t| {
                            let (status, _, body) = route(state, &targets.paths[t as usize]);
                            (t, (status, Digest::of(body.as_bytes()).value()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("oracle thread")).collect()
    })
}

/// One measured pass over `bytes`. `full` runs the reference phase at
/// full length plus the rate ladder; otherwise a short reference phase
/// only (another workload's traced run measuring this layer).
pub fn pass(seed: u64, bytes: &[u8], full: bool, tracer: Option<&mut Tracer>) -> PassOut {
    let mut out = PassOut::default();
    let threads = nproc();
    let traced = tracer.is_some();

    let t0 = Instant::now();
    let rows = rows_from_dataset_bytes(bytes, None).expect("decode served dataset");
    let t1 = Instant::now();
    let state = Arc::new(ServeState::build(rows, DEFAULT_LRU_CAPACITY));
    let t2 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind query listener");
    let server = QueryServer::spawn(
        listener,
        Arc::clone(&state),
        &ServeConfig { threads, read_timeout: Duration::from_secs(5) },
    )
    .expect("spawn query server");
    out.setup_s = t0.elapsed().as_secs_f64();
    let addr = server.addr();

    let ref_n = if full { (REF_RATE * REF_SECONDS) as usize } else { MINI_REQUESTS };
    let (targets, zipf, [warm_seq, ref_seq], mut rng) = plan(state.rows(), seed, ref_n);

    let obs = sleepwatch_obs::global();
    let before = Snapshot::capture(obs);
    let warm_samples = run_phase(addr, threads, REF_RATE, &warm_seq, &targets.paths);
    reset_peak_rss();
    let cpu0 = cpu_seconds();
    let ref_start = Instant::now();
    let ref_samples = run_phase(addr, threads, REF_RATE, &ref_seq, &targets.paths);
    let ref_end = Instant::now();
    out.cpu_s = cpu_seconds() - cpu0;
    out.peak_rss_mib = peak_rss_mib();
    let reference = account(&ref_samples);
    let lat = reference.sorted_latency();
    out.e2e.set("p50_ms", percentile(&lat, 50.0).unwrap_or(0.0));
    let p99 = reference.window_p99_ms();
    if let Some(tail) = tail_percentile(lat.len()) {
        let mut late = reference.late_ms.clone();
        late.sort_by(f64::total_cmp);
        eprintln!(
            "perfbench: serve reference {REF_RATE} req/s over {} requests: p50 {:.3} ms, \
             p{tail} {:.3} ms, generator late p{tail} {:.3} ms",
            lat.len(),
            percentile(&lat, 50.0).unwrap_or(0.0),
            percentile(&lat, tail).unwrap_or(0.0),
            percentile(&late, tail).unwrap_or(0.0),
        );
    }
    out.e2e.set("p99_ms", p99.unwrap_or(0.0));

    // phases[0] is the reference phase, the one the digest covers.
    let mut phases: Vec<(Vec<u32>, Vec<Sample>)> =
        vec![(ref_seq, ref_samples), (warm_seq, warm_samples)];
    let sustained = if full {
        let mut ladder = Ladder::default();
        for rung in 0..LADDER_RUNGS {
            let rate = LADDER_START * LADDER_STEP.powi(rung as i32);
            let seq = targets.sequence((rate * RUNG_SECONDS) as usize, &mut rng, &zipf);
            let samples = run_phase(addr, threads, rate, &seq, &targets.paths);
            let done = ladder.push(rate, &account(&samples));
            phases.push((seq, samples));
            if done {
                break;
            }
        }
        eprintln!("perfbench: serve ladder {ladder:?}");
        ladder.sustained_rate()
    } else {
        reference.achieved_per_s()
    };
    let load_end = Instant::now();
    let delta = Snapshot::capture(obs).delta(&before);
    server.stop();
    out.wall_s = (load_end - ref_start).as_secs_f64();
    out.e2e.set("qps_sustained", sustained);

    // Every answer must equal `route()` for its target. `/metrics`
    // reflects live counters, so with obs on only its status is checked.
    let want = expected_answers(&state, &targets, phases.iter().flat_map(|p| p.0.iter().copied()));
    let mut tally = Tally::default();
    let mut digest = Digest::default();
    for (phase, (seq, samples)) in phases.iter().enumerate() {
        for (&target, s) in seq.iter().zip(samples) {
            let (status, body) = want[&target];
            let metrics = targets.class[target as usize] == Class::Metrics;
            let ok = s.done_s.is_some()
                && s.status == 200
                && s.status == status
                && (s.body == body || (metrics && traced));
            tally.record(ok);
            if phase == 0 {
                digest_answer(&mut digest, &targets, target, s.body);
            }
        }
    }
    if tally.failed > 0 {
        out.fail(format!(
            "{} of {} requests failed or answered wrong",
            tally.failed, tally.attempted
        ));
    }
    if p99.is_none() {
        out.fail("too few reference samples to read a p99".into());
    }
    out.tally = tally;
    out.digest = digest.hex();

    if let Some(tr) = tracer {
        tr.record("binfmt.rows_from_dataset_bytes", t0, t1);
        tr.record("serve.ServeState::build", t1, t2);
        tr.record("serve.reference_phase", ref_start, ref_end);
        tr.record("serve.ladder", ref_end, load_end);
        let l = &mut out.layers;
        l.set("binfmt.decode_ms", (t1 - t0).as_secs_f64() * 1e3);
        l.set("serve.build_ms", (t2 - t1).as_secs_f64() * 1e3);
        let hits = delta.counter("serve.lru_hits") as f64;
        let misses = delta.counter("serve.lru_misses") as f64;
        l.set("serve.lru_hit_ratio", hits / (hits + misses).max(1.0));
        l.set("serve.lru_evictions", delta.counter("serve.lru_evictions") as f64);
        l.set("serve.requests", delta.counter("serve.requests") as f64);
        l.set("serve.responses_err", delta.counter("serve.responses_err") as f64);
        let late: Vec<f64> = {
            let mut v = reference.late_ms.clone();
            v.sort_by(f64::total_cmp);
            v
        };
        l.set("serve.generator_late_ms", percentile(&late, 99.0).unwrap_or(0.0));
        route_layers(tr, &mut out, bytes, &targets, &phases[0].0, &reference);
    }
    out
}

/// Times `route()` per request class on a freshly built state (cold LRU),
/// and the wire's share of the client's p50 at the reference rate.
fn route_layers(
    tr: &mut Tracer,
    out: &mut PassOut,
    bytes: &[u8],
    targets: &Targets,
    ref_seq: &[u32],
    reference: &Accounting,
) {
    let rows = rows_from_dataset_bytes(bytes, None).expect("decode served dataset");
    let state = ServeState::build(rows, DEFAULT_LRU_CAPACITY);
    let time = |target: u32| {
        let t = Instant::now();
        std::hint::black_box(route(&state, &targets.paths[target as usize]));
        t.elapsed().as_secs_f64() * 1e6
    };
    let med = |xs: Vec<f64>| median(&xs).unwrap_or(0.0);
    tr.span("serve.route", |_| {
        let pick = |pool: &[u32], k: usize| pool[(k * 7919) % pool.len()];
        let block = med((0..ROUTE_SAMPLES).map(|k| time(pick(&targets.blocks, k))).collect());
        let group =
            med((0..ROUTE_SAMPLES).map(|k| time(pick(&targets.groups[k % 5], k / 5))).collect());
        let n = ROUTE_SAMPLES.min(targets.queries.len());
        let miss = med((0..n).map(|k| time(targets.queries[k])).collect());
        let hit = med((0..n).map(|k| time(targets.queries[k])).collect());
        let metrics = med((0..ROUTE_SAMPLES).map(|_| time(targets.metrics)).collect());
        // The route() cost of the reference mix itself, for the wire share.
        let mix = med(ref_seq.iter().map(|&t| time(t)).collect());
        let l = &mut out.layers;
        l.set("serve.route_us.block", block);
        l.set("serve.route_us.group", group);
        l.set("serve.route_us.query_miss", miss);
        l.set("serve.route_us.query_hit", hit);
        l.set("serve.route_us.metrics", metrics);
        let client_p50_us = percentile(&reference.sorted_latency(), 50.0).unwrap_or(0.0) * 1e3;
        l.set("serve.wire_us", client_p50_us - mix);
    });
}
