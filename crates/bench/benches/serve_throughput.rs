//! Query-service gate: the precomputed indexes must make answers
//! effectively free, and concurrency must never change a byte.
//!
//! An analyzed world (`SERVE_BENCH_BLOCKS` blocks, default 1200) is
//! loaded into a [`ServeState`] and measured three ways:
//!
//! 1. **Indexed throughput** — one server thread, one pipelined client
//!    hammering `/v1/block/{id}` and the precomputed group routes.
//!    Gate: at least `SERVE_BENCH_MIN_QPS` queries/s (default 100k) on
//!    one core — below that the "index" is recomputing something.
//! 2. **Round-trip latency** — unpipelined request/response pairs on a
//!    kept-alive connection. Gate: p99 under `SERVE_BENCH_P99_MS`
//!    (default 5 ms) — one slow outlier per hundred is already a
//!    scheduling bug at these sizes.
//! 3. **Concurrent divergence** — four client threads against a
//!    four-worker server, every response compared to the
//!    single-threaded answer. Gate: zero divergence, or the other two
//!    numbers are worthless.
//!
//! Timings take the minimum across samples. Results land in
//! `BENCH_serve.json` at the workspace root so CI can archive the
//! artifact next to `BENCH_transport.json`.
//!
//! Run with `cargo bench -p sleepwatch-bench --bench serve_throughput`.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sleepwatch_bench::{best, env_or};
use sleepwatch_core::{
    analyze_world, dataset_rows, AnalysisConfig, QueryServer, ServeConfig, ServeState,
};
use sleepwatch_simnet::{World, WorldConfig};
use sleepwatch_testkit::httpclient::HttpConnection;

/// Requests per pipelined batch: deep enough to amortize the socket
/// round-trip, shallow enough to stay inside one send buffer.
const PIPELINE_DEPTH: usize = 64;

fn spawn(state: &Arc<ServeState>, threads: usize) -> QueryServer {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = ServeConfig { threads, read_timeout: Duration::from_secs(30) };
    QueryServer::spawn(listener, state.clone(), &cfg).expect("spawn server")
}

fn main() {
    let blocks = env_or("SERVE_BENCH_BLOCKS", 1200.0) as usize;
    let queries = env_or("SERVE_BENCH_QUERIES", 40_000.0) as usize;
    let latency_pairs = env_or("SERVE_BENCH_LATENCY_PAIRS", 2_000.0) as usize;
    let samples = env_or("SERVE_BENCH_SAMPLES", 3.0) as usize;
    let min_qps = env_or("SERVE_BENCH_MIN_QPS", 100_000.0);
    let p99_budget_ms = env_or("SERVE_BENCH_P99_MS", 5.0);

    let start = Instant::now();
    let wcfg = WorldConfig { num_blocks: blocks, seed: 0x5E12_BE9C, ..Default::default() };
    let world = World::generate(wcfg);
    let cfg = AnalysisConfig::over_days(world.cfg.start_time, world.cfg.span_days);
    let analysis = analyze_world(&world, &cfg, 8, None);
    assert!(analysis.quarantined.is_empty(), "bench world quarantined blocks");
    let rows = dataset_rows(&analysis);
    let state = Arc::new(ServeState::build(rows.clone(), 256));
    println!(
        "serve_throughput: {blocks} blocks analyzed and indexed in {:.1}s",
        start.elapsed().as_secs_f64()
    );

    // The query mix: per-block lookups (the binary-search path) salted
    // with the precomputed group routes, plus each path's expected body
    // for the divergence check.
    let mut mix: Vec<(String, String)> = Vec::with_capacity(256);
    for r in rows.iter().step_by((rows.len() / 200).max(1)) {
        let path = format!("/v1/block/{}", r.block_id);
        let body = state.block(r.block_id).expect("indexed block");
        mix.push((path, body));
    }
    mix.push(("/v1/summary".into(), state.summary().to_string()));
    mix.push(("/v1/outages".into(), state.outages().to_string()));
    if let Some(code) = rows.iter().find_map(|r| r.country.as_deref()) {
        mix.push((format!("/v1/country/{code}"), state.country(code).expect("country").into()));
    }
    mix.push((format!("/v1/as/{}", rows[0].asn), state.asn(rows[0].asn).expect("as").into()));

    // ---- 1. Indexed throughput: one server thread, pipelined batches.
    let mut qps_runs = Vec::new();
    for _ in 0..samples {
        let server = spawn(&state, 1);
        let mut conn = HttpConnection::connect(server.addr());
        let batches = queries / PIPELINE_DEPTH;
        let run = Instant::now();
        let mut served = 0usize;
        for b in 0..batches {
            let batch: Vec<&str> = (0..PIPELINE_DEPTH)
                .map(|i| mix[(b * PIPELINE_DEPTH + i) % mix.len()].0.as_str())
                .collect();
            let got = conn.get_pipelined(&batch);
            served += got.len();
            for resp in &got {
                assert_eq!(resp.status, 200, "indexed query failed mid-bench");
            }
        }
        let wall = run.elapsed().as_secs_f64();
        assert_eq!(served, batches * PIPELINE_DEPTH);
        qps_runs.push(wall / served as f64);
        server.stop();
    }
    let per_query_s = best(&qps_runs);
    let qps = 1.0 / per_query_s;
    println!(
        "indexed throughput: {qps:.0} queries/s over {queries} pipelined queries \
         (gate {min_qps:.0})"
    );

    // ---- 2. Round-trip latency: unpipelined pairs, p50/p99.
    let server = spawn(&state, 1);
    let mut conn = HttpConnection::connect(server.addr());
    let mut lat_s = Vec::with_capacity(latency_pairs);
    for i in 0..latency_pairs {
        let (path, want) = &mix[i % mix.len()];
        let t = Instant::now();
        let resp = conn.get(path);
        lat_s.push(t.elapsed().as_secs_f64());
        assert_eq!(&resp.body, want, "latency probe diverged on {path}");
    }
    server.stop();
    lat_s.sort_by(f64::total_cmp);
    let p50_ms = lat_s[lat_s.len() / 2] * 1e3;
    let p99_ms = lat_s[(lat_s.len() * 99) / 100] * 1e3;
    println!(
        "round-trip latency over {latency_pairs} pairs: p50 {p50_ms:.3} ms, \
         p99 {p99_ms:.3} ms (gate {p99_budget_ms} ms)"
    );

    // ---- 3. Concurrent divergence: four clients, four workers, every
    // byte checked against the single-threaded answers.
    let server = spawn(&state, 4);
    let addr = server.addr();
    let divergence: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let mix = &mix;
                s.spawn(move || {
                    let mut bad = 0usize;
                    let mut conn = HttpConnection::connect(addr);
                    for i in 0..2_000usize {
                        let (path, want) = &mix[(i + c * 7) % mix.len()];
                        let resp = conn.get(path);
                        if resp.status != 200 || &resp.body != want {
                            bad += 1;
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    });
    server.stop();
    println!("concurrent load: 4 clients x 2000 queries, {divergence} divergent responses");

    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"blocks\": {blocks},\n  \
         \"queries\": {queries},\n  \"qps\": {qps:.0},\n  \"p50_ms\": {p50_ms:.4},\n  \
         \"p99_ms\": {p99_ms:.4},\n  \"concurrent_queries\": 8000,\n  \
         \"divergence\": {divergence},\n  \"gates\": {{\n    \"min_qps\": {min_qps:.0},\n    \
         \"max_p99_ms\": {p99_budget_ms},\n    \"max_divergence\": 0\n  }}\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));

    // ---- Gates.
    assert!(
        qps >= min_qps,
        "indexed queries served at {qps:.0}/s, under the {min_qps:.0}/s gate — \
         the index is doing per-query work it should have precomputed"
    );
    assert!(
        p99_ms <= p99_budget_ms,
        "p99 round-trip latency {p99_ms:.3} ms blew the {p99_budget_ms} ms budget"
    );
    assert_eq!(divergence, 0, "concurrent clients saw divergent bytes");
}
