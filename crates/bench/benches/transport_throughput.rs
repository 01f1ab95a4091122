//! Transport gate: the `SLPWFEED` wire front-end must not throttle the
//! streaming engine, and a severed connection must heal within its own
//! backoff budget.
//!
//! A pre-probed world (`TRANSPORT_BENCH_BLOCKS` blocks, default 600,
//! over `TRANSPORT_BENCH_DAYS` days, default 1.25) is flattened once
//! into an interleaved event feed, then consumed three ways:
//!
//! 1. **In-process** — the feed handed straight to the sharded engine
//!    ([`ingest_events`]), no wire. This is the ceiling.
//! 2. **Loopback TCP** — a `serve_feed` thread on 127.0.0.1 and a
//!    [`TcpEventSource`] client pulling frames into [`ingest_source`].
//!    Gate: at least [`MIN_TCP_FRACTION`] of the in-process rate —
//!    framing, CRC, heartbeats and the socket round-trip together may
//!    cost at most half the throughput.
//! 3. **One sever** — the same path through a [`ChaosProxy`] that cuts
//!    the connection once mid-stream. Gate: the extra wall time over
//!    the clean TCP run (detection + backoff + resume handshake +
//!    re-serving) stays within one backoff budget
//!    ([`BackoffConfig::budget_ms`]) of the client's own config.
//!
//! Every path must produce verdicts byte-identical to the in-process
//! baseline — zero divergence, or the number is worthless. Timings take
//! the minimum across samples. Results land in `BENCH_transport.json`
//! at the workspace root so CI can archive the artifact next to
//! `BENCH_stream.json`.
//!
//! Run with `cargo bench -p sleepwatch-bench --bench transport_throughput`.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use sleepwatch_bench::{best, env_or};
use sleepwatch_core::{
    feed_identity, ingest_events, ingest_source, world_feed, AnalysisConfig, IngestConfig,
    TransportOutcome,
};
use sleepwatch_probing::stream::RoundEvent;
use sleepwatch_probing::transport::{
    serve_feed, BackoffConfig, Endpoint, FeedConfig, TcpConfig, TcpEventSource,
};
use sleepwatch_simnet::{WorldConfig, WorldSource};
use sleepwatch_testkit::chaos::{ChaosPlan, ChaosProxy, Harm};

/// Minimum loopback-TCP throughput as a fraction of the in-process rate.
const MIN_TCP_FRACTION: f64 = 0.5;

/// Serves `events` from a background thread (optionally behind a chaos
/// proxy) and ingests them over TCP; returns the outcome and wall time.
fn tcp_run(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: &[RoundEvent],
    plan: Option<ChaosPlan>,
) -> (TransportOutcome, f64) {
    let identity = feed_identity(source, cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind feed server");
    let addr = listener.local_addr().expect("feed addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = stop.clone();
        let events = events.to_vec();
        let fcfg = FeedConfig::new(identity);
        thread::spawn(move || {
            serve_feed(
                &Endpoint::Accept(listener),
                &events,
                &fcfg,
                &BackoffConfig::default(),
                &stop,
            )
        })
    };
    let proxy = plan.map(|p| ChaosProxy::spawn(&addr, p).expect("spawn chaos proxy"));
    let dial = proxy.as_ref().map_or(addr, |p| p.addr().to_string());
    let start = Instant::now();
    let mut es = TcpEventSource::dial(dial, TcpConfig::new(identity));
    let out = ingest_source(source, cfg, icfg, &mut es);
    let wall = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::SeqCst);
    if let Some(p) = proxy {
        assert!(p.harms() >= 1, "chaos proxy injected no harm");
        p.shutdown();
    }
    server.join().expect("feed server thread").expect("feed server");
    (out, wall)
}

fn assert_clean(tag: &str, out: &TransportOutcome, want: &[String]) {
    assert!(out.complete(), "{tag}: ingest did not complete: {:?}", out.error);
    let got: Vec<String> = out.outcome.reports.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(got, want, "{tag}: verdicts diverged from the in-process baseline");
}

fn main() {
    let blocks = env_or("TRANSPORT_BENCH_BLOCKS", 600.0) as usize;
    let days = env_or("TRANSPORT_BENCH_DAYS", 1.25);
    let samples = env_or("TRANSPORT_BENCH_SAMPLES", 3.0) as usize;

    let source = WorldSource::new(WorldConfig {
        num_blocks: blocks,
        seed: 0x7_1A45,
        span_days: days,
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(source.cfg().start_time, days);
    let icfg = IngestConfig { shards: 4, ..Default::default() };

    let start = Instant::now();
    let (feed, quarantined) = world_feed(&source, &cfg, &icfg);
    assert!(quarantined.is_empty(), "bench world quarantined blocks at probe time");
    let rounds = feed.iter().filter(|e| matches!(e, RoundEvent::Round { .. })).count();
    println!(
        "transport_throughput: {blocks} blocks x {days} days = {rounds} rounds \
         ({} events, probed in {:.1}s)",
        feed.len(),
        start.elapsed().as_secs_f64()
    );

    // ---- In-process ceiling.
    let mut inproc_times = Vec::new();
    let mut want = Vec::new();
    for _ in 0..samples {
        let start = Instant::now();
        let out = ingest_events(&source, &cfg, &icfg, feed.iter().copied());
        inproc_times.push(start.elapsed().as_secs_f64());
        assert_eq!(out.reports.len(), blocks, "in-process baseline lost blocks");
        want = out.reports.iter().map(|r| format!("{r:?}")).collect();
    }
    let inproc_s = best(&inproc_times);

    // ---- Clean loopback TCP.
    let mut tcp_times = Vec::new();
    for _ in 0..samples {
        let (out, wall) = tcp_run(&source, &cfg, &icfg, &feed, None);
        assert_clean("loopback tcp", &out, &want);
        assert_eq!(out.transport.reconnects, 0, "clean loopback run reconnected");
        tcp_times.push(wall);
    }
    let tcp_s = best(&tcp_times);
    let fraction = inproc_s / tcp_s;
    println!(
        "in-process {inproc_s:.3}s ({:.0} rounds/s); loopback tcp {tcp_s:.3}s \
         ({:.0} rounds/s) = {:.2}x of in-process (gate {MIN_TCP_FRACTION})",
        rounds as f64 / inproc_s,
        rounds as f64 / tcp_s,
        fraction,
    );

    // ---- One sever mid-stream: recovery must fit the backoff budget.
    let plan = ChaosPlan {
        seed: 0xBE9C4,
        harm: Some(Harm::Sever),
        base: 40,
        growth: 0,
        max_harms: 1,
        dup_every: None,
        short_write: false,
    };
    let budget_ms = TcpConfig::new(feed_identity(&source, &cfg)).backoff.budget_ms();
    let mut chaos_times = Vec::new();
    for _ in 0..samples {
        let (out, wall) = tcp_run(&source, &cfg, &icfg, &feed, Some(plan));
        assert_clean("severed tcp", &out, &want);
        assert!(out.transport.reconnects >= 1, "sever did not force a reconnect");
        chaos_times.push(wall);
    }
    let chaos_s = best(&chaos_times);
    let recovery_ms = ((chaos_s - tcp_s) * 1e3).max(0.0);
    println!(
        "severed tcp {chaos_s:.3}s; recovery {recovery_ms:.0} ms \
         (gate: one backoff budget = {budget_ms} ms)"
    );

    let json = format!(
        "{{\n  \"bench\": \"transport_throughput\",\n  \"blocks\": {blocks},\n  \
         \"days\": {days},\n  \"rounds\": {rounds},\n  \"events\": {},\n  \
         \"inproc_s\": {inproc_s:.4},\n  \"tcp_s\": {tcp_s:.4},\n  \
         \"tcp_fraction\": {fraction:.4},\n  \"severed_s\": {chaos_s:.4},\n  \
         \"recovery_ms\": {recovery_ms:.1},\n  \"verdict_divergence\": 0,\n  \
         \"gates\": {{\n    \"min_tcp_fraction\": {MIN_TCP_FRACTION},\n    \
         \"max_recovery_ms\": {budget_ms}\n  }}\n}}\n",
        feed.len(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transport.json");
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));

    // ---- Gates.
    assert!(
        fraction >= MIN_TCP_FRACTION,
        "loopback tcp sustains only {:.2}x of the in-process rate (gate {MIN_TCP_FRACTION}) — \
         the wire front-end is throttling the engine",
        fraction,
    );
    assert!(
        recovery_ms <= budget_ms as f64,
        "reconnect recovery took {recovery_ms:.0} ms, beyond one backoff budget ({budget_ms} ms)"
    );
}
