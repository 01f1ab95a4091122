//! `stream-35d`: backlog replay into the live monitor. The generator
//! probes the world into an event feed before anything is timed;
//! `serve_feed` then sends it over loopback TCP on one thread, a
//! `TcpEventSource` receives it and `ingest_source_resumable` ingests it
//! at `shards = nproc` into a fresh v2 journal. The loop is closed: the
//! feed goes as fast as TCP backpressure lets it. The cost is per round —
//! wire decode, routing and queues, the live detector's n=1833 FFT every
//! 65 rounds, finalization and journal appends — and probing does none.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sleepwatch_core::journal::open_resume;
use sleepwatch_core::{
    dataset_rows, encode_dataset, feed_identity, ingest_direct, ingest_events,
    ingest_source_resumable, rows_from_journal_bytes, world_feed, AnalysisConfig, DatasetMode,
    DatasetRow, IngestConfig, IngestOutcome, JournalHeader, OnlineConfig, OnlineDetector,
    WorldAnalysis,
};
use sleepwatch_probing::stream::RoundEvent;
use sleepwatch_probing::transport::{
    serve_feed, BackoffConfig, Endpoint, EventSource, FeedConfig, TcpConfig, TcpEventSource,
    TransportError, TransportStats,
};
use sleepwatch_simnet::{WorldConfig, WorldSource};

use crate::stats::Tally;
use crate::sys::{cpu_seconds, nproc, peak_rss_mib, reset_peak_rss, Digest};
use crate::trace::Tracer;
use crate::workload::{mix_seed, PassOut};

/// Days of backlog.
pub const DAYS: f64 = 35.0;
/// Blocks in the replayed world.
pub const BLOCKS: usize = 600;
/// Blocks when another workload's traced run measures this layer stack.
pub const MINI_BLOCKS: usize = 48;
/// Blocks whose rounds feed the `OnlineDetector::push_value` timing.
const PUSH_BLOCKS: u64 = 8;

/// The world a seed selects.
pub fn world(seed: u64, blocks: usize) -> WorldConfig {
    WorldConfig {
        num_blocks: blocks,
        seed: mix_seed(seed, 0x57e4),
        span_days: DAYS,
        ..Default::default()
    }
}

/// The analysis configuration for `source`.
pub fn config(source: &WorldSource) -> AnalysisConfig {
    AnalysisConfig::over_days(source.cfg().start_time, DAYS)
}

/// The engine shape: one shard per core.
pub fn ingest_config() -> IngestConfig {
    IngestConfig { shards: nproc(), ..Default::default() }
}

/// Probes `source` into the feed the pass replays.
pub fn generate(source: &WorldSource) -> Vec<RoundEvent> {
    let (feed, quarantined) = world_feed(source, &config(source), &ingest_config());
    assert!(quarantined.is_empty(), "generator quarantined {} blocks", quarantined.len());
    feed
}

/// `SLPWBIN1` bytes of an ingest outcome's verdicts, block order.
pub fn verdict_bytes(outcome: &IngestOutcome) -> (Vec<DatasetRow>, Vec<u8>) {
    let analysis = WorldAnalysis { reports: outcome.reports.clone(), quarantined: Vec::new() };
    let rows = dataset_rows(&analysis);
    let bytes = encode_dataset(&rows, DatasetMode::SelfContained).expect("encode verdicts");
    (rows, bytes)
}

/// Writes the feed in a fixed little-endian layout (generator side only:
/// the program never reads this file).
pub fn write_feed(path: &Path, feed: &[RoundEvent]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for ev in feed {
        match *ev {
            RoundEvent::Round { block_id, round, a_short } => {
                w.write_all(&[0])?;
                w.write_all(&block_id.to_le_bytes())?;
                w.write_all(&round.to_le_bytes())?;
                w.write_all(&a_short.to_bits().to_le_bytes())?;
            }
            RoundEvent::Finish { block_id, outages, total_probes } => {
                w.write_all(&[1])?;
                w.write_all(&block_id.to_le_bytes())?;
                w.write_all(&u64::from(outages).to_le_bytes())?;
                w.write_all(&total_probes.to_le_bytes())?;
            }
        }
    }
    w.flush()
}

/// Reads a feed written by [`write_feed`].
pub fn read_feed(path: &Path) -> std::io::Result<Vec<RoundEvent>> {
    let mut bytes = Vec::new();
    BufReader::new(std::fs::File::open(path)?).read_to_end(&mut bytes)?;
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("eight bytes"));
    let mut feed = Vec::with_capacity(bytes.len() / 25);
    for rec in bytes.chunks_exact(25) {
        let (a, b, c) = (word(&rec[1..9]), word(&rec[9..17]), word(&rec[17..25]));
        feed.push(match rec[0] {
            0 => RoundEvent::Round { block_id: a, round: b, a_short: f64::from_bits(c) },
            _ => RoundEvent::Finish { block_id: a, outages: b as u32, total_probes: c },
        });
    }
    Ok(feed)
}

/// Wraps the TCP source: hands out the event pulled during set-up (the
/// handshake), and in traced passes times every `next_event` call.
struct Source {
    inner: TcpEventSource,
    primed: Option<RoundEvent>,
    timed: bool,
    inside_ns: u64,
    calls: u64,
    first_call: Option<Instant>,
    last_return: Option<Instant>,
}

impl EventSource for Source {
    fn next_event(&mut self) -> Result<Option<RoundEvent>, TransportError> {
        if let Some(ev) = self.primed.take() {
            return Ok(Some(ev));
        }
        if !self.timed {
            return self.inner.next_event();
        }
        let t = Instant::now();
        self.first_call.get_or_insert(t);
        let r = self.inner.next_event();
        let end = Instant::now();
        self.inside_ns += (end - t).as_nanos() as u64;
        self.calls += 1;
        self.last_return = Some(end);
        r
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Sets the flag when dropped, unwinding included.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// One measured pass over `feed`; `tracer` selects the traced variant.
/// `work` holds the pass's journals.
pub fn pass(
    seed: u64,
    blocks: usize,
    feed: &[RoundEvent],
    work: &Path,
    tracer: Option<&mut Tracer>,
) -> PassOut {
    let mut out = PassOut::default();
    let rounds = feed.iter().filter(|e| matches!(e, RoundEvent::Round { .. })).count();
    let journal = work.join(format!("stream-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let stop = AtomicBool::new(false);

    let t = Instant::now();
    let source = WorldSource::new(world(seed, blocks));
    let cfg = config(&source);
    let icfg = ingest_config();
    let identity = feed_identity(&source, &cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind feed listener");
    let addr = listener.local_addr().expect("feed listener address").to_string();
    let fcfg = FeedConfig::new(identity);
    let (result, ingest_span) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_feed(&Endpoint::Accept(listener), feed, &fcfg, &BackoffConfig::default(), &stop)
        });
        // The accept loop runs until told to stop; a panic below must not
        // leave the scope waiting on it forever.
        let _stop = StopOnDrop(&stop);
        let mut inner = TcpEventSource::dial(addr, TcpConfig::new(identity));
        let primed = inner.next_event().expect("feed handshake");
        let mut src = Source {
            inner,
            primed,
            timed: tracer.is_some(),
            inside_ns: 0,
            calls: 0,
            first_call: None,
            last_return: None,
        };
        out.setup_s = t.elapsed().as_secs_f64();

        reset_peak_rss();
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let result = ingest_source_resumable(&source, &cfg, &icfg, &mut src, &journal)
            .expect("ingest into a fresh journal");
        let t1 = Instant::now();
        out.wall_s = (t1 - t0).as_secs_f64();
        out.cpu_s = cpu_seconds() - cpu0;
        out.peak_rss_mib = peak_rss_mib();
        drop(_stop);
        server.join().expect("feed server thread").expect("feed server");
        (result, (t0, t1, src))
    });
    out.e2e.set("rounds_per_s", rounds as f64 / out.wall_s);
    out.e2e.set("blocks_per_s", blocks as f64 / out.wall_s);

    let o = &result.outcome;
    if !result.complete() {
        out.fail(format!("transport did not complete: {:?}", result.error));
    }
    let mut tally = Tally { attempted: blocks as u64, failed: 0 };
    tally.failed = (o.open_blocks.len() + o.quarantined.len()) as u64;
    if o.reports.len() + o.open_blocks.len() + o.quarantined.len() != blocks {
        out.fail(format!("{} of {blocks} blocks accounted for", o.reports.len()));
    }
    out.tally = tally;
    let (rows, bytes) = verdict_bytes(o);
    out.digest = Digest::of(&bytes).hex();

    if let Some(tr) = tracer {
        let (t0, t1, src) = ingest_span;
        tr.record("ingest.ingest_source_resumable", t0, t1);
        let l = &mut out.layers;
        let ts = result.transport;
        l.set("transport.next_event_ns", src.inside_ns as f64 / src.calls.max(1) as f64);
        l.set("transport.frames", ts.frames as f64);
        l.set("transport.events", ts.events as f64);
        l.set("transport.reconnects", ts.reconnects as f64);
        l.set("transport.duplicates", ts.duplicates as f64);
        l.set("transport.heartbeats_missed", ts.heartbeats_missed as f64);
        let feeding = match (src.first_call, src.last_return) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        };
        l.set("ingest.feeder_wait_s", (feeding - src.inside_ns as f64 / 1e9).max(0.0));
        let st = o.stats;
        l.set("ingest.backpressure_stalls", st.backpressure_stalls as f64);
        l.set("ingest.queue_high_water", st.queue_high_water as f64);
        l.set("ingest.rounds_routed", st.rounds_routed as f64);
        l.set("ingest.checkpoints", st.checkpoints as f64);
        l.set("streaming.live_classifications", st.live_classifications as f64);
        let header = JournalHeader::from_identity(&identity);
        layers_after(tr, &mut out, &source, &cfg, feed, rounds, &journal, &header, &rows, &bytes);
    }
    let _ = std::fs::remove_file(&journal);
    out
}

/// The traced pass's extra layer measurements: journal replay and
/// appends, the ingest scaling split and the live detector's push cost.
#[allow(clippy::too_many_arguments)]
fn layers_after(
    tr: &mut Tracer,
    out: &mut PassOut,
    source: &WorldSource,
    cfg: &AnalysisConfig,
    feed: &[RoundEvent],
    rounds: usize,
    journal: &Path,
    header: &JournalHeader,
    rows: &[DatasetRow],
    want: &[u8],
) {
    let bytes = std::fs::read(journal).expect("read the ingest journal");
    let replayed =
        tr.span("journal.rows_from_journal_bytes", |_| rows_from_journal_bytes(&bytes, header));
    out.layers.set("journal.replay_ms", tr.self_us("journal.rows_from_journal_bytes") / 1e3);
    if !replayed.is_ok_and(|r| r == rows) {
        out.fail("journal replay differs from the ingested verdicts".into());
    }

    // The scaling split, every variant checked against the transport
    // ingest's verdicts.
    let check = |out: &mut PassOut, tag: &str, o: &IngestOutcome| {
        if verdict_bytes(o).1 != want {
            out.fail(format!("{tag} verdicts differ from the transport ingest"));
        }
    };
    let (direct_s, direct) =
        split_run(tr, "ingest.ingest_direct", || ingest_direct(source, cfg, feed.iter().copied()));
    check(out, "ingest_direct", &direct);
    let one = IngestConfig { shards: 1, ..ingest_config() };
    let (s1, o1) = split_run(tr, "ingest.ingest_events.1", || {
        ingest_events(source, cfg, &one, feed.iter().copied())
    });
    check(out, "ingest_events at 1 shard", &o1);
    let (sn, on) = split_run(tr, "ingest.ingest_events.n", || {
        ingest_events(source, cfg, &ingest_config(), feed.iter().copied())
    });
    check(out, "ingest_events at nproc shards", &on);
    let r = rounds as f64;
    out.layers.set("ingest.direct_rounds_per_s", r / direct_s);
    out.layers.set("ingest.engine_rounds_per_s.1", r / s1);
    out.layers.set("ingest.engine_rounds_per_s.n", r / sn);
    out.layers.set("ingest.shard_speedup", s1 / sn);

    // Appends into a fresh journal, fsyncs included (one every 64).
    let path = journal.with_extension("append");
    let empty = journal.with_extension("empty");
    for p in [&path, &empty] {
        let _ = std::fs::remove_file(p);
    }
    let (mut writer, _, _) = open_resume(&path, header).expect("open append journal");
    let n = direct.reports.len().max(1);
    tr.span("journal.append", |_| {
        for r in &direct.reports {
            writer.append(r).expect("journal append");
        }
        writer.sync().expect("journal sync");
    });
    let (mut w0, _, _) = open_resume(&empty, header).expect("open empty journal");
    w0.sync().expect("sync empty journal");
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len()) as f64;
    out.layers.set("journal.append_us", tr.self_us("journal.append") / n as f64);
    out.layers.set("journal.bytes_per_record", (size(&path) - size(&empty)) / n as f64);
    for p in [&path, &empty] {
        let _ = std::fs::remove_file(p);
    }

    // The live detector at the live configuration, over a few blocks'
    // rounds in feed order.
    let live = OnlineConfig {
        window_rounds: (cfg.rounds as usize).min(OnlineConfig::default().window_rounds).max(4),
        ..OnlineConfig::default()
    };
    let series: Vec<Vec<f64>> = (0..PUSH_BLOCKS)
        .map(|id| {
            feed.iter()
                .filter_map(|e| match *e {
                    RoundEvent::Round { block_id, a_short, .. } if block_id == id => Some(a_short),
                    _ => None,
                })
                .collect()
        })
        .collect();
    tr.span("streaming.push_value", |_| {
        for s in &series {
            let mut det = OnlineDetector::new(live);
            for &v in s {
                std::hint::black_box(det.push_value(v));
            }
        }
    });
    let pushes = series.iter().map(Vec::len).sum::<usize>().max(1);
    out.layers.set("streaming.push_ns", tr.self_us("streaming.push_value") * 1e3 / pushes as f64);
}

fn split_run(
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> IngestOutcome,
) -> (f64, IngestOutcome) {
    let t = Instant::now();
    let o = tr.span(name, |_| f());
    (t.elapsed().as_secs_f64(), o)
}
