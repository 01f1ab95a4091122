//! Sharded streaming ingest: live analysis of interleaved probe rounds.
//!
//! The batch pipeline ([`crate::analyze`], [`crate::worldrun`]) assumes a
//! block's whole run is in hand before analysis starts. A live deployment
//! sees the opposite: rounds for millions of blocks arrive *interleaved*,
//! and verdicts must be maintained while the stream is still flowing.
//! This module is that engine:
//!
//! * **Routing.** Every [`RoundEvent`] is routed
//!   `hash(block) → shard` ([`sleepwatch_simnet::shard_of`]) so one
//!   block's stream always lands on one worker, in order. Cross-block
//!   arrival order is irrelevant by construction — the equivalence
//!   proptests feed adversarial interleavings to prove it.
//! * **Backpressure.** Each shard consumes from a bounded queue; a feeder
//!   outrunning the workers blocks instead of buffering unboundedly, so
//!   peak queue memory is `(capacity + batch_events) ×
//!   size_of::<RoundEvent>()` per shard, and spent batch buffers recycle
//!   through a pool so the feeder rewrites the same cache-hot lines.
//! * **Live detection.** Each in-flight block ("lane") feeds an
//!   [`OnlineDetector`] round by round — the bounded-window monitoring
//!   verdict, available mid-stream and checkpointable via
//!   [`crate::streaming::DetectorSnapshot`].
//! * **Exact finalization.** When a block's stream ends, the shard runs
//!   the *identical* code the batch pipeline runs — clean, FFT, classify,
//!   geo join — over the observations it accumulated, so the final
//!   verdict agrees with [`crate::analyze_block`] exactly: same class,
//!   same phase, same summary, under every fault preset and any shard
//!   count. The world-scale differential oracle in
//!   `testkit/tests/ingest_oracle.rs` pins this.
//! * **Checkpointing.** Completed blocks are appended to the same v2
//!   journal the batch path uses ([`crate::journal`]); a killed ingest
//!   resumes by replaying finished blocks and re-streaming unfinished
//!   ones, healing to the same verdict set.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use sleepwatch_probing::stream::{interleave, record_events, RoundEvent};
use sleepwatch_probing::TrinocularProber;
use sleepwatch_simnet::{shard_of, WorldSource};

use crate::framing::RunIdentity;

use crate::analyze::{
    classify_probed, clean_fft_observations, AnalysisConfig, BlockScratch, ProbedBlock,
};
use crate::journal::{JournalError, JournalWriter, SYNC_EVERY};
use crate::streaming::{OnlineConfig, OnlineDetector};
use crate::worldrun::{
    hooks, join_block, open_journal, panic_message, Quarantine, WorldBlockReport,
};

/// Blocks probed per feeder chunk: bounds how many lanes are in flight
/// at once when the engine generates its own feed (matches the batch
/// path's chunk ledger).
const CHUNK: usize = 256;

/// Engine shape: shard count, queue bounds, feed batching.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Worker shards (each owns a queue, a scratch arena and its lanes).
    pub shards: usize,
    /// Bound, in events, of each shard's queue — the backpressure knob
    /// and the peak-memory contract.
    pub queue_capacity: usize,
    /// Events per routed batch (amortizes queue locking).
    pub batch_events: usize,
    /// Seed for the deterministic chunk interleaving of self-generated
    /// feeds ([`ingest_world`]): different seeds exercise different
    /// arrival orders, same seed reproduces the same stream.
    pub interleave_seed: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            shards: 4,
            queue_capacity: 8_192,
            batch_events: 512,
            interleave_seed: 0x57A7_F00D,
        }
    }
}

/// Counters an ingest run reports (also mirrored into the global
/// `ingest.*` metrics). Routing and finalization counts are
/// deterministic; stall and high-water figures depend on scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Blocks finalized (journal-replayed blocks included).
    pub blocks: usize,
    /// Blocks replayed from the checkpoint journal instead of streamed.
    pub replayed: usize,
    /// Blocks quarantined by a panic during probing or finalization.
    pub quarantined: usize,
    /// Round events routed to shards.
    pub rounds_routed: u64,
    /// Feeder pushes that had to wait for queue room.
    pub backpressure_stalls: u64,
    /// Highest queued-event count observed on any single shard queue.
    pub queue_high_water: usize,
    /// Durable checkpoints reached (journal sync points).
    pub checkpoints: u64,
    /// Blocks whose *live* detector called strict-diurnal by stream end.
    pub live_strict: u64,
    /// Full FFT classifications the live detectors performed.
    pub live_classifications: u64,
}

/// What an ingest run produces: batch-identical per-block reports plus
/// run accounting.
#[derive(Debug)]
pub struct IngestOutcome {
    /// Per-block joined reports in block order — element-for-element what
    /// [`crate::analyze_world`] produces for the same world and config.
    pub reports: Vec<WorldBlockReport>,
    /// Blocks quarantined by a panic, in block order.
    pub quarantined: Vec<Quarantine>,
    /// Blocks whose stream was still open when the feed ended (rounds
    /// seen, no `Finish`): empty for a complete feed, the degraded set
    /// when a transport died past its budget.
    pub open_blocks: Vec<u64>,
    /// Run counters.
    pub stats: IngestStats,
}

/// Bounded MPSC queue of event batches with blocking backpressure.
///
/// Built on `std::sync::{Mutex, Condvar}`: the feeder blocks in
/// [`EventQueue::push`] while the queue is at capacity (counted in
/// events, not batches), and the shard worker blocks in
/// [`EventQueue::pop`] while it is empty and not yet closed. One
/// oversized batch is admitted into an *empty* queue rather than
/// deadlocking, so `batch_events > queue_capacity` degrades to
/// lock-step handoff instead of hanging.
struct EventQueue {
    state: std::sync::Mutex<QueueState>,
    room: std::sync::Condvar,
    ready: std::sync::Condvar,
    capacity: usize,
}

#[derive(Default)]
struct QueueState {
    batches: VecDeque<Vec<RoundEvent>>,
    events: usize,
    closed: bool,
    high_water: usize,
    stalls: u64,
}

impl EventQueue {
    fn new(capacity: usize) -> EventQueue {
        EventQueue {
            state: std::sync::Mutex::new(QueueState::default()),
            room: std::sync::Condvar::new(),
            ready: std::sync::Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn push(&self, batch: Vec<RoundEvent>) {
        if batch.is_empty() {
            return;
        }
        let mut s = self.state.lock().expect("queue lock");
        if s.events + batch.len() > self.capacity && s.events > 0 {
            s.stalls += 1;
            while s.events + batch.len() > self.capacity && s.events > 0 {
                s = self.room.wait(s).expect("queue lock");
            }
        }
        s.events += batch.len();
        s.high_water = s.high_water.max(s.events);
        s.batches.push_back(batch);
        drop(s);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<Vec<RoundEvent>> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(batch) = s.batches.pop_front() {
                s.events -= batch.len();
                drop(s);
                self.room.notify_one();
                return Some(batch);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// `(high_water, stalls)` after the run.
    fn pressure(&self) -> (usize, u64) {
        let s = self.state.lock().expect("queue lock");
        (s.high_water, s.stalls)
    }
}

/// Recycles spent batch buffers from workers back to the feeder.
///
/// Without it the feeder allocates a fresh buffer per batch while
/// workers free them into *their* malloc arenas, so the feeder writes
/// cold memory for the whole run. Cycling a handful of buffers keeps
/// the same cache-hot lines in use; the pool's size is naturally
/// bounded by queue backpressure (a buffer is either in a queue, in a
/// worker, in the pool, or being filled).
struct BatchPool {
    stack: parking_lot::Mutex<Vec<Vec<RoundEvent>>>,
}

impl BatchPool {
    fn new() -> BatchPool {
        BatchPool { stack: parking_lot::Mutex::new(Vec::new()) }
    }

    fn take(&self, batch_events: usize) -> Vec<RoundEvent> {
        self.stack.lock().pop().unwrap_or_else(|| Vec::with_capacity(batch_events))
    }

    fn recycle(&self, mut batch: Vec<RoundEvent>) {
        batch.clear();
        self.stack.lock().push(batch);
    }
}

/// Routes events into per-shard batch buffers and flushes them to the
/// bounded queues.
struct Router<'a> {
    queues: &'a [EventQueue],
    pool: &'a BatchPool,
    buffers: Vec<Vec<RoundEvent>>,
    batch_events: usize,
    rounds_routed: u64,
}

impl<'a> Router<'a> {
    fn new(queues: &'a [EventQueue], pool: &'a BatchPool, batch_events: usize) -> Router<'a> {
        let batch_events = batch_events.max(1);
        Router {
            queues,
            pool,
            buffers: queues.iter().map(|_| Vec::with_capacity(batch_events)).collect(),
            batch_events,
            rounds_routed: 0,
        }
    }

    fn route(&mut self, ev: RoundEvent) {
        if matches!(ev, RoundEvent::Round { .. }) {
            self.rounds_routed += 1;
        }
        // With one shard every block routes to it; skipping the hash
        // keeps the single-shard feeder off the per-event hot path.
        let shard =
            if self.queues.len() == 1 { 0 } else { shard_of(ev.block_id(), self.queues.len()) };
        let buf = &mut self.buffers[shard];
        buf.push(ev);
        if buf.len() >= self.batch_events {
            let full = std::mem::replace(buf, self.pool.take(self.batch_events));
            self.queues[shard].push(full);
        }
    }

    /// Flushes every partial batch and closes the queues.
    fn finish(mut self) -> u64 {
        for (shard, buf) in self.buffers.drain(..).enumerate() {
            self.queues[shard].push(buf);
        }
        for q in self.queues {
            q.close();
        }
        self.rounds_routed
    }
}

/// One in-flight block on a shard: the observations the batch pipeline
/// would have collected, plus the live bounded-window detector.
struct Lane {
    obs: Vec<(u64, f64)>,
    live: OnlineDetector,
}

/// The live detector runs the default monitoring window, clamped to the
/// run length (a window longer than the run would never warm up *and*
/// never needs to).
fn live_config(cfg: &AnalysisConfig) -> OnlineConfig {
    let default = OnlineConfig::default();
    OnlineConfig {
        window_rounds: (cfg.rounds as usize).min(default.window_rounds).max(4),
        ..default
    }
}

/// Per-shard processing state, shared by the threaded worker and the
/// queue-less direct path so both run byte-identical per-event logic.
struct ShardState<'a> {
    source: &'a WorldSource,
    cfg: &'a AnalysisConfig,
    live_cfg: OnlineConfig,
    lanes: HashMap<u64, Lane>,
    scratch: BlockScratch,
    rounds: u64,
    live_strict: u64,
    live_classifications: u64,
}

/// A finalized block, ready for the sink.
enum Finished {
    Report(WorldBlockReport),
    Quarantined(Quarantine),
}

impl<'a> ShardState<'a> {
    fn new(source: &'a WorldSource, cfg: &'a AnalysisConfig, live_cfg: OnlineConfig) -> Self {
        ShardState {
            source,
            cfg,
            live_cfg,
            lanes: HashMap::new(),
            scratch: BlockScratch::new(),
            rounds: 0,
            live_strict: 0,
            live_classifications: 0,
        }
    }

    /// Applies one event; `emit` receives each finalized block.
    fn apply(&mut self, ev: RoundEvent, emit: &mut impl FnMut(Finished)) {
        match ev {
            RoundEvent::Round { block_id, round, a_short } => {
                let rounds = self.cfg.rounds as usize;
                let lane = self.lanes.entry(block_id).or_insert_with(|| Lane {
                    // Reserving the nominal run length up front keeps lane
                    // growth reallocations out of the per-round hot path.
                    obs: Vec::with_capacity(rounds),
                    live: OnlineDetector::new(self.live_cfg),
                });
                lane.obs.push((round, a_short));
                lane.live.push_value(a_short);
                self.rounds += 1;
            }
            RoundEvent::Finish { block_id, outages, total_probes } => {
                let lane = self.lanes.remove(&block_id).unwrap_or_else(|| Lane {
                    obs: Vec::new(),
                    live: OnlineDetector::new(self.live_cfg),
                });
                if lane.live.class().is_strict() {
                    self.live_strict += 1;
                }
                self.live_classifications += lane.live.classifications();
                let source = self.source;
                let cfg = self.cfg;
                let scratch = &mut self.scratch;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    hooks::fire(block_id);
                    let block = source.generate_block(block_id);
                    let fill = clean_fft_observations(&lane.obs, cfg, scratch);
                    let probed = ProbedBlock { outages, total_probes, fill_fraction: fill };
                    let (summary, _diurnal, _trend) = classify_probed(&block, cfg, scratch, probed);
                    join_block(source.geodb(), &block, summary)
                }));
                match result {
                    Ok(report) => emit(Finished::Report(report)),
                    Err(payload) => {
                        // The arena may hold partially written buffers —
                        // start the next block from a fresh one.
                        self.scratch = BlockScratch::new();
                        sleepwatch_obs::global().resilience.blocks_quarantined.incr();
                        emit(Finished::Quarantined(Quarantine {
                            block_id,
                            diagnostic: panic_message(payload),
                        }));
                    }
                }
            }
        }
    }
}

/// Everything the shard workers share behind one lock: collected
/// outcomes, the (optional) checkpoint journal, and run accounting.
struct Sink {
    reports: Vec<WorldBlockReport>,
    quarantined: Vec<Quarantine>,
    journal: Option<JournalWriter>,
    appended: u64,
    rounds: u64,
    live_strict: u64,
    live_classifications: u64,
    open_lanes: Vec<u64>,
}

impl Sink {
    fn absorb(&mut self, finished: Finished) {
        match finished {
            Finished::Report(report) => {
                if let Some(w) = &mut self.journal {
                    match w.append(&report) {
                        Ok(true) => self.appended += 1,
                        Ok(false) => {}
                        Err(e) => {
                            // Same contract as the batch path: a full disk
                            // degrades checkpointing, never kills the run.
                            eprintln!("[ingest] journal write failed, journaling disabled: {e}");
                            self.journal = None;
                        }
                    }
                }
                self.reports.push(report);
            }
            Finished::Quarantined(q) => self.quarantined.push(q),
        }
    }
}

/// The engine core: spawns one worker per shard, runs `feed` on the
/// calling thread to route events, then drains, joins and aggregates.
fn run_engine(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    journal: Option<JournalWriter>,
    replayed: Vec<WorldBlockReport>,
    feed: impl FnOnce(&mut Router),
) -> IngestOutcome {
    let shards = icfg.shards.max(1);
    let live_cfg = live_config(cfg);
    let queues: Vec<EventQueue> =
        (0..shards).map(|_| EventQueue::new(icfg.queue_capacity)).collect();
    let replayed_count = replayed.len();
    let sink = parking_lot::Mutex::new(Sink {
        reports: replayed,
        quarantined: Vec::new(),
        journal,
        appended: 0,
        rounds: 0,
        live_strict: 0,
        live_classifications: 0,
        open_lanes: Vec::new(),
    });

    let mut rounds_routed = 0u64;
    let pool = BatchPool::new();
    let planted = hooks::planted();
    crossbeam::thread::scope(|s| {
        for q in &queues {
            let sink = &sink;
            let pool = &pool;
            let planted = planted.clone();
            s.spawn(move |_| {
                hooks::adopt(planted);
                let mut state = ShardState::new(source, cfg, live_cfg);
                let mut done: Vec<Finished> = Vec::new();
                while let Some(batch) = q.pop() {
                    for &ev in &batch {
                        state.apply(ev, &mut |finished| done.push(finished));
                    }
                    pool.recycle(batch);
                    if !done.is_empty() {
                        let mut sink = sink.lock();
                        for finished in done.drain(..) {
                            sink.absorb(finished);
                        }
                    }
                }
                let mut sink = sink.lock();
                sink.rounds += state.rounds;
                sink.live_strict += state.live_strict;
                sink.live_classifications += state.live_classifications;
                sink.open_lanes.extend(state.lanes.keys().copied());
            });
        }
        let mut router = Router::new(&queues, &pool, icfg.batch_events);
        feed(&mut router);
        rounds_routed = router.finish();
    })
    .expect("ingest worker panicked");

    let mut sink = sink.into_inner();
    let mut checkpoints = sink.appended / u64::from(SYNC_EVERY);
    if let Some(w) = &mut sink.journal {
        if let Err(e) = w.sync() {
            eprintln!("[ingest] final journal sync failed: {e}");
        } else {
            checkpoints += 1;
        }
    }
    sink.reports.sort_by_key(|r| r.summary.block_id);
    sink.quarantined.sort_by_key(|q| q.block_id);
    sink.open_lanes.sort_unstable();

    let (high_water, stalls) = queues
        .iter()
        .map(EventQueue::pressure)
        .fold((0usize, 0u64), |(hw, st), (h, s)| (hw.max(h), st + s));
    let stats = IngestStats {
        blocks: sink.reports.len(),
        replayed: replayed_count,
        quarantined: sink.quarantined.len(),
        rounds_routed,
        backpressure_stalls: stalls,
        queue_high_water: high_water,
        checkpoints,
        live_strict: sink.live_strict,
        live_classifications: sink.live_classifications,
    };
    let obs = &sleepwatch_obs::global().ingest;
    obs.rounds_routed.add(stats.rounds_routed);
    obs.backpressure_stalls.add(stats.backpressure_stalls);
    obs.queue_high_water.raise(stats.queue_high_water as u64);
    obs.checkpoints.add(stats.checkpoints);
    obs.blocks_finished.add((stats.blocks - stats.replayed) as u64);
    debug_assert_eq!(stats.rounds_routed, sink.rounds, "routed and consumed rounds disagree");
    IngestOutcome {
        reports: sink.reports,
        quarantined: sink.quarantined,
        open_blocks: sink.open_lanes,
        stats,
    }
}

/// Probes the blocks in `ids` and emits their streams chunk-interleaved:
/// the feeder half of [`ingest_world`], generic over where the events
/// go (a [`Router`], or a buffer bound for a wire).
fn feed_world_into(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    ids: &[u64],
    emit: &mut impl FnMut(RoundEvent),
    quarantined_at_feed: &mut Vec<Quarantine>,
) {
    let mut specs = Vec::new();
    for (chunk_idx, chunk) in ids.chunks(CHUNK).enumerate() {
        source.generate_into(chunk.iter().copied(), &mut specs);
        let mut streams: Vec<Vec<RoundEvent>> = Vec::with_capacity(specs.len());
        for block in &specs {
            let events = catch_unwind(AssertUnwindSafe(|| {
                hooks::fire(block.id);
                let mut prober = TrinocularProber::new(block, cfg.trinocular);
                let run = prober.run_with_faults(block, cfg.start_time, cfg.rounds, &cfg.faults);
                record_events(block.id, &run.records, run.outages.len() as u32, run.total_probes)
            }));
            match events {
                Ok(events) => streams.push(events),
                Err(payload) => {
                    sleepwatch_obs::global().resilience.blocks_quarantined.incr();
                    quarantined_at_feed.push(Quarantine {
                        block_id: block.id,
                        diagnostic: panic_message(payload),
                    });
                }
            }
        }
        // A per-chunk keyed interleave: reproducible for a given seed,
        // different across chunks, adversarial to any order assumption.
        let seed = icfg.interleave_seed.wrapping_add(chunk_idx as u64);
        for ev in interleave(streams, seed) {
            emit(ev);
        }
    }
}

/// Probes the blocks in `ids` and routes their streams chunk-interleaved:
/// the feeder half of [`ingest_world`].
fn feed_world(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    ids: &[u64],
    router: &mut Router,
    quarantined_at_feed: &mut Vec<Quarantine>,
) {
    feed_world_into(source, cfg, icfg, ids, &mut |ev| router.route(ev), quarantined_at_feed);
}

/// Materializes the event feed [`ingest_world`] would route — probes
/// every block and chunk-interleaves the streams with
/// `icfg.interleave_seed` — for replay over a transport (`sleepwatch
/// feed`, the chaos oracle, the throughput bench). Returns the feed and
/// any blocks quarantined by probing panics.
pub fn world_feed(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
) -> (Vec<RoundEvent>, Vec<Quarantine>) {
    let ids: Vec<u64> = (0..source.len() as u64).collect();
    let mut feed = Vec::new();
    let mut quarantined = Vec::new();
    feed_world_into(source, cfg, icfg, &ids, &mut |ev| feed.push(ev), &mut quarantined);
    (feed, quarantined)
}

/// The run identity a transport session carries for this source and
/// config — what both feed ends must agree on before events move.
pub fn feed_identity(source: &WorldSource, cfg: &AnalysisConfig) -> RunIdentity {
    crate::worldrun::run_identity(source.cfg().seed, source.len(), cfg)
}

/// Streams a whole world through the engine: probes every block (faults
/// from `cfg.faults` included), interleaves the streams chunk by chunk,
/// and ingests them across `icfg.shards` workers. The reports are
/// element-for-element identical to [`crate::analyze_world`] on the same
/// world and config.
pub fn ingest_world(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
) -> IngestOutcome {
    let ids: Vec<u64> = (0..source.len() as u64).collect();
    let mut fed_quarantines = Vec::new();
    let mut out = run_engine(source, cfg, icfg, None, Vec::new(), |router| {
        feed_world(source, cfg, icfg, &ids, router, &mut fed_quarantines);
    });
    merge_feed_quarantines(&mut out, fed_quarantines);
    out
}

/// [`ingest_world`] with a crash-safe checkpoint journal at `path` —
/// the same v2 journal format and resume semantics as
/// a journaled [`crate::WorldRun`]: finished blocks found in a valid
/// journal prefix are replayed instead of re-streamed; unfinished blocks
/// are streamed from the start. A resumed ingest heals to the same
/// verdict set as an uninterrupted one.
pub fn ingest_world_resumable(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    path: &Path,
) -> Result<IngestOutcome, JournalError> {
    let n = source.len();
    let (writer, skip, kept) = open_journal(path, source.cfg().seed, n, cfg)?;
    let ids: Vec<u64> = (0..n as u64).filter(|&id| !skip[id as usize]).collect();
    let mut fed_quarantines = Vec::new();
    let mut out = run_engine(source, cfg, icfg, Some(writer), kept, |router| {
        feed_world(source, cfg, icfg, &ids, router, &mut fed_quarantines);
    });
    merge_feed_quarantines(&mut out, fed_quarantines);
    Ok(out)
}

/// Ingests a caller-supplied event feed — the entry point equivalence
/// tests and benches use to replay *arbitrary* interleavings. Events for
/// one block must arrive in emission order (the transport invariant);
/// everything else is fair game.
pub fn ingest_events(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: impl IntoIterator<Item = RoundEvent>,
) -> IngestOutcome {
    run_engine(source, cfg, icfg, None, Vec::new(), |router| {
        for ev in events {
            router.route(ev);
        }
    })
}

/// The queue-less baseline: applies the same per-event logic on the
/// calling thread with no routing, no queues and no locking. This is the
/// "direct per-block push" the throughput bench compares the sharded
/// engine against, and a second differential anchor for the tests
/// (direct ≡ sharded ≡ batch).
pub fn ingest_direct(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    events: impl IntoIterator<Item = RoundEvent>,
) -> IngestOutcome {
    let mut state = ShardState::new(source, cfg, live_config(cfg));
    let mut reports = Vec::new();
    let mut quarantined = Vec::new();
    for ev in events {
        state.apply(ev, &mut |finished| match finished {
            Finished::Report(r) => reports.push(r),
            Finished::Quarantined(q) => quarantined.push(q),
        });
    }
    reports.sort_by_key(|r| r.summary.block_id);
    quarantined.sort_by_key(|q| q.block_id);
    let stats = IngestStats {
        blocks: reports.len(),
        replayed: 0,
        quarantined: quarantined.len(),
        rounds_routed: state.rounds,
        backpressure_stalls: 0,
        queue_high_water: 0,
        checkpoints: 0,
        live_strict: state.live_strict,
        live_classifications: state.live_classifications,
    };
    let mut open_blocks: Vec<u64> = state.lanes.keys().copied().collect();
    open_blocks.sort_unstable();
    IngestOutcome { reports, quarantined, open_blocks, stats }
}

/// What a transport-fed ingest produced: the engine outcome plus the
/// wire's accounting and — when the feed died — the graceful-degradation
/// report.
#[derive(Debug)]
pub struct TransportOutcome {
    /// The engine outcome. Blocks whose `Finish` arrived are finalized
    /// normally (batch-identical); `outcome.open_blocks` lists the
    /// degraded remainder.
    pub outcome: IngestOutcome,
    /// Transport-side counters (frames, reconnects, corruption,
    /// backoff).
    pub transport: sleepwatch_probing::transport::TransportStats,
    /// The terminal transport error, when the feed ended on one instead
    /// of a clean end-of-stream. Completed work is kept either way —
    /// mirroring `VantageRetryConfig`'s explicit-degradation semantics,
    /// the caller gets everything that finished plus a typed cause for
    /// what did not.
    pub error: Option<sleepwatch_probing::transport::TransportError>,
}

impl TransportOutcome {
    /// True when the stream ended cleanly with nothing left open.
    pub fn complete(&self) -> bool {
        self.error.is_none() && self.transport.clean_end && self.outcome.open_blocks.is_empty()
    }
}

/// Ingests a feed arriving through any [`EventSource`] — the wire-fed
/// sibling of [`ingest_events`].
///
/// A terminal transport error (budget exhaustion, strict-mode corruption)
/// does not discard completed work: every block whose stream finished is
/// finalized batch-identically, the rest are reported in
/// `outcome.open_blocks`, and the error rides along typed.
pub fn ingest_source(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: &mut dyn sleepwatch_probing::transport::EventSource,
) -> TransportOutcome {
    let mut error = None;
    let outcome = run_engine(source, cfg, icfg, None, Vec::new(), |router| loop {
        match events.next_event() {
            Ok(Some(ev)) => router.route(ev),
            Ok(None) => break,
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    });
    TransportOutcome { outcome, transport: events.stats(), error }
}

/// [`ingest_source`] with the crash-safe checkpoint journal: blocks
/// already journaled at `path` are replayed from disk and their wire
/// events dropped on arrival — the client reprocesses nothing it has
/// durable verdicts for, so a kill on either end of the transport heals
/// (the peer re-serves, the resume handshake skips re-sent bytes, and
/// the journal skips re-analysis).
pub fn ingest_source_resumable(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: &mut dyn sleepwatch_probing::transport::EventSource,
    path: &Path,
) -> Result<TransportOutcome, JournalError> {
    let n = source.len();
    let (writer, skip, kept) = open_journal(path, source.cfg().seed, n, cfg)?;
    let mut error = None;
    let outcome = run_engine(source, cfg, icfg, Some(writer), kept, |router| loop {
        match events.next_event() {
            Ok(Some(ev)) => {
                let id = ev.block_id() as usize;
                if id >= skip.len() || !skip[id] {
                    router.route(ev);
                }
            }
            Ok(None) => break,
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    });
    Ok(TransportOutcome { outcome, transport: events.stats(), error })
}

/// Feed-time quarantines (probing panics) join the shard-side ones in
/// the outcome, keeping block order.
fn merge_feed_quarantines(out: &mut IngestOutcome, fed: Vec<Quarantine>) {
    if fed.is_empty() {
        return;
    }
    out.quarantined.extend(fed);
    out.quarantined.sort_by_key(|q| q.block_id);
    out.quarantined.dedup_by_key(|q| q.block_id);
    out.stats.quarantined = out.quarantined.len();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_block;
    use crate::worldrun::{analyze_world, hooks};
    use sleepwatch_probing::stream::replay_run;
    use sleepwatch_probing::FaultPlan;
    use sleepwatch_simnet::WorldConfig;

    fn tiny_source(blocks: usize) -> WorldSource {
        WorldSource::new(WorldConfig {
            num_blocks: blocks,
            seed: 0xBEEF,
            span_days: 4.0,
            ..Default::default()
        })
    }

    fn cfg_for(source: &WorldSource, days: f64, faults: FaultPlan) -> AnalysisConfig {
        AnalysisConfig { faults, ..AnalysisConfig::over_days(source.cfg().start_time, days) }
    }

    /// Engine reports must agree with the batch world run element for
    /// element — the unit-scale version of the world oracle.
    #[test]
    fn streamed_world_matches_batch_analysis() {
        let source = tiny_source(48);
        let cfg = cfg_for(&source, 3.0, FaultPlan::none());
        let world = WorldSource::new(source.cfg().clone()).into_world();
        let batch = analyze_world(&world, &cfg, 2, None);
        for shards in [1usize, 3] {
            let icfg = IngestConfig { shards, ..Default::default() };
            let streamed = ingest_world(&source, &cfg, &icfg);
            assert_eq!(streamed.reports.len(), batch.reports.len(), "{shards} shards");
            for (s, b) in streamed.reports.iter().zip(&batch.reports) {
                assert_eq!(format!("{s:?}"), format!("{b:?}"), "{shards} shards");
            }
            assert_eq!(streamed.stats.blocks, 48);
            assert!(streamed.stats.rounds_routed > 0);
        }
    }

    /// Truncation faults end streams early; the finalized verdict must
    /// still match batch analysis of the same truncated run.
    #[test]
    fn truncated_streams_agree_with_batch() {
        let source = tiny_source(6);
        let plan = FaultPlan { truncate_after: Some(200), ..FaultPlan::none() };
        let cfg = cfg_for(&source, 4.0, plan);
        let streamed = ingest_world(&source, &cfg, &IngestConfig::default());
        for report in &streamed.reports {
            let block = source.generate_block(report.summary.block_id);
            let batch = analyze_block(&block, &cfg);
            assert_eq!(report.summary, batch.summary(), "block {}", block.id);
        }
    }

    /// The direct (queue-less) path and the sharded engine are the same
    /// computation.
    #[test]
    fn direct_and_sharded_agree_on_a_replayed_feed() {
        let source = tiny_source(20);
        let cfg = cfg_for(&source, 2.0, FaultPlan::none());
        let mut streams = Vec::new();
        for id in 0..source.len() as u64 {
            let block = source.generate_block(id);
            let mut prober = TrinocularProber::new(&block, cfg.trinocular);
            let run = prober.run_with_faults(&block, cfg.start_time, cfg.rounds, &cfg.faults);
            streams.push(replay_run(&run));
        }
        let feed = interleave(streams, 99);
        let direct = ingest_direct(&source, &cfg, feed.iter().copied());
        let sharded =
            ingest_events(&source, &cfg, &IngestConfig { shards: 2, ..Default::default() }, feed);
        assert_eq!(direct.reports.len(), sharded.reports.len());
        for (d, s) in direct.reports.iter().zip(&sharded.reports) {
            assert_eq!(format!("{d:?}"), format!("{s:?}"));
        }
        assert_eq!(direct.stats.rounds_routed, sharded.stats.rounds_routed);
    }

    /// A planted panic quarantines one block; the rest of the stream
    /// survives, exactly like the batch path.
    #[test]
    fn planted_panic_quarantines_only_its_block() {
        let source = tiny_source(12);
        let cfg = cfg_for(&source, 2.0, FaultPlan::none());
        hooks::plant_block_panic(7);
        let out = ingest_world(&source, &cfg, &IngestConfig { shards: 2, ..Default::default() });
        hooks::clear_block_panics();
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].block_id, 7);
        assert_eq!(out.reports.len(), 11);
        assert!(out.reports.iter().all(|r| r.summary.block_id != 7));
    }

    /// Tiny queues force backpressure; the outcome is unchanged and the
    /// stall/high-water accounting reflects the squeeze.
    #[test]
    fn backpressure_does_not_change_verdicts() {
        let source = tiny_source(16);
        let cfg = cfg_for(&source, 2.0, FaultPlan::none());
        let roomy = ingest_world(&source, &cfg, &IngestConfig::default());
        let squeezed = ingest_world(
            &source,
            &cfg,
            &IngestConfig { queue_capacity: 64, batch_events: 16, ..Default::default() },
        );
        assert!(squeezed.stats.queue_high_water <= 64 + 16, "bound violated");
        assert_eq!(roomy.reports.len(), squeezed.reports.len());
        for (a, b) in roomy.reports.iter().zip(&squeezed.reports) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
