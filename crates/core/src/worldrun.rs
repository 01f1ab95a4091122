//! World-scale analysis: run the per-block pipeline over every block of a
//! synthetic world in parallel, and join results with geolocation, reverse
//! DNS link classification, allocation dates, and country economics.
//!
//! Paper scale: blocks are claimed in fixed id-range chunks, and a chunk
//! can be fed either from a materialized [`World`] or pulled lazily from a
//! [`WorldSource`] — the 3.7M-block survey never holds more than
//! O(workers × chunk) specs in memory. Within a chunk, `SummaryOnly`
//! workers probe and clean up to [`MAX_BATCH_LANES`] blocks, then push the
//! same-length cleaned series through one batched real FFT
//! ([`sleepwatch_spectral::FftPlan::real_batch_with_scratch`]) — bit-identical to
//! the per-series kernel, so every golden and differential suite holds
//! byte-for-byte. Aggregation can likewise stream into a compact
//! [`WorldRunStats`] instead of collecting per-block reports.
//!
//! Resilience: workers wrap each phase of each block in `catch_unwind`, so
//! one poisoned block is quarantined (recorded in
//! [`WorldAnalysis::quarantined`]) instead of aborting the run, and a run
//! with a [`WorldRun::journal`] appends every completed block to an
//! append-only checkpoint file ([`crate::journal`]) so a killed process
//! resumes where it stopped with byte-identical output — without
//! regenerating already-journaled blocks.

use crate::analyze::{
    analyze_block, analyze_block_with_scratch, classify_probed, probe_clean_into, AnalysisConfig,
    BlockScratch, BlockSummary, ProbedBlock,
};
use crate::journal::{self, JournalError, JournalHeader, JournalWriter};
use sleepwatch_geoecon::allocation::YearMonth;
use sleepwatch_geoecon::country::{by_code, COUNTRIES};
use sleepwatch_geoecon::geolocate::{GeoDatabase, Location};
use sleepwatch_geoecon::region::Region;
use sleepwatch_linktype::{classify_block, LinkFeature};
use sleepwatch_obs::{Stage, StageTimer};
use sleepwatch_simnet::{ptr_names, BlockSpec, World, WorldSource};
use sleepwatch_spectral::{plan_for, BatchRealScratch, Complex, MAX_BATCH_LANES};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Blocks per claimed chunk. Chunk composition is a pure function of the
/// block index, so which worker claims a chunk never changes what is in
/// it — quarantine order, batching, and (for lazy sources) generation all
/// stay deterministic across thread counts. Also the worker batch
/// capacity: one flush per chunk bounds local memory and keeps
/// `world.batch_grows` at zero.
const CHUNK: usize = 256;

/// One block's measurement, joined with every external data source the
/// paper correlates against.
#[derive(Debug, Clone)]
pub struct WorldBlockReport {
    /// Pipeline outcome.
    pub summary: BlockSummary,
    /// Geolocation (absent for the ~7 % the database cannot place).
    pub location: Option<Location>,
    /// UN-style region of the geolocated country.
    pub region: Option<Region>,
    /// Allocation date of the block's /8 (public registry data).
    pub alloc_date: YearMonth,
    /// Link features inferred from reverse DNS (kept keywords only).
    pub link_features: Vec<LinkFeature>,
    /// Origin AS.
    pub asn: u32,
    /// Ground-truth label carried along *for scoring only* — no aggregation
    /// below reads it.
    pub planted_diurnal: bool,
}

/// A block whose analysis panicked and was quarantined instead of
/// aborting the world run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Id of the poisoned block.
    pub block_id: u64,
    /// The panic message, for postmortem triage.
    pub diagnostic: String,
}

/// Outcome of one block's trip through a worker.
#[derive(Debug, Clone)]
pub enum BlockOutcome {
    /// The pipeline completed normally.
    Analyzed(WorldBlockReport),
    /// The pipeline panicked; the block is excluded from every
    /// aggregation and reported explicitly.
    Quarantined {
        /// Id of the poisoned block.
        block_id: u64,
        /// The panic message.
        diagnostic: String,
    },
}

/// How much per-block detail a world run materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorldRunMode {
    /// Allocate a full `BlockAnalysis` (raw run, cleaned series) per
    /// block and collapse it to a summary — the pre-scratch behaviour.
    FullDetail,
    /// Analyze through worker-local [`BlockScratch`] arenas and keep
    /// only the [`WorldBlockReport`]: zero steady-state allocations per
    /// block and far lower peak RSS, with same-length series batched
    /// through one FFT pass. Output is byte-identical to
    /// [`FullDetail`](Self::FullDetail); this is the default.
    #[default]
    SummaryOnly,
}

/// The analyzed world.
#[derive(Debug)]
pub struct WorldAnalysis {
    /// Per-block joined reports, in block order (quarantined blocks are
    /// absent — aggregations skip them by construction).
    pub reports: Vec<WorldBlockReport>,
    /// Blocks whose analysis panicked, in block order. Empty on healthy
    /// runs; deterministic across thread counts and schedules.
    pub quarantined: Vec<Quarantine>,
}

/// Streaming aggregate of a world run — everything the paper-scale survey
/// reports, in O(1) memory per run instead of O(blocks).
///
/// Produced by [`WorldRun::stats`]; [`WorldAnalysis::stats`] computes
/// the identical value from collected reports (the equivalence is a unit
/// test), so summary-level results never depend on which sink ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldRunStats {
    /// Blocks analyzed (quarantined blocks excluded).
    pub blocks: usize,
    /// Strictly diurnal blocks.
    pub strict: usize,
    /// Strict-or-relaxed diurnal blocks.
    pub diurnal: usize,
    /// Blocks passing the §2.2 stationarity screen.
    pub stationary: usize,
    /// Blocks the geolocation database could place.
    pub located: usize,
    /// Planted diurnal, detected strict.
    pub true_pos: usize,
    /// Not planted, detected strict.
    pub false_pos: usize,
    /// Planted, not detected strict.
    pub false_neg: usize,
    /// Not planted, not detected strict.
    pub true_neg: usize,
    /// Total detected outages across all blocks.
    pub outages: u64,
    /// Total probes spent across all blocks.
    pub total_probes: u64,
    /// Blocks whose analysis panicked, sorted by block id.
    pub quarantined: Vec<Quarantine>,
}

impl WorldRunStats {
    /// Folds one completed block report into the aggregate.
    pub fn absorb_report(&mut self, r: &WorldBlockReport) {
        self.blocks += 1;
        if r.summary.class.is_strict() {
            self.strict += 1;
        }
        if r.summary.class.is_diurnal() {
            self.diurnal += 1;
        }
        if r.summary.stationary {
            self.stationary += 1;
        }
        if r.location.is_some() {
            self.located += 1;
        }
        match (r.planted_diurnal, r.summary.class.is_strict()) {
            (true, true) => self.true_pos += 1,
            (false, true) => self.false_pos += 1,
            (true, false) => self.false_neg += 1,
            (false, false) => self.true_neg += 1,
        }
        self.outages += r.summary.outages as u64;
        self.total_probes += r.summary.total_probes;
    }

    /// Count and fraction of strictly diurnal blocks.
    pub fn strict_fraction(&self) -> (usize, f64) {
        (self.strict, self.strict as f64 / self.blocks.max(1) as f64)
    }

    /// Count and fraction of strict-or-relaxed diurnal blocks.
    pub fn diurnal_fraction(&self) -> (usize, f64) {
        (self.diurnal, self.diurnal as f64 / self.blocks.max(1) as f64)
    }

    /// Fraction of blocks passing the stationarity screen.
    pub fn stationary_fraction(&self) -> f64 {
        self.stationary as f64 / self.blocks.max(1) as f64
    }

    /// Detection quality against the planted labels:
    /// `(true_pos, false_pos, false_neg, true_neg)` using the strict class.
    pub fn confusion_vs_planted(&self) -> (usize, usize, usize, usize) {
        (self.true_pos, self.false_pos, self.false_neg, self.true_neg)
    }
}

/// Test-only failure injection. Hidden from docs and never armed outside
/// tests: the fast path is a single relaxed atomic load.
///
/// Planted panics belong to the planting thread and the workers of the
/// runs it starts, so tests running other worlds concurrently in the same
/// process never trip them.
#[doc(hidden)]
pub mod hooks {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};

    static ARMED: AtomicBool = AtomicBool::new(false);

    thread_local! {
        static PLANTED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    /// Makes the analysis of block `block_id` panic (until cleared) in
    /// runs started from the calling thread.
    pub fn plant_block_panic(block_id: u64) {
        PLANTED.with(|p| p.borrow_mut().push(block_id));
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Removes every panic the calling thread planted.
    pub fn clear_block_panics() {
        PLANTED.with(|p| p.borrow_mut().clear());
    }

    /// The calling thread's planted ids, to hand to a run's workers.
    pub(crate) fn planted() -> Vec<u64> {
        if !ARMED.load(Ordering::Relaxed) {
            return Vec::new();
        }
        PLANTED.with(|p| p.borrow().clone())
    }

    /// Installs a run's planted ids on one of its worker threads.
    pub(crate) fn adopt(ids: Vec<u64>) {
        if !ids.is_empty() {
            PLANTED.with(|p| *p.borrow_mut() = ids);
        }
    }

    pub(crate) fn fire(block_id: u64) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        if PLANTED.with(|p| p.borrow().contains(&block_id)) {
            panic!("planted panic for block {block_id}");
        }
    }
}

/// Where a run's blocks come from: a materialized world, or a lazy
/// seed-keyed source that synthesizes each claimed chunk on demand. Both
/// convert with `.into()`, so every run accepts either.
#[derive(Clone, Copy)]
pub enum WorldBlocks<'a> {
    /// Every block already generated.
    World(&'a World),
    /// Blocks generated chunk-by-chunk as workers claim them: peak memory
    /// is O(threads × chunk) specs instead of the whole world, and output
    /// is byte-identical to materializing the source first.
    Source(&'a WorldSource),
}

impl<'a> From<&'a World> for WorldBlocks<'a> {
    fn from(world: &'a World) -> Self {
        WorldBlocks::World(world)
    }
}

impl<'a> From<&'a WorldSource> for WorldBlocks<'a> {
    fn from(source: &'a WorldSource) -> Self {
        WorldBlocks::Source(source)
    }
}

impl<'a> WorldBlocks<'a> {
    fn len(&self) -> usize {
        match self {
            WorldBlocks::World(w) => w.blocks.len(),
            WorldBlocks::Source(s) => s.len(),
        }
    }

    /// The world seed — part of the run identity a journal is keyed to.
    pub fn seed(&self) -> u64 {
        match self {
            WorldBlocks::World(w) => w.cfg.seed,
            WorldBlocks::Source(s) => s.cfg().seed,
        }
    }

    fn geodb(&self) -> &'a GeoDatabase {
        match self {
            WorldBlocks::World(w) => &w.geodb,
            WorldBlocks::Source(s) => s.geodb(),
        }
    }
}

/// One claimed chunk's blocks: either a window into the materialized
/// world (indexed through the chunk's work list) or a freshly generated
/// dense buffer aligned with that list.
enum ChunkView<'a> {
    World(&'a [BlockSpec], &'a [usize]),
    Generated(&'a [BlockSpec]),
}

impl<'a> ChunkView<'a> {
    /// The block behind work item `j` of the chunk.
    fn get(&self, j: usize) -> &'a BlockSpec {
        match self {
            ChunkView::World(blocks, work) => &blocks[work[j]],
            ChunkView::Generated(buf) => &buf[j],
        }
    }
}

/// Where outcomes go: per-block collection (order restored by slot index)
/// or a streaming fold into [`WorldRunStats`].
trait Sink: Send {
    /// What the finished run hands back.
    type Output;
    /// An empty sink for a run over `n` blocks.
    fn for_blocks(n: usize) -> Self;
    /// Takes block `idx`'s outcome — computed or replayed from a journal.
    fn put(&mut self, idx: usize, outcome: BlockOutcome);
    /// Turns the filled sink into the run's result.
    fn finish(self) -> Self::Output;
}

/// One slot per block, filled in whatever order workers finish.
struct Collect(Vec<Option<BlockOutcome>>);

impl Sink for Collect {
    type Output = WorldAnalysis;

    fn for_blocks(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        Collect(slots)
    }

    fn put(&mut self, idx: usize, outcome: BlockOutcome) {
        self.0[idx] = Some(outcome);
    }

    fn finish(self) -> WorldAnalysis {
        let mut reports = Vec::with_capacity(self.0.len());
        let mut quarantined = Vec::new();
        for s in self.0.into_iter().map(|s| s.expect("every block analyzed")) {
            match s {
                BlockOutcome::Analyzed(r) => reports.push(r),
                BlockOutcome::Quarantined { block_id, diagnostic } => {
                    quarantined.push(Quarantine { block_id, diagnostic });
                }
            }
        }
        WorldAnalysis { reports, quarantined }
    }
}

impl Sink for WorldRunStats {
    type Output = WorldRunStats;

    fn for_blocks(_n: usize) -> Self {
        WorldRunStats::default()
    }

    fn put(&mut self, _idx: usize, outcome: BlockOutcome) {
        match outcome {
            BlockOutcome::Analyzed(r) => self.absorb_report(&r),
            BlockOutcome::Quarantined { block_id, diagnostic } => {
                self.quarantined.push(Quarantine { block_id, diagnostic });
            }
        }
    }

    fn finish(mut self) -> WorldRunStats {
        // Workers fold in claim order; counters commute but the
        // quarantine list must come out deterministic.
        self.quarantined.sort_by_key(|q| q.block_id);
        self
    }
}

/// Geo/reverse-DNS/registry join for one completed summary — the
/// world-independent second half of the per-block pipeline.
pub(crate) fn join_block(
    geodb: &GeoDatabase,
    block: &BlockSpec,
    summary: BlockSummary,
) -> WorldBlockReport {
    let country = &COUNTRIES[block.country_idx];
    let location = geodb.locate(block.id, country, block.lon, block.lat);
    // Lookup-or-`None`: an out-of-table country code degrades this one
    // block to region-less instead of panicking a worker.
    let region = location.and_then(|l| match by_code(l.country) {
        Some(c) => Some(c.region),
        None => {
            sleepwatch_obs::global().geo.unknown_countries.incr();
            None
        }
    });
    let names = ptr_names(block);
    let label = classify_block(names.iter().map(|o| o.as_deref()));
    WorldBlockReport {
        summary,
        location,
        region,
        alloc_date: block.alloc_date,
        link_features: label.kept_features(),
        asn: block.asn,
        planted_diurnal: block.planted_diurnal,
    }
}

/// The full pipeline for one block: analysis plus every external join.
/// The scalar path — `FullDetail` always comes through here; the batched
/// `SummaryOnly` path splits the same stages across micro-batch phases.
fn analyze_one(
    block: &BlockSpec,
    geodb: &GeoDatabase,
    cfg: &AnalysisConfig,
    mode: WorldRunMode,
    scratch: &mut BlockScratch,
) -> WorldBlockReport {
    hooks::fire(block.id);
    let summary = match mode {
        WorldRunMode::FullDetail => analyze_block(block, cfg).summary(),
        WorldRunMode::SummaryOnly => analyze_block_with_scratch(block, cfg, scratch),
    };
    join_block(geodb, block, summary)
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Flushes a worker's local batch: journals completed reports (disabling
/// the journal on the first write error — the run itself must not die for
/// a full disk), then publishes outcomes into the shared sink.
fn flush_batch<S: Sink>(
    local: &mut Vec<(usize, BlockOutcome)>,
    sink_mutex: &parking_lot::Mutex<&mut S>,
    journal: Option<&parking_lot::Mutex<Option<JournalWriter>>>,
) {
    if let Some(j) = journal {
        let mut jw = j.lock();
        if let Some(w) = jw.as_mut() {
            let mut failed = false;
            for (_, outcome) in local.iter() {
                if let BlockOutcome::Analyzed(rep) = outcome {
                    if let Err(e) = w.append(rep) {
                        eprintln!("[journal] write failed, journaling disabled: {e}");
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                *jw = None;
            }
        }
    }
    let mut guard = sink_mutex.lock();
    for (idx, outcome) in local.drain(..) {
        guard.put(idx, outcome);
    }
}

/// Records one outcome into the worker's batch, advances the shared done
/// counter, and reports coarse intermediate progress.
#[allow(clippy::too_many_arguments)]
fn emit(
    i: usize,
    outcome: BlockOutcome,
    n: usize,
    base: usize,
    local: &mut Vec<(usize, BlockOutcome)>,
    blocks_done: &mut u64,
    done: &AtomicUsize,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) {
    if local.len() == local.capacity() {
        sleepwatch_obs::global().world.batch_grows.incr();
    }
    local.push((i, outcome));
    *blocks_done += 1;
    let d = done.fetch_add(1, Ordering::Relaxed) + 1 + base;
    if let Some(cb) = progress {
        // Final (n, n) is reported by the calling thread after the join;
        // workers only emit strictly intermediate counts.
        if d % 500 == 0 && d < n {
            cb(d, n);
        }
    }
}

/// Disjoint mutable references to the given scratch slots (ascending,
/// unique) — the lanes of one same-length FFT group.
fn lane_refs<'a>(scratches: &'a mut [BlockScratch], slots: &[usize]) -> Vec<&'a mut BlockScratch> {
    let mut out = Vec::with_capacity(slots.len());
    let mut rest = scratches;
    let mut consumed = 0;
    for &s in slots {
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(s - consumed);
        let (head, tail2) = tail.split_at_mut(1);
        out.push(&mut head[0]);
        rest = tail2;
        consumed = s + 1;
    }
    out
}

/// Shared driver behind every world run. `skip` marks journal-replayed
/// blocks (workers never touch them — for lazy sources a fully replayed
/// chunk is not even generated; the sink already holds them); `base` is
/// how many were replayed. Output depends only on the blocks and config —
/// not on feed kind, sink kind, thread count, schedule, journal presence,
/// or how much was replayed.
fn run_world<S: Sink>(
    run: &WorldRun<'_>,
    feed: WorldBlocks<'_>,
    cfg: &AnalysisConfig,
    journal: Option<&parking_lot::Mutex<Option<JournalWriter>>>,
    skip: Vec<bool>,
    mut sink: S,
) -> S::Output {
    let WorldRun { threads, mode, progress, .. } = *run;
    let obs = sleepwatch_obs::global();
    let _total_timer = StageTimer::start(obs.pipeline.stage(Stage::Total));
    let n = feed.len();
    debug_assert_eq!(skip.len(), n);
    let threads = threads.max(1);
    obs.world.runs.incr();
    obs.world.blocks_total.add(n as u64);
    obs.world.max_world_blocks.raise(n as u64);
    // Pre-warm the FFT plan for the nominal series length so workers start
    // from a populated cache instead of racing to plan it. Cleaning's
    // midnight trim can shorten some series; those lengths are planned once
    // on first use through the same cache. (`prewarm`, not `plan_for`:
    // warmup is not a caller-visible lookup and must not skew the
    // hit/miss-vs-transform accounting.)
    sleepwatch_spectral::prewarm(cfg.rounds as usize);
    let base = skip.iter().filter(|&&s| s).count();
    if let Some(cb) = progress {
        // Surface replayed work immediately: a resumed run starts its
        // progress at `base` instead of the first worker report jumping
        // from nothing. Strictly intermediate — a fully replayed run goes
        // straight to the final (n, n) below.
        if base > 0 && base < n {
            cb(base, n);
        }
    }
    let nchunks = n.div_ceil(CHUNK);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let started = std::time::Instant::now();
    let planted = hooks::planted();
    {
        let sink_mutex = parking_lot::Mutex::new(&mut sink);
        crossbeam::thread::scope(|s| {
            for worker in 0..threads {
                // Rebind as shared references so `move` captures copies,
                // not the owned atomics/mutex themselves.
                let (next, done, sink_mutex, skip, feed) =
                    (&next, &done, &sink_mutex, &skip, &feed);
                let planted = planted.clone();
                s.spawn(move |_| {
                    hooks::adopt(planted);
                    // Worker arenas: one scratch per batch lane plus the
                    // lane-interleaved FFT workspace and (for lazy feeds)
                    // the chunk's spec buffer. All grow-only — after
                    // warm-up a chunk runs without allocating.
                    let mut local: Vec<(usize, BlockOutcome)> = Vec::with_capacity(CHUNK);
                    let mut scratches: Vec<BlockScratch> =
                        (0..MAX_BATCH_LANES).map(|_| BlockScratch::new()).collect();
                    let mut batch_scratch = BatchRealScratch::new();
                    let mut gen_buf: Vec<BlockSpec> = Vec::new();
                    let mut work: Vec<usize> = Vec::with_capacity(CHUNK);
                    let mut blocks_done = 0u64;
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        let lo = c * CHUNK;
                        let hi = ((c + 1) * CHUNK).min(n);
                        work.clear();
                        work.extend((lo..hi).filter(|&i| !skip[i]));
                        if work.is_empty() {
                            // Fully replayed from the journal: resumed
                            // sources skip generation outright.
                            continue;
                        }
                        let view = match feed {
                            WorldBlocks::World(w) => ChunkView::World(&w.blocks, &work),
                            WorldBlocks::Source(src) => {
                                src.generate_into(work.iter().map(|&i| i as u64), &mut gen_buf);
                                obs.world.source_chunks.incr();
                                ChunkView::Generated(&gen_buf)
                            }
                        };
                        match mode {
                            WorldRunMode::FullDetail => {
                                for (j, &i) in work.iter().enumerate() {
                                    let block = view.get(j);
                                    let scr = &mut scratches[0];
                                    let outcome = match catch_unwind(AssertUnwindSafe(|| {
                                        analyze_one(block, feed.geodb(), cfg, mode, scr)
                                    })) {
                                        Ok(rep) => BlockOutcome::Analyzed(rep),
                                        Err(payload) => {
                                            obs.resilience.blocks_quarantined.incr();
                                            BlockOutcome::Quarantined {
                                                block_id: block.id,
                                                diagnostic: panic_message(payload),
                                            }
                                        }
                                    };
                                    emit(
                                        i,
                                        outcome,
                                        n,
                                        base,
                                        &mut local,
                                        &mut blocks_done,
                                        done,
                                        progress,
                                    );
                                }
                            }
                            WorldRunMode::SummaryOnly => {
                                run_chunk_batched(
                                    &view,
                                    &work,
                                    feed.geodb(),
                                    cfg,
                                    &mut scratches,
                                    &mut batch_scratch,
                                    &mut |i, outcome| {
                                        emit(
                                            i,
                                            outcome,
                                            n,
                                            base,
                                            &mut local,
                                            &mut blocks_done,
                                            done,
                                            progress,
                                        )
                                    },
                                );
                            }
                        }
                        flush_batch(&mut local, sink_mutex, journal);
                    }
                    obs.world.worker_blocks.add(worker, blocks_done);
                    let arena: usize = scratches.iter().map(|s| s.footprint_bytes()).sum::<usize>()
                        + batch_scratch.footprint_bytes()
                        + gen_buf.capacity() * std::mem::size_of::<BlockSpec>();
                    obs.world.peak_block_bytes.raise(arena as u64);
                });
            }
        })
        .expect("worker thread panicked");
    }

    let analyzed = n - base;
    let secs = started.elapsed().as_secs_f64();
    if analyzed > 0 && secs > 0.0 {
        obs.world.blocks_per_sec.raise((analyzed as f64 / secs) as u64);
    }
    let out = {
        let _t = StageTimer::start(obs.pipeline.stage(Stage::Join));
        sink.finish()
    };
    if let Some(j) = journal {
        if let Some(w) = j.lock().as_mut() {
            if let Err(e) = w.sync() {
                eprintln!("[journal] final sync failed: {e}");
            }
        }
    }
    if let Some(cb) = progress {
        cb(n, n);
    }
    out
}

/// `SummaryOnly` chunk execution: probe/clean up to [`MAX_BATCH_LANES`]
/// blocks into per-lane arenas, FFT same-length series together through
/// the lane-interleaved kernel, then classify and join each lane. Every
/// phase keeps its own `catch_unwind` boundary so one poisoned block
/// quarantines alone, never its batch-mates.
fn run_chunk_batched(
    view: &ChunkView<'_>,
    work: &[usize],
    geodb: &GeoDatabase,
    cfg: &AnalysisConfig,
    scratches: &mut [BlockScratch],
    batch_scratch: &mut BatchRealScratch,
    emit: &mut dyn FnMut(usize, BlockOutcome),
) {
    let obs = sleepwatch_obs::global();
    let track = obs.pipeline.scratch_reuses.enabled();
    let m = work.len();
    for mb in (0..m).step_by(MAX_BATCH_LANES) {
        let lanes = (m - mb).min(MAX_BATCH_LANES);
        let mut probed: [Option<ProbedBlock>; MAX_BATCH_LANES] = [None; MAX_BATCH_LANES];
        let mut outcomes: [Option<BlockOutcome>; MAX_BATCH_LANES] = Default::default();
        let mut fp_before = [0usize; MAX_BATCH_LANES];

        // Phase 1: probe → estimate → clean, one lane per block.
        for l in 0..lanes {
            let block = view.get(mb + l);
            if track {
                fp_before[l] = scratches[l].footprint_bytes();
            }
            let scr = &mut scratches[l];
            match catch_unwind(AssertUnwindSafe(|| {
                hooks::fire(block.id);
                probe_clean_into(block, cfg, scr)
            })) {
                Ok(p) => probed[l] = Some(p),
                Err(payload) => {
                    obs.resilience.blocks_quarantined.incr();
                    outcomes[l] = Some(BlockOutcome::Quarantined {
                        block_id: block.id,
                        diagnostic: panic_message(payload),
                    });
                }
            }
        }

        // Phase 2: group surviving lanes by cleaned-series length (fixed
        // stack tables — lanes ≤ MAX_BATCH_LANES) and FFT each group in
        // one batched pass.
        let mut glen = [0usize; MAX_BATCH_LANES];
        let mut gmem = [[0usize; MAX_BATCH_LANES]; MAX_BATCH_LANES];
        let mut gcnt = [0usize; MAX_BATCH_LANES];
        let mut ngroups = 0usize;
        for l in 0..lanes {
            if probed[l].is_none() {
                continue;
            }
            let len = scratches[l].series_len();
            let gi = match (0..ngroups).find(|&g| glen[g] == len) {
                Some(g) => g,
                None => {
                    glen[ngroups] = len;
                    ngroups += 1;
                    ngroups - 1
                }
            };
            gmem[gi][gcnt[gi]] = l;
            gcnt[gi] += 1;
        }
        for g in 0..ngroups {
            let len = glen[g];
            let members = &gmem[g][..gcnt[g]];
            // One counted cache lookup per member: the batched kernel
            // records one transform per lane, and the metrics suite pins
            // `plan_cache.hits + misses == fft.transforms`.
            let mut plan = plan_for(len);
            for _ in 1..members.len() {
                plan = plan_for(len);
            }
            let hist = obs.pipeline.stage(Stage::Fft);
            let timed = hist.enabled();
            let start = timed.then(std::time::Instant::now);
            let batch_ok = catch_unwind(AssertUnwindSafe(|| {
                let mut lanes_mut = lane_refs(scratches, members);
                let mut ins: Vec<&[f64]> = Vec::with_capacity(lanes_mut.len());
                let mut outs: Vec<&mut [Complex]> = Vec::with_capacity(lanes_mut.len());
                for scr in lanes_mut.iter_mut() {
                    let (series, spec) = scr.series_and_spectrum();
                    ins.push(series);
                    outs.push(spec.prepare_coeffs(len, sleepwatch_spectral::ROUND_SECONDS));
                }
                plan.real_batch_with_scratch(&ins, &mut outs, batch_scratch);
            }))
            .is_ok();
            if !batch_ok {
                // A poisoned lane must not sink its batch-mates: redo each
                // lane through the scalar kernel with its own quarantine
                // boundary. (The batch kernel validates before recording
                // telemetry, so the scalar redo keeps the lookup/transform
                // ledger aligned up to the quarantined lanes.)
                for &l in members {
                    let block = view.get(mb + l);
                    let scr = &mut scratches[l];
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                        let (series, spec) = scr.series_and_spectrum();
                        spec.compute_with_plan(series, sleepwatch_spectral::ROUND_SECONDS, &plan);
                    })) {
                        obs.resilience.blocks_quarantined.incr();
                        probed[l] = None;
                        outcomes[l] = Some(BlockOutcome::Quarantined {
                            block_id: block.id,
                            diagnostic: panic_message(payload),
                        });
                    }
                }
            }
            if let Some(t0) = start {
                // The group's wall time split evenly keeps the per-block
                // stage histogram at one sample per block.
                let per_member = t0.elapsed().as_secs_f64() * 1e6 / members.len() as f64;
                for _ in members {
                    hist.record(per_member);
                }
            }
        }

        // Phase 3: classify and join each lane, in lane order.
        for l in 0..lanes {
            let i = work[mb + l];
            if let Some(outcome) = outcomes[l].take() {
                emit(i, outcome);
                continue;
            }
            let block = view.get(mb + l);
            let p = probed[l].expect("lane survived phases 1–2");
            let outcome = match catch_unwind(AssertUnwindSafe(|| {
                let (summary, _diurnal, _trend) = classify_probed(block, cfg, &scratches[l], p);
                if track {
                    // Same classification point as the scalar path: the
                    // whole block (probe buffers, series, spectrum) either
                    // fit the warm arena or grew it.
                    if scratches[l].footprint_bytes() > fp_before[l] {
                        obs.pipeline.scratch_grows.incr();
                    } else {
                        obs.pipeline.scratch_reuses.incr();
                    }
                }
                join_block(geodb, block, summary)
            })) {
                Ok(rep) => BlockOutcome::Analyzed(rep),
                Err(payload) => {
                    obs.resilience.blocks_quarantined.incr();
                    BlockOutcome::Quarantined {
                        block_id: block.id,
                        diagnostic: panic_message(payload),
                    }
                }
            };
            emit(i, outcome);
        }
    }
}

/// How to run a world: every choice besides the blocks and the analysis
/// config. `WorldRun::default()` is a sequential `SummaryOnly` run with
/// no journal and no progress callback; set fields with struct-update
/// syntax (`WorldRun { threads: 4, ..WorldRun::default() }`).
///
/// None of these fields changes the result: every combination produces
/// the same bytes as a plain sequential run.
#[derive(Clone, Copy, Default)]
pub struct WorldRun<'a> {
    /// Worker threads (0 and 1 both mean sequential).
    pub threads: usize,
    /// How much per-block detail workers materialize.
    pub mode: WorldRunMode,
    /// Crash-safe checkpoint journal: every completed block is appended
    /// (fsync'd every [`journal::SYNC_EVERY`] records), and if the file
    /// already holds a valid prefix for this exact run — same world seed,
    /// block count, rounds and start time — those blocks are replayed
    /// instead of recomputed (for lazy sources, a fully replayed chunk is
    /// never generated). A truncated or bit-flipped tail costs only the
    /// damaged suffix.
    pub journal: Option<&'a Path>,
    /// Progress callback, with the contract documented on
    /// [`analyze_world`]. A resumed run first reports its replayed count.
    pub progress: Option<&'a (dyn Fn(usize, usize) + Sync)>,
}

impl WorldRun<'_> {
    /// Runs the world and collects every block's joined report.
    ///
    /// Errors only when [`journal`](Self::journal) is set and the file
    /// cannot be opened or belongs to a different run; corruption never
    /// errors.
    pub fn analyze<'b>(
        &self,
        blocks: impl Into<WorldBlocks<'b>>,
        cfg: &AnalysisConfig,
    ) -> Result<WorldAnalysis, JournalError> {
        self.run::<Collect>(blocks.into(), cfg)
    }

    /// Runs the world and folds every block into a streaming
    /// [`WorldRunStats`] — O(1) memory in the number of blocks, equal to
    /// [`WorldAnalysis::stats`] of the collected run. Over a
    /// [`WorldBlocks::Source`] this is the paper-scale survey.
    ///
    /// Errors exactly as [`analyze`](Self::analyze) does.
    pub fn stats<'b>(
        &self,
        blocks: impl Into<WorldBlocks<'b>>,
        cfg: &AnalysisConfig,
    ) -> Result<WorldRunStats, JournalError> {
        self.run::<WorldRunStats>(blocks.into(), cfg)
    }

    /// Opens the journal (if any), puts its replayed blocks into the sink,
    /// and runs the rest.
    fn run<S: Sink>(
        &self,
        blocks: WorldBlocks<'_>,
        cfg: &AnalysisConfig,
    ) -> Result<S::Output, JournalError> {
        let Some(path) = self.journal else {
            return Ok(self.run_fresh::<S>(blocks, cfg));
        };
        let n = blocks.len();
        let (writer, skip, replayed) = open_journal(path, blocks.seed(), n, cfg)?;
        let mut sink = S::for_blocks(n);
        for rep in replayed {
            sink.put(rep.summary.block_id as usize, BlockOutcome::Analyzed(rep));
        }
        let journal = parking_lot::Mutex::new(Some(writer));
        Ok(run_world(self, blocks, cfg, Some(&journal), skip, sink))
    }

    /// A run without a journal, which cannot fail.
    fn run_fresh<S: Sink>(&self, blocks: WorldBlocks<'_>, cfg: &AnalysisConfig) -> S::Output {
        let n = blocks.len();
        run_world(self, blocks, cfg, None, vec![false; n], S::for_blocks(n))
    }
}

/// Analyzes every block of a [`World`] or a lazy [`WorldSource`] with
/// `cfg`, using `threads` worker threads (1 = sequential), and collects
/// the joined reports. An optional `progress` callback receives the
/// number of completed blocks at coarse intervals. Runs with a journal,
/// a streaming [`WorldRunStats`] sink or an explicit [`WorldRunMode`] go
/// through [`WorldRun`].
///
/// Progress contract: workers report coarse intermediate progress
/// (`done < n` at multiples of 500), and after every worker has joined the
/// callback receives exactly one final `(n, n)` invocation — guaranteed to
/// be the last call, even for empty worlds and regardless of worker
/// scheduling. (Workers reporting the final count themselves would race: a
/// preempted worker could deliver a stale intermediate count *after*
/// another worker's `(n, n)`.)
pub fn analyze_world<'a>(
    blocks: impl Into<WorldBlocks<'a>>,
    cfg: &AnalysisConfig,
    threads: usize,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> WorldAnalysis {
    WorldRun { threads, progress, ..WorldRun::default() }.run_fresh::<Collect>(blocks.into(), cfg)
}

/// The run identity a resumable world run stamps into its journal (and
/// that seed-joined binary datasets share, with `rounds` zeroed): the
/// four fields that decide whether two on-disk artifacts came from the
/// same world and analysis configuration.
pub fn run_identity(
    seed: u64,
    num_blocks: usize,
    cfg: &AnalysisConfig,
) -> crate::framing::RunIdentity {
    crate::framing::RunIdentity {
        world_seed: seed,
        num_blocks: num_blocks as u64,
        rounds: cfg.rounds,
        start_time: cfg.start_time,
    }
}

/// Builds the journal prefill for a resumable run: opens (or validates)
/// the journal at `path` and returns the writer, the replay skip-mask,
/// and the replayed reports.
pub(crate) fn open_journal(
    path: &Path,
    seed: u64,
    n: usize,
    cfg: &AnalysisConfig,
) -> Result<(JournalWriter, Vec<bool>, Vec<WorldBlockReport>), JournalError> {
    let header = JournalHeader::from_identity(&run_identity(seed, n, cfg));
    let (writer, replayed, _stats) = journal::open_resume(path, &header)?;
    let mut skip = vec![false; n];
    let mut kept = Vec::with_capacity(replayed.len());
    for rep in replayed {
        let idx = rep.summary.block_id as usize;
        // Defensive: only trust records that name a real slot of this
        // world (generated worlds satisfy `blocks[i].id == i`), first
        // record wins.
        if idx < n && !skip[idx] {
            skip[idx] = true;
            kept.push(rep);
        }
    }
    Ok((writer, skip, kept))
}

impl WorldAnalysis {
    /// Number of blocks analyzed (quarantined blocks excluded).
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// `true` when no blocks were analyzed.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The streaming aggregate of this analysis — identical to what
    /// [`WorldRun::stats`] would have produced for the same run.
    pub fn stats(&self) -> WorldRunStats {
        let mut stats = WorldRunStats::default();
        for r in &self.reports {
            stats.absorb_report(r);
        }
        stats.quarantined = self.quarantined.clone();
        stats.quarantined.sort_by_key(|q| q.block_id);
        stats
    }

    /// Count and fraction of strictly diurnal blocks.
    pub fn strict_fraction(&self) -> (usize, f64) {
        self.stats().strict_fraction()
    }

    /// Count and fraction of strict-or-relaxed diurnal blocks.
    pub fn diurnal_fraction(&self) -> (usize, f64) {
        self.stats().diurnal_fraction()
    }

    /// Fraction of blocks passing the stationarity screen.
    pub fn stationary_fraction(&self) -> f64 {
        self.stats().stationary_fraction()
    }

    /// Detection quality against the planted labels:
    /// `(true_pos, false_pos, false_neg, true_neg)` using the strict class.
    pub fn confusion_vs_planted(&self) -> (usize, usize, usize, usize) {
        self.stats().confusion_vs_planted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepwatch_simnet::WorldConfig;

    fn tiny_analysis() -> WorldAnalysis {
        let world = World::generate(WorldConfig {
            num_blocks: 60,
            seed: 21,
            span_days: 4.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 4.0);
        analyze_world(&world, &cfg, 2, None)
    }

    #[test]
    fn every_block_reported_in_order() {
        let a = tiny_analysis();
        assert_eq!(a.len(), 60);
        assert!(a.quarantined.is_empty());
        for (i, r) in a.reports.iter().enumerate() {
            assert_eq!(r.summary.block_id, i as u64);
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let world = World::generate(WorldConfig {
            num_blocks: 24,
            seed: 5,
            span_days: 3.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        let seq = analyze_world(&world, &cfg, 1, None);
        let par = analyze_world(&world, &cfg, 4, None);
        for (a, b) in seq.reports.iter().zip(&par.reports) {
            assert_eq!(a.summary.class, b.summary.class);
            assert_eq!(a.summary.total_probes, b.summary.total_probes);
            assert_eq!(a.link_features, b.link_features);
        }
    }

    #[test]
    fn fixed_seed_world_classifies_deterministically() {
        // Two independent runs of the same fixed-seed 60-block world must
        // produce identical summaries — the planned FFT path may not perturb
        // classification across runs or thread schedules.
        let a = tiny_analysis();
        let b = tiny_analysis();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(x.summary.class, y.summary.class, "block {}", x.summary.block_id);
            assert_eq!(x.summary.phase, y.summary.phase);
            assert_eq!(x.summary.strongest_cpd, y.summary.strongest_cpd);
            assert_eq!(x.summary.total_probes, y.summary.total_probes);
        }
    }

    #[test]
    fn lazy_source_run_matches_materialized_world_run() {
        // The tentpole equivalence: pulling blocks lazily from a
        // WorldSource (chunked generation + batched FFTs) must be
        // byte-identical to materializing the world first.
        let cfg_w = WorldConfig { num_blocks: 70, seed: 33, span_days: 4.0, ..Default::default() };
        let world = World::generate(cfg_w.clone());
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 4.0);
        let from_world = analyze_world(&world, &cfg, 2, None);
        let source = WorldSource::new(cfg_w);
        let from_source = analyze_world(&source, &cfg, 3, None);
        assert_eq!(
            format!("{:?}", from_world.reports),
            format!("{:?}", from_source.reports),
            "lazy source run diverged from materialized run"
        );
        assert!(from_source.quarantined.is_empty());
    }

    #[test]
    fn stats_sink_matches_collected_analysis() {
        let cfg_w = WorldConfig { num_blocks: 60, seed: 21, span_days: 4.0, ..Default::default() };
        let source = WorldSource::new(cfg_w.clone());
        let cfg = AnalysisConfig::over_days(source.cfg().start_time, 4.0);
        let stats = WorldRun { threads: 2, ..WorldRun::default() }.stats(&source, &cfg).unwrap();
        let collected = tiny_analysis(); // same world cfg as `source`
        assert_eq!(stats, collected.stats(), "streaming aggregate diverged from collected run");
        assert_eq!(stats.blocks, 60);
        let (_, sf) = stats.strict_fraction();
        assert!((0.0..=1.0).contains(&sf));
        let (tp, fp, fneg, tn) = stats.confusion_vs_planted();
        assert_eq!(tp + fp + fneg + tn, stats.blocks);
    }

    #[test]
    fn geolocation_coverage_near_ninety_three_percent() {
        let a = tiny_analysis();
        let located = a.reports.iter().filter(|r| r.location.is_some()).count();
        let frac = located as f64 / a.len() as f64;
        assert!(frac > 0.8 && frac <= 1.0, "coverage {frac}");
    }

    #[test]
    fn progress_callback_fires() {
        let world = World::generate(WorldConfig {
            num_blocks: 10,
            seed: 2,
            span_days: 3.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        let hits = AtomicUsize::new(0);
        let cb = |_d: usize, _n: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        analyze_world(&world, &cfg, 2, Some(&cb));
        assert!(hits.load(Ordering::Relaxed) >= 1, "final-progress callback expected");
    }

    #[test]
    fn progress_final_call_is_guaranteed_and_last() {
        // Regression: the final (n, n) invocation used to come from
        // whichever worker finished block n — a preempted worker could
        // deliver a stale intermediate count after it, and coarse-interval
        // reporting could skip it entirely. The contract now: exactly one
        // (n, n) call, strictly last.
        let world = World::generate(WorldConfig {
            num_blocks: 10,
            seed: 2,
            span_days: 3.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        let calls = parking_lot::Mutex::new(Vec::new());
        let cb = |d: usize, n: usize| calls.lock().push((d, n));
        analyze_world(&world, &cfg, 3, Some(&cb));
        let calls = calls.into_inner();
        assert_eq!(calls.last(), Some(&(10, 10)), "final call must be (n, n): {calls:?}");
        assert_eq!(
            calls.iter().filter(|&&c| c == (10, 10)).count(),
            1,
            "final call must fire exactly once: {calls:?}"
        );
    }

    #[test]
    fn progress_fires_for_empty_world() {
        let world = World::generate(WorldConfig {
            num_blocks: 0,
            seed: 2,
            span_days: 1.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 1.0);
        let calls = parking_lot::Mutex::new(Vec::new());
        let cb = |d: usize, n: usize| calls.lock().push((d, n));
        analyze_world(&world, &cfg, 2, Some(&cb));
        assert_eq!(calls.into_inner(), vec![(0, 0)], "empty worlds still get the final call");
    }

    #[test]
    fn resumed_run_surfaces_replayed_progress_first() {
        // Satellite: a resumed run's first progress report is the replayed
        // base, not a jump straight to (n, n) — while the exactly-one-final
        // guarantee still holds.
        let world = World::generate(WorldConfig {
            num_blocks: 20,
            seed: 13,
            span_days: 3.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        let dir = std::env::temp_dir().join(format!("swresumeprog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("partial.journal");
        let _ = std::fs::remove_file(&path);
        // First pass: block 7 panics, so the journal holds 19 of 20.
        hooks::plant_block_panic(7);
        let run = WorldRun { threads: 2, journal: Some(&path), ..WorldRun::default() };
        let first = run.analyze(&world, &cfg).unwrap();
        hooks::clear_block_panics();
        assert_eq!(first.quarantined.len(), 1);
        // Resume: 19 replayed, 1 recomputed.
        let calls = parking_lot::Mutex::new(Vec::new());
        let cb = |d: usize, n: usize| calls.lock().push((d, n));
        let resumed = WorldRun { progress: Some(&cb), ..run }.analyze(&world, &cfg).unwrap();
        assert!(resumed.quarantined.is_empty());
        assert_eq!(resumed.len(), 20);
        let calls = calls.into_inner();
        assert_eq!(calls.first(), Some(&(19, 20)), "replayed base must surface: {calls:?}");
        assert_eq!(calls.last(), Some(&(20, 20)));
        assert_eq!(calls.iter().filter(|&&c| c == (20, 20)).count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn with_report_returns_identical_analysis_and_labelled_report() {
        let world = World::generate(WorldConfig {
            num_blocks: 12,
            seed: 7,
            span_days: 3.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        let plain = analyze_world(&world, &cfg, 2, None);
        let (reported, report) =
            sleepwatch_obs::RunReport::measure("unit", 2, || analyze_world(&world, &cfg, 2, None));
        assert_eq!(plain.len(), reported.len());
        for (a, b) in plain.reports.iter().zip(&reported.reports) {
            assert_eq!(a.summary.class, b.summary.class);
            assert_eq!(a.summary.total_probes, b.summary.total_probes);
        }
        assert_eq!(report.label, "unit");
        assert_eq!(report.threads, 2);
        assert!(report.wall_seconds >= 0.0);
        if sleepwatch_obs::global_enabled() {
            // The delta covers at least this run (other tests in the
            // binary may add to it concurrently, never subtract).
            assert!(report.snapshot.counter("pipeline.blocks_analyzed") >= 12);
            assert!(report.snapshot.counter("probing.probes_sent") > 0);
        }
    }

    #[test]
    fn fractions_are_consistent() {
        let a = tiny_analysis();
        let (strict, sf) = a.strict_fraction();
        let (diurnal, df) = a.diurnal_fraction();
        assert!(diurnal >= strict);
        assert!(df >= sf);
        let (tp, fp, fneg, tn) = a.confusion_vs_planted();
        assert_eq!(tp + fp + fneg + tn, a.len());
    }

    #[test]
    fn resumable_without_prior_journal_matches_plain_run() {
        // Fresh journal ≡ full replay ≡ plain run, for a materialized
        // world and for the equivalent lazy source.
        fn check(blocks: WorldBlocks<'_>, cfg: &AnalysisConfig, tag: &str) {
            let dir = std::env::temp_dir().join(format!("swworldrun-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("fresh-{tag}.journal"));
            let _ = std::fs::remove_file(&path);
            let plain = analyze_world(blocks, cfg, 2, None);
            let run = WorldRun { threads: 2, journal: Some(&path), ..WorldRun::default() };
            let resumable = run.analyze(blocks, cfg).unwrap();
            assert_eq!(format!("{:?}", plain.reports), format!("{:?}", resumable.reports), "{tag}");
            // And a second pass replays everything from the journal.
            let replayed = run.analyze(blocks, cfg).unwrap();
            assert_eq!(format!("{:?}", plain.reports), format!("{:?}", replayed.reports), "{tag}");
            let _ = std::fs::remove_file(&path);
        }
        let cfg_w = WorldConfig { num_blocks: 20, seed: 11, span_days: 3.0, ..Default::default() };
        let world = World::generate(cfg_w.clone());
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        check((&world).into(), &cfg, "world");
        check((&WorldSource::new(cfg_w)).into(), &cfg, "source");
    }

    #[test]
    fn stats_resumable_matches_fresh_stats() {
        let cfg_w = WorldConfig { num_blocks: 30, seed: 17, span_days: 3.0, ..Default::default() };
        let source = WorldSource::new(cfg_w.clone());
        let cfg = AnalysisConfig::over_days(source.cfg().start_time, 3.0);
        let dir = std::env::temp_dir().join(format!("swstatsres-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.journal");
        let _ = std::fs::remove_file(&path);
        let fresh = WorldRun { threads: 2, ..WorldRun::default() }.stats(&source, &cfg).unwrap();
        let run = WorldRun { threads: 2, journal: Some(&path), ..WorldRun::default() };
        let journaled = run.stats(&source, &cfg).unwrap();
        assert_eq!(fresh, journaled);
        // Second pass: everything replays, nothing is regenerated.
        let replayed = run.stats(&source, &cfg).unwrap();
        assert_eq!(fresh, replayed);
        let _ = std::fs::remove_file(&path);
    }
}
