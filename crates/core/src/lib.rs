//! End-to-end diurnal-network analysis: the pipeline of *"When the Internet
//! Sleeps"* (IMC 2014).
//!
//! * [`analyze`]: per-block pipeline — adaptive probing, §2.1 availability
//!   estimation, §2.2 cleaning + FFT classification + phase, the
//!   stationarity screen, and phase unrolling for the longitude comparison;
//! * [`worldrun`]: the same pipeline over an entire synthetic world, in
//!   parallel, joined with geolocation, reverse-DNS link classes,
//!   allocation dates and country economics;
//! * [`aggregate`]: the paper's evaluation views — country league table,
//!   region table, link-technology fractions, allocation histogram,
//!   phase/longitude analysis, world grids, and the Table 5 ANOVA factors.
//!
//! # Example
//!
//! ```
//! use sleepwatch_core::{analyze_world, AnalysisConfig};
//! use sleepwatch_simnet::{World, WorldConfig};
//!
//! let world = World::generate(WorldConfig { num_blocks: 40, seed: 3, span_days: 3.0, ..Default::default() });
//! let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
//! let analysis = analyze_world(&world, &cfg, 2, None);
//! let (strict, frac) = analysis.strict_fraction();
//! assert!(strict <= analysis.len());
//! assert!((0.0..=1.0).contains(&frac));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod analyze;
pub mod applications;
pub mod binfmt;
pub mod export;
pub mod framing {
    //! Shared binary-framing primitives (re-export of
    //! [`sleepwatch_framing`]).
    //!
    //! The toolbox historically lived here; it moved to its own
    //! bottom-of-stack crate so the probing-layer wire transport can
    //! share the same prelude and [`DecodeError`] taxonomy without a
    //! dependency cycle. Every pre-existing `sleepwatch_core::framing`
    //! path keeps working through this re-export.
    pub use sleepwatch_framing::*;
}
pub mod ingest;
pub mod journal;
pub mod serve;
pub mod streaming;
pub mod timeofday;
pub mod worldrun;

pub use aggregate::{AnovaFactors, CountryStat, OrgStat, AGE_REFERENCE};
pub use analyze::{
    analyze_block, analyze_block_with_scratch, analyze_series, unroll_phase, AnalysisConfig,
    BlockAnalysis, BlockScratch, BlockSummary,
};
pub use applications::{correct_snapshot, estimate_size, SizeEstimate};
pub use binfmt::{
    decode_dataset, decode_prefix, encode_dataset, BinDataset, BinRow, DatasetMode, DatasetStats,
    EncodeError,
};
pub use export::{
    dataset_rows, read_dataset, read_dataset_bin_file, read_dataset_file, write_dataset,
    write_dataset_bin_file, write_dataset_file, write_dataset_rows, DatasetRow, ExportError,
    ParseError,
};
pub use framing::{DecodeError, IdentityField, RunIdentity};
pub use ingest::{
    feed_identity, ingest_direct, ingest_events, ingest_source, ingest_source_resumable,
    ingest_world, ingest_world_resumable, world_feed, IngestConfig, IngestOutcome, IngestStats,
    TransportOutcome,
};
pub use journal::{JournalError, JournalHeader, JournalVersion, ReplayStats};
pub use serve::{
    load_rows, rows_from_dataset_bytes, rows_from_journal_bytes, ConnStats, LoadError, QueryServer,
    ServeConfig, ServeState,
};
pub use streaming::{DetectorSnapshot, OnlineConfig, OnlineDetector};
pub use timeofday::{activity_pattern, peak_local_hour, peak_utc_hour, ActivityPattern};
/// The older name for a lazy-source [`analyze_world`], kept because the
/// `perfbench` benchmark calls it.
pub use worldrun::analyze_world as analyze_world_source;
pub use worldrun::{
    analyze_world, run_identity, BlockOutcome, Quarantine, WorldAnalysis, WorldBlockReport,
    WorldBlocks, WorldRun, WorldRunMode, WorldRunStats,
};
