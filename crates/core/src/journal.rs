//! Checkpoint journal for world runs: a crash-safe, append-only WAL of
//! completed [`WorldBlockReport`]s.
//!
//! The paper's `A12w` collection ran for 35 days and visibly survived
//! prober restarts; a reproduction at that scale needs the same property.
//! A world run with a [`crate::WorldRun::journal`] appends every finished
//! block to a journal file and, on restart, replays it to skip work
//! already done — the resumed run's output is byte-identical to an
//! uninterrupted one.
//!
//! # Formats
//!
//! Two record codecs share one file family (all little-endian, every
//! frame closed by a CRC32 over its body):
//!
//! * **v1** (`SLPWJNL1`): a 48-byte header followed by fixed-width
//!   84-byte records. Read-only: [`replay`] still reads it, and
//!   [`open_resume`] upgrades a v1 journal to v2 before appending.
//!   [`encode_header`] and [`encode_record`] remain as the fixture writer
//!   for read-compatibility tests.
//! * **v2** (`SLPWJNL2`): the shared 64-byte [`crate::framing::Prelude`]
//!   plus an embedded dictionary section (country codes and link-class
//!   keywords, the same tables [`crate::binfmt`] uses), followed by
//!   variable-width records that drop absent fields (phase, location)
//!   instead of zero-filling them — ~30% smaller in practice. Every
//!   journal is written as v2.
//!
//! ```text
//! v1 header  (48 B): magic u64 | world_seed u64 | num_blocks u64 |
//!                    rounds u64 | start_time u64 | crc32 u32 | pad [0u8; 4]
//! v1 record  (84 B): magic u32 | flags u16 | class u8 | region u8 |
//!                    block_id u64 | phase f64 | strongest_cpd f64 |
//!                    mean_a f64 | outages u32 | asn u32 | total_probes u64 |
//!                    lon f64 | lat f64 | country [u8; 2] | alloc_year u16 |
//!                    alloc_month u8 | pad u8 | link_mask u16 | crc32 u32
//! v2 header:         prelude (64 B) | dict_len u32 | dict payload | crc32 u32
//! v2 record (41–67B): flags u8 | class+region u8 | block_id u32 |
//!                    strongest_cpd f64 | mean_a f64 | probes u32 |
//!                    outages u16 | asn u32 | alloc_year u16 | alloc_month u8 |
//!                    link_mask u16 | [phase f64] |
//!                    [lon f64 | lat f64 | country_idx u16] | crc32 u32
//! ```
//!
//! Floats are raw IEEE-754 bit patterns, so replay reproduces every value
//! exactly. Decoding is *total*: any input — truncated, bit-flipped,
//! garbage — yields `None` rather than a panic, and replay keeps only the
//! longest valid prefix, discarding the damaged suffix. Header validation
//! is shared with [`crate::binfmt`] through [`crate::framing`]: foreign
//! identities, byte-swapped files and future versions each surface as one
//! consistent [`DecodeError`] kind. Appends are batched to the OS and
//! `fsync`'d every [`SYNC_EVERY`] records and on [`JournalWriter::sync`],
//! bounding how much work a crash can lose.

use crate::framing::{check_identity, sniff_magic, DecodeError, Prelude, RunIdentity};
use crate::worldrun::WorldBlockReport;
use sleepwatch_geoecon::allocation::YearMonth;
use sleepwatch_geoecon::country::{by_code, COUNTRIES};
use sleepwatch_geoecon::geolocate::Location;
use sleepwatch_geoecon::region::Region;
use sleepwatch_linktype::LinkFeature;
use sleepwatch_spectral::DiurnalClass;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub use crate::framing::crc32;

/// Byte length of the v1 journal header.
pub const HEADER_LEN: usize = 48;
/// Byte length of one v1 block record.
pub const RECORD_LEN: usize = 84;
/// Records between `fsync` calls (a crash loses at most this many
/// appended-but-unsynced records; replay re-analyzes them).
pub const SYNC_EVERY: u32 = 64;
/// Format version newly created journals are written as.
pub const JOURNAL_VERSION: u16 = 2;

const FILE_MAGIC: u64 = 0x534C_5057_4A4E_4C31; // "SLPWJNL1"
const FILE_MAGIC_V2: u64 = 0x534C_5057_4A4E_4C32; // "SLPWJNL2"
/// The journal magic family: everything but the trailing version digit.
const MAGIC_FAMILY: u64 = FILE_MAGIC & MAGIC_FAMILY_MASK;
const MAGIC_FAMILY_MASK: u64 = !0xFF;
/// `kind` byte journals carry in the shared prelude.
const KIND_JOURNAL: u8 = 1;
const REC_MAGIC: u32 = 0x424C_4B52; // "BLKR"

const FLAG_PHASE: u16 = 0x01;
const FLAG_STATIONARY: u16 = 0x02;
const FLAG_LOCATED: u16 = 0x04;
const FLAG_CENTROID: u16 = 0x08;
const FLAG_PLANTED: u16 = 0x10;
const FLAG_REGION: u16 = 0x20;
const FLAG_ALL: u16 = 0x3F;

/// Fixed leading portion of a v2 record, before the optional fields.
const RECORD_V2_FIXED: usize = 37;
/// Smallest possible v2 record (fixed part + CRC).
const RECORD_V2_MIN: usize = RECORD_V2_FIXED + 4;

/// Identity of the run a journal belongs to. Replay refuses to resume
/// from a journal whose header names a different world or analysis
/// configuration — resuming across runs would silently mix datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Seed of the generated world.
    pub world_seed: u64,
    /// Number of blocks in the world.
    pub num_blocks: u64,
    /// Analysis rounds per block.
    pub rounds: u64,
    /// Absolute start time of the observation.
    pub start_time: u64,
}

impl JournalHeader {
    /// The shared-framing view of this header.
    pub fn identity(&self) -> RunIdentity {
        RunIdentity {
            world_seed: self.world_seed,
            num_blocks: self.num_blocks,
            rounds: self.rounds,
            start_time: self.start_time,
        }
    }

    /// Rebuilds a header from its shared-framing view.
    pub fn from_identity(id: &RunIdentity) -> Self {
        JournalHeader {
            world_seed: id.world_seed,
            num_blocks: id.num_blocks,
            rounds: id.rounds,
            start_time: id.start_time,
        }
    }
}

/// Errors from opening or resuming a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The file holds a valid journal for a *different* run.
    HeaderMismatch {
        /// Header the caller's run would write.
        expected: JournalHeader,
        /// Header found in the file.
        found: JournalHeader,
        /// The first field that disagreed, as the shared decode error.
        mismatch: DecodeError,
    },
    /// The file is a journal this build cannot continue: byte-swapped,
    /// a future version, or carrying an incompatible dictionary.
    Incompatible(DecodeError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::HeaderMismatch { expected, found, .. } => write!(
                f,
                "journal belongs to a different run (found {found:?}, expected {expected:?})"
            ),
            JournalError::Incompatible(e) => write!(f, "incompatible journal: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Encodes the v1 header frame. v1 is read-only: this and
/// [`encode_record`] write fixtures for read-compatibility tests, and no
/// journal this crate opens is appended to as v1.
pub fn encode_header(h: &JournalHeader) -> [u8; HEADER_LEN] {
    let mut buf = [0u8; HEADER_LEN];
    buf[0..8].copy_from_slice(&FILE_MAGIC.to_le_bytes());
    buf[8..16].copy_from_slice(&h.world_seed.to_le_bytes());
    buf[16..24].copy_from_slice(&h.num_blocks.to_le_bytes());
    buf[24..32].copy_from_slice(&h.rounds.to_le_bytes());
    buf[32..40].copy_from_slice(&h.start_time.to_le_bytes());
    let crc = crc32(&buf[0..40]);
    buf[40..44].copy_from_slice(&crc.to_le_bytes());
    buf
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Decodes a v1 header frame; `None` on any damage.
pub fn decode_header(bytes: &[u8]) -> Option<JournalHeader> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    if crc32(&bytes[0..40]) != le_u32(&bytes[40..44]) {
        return None;
    }
    if le_u64(&bytes[0..8]) != FILE_MAGIC || bytes[44..48] != [0, 0, 0, 0] {
        return None;
    }
    Some(JournalHeader {
        world_seed: le_u64(&bytes[8..16]),
        num_blocks: le_u64(&bytes[16..24]),
        rounds: le_u64(&bytes[24..32]),
        start_time: le_u64(&bytes[32..40]),
    })
}

/// Encodes one completed block as a v1 record (a test fixture, like
/// [`encode_header`]). Returns `None` for the (defensively handled,
/// practically unreachable) case of a report the fixed-width frame cannot
/// represent faithfully — e.g. a located country code absent from the
/// country table.
pub fn encode_record(r: &WorldBlockReport) -> Option<[u8; RECORD_LEN]> {
    let mut flags = 0u16;
    let mut buf = [0u8; RECORD_LEN];
    buf[0..4].copy_from_slice(&REC_MAGIC.to_le_bytes());
    buf[6] = r.summary.class.code();
    buf[7] = match r.region {
        Some(region) => {
            flags |= FLAG_REGION;
            Region::ALL.iter().position(|&x| x == region)? as u8
        }
        None => 0xFF,
    };
    buf[8..16].copy_from_slice(&r.summary.block_id.to_le_bytes());
    if let Some(phase) = r.summary.phase {
        flags |= FLAG_PHASE;
        buf[16..24].copy_from_slice(&phase.to_bits().to_le_bytes());
    }
    buf[24..32].copy_from_slice(&r.summary.strongest_cpd.to_bits().to_le_bytes());
    buf[32..40].copy_from_slice(&r.summary.mean_a.to_bits().to_le_bytes());
    buf[40..44].copy_from_slice(&r.summary.outages.to_le_bytes());
    buf[44..48].copy_from_slice(&r.asn.to_le_bytes());
    buf[48..56].copy_from_slice(&r.summary.total_probes.to_le_bytes());
    if let Some(loc) = r.location {
        flags |= FLAG_LOCATED;
        if loc.centroid_fallback {
            flags |= FLAG_CENTROID;
        }
        // The country must round-trip through the table so decode can
        // restore the same `&'static str`.
        let code = by_code(loc.country)?.code.as_bytes();
        if code.len() != 2 {
            return None;
        }
        buf[56..64].copy_from_slice(&loc.lon.to_bits().to_le_bytes());
        buf[64..72].copy_from_slice(&loc.lat.to_bits().to_le_bytes());
        buf[72..74].copy_from_slice(code);
    }
    buf[74..76].copy_from_slice(&r.alloc_date.year.to_le_bytes());
    buf[76] = r.alloc_date.month;
    if r.summary.stationary {
        flags |= FLAG_STATIONARY;
    }
    if r.planted_diurnal {
        flags |= FLAG_PLANTED;
    }
    buf[78..80].copy_from_slice(&LinkFeature::mask(&r.link_features).to_le_bytes());
    buf[4..6].copy_from_slice(&flags.to_le_bytes());
    let crc = crc32(&buf[0..80]);
    buf[80..84].copy_from_slice(&crc.to_le_bytes());
    Some(buf)
}

/// Decodes one v1 record frame. Total: `None` on any damage or internal
/// inconsistency, never a panic. Validation order: CRC first (rejects
/// random corruption), then magic, then every field and cross-field
/// consistency rule the encoder guarantees.
pub fn decode_record(bytes: &[u8]) -> Option<WorldBlockReport> {
    if bytes.len() < RECORD_LEN {
        return None;
    }
    let b = &bytes[0..RECORD_LEN];
    if crc32(&b[0..80]) != le_u32(&b[80..84]) {
        return None;
    }
    if le_u32(&b[0..4]) != REC_MAGIC {
        return None;
    }
    let flags = le_u16(&b[4..6]);
    if flags & !FLAG_ALL != 0 || b[77] != 0 {
        return None;
    }
    let class = DiurnalClass::from_code(b[6])?;
    let region = if flags & FLAG_REGION != 0 {
        Some(*Region::ALL.get(b[7] as usize)?)
    } else {
        if b[7] != 0xFF {
            return None;
        }
        None
    };
    let phase = if flags & FLAG_PHASE != 0 {
        Some(f64::from_bits(le_u64(&b[16..24])))
    } else {
        if le_u64(&b[16..24]) != 0 {
            return None;
        }
        None
    };
    let location = if flags & FLAG_LOCATED != 0 {
        let code = std::str::from_utf8(&b[72..74]).ok()?;
        let country = by_code(code)?.code;
        Some(Location {
            lon: f64::from_bits(le_u64(&b[56..64])),
            lat: f64::from_bits(le_u64(&b[64..72])),
            country,
            centroid_fallback: flags & FLAG_CENTROID != 0,
        })
    } else {
        // An unlocated block must have the location fields zeroed (and no
        // centroid flag): anything else is corruption.
        if flags & FLAG_CENTROID != 0
            || le_u64(&b[56..64]) != 0
            || le_u64(&b[64..72]) != 0
            || b[72..74] != [0, 0]
        {
            return None;
        }
        None
    };
    let month = b[76];
    if !(1..=12).contains(&month) {
        return None;
    }
    Some(WorldBlockReport {
        summary: crate::analyze::BlockSummary {
            block_id: le_u64(&b[8..16]),
            class,
            phase,
            strongest_cpd: f64::from_bits(le_u64(&b[24..32])),
            mean_a: f64::from_bits(le_u64(&b[32..40])),
            stationary: flags & FLAG_STATIONARY != 0,
            outages: le_u32(&b[40..44]),
            total_probes: le_u64(&b[48..56]),
        },
        location,
        region,
        alloc_date: YearMonth::new(le_u16(&b[74..76]), month),
        link_features: LinkFeature::from_mask(le_u16(&b[78..80])).collect(),
        asn: le_u32(&b[44..48]),
        planted_diurnal: flags & FLAG_PLANTED != 0,
    })
}

// ---------------------------------------------------------------------------
// v2 codec
// ---------------------------------------------------------------------------

/// The dictionary payload every v2 journal embeds: the country-code table
/// and the link-class keyword table, in their compiled order. Shared with
/// the compact dataset container so both formats resolve indices through
/// the same tables.
fn static_dict_payload() -> Vec<u8> {
    let mut payload = Vec::new();
    crate::framing::put_string_table(&mut payload, COUNTRIES.iter().map(|c| c.code));
    crate::framing::put_string_table(&mut payload, LinkFeature::ALL.iter().map(|f| f.keyword()));
    payload
}

/// Encodes the v2 header: the shared prelude plus the embedded dictionary
/// section.
pub fn encode_header_v2(h: &JournalHeader) -> Vec<u8> {
    let prelude = Prelude {
        magic: FILE_MAGIC_V2,
        version: JOURNAL_VERSION,
        kind: KIND_JOURNAL,
        mode: 0,
        identity: h.identity(),
        // Journals are append-only; their record count is implied by file
        // length, so the prelude's count stays 0.
        record_count: 0,
    };
    let mut out = prelude.encode().to_vec();
    let payload = static_dict_payload();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

/// Parses and fully validates a v2 header, returning the run identity and
/// the header's byte length.
pub fn decode_header_v2(bytes: &[u8]) -> Result<(JournalHeader, usize), DecodeError> {
    let prelude = Prelude::decode(bytes)?;
    prelude.require(FILE_MAGIC_V2, JOURNAL_VERSION, KIND_JOURNAL)?;
    if prelude.mode != 0 {
        return Err(DecodeError::BadMode { found: prelude.mode });
    }
    let rest = &bytes[crate::framing::PRELUDE_LEN..];
    if rest.len() < 4 {
        return Err(DecodeError::DictCorrupt { detail: "dictionary length missing" });
    }
    let len = le_u32(&rest[0..4]) as usize;
    let Some(payload) = rest.get(4..4 + len) else {
        return Err(DecodeError::DictCorrupt { detail: "dictionary truncated" });
    };
    let Some(crc) = rest.get(4 + len..4 + len + 4) else {
        return Err(DecodeError::DictCorrupt { detail: "dictionary checksum missing" });
    };
    if crc32(payload) != le_u32(crc) {
        return Err(DecodeError::DictCorrupt { detail: "dictionary checksum mismatch" });
    }
    if payload != static_dict_payload().as_slice() {
        return Err(DecodeError::DictMismatch { table: "journal" });
    }
    let header_len = crate::framing::PRELUDE_LEN + 4 + len + 4;
    Ok((JournalHeader::from_identity(&prelude.identity), header_len))
}

/// Byte length of the v2 record a report with these optional fields
/// occupies.
fn record_v2_len(has_phase: bool, located: bool) -> usize {
    RECORD_V2_MIN + if has_phase { 8 } else { 0 } + if located { 18 } else { 0 }
}

/// Encodes one completed block as a v2 record. `None` when the report
/// does not fit the frame (block id or probe count beyond 32 bits,
/// outages beyond 16, or a country absent from the table) — such blocks
/// are skipped and re-analyzed on resume.
pub fn encode_record_v2(r: &WorldBlockReport) -> Option<Vec<u8>> {
    let id = u32::try_from(r.summary.block_id).ok()?;
    let probes = u32::try_from(r.summary.total_probes).ok()?;
    let outages = u16::try_from(r.summary.outages).ok()?;
    let mut flags = 0u16;
    let mut cr = r.summary.class.code();
    if let Some(region) = r.region {
        flags |= FLAG_REGION;
        cr |= (Region::ALL.iter().position(|&x| x == region)? as u8) << 2;
    }
    if r.summary.stationary {
        flags |= FLAG_STATIONARY;
    }
    if r.planted_diurnal {
        flags |= FLAG_PLANTED;
    }
    if r.summary.phase.is_some() {
        flags |= FLAG_PHASE;
    }
    let country_idx = match r.location {
        Some(loc) => {
            flags |= FLAG_LOCATED;
            if loc.centroid_fallback {
                flags |= FLAG_CENTROID;
            }
            Some(u16::try_from(COUNTRIES.iter().position(|c| c.code == loc.country)?).ok()?)
        }
        None => None,
    };
    let mut buf =
        Vec::with_capacity(record_v2_len(r.summary.phase.is_some(), r.location.is_some()));
    buf.push(flags as u8);
    buf.push(cr);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&r.summary.strongest_cpd.to_bits().to_le_bytes());
    buf.extend_from_slice(&r.summary.mean_a.to_bits().to_le_bytes());
    buf.extend_from_slice(&probes.to_le_bytes());
    buf.extend_from_slice(&outages.to_le_bytes());
    buf.extend_from_slice(&r.asn.to_le_bytes());
    buf.extend_from_slice(&r.alloc_date.year.to_le_bytes());
    buf.push(r.alloc_date.month);
    buf.extend_from_slice(&LinkFeature::mask(&r.link_features).to_le_bytes());
    debug_assert_eq!(buf.len(), RECORD_V2_FIXED);
    if let Some(phase) = r.summary.phase {
        buf.extend_from_slice(&phase.to_bits().to_le_bytes());
    }
    if let Some(loc) = r.location {
        buf.extend_from_slice(&loc.lon.to_bits().to_le_bytes());
        buf.extend_from_slice(&loc.lat.to_bits().to_le_bytes());
        buf.extend_from_slice(&country_idx.expect("set with location").to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Some(buf)
}

/// Decodes one v2 record from the front of `bytes`, returning the report
/// and the frame's byte length. Total: `None` on any damage, truncation
/// or cross-field inconsistency.
pub fn decode_record_v2(bytes: &[u8]) -> Option<(WorldBlockReport, usize)> {
    if bytes.len() < RECORD_V2_MIN {
        return None;
    }
    let flags = bytes[0] as u16;
    if flags & !FLAG_ALL != 0 {
        return None;
    }
    let len = record_v2_len(flags & FLAG_PHASE != 0, flags & FLAG_LOCATED != 0);
    if bytes.len() < len {
        return None;
    }
    let b = &bytes[..len];
    if crc32(&b[..len - 4]) != le_u32(&b[len - 4..]) {
        return None;
    }
    let cr = b[1];
    if cr >> 6 != 0 {
        return None;
    }
    let class = DiurnalClass::from_code(cr & 0x3)?;
    let region_idx = (cr >> 2) & 0xF;
    let region = if flags & FLAG_REGION != 0 {
        Some(*Region::ALL.get(region_idx as usize)?)
    } else {
        if region_idx != 0 {
            return None;
        }
        None
    };
    if flags & FLAG_CENTROID != 0 && flags & FLAG_LOCATED == 0 {
        return None;
    }
    let month = b[34];
    if !(1..=12).contains(&month) {
        return None;
    }
    let mut at = RECORD_V2_FIXED;
    let phase = if flags & FLAG_PHASE != 0 {
        let v = f64::from_bits(le_u64(&b[at..at + 8]));
        at += 8;
        Some(v)
    } else {
        None
    };
    let location = if flags & FLAG_LOCATED != 0 {
        let lon = f64::from_bits(le_u64(&b[at..at + 8]));
        let lat = f64::from_bits(le_u64(&b[at + 8..at + 16]));
        let idx = le_u16(&b[at + 16..at + 18]) as usize;
        Some(Location {
            lon,
            lat,
            country: COUNTRIES.get(idx)?.code,
            centroid_fallback: flags & FLAG_CENTROID != 0,
        })
    } else {
        None
    };
    let report = WorldBlockReport {
        summary: crate::analyze::BlockSummary {
            block_id: le_u32(&b[2..6]) as u64,
            class,
            phase,
            strongest_cpd: f64::from_bits(le_u64(&b[6..14])),
            mean_a: f64::from_bits(le_u64(&b[14..22])),
            stationary: flags & FLAG_STATIONARY != 0,
            outages: le_u16(&b[26..28]) as u32,
            total_probes: le_u32(&b[22..26]) as u64,
        },
        location,
        region,
        alloc_date: YearMonth::new(le_u16(&b[32..34]), month),
        link_features: LinkFeature::from_mask(le_u16(&b[35..37])).collect(),
        asn: le_u32(&b[28..32]),
        planted_diurnal: flags & FLAG_PLANTED != 0,
    };
    Some((report, len))
}

/// Outcome of replaying a journal file's bytes.
#[derive(Debug)]
pub enum ReplayOutcome {
    /// No usable prefix (damage starting in the header): the journal must
    /// be rewritten from scratch.
    Fresh {
        /// Whole-or-partial record frames dropped with the damage
        /// (counted in minimum-record units for v2, so an upper bound).
        discarded: u64,
    },
    /// A valid prefix was recovered.
    Resumed {
        /// Every block report in the valid prefix, in append order.
        reports: Vec<WorldBlockReport>,
        /// Byte length of the valid prefix (header + intact records);
        /// the file should be truncated here before appending resumes.
        valid_len: u64,
        /// Damaged or partial trailing frames discarded.
        discarded: u64,
    },
    /// The header is intact but names a different run.
    HeaderMismatch {
        /// Header found in the file.
        found: JournalHeader,
    },
}

/// Whether a [`DecodeError`] means "a real file from an incompatible
/// writer" (refuse) rather than "corruption" (heal by rewriting).
fn is_incompatible(e: &DecodeError) -> bool {
    matches!(
        e,
        DecodeError::EndianMismatch
            | DecodeError::UnsupportedVersion { .. }
            | DecodeError::BadKind { .. }
            | DecodeError::BadMode { .. }
            | DecodeError::DictMismatch { .. }
    )
}

/// The record codec a journal's magic selects. Both are read; only v2 is
/// ever written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Codec {
    V1,
    V2,
}

impl Codec {
    /// Sniffs which journal `bytes` hold: the one place the journal
    /// magics are matched. Either magic byte-swapped is `EndianMismatch`,
    /// any other `SLPWJNL<n>` is `UnsupportedVersion`, and anything else
    /// is `BadMagic` (input too short to hold a magic reports `found: 0`).
    fn sniff(bytes: &[u8]) -> Result<Codec, DecodeError> {
        match sniff_magic(bytes).unwrap_or(0) {
            FILE_MAGIC => Ok(Codec::V1),
            FILE_MAGIC_V2 => Ok(Codec::V2),
            m if m == FILE_MAGIC.swap_bytes() || m == FILE_MAGIC_V2.swap_bytes() => {
                Err(DecodeError::EndianMismatch)
            }
            m if m & MAGIC_FAMILY_MASK == MAGIC_FAMILY => {
                let digit = (m & 0xFF) as u8;
                let found =
                    if digit.is_ascii_digit() { (digit - b'0') as u16 } else { digit as u16 };
                Err(DecodeError::UnsupportedVersion { found, supported: JOURNAL_VERSION })
            }
            found => Err(DecodeError::BadMagic { found }),
        }
    }

    /// The unit a damaged suffix is counted in: whole v1 records, or
    /// minimum-size v2 records.
    fn frame_len(self) -> usize {
        match self {
            Codec::V1 => RECORD_LEN,
            Codec::V2 => RECORD_V2_MIN,
        }
    }

    /// Decodes the header into the run identity and the header's byte
    /// length. `Ok(None)` for a damaged header (the journal is rewritten);
    /// `Err` for a header this build must refuse.
    fn header(self, bytes: &[u8]) -> Result<Option<(JournalHeader, usize)>, DecodeError> {
        match self {
            Codec::V1 => Ok(decode_header(bytes).map(|h| (h, HEADER_LEN))),
            Codec::V2 => match decode_header_v2(bytes) {
                Ok(h) => Ok(Some(h)),
                Err(e) if is_incompatible(&e) => Err(e),
                Err(_) => Ok(None),
            },
        }
    }

    /// The intact records after a `header_len`-byte header, each with the
    /// byte offset its frame ends at. Stops at the first damaged frame.
    fn records(
        self,
        bytes: &[u8],
        header_len: usize,
    ) -> impl Iterator<Item = (WorldBlockReport, usize)> + '_ {
        let mut end = header_len;
        std::iter::from_fn(move || {
            let (report, len) = match self {
                Codec::V1 => (decode_record(&bytes[end..])?, RECORD_LEN),
                Codec::V2 => decode_record_v2(&bytes[end..])?,
            };
            end += len;
            Some((report, end))
        })
    }
}

/// Replays journal `bytes` of either version against the run identity
/// `expect`. Total — never panics, whatever the input. Replay stops at the
/// first damaged frame and reports everything before it; the damaged
/// suffix is discarded (counted in whole v1 records or minimum-size v2
/// records, rounded up). A damaged header degrades to
/// [`ReplayOutcome::Fresh`].
///
/// Errors are the files no replay applies to: `BadMagic` when `bytes`
/// hold no journal at all, and — the same [`DecodeError`] kinds the
/// dataset decoder reports — `EndianMismatch` for a byte-swapped journal,
/// `UnsupportedVersion` for a future one, and the prelude or dictionary
/// kinds for a v2 header written by an incompatible build.
pub fn replay(bytes: &[u8], expect: &JournalHeader) -> Result<ReplayOutcome, DecodeError> {
    replay_as(bytes, expect).map(|(_, outcome)| outcome)
}

/// [`replay`], also naming the codec the bytes were read with.
fn replay_as(bytes: &[u8], expect: &JournalHeader) -> Result<(Codec, ReplayOutcome), DecodeError> {
    let codec = Codec::sniff(bytes)?;
    let frames = |len: usize| len.div_ceil(codec.frame_len()) as u64;
    let outcome = match codec.header(bytes)? {
        // Damage inside the header poisons everything after it.
        None => ReplayOutcome::Fresh { discarded: frames(bytes.len()) },
        Some((found, _)) if found != *expect => ReplayOutcome::HeaderMismatch { found },
        Some((_, header_len)) => {
            let mut reports = Vec::new();
            let mut valid_len = header_len;
            for (report, end) in codec.records(bytes, header_len) {
                reports.push(report);
                valid_len = end;
            }
            ReplayOutcome::Resumed {
                reports,
                valid_len: valid_len as u64,
                discarded: frames(bytes.len() - valid_len),
            }
        }
    };
    Ok((codec, outcome))
}

/// Byte offsets of the record boundaries in a journal's valid prefix:
/// element 0 is the end of the header (start of the first record),
/// element `i + 1` the end of record `i`. Empty when the header is
/// unusable. Works for both versions — meant for tools and tests that
/// need to sever or patch a journal at precise frame boundaries without
/// hard-coding a record width.
pub fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let Ok(codec) = Codec::sniff(bytes) else {
        return Vec::new();
    };
    let Ok(Some((_, header_len))) = codec.header(bytes) else {
        return Vec::new();
    };
    std::iter::once(header_len)
        .chain(codec.records(bytes, header_len).map(|(_, end)| end))
        .collect()
}

/// Append handle for a v2 journal file positioned at the end of its valid
/// prefix. Records are `fsync`'d every [`SYNC_EVERY`] appends and on
/// [`sync`](Self::sync).
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    unsynced: u32,
}

impl JournalWriter {
    /// Appends one completed block. Returns `Ok(false)` when the report
    /// cannot be represented in the frame (the block is skipped, not
    /// corrupted — see [`encode_record_v2`]).
    pub fn append(&mut self, report: &WorldBlockReport) -> io::Result<bool> {
        let Some(frame) = encode_record_v2(report) else {
            return Ok(false);
        };
        self.file.write_all(&frame)?;
        self.unsynced += 1;
        if self.unsynced >= SYNC_EVERY {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        sleepwatch_obs::global().resilience.journal_records_written.incr();
        Ok(true)
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.unsynced = 0;
        self.file.sync_data()
    }
}

/// Replay statistics from [`open_resume`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records recovered from the journal.
    pub replayed: u64,
    /// Damaged or partial trailing frames discarded.
    pub discarded: u64,
}

/// Opens (or creates) the journal at `path` for the run identified by
/// `header`: replays any existing contents, truncates away a damaged
/// tail, and returns a writer positioned for appending plus the recovered
/// reports.
///
/// Every journal is appended to as v2. A v1 journal is read-only: its
/// valid prefix is upgraded to v2 in place before the writer is returned
/// (through a `.v2-upgrade` sibling that is renamed over `path`), and the
/// reports and [`ReplayStats`] are the v1 replay's. Fresh journals, and
/// files holding no journal at all, are (re)written as v2. Errors only on
/// IO failure, a well-formed header from a different run, or a file this
/// build must refuse outright (byte-swapped, future version, foreign
/// dictionary) — corruption never errors, it only shrinks the prefix.
pub fn open_resume(
    path: &Path,
    header: &JournalHeader,
) -> Result<(JournalWriter, Vec<WorldBlockReport>, ReplayStats), JournalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let (codec, outcome) = match replay_as(&bytes, header) {
        Ok(replayed) => replayed,
        // Garbage (or a short/empty file): rewrite from scratch.
        Err(DecodeError::BadMagic { .. }) => {
            let discarded = bytes.len().div_ceil(RECORD_V2_MIN) as u64;
            (Codec::V2, ReplayOutcome::Fresh { discarded })
        }
        Err(e) => return Err(JournalError::Incompatible(e)),
    };
    let (reports, valid_len, stats) = match outcome {
        ReplayOutcome::HeaderMismatch { found } => {
            let mismatch = check_identity(&header.identity(), &found.identity())
                .expect_err("mismatching headers must differ in an identity field");
            return Err(JournalError::HeaderMismatch { expected: *header, found, mismatch });
        }
        ReplayOutcome::Fresh { discarded } => {
            (Vec::new(), 0, ReplayStats { replayed: 0, discarded })
        }
        ReplayOutcome::Resumed { reports, valid_len, discarded } => {
            let stats = ReplayStats { replayed: reports.len() as u64, discarded };
            (reports, valid_len, stats)
        }
    };
    let file = if valid_len > 0 && codec == Codec::V1 {
        upgrade_v1(path, header, &reports)?
    } else {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        if valid_len == 0 {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&encode_header_v2(header))?;
        } else {
            file.set_len(valid_len)?;
            file.seek(SeekFrom::Start(valid_len))?;
        }
        file
    };
    file.sync_data()?;
    let obs = sleepwatch_obs::global();
    obs.resilience.journal_records_replayed.add(stats.replayed);
    obs.resilience.journal_records_discarded.add(stats.discarded);
    Ok((JournalWriter { file, unsynced: 0 }, reports, stats))
}

/// The temporary sibling a v1 journal at `path` is upgraded through:
/// `path` with `.v2-upgrade` appended.
fn upgrade_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".v2-upgrade");
    PathBuf::from(tmp)
}

/// Re-encodes a v1 journal's valid prefix — `reports`, in replay order —
/// as v2 and returns the new file, positioned for appending. The bytes go
/// to the [`upgrade_path`] sibling, are synced, and only then renamed
/// over `path`, so a crash leaves either the intact v1 file or the
/// complete v2 one; a temporary left by an earlier crash is overwritten. A report the v2
/// frame cannot hold is left out, as [`JournalWriter::append`] leaves it
/// out, and a later resume re-analyzes it.
fn upgrade_v1(
    path: &Path,
    header: &JournalHeader,
    reports: &[WorldBlockReport],
) -> io::Result<File> {
    let mut bytes = encode_header_v2(header);
    for frame in reports.iter().filter_map(encode_record_v2) {
        bytes.extend_from_slice(&frame);
    }
    let tmp = upgrade_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_data()?;
    std::fs::rename(&tmp, path)?;
    // Make the rename durable too, or a crash could bring back the v1 file
    // and lose every record appended to the new one.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::BlockSummary;

    fn sample_report(id: u64) -> WorldBlockReport {
        WorldBlockReport {
            summary: BlockSummary {
                block_id: id,
                class: DiurnalClass::Strict,
                phase: Some(1.25),
                strongest_cpd: 1.0,
                mean_a: 0.625,
                stationary: true,
                outages: 3,
                total_probes: 4_321,
            },
            location: Some(Location {
                lon: 103.8,
                lat: 1.35,
                country: by_code("SG").unwrap().code,
                centroid_fallback: false,
            }),
            region: Some(Region::ALL[4]),
            alloc_date: YearMonth::new(1998, 7),
            link_features: vec![LinkFeature::ALL[0], LinkFeature::ALL[9]],
            asn: 64_500,
            planted_diurnal: true,
        }
    }

    fn header() -> JournalHeader {
        JournalHeader { world_seed: 21, num_blocks: 60, rounds: 523, start_time: 1_000 }
    }

    fn assert_roundtrip(r: &WorldBlockReport) {
        let frame = encode_record(r).expect("encodable");
        let back = decode_record(&frame).expect("decodable");
        assert_eq!(format!("{r:?}"), format!("{back:?}"));
        // And through the v2 codec.
        let frame = encode_record_v2(r).expect("v2 encodable");
        let (back, len) = decode_record_v2(&frame).expect("v2 decodable");
        assert_eq!(len, frame.len());
        assert_eq!(format!("{r:?}"), format!("{back:?}"));
    }

    #[test]
    fn record_roundtrips_exactly() {
        assert_roundtrip(&sample_report(7));
        // Unlocated, region-less, featureless, phaseless.
        let mut r = sample_report(8);
        r.location = None;
        r.region = None;
        r.summary.phase = None;
        r.link_features.clear();
        r.summary.stationary = false;
        r.planted_diurnal = false;
        assert_roundtrip(&r);
    }

    #[test]
    fn header_roundtrips_and_rejects_damage() {
        let h = header();
        let buf = encode_header(&h);
        assert_eq!(decode_header(&buf), Some(h));
        for i in 0..HEADER_LEN {
            let mut bad = buf;
            bad[i] ^= 0x40;
            assert_eq!(decode_header(&bad), None, "flip at byte {i} undetected");
        }
        assert_eq!(decode_header(&buf[..HEADER_LEN - 1]), None);
    }

    #[test]
    fn header_v2_roundtrips_and_rejects_damage() {
        let h = header();
        let buf = encode_header_v2(&h);
        let (back, len) = decode_header_v2(&buf).expect("own header decodes");
        assert_eq!(back, h);
        assert_eq!(len, buf.len());
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(decode_header_v2(&bad).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn every_single_bit_flip_in_a_record_is_caught() {
        let frame = encode_record(&sample_report(3)).unwrap();
        for bit in 0..RECORD_LEN * 8 {
            let mut bad = frame;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_record(&bad).is_none(), "bit flip {bit} undetected");
        }
    }

    #[test]
    fn every_single_bit_flip_in_a_v2_record_is_caught() {
        let mut minimal = sample_report(9);
        minimal.summary.phase = None;
        minimal.location = None;
        for r in [sample_report(3), minimal] {
            let frame = encode_record_v2(&r).unwrap();
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(decode_record_v2(&bad).is_none(), "bit flip {bit} undetected");
            }
        }
    }

    #[test]
    fn v2_records_are_smaller_than_v1() {
        let full = encode_record_v2(&sample_report(1)).unwrap();
        assert!(full.len() < RECORD_LEN, "full v2 record {} >= v1 {RECORD_LEN}", full.len());
        let mut bare = sample_report(2);
        bare.summary.phase = None;
        bare.location = None;
        assert_eq!(encode_record_v2(&bare).unwrap().len(), RECORD_V2_MIN);
    }

    #[test]
    fn replay_keeps_valid_prefix_and_discards_damaged_tail() {
        let h = header();
        let mut bytes = encode_header(&h).to_vec();
        for id in 0..5 {
            bytes.extend_from_slice(&encode_record(&sample_report(id)).unwrap());
        }
        // Corrupt record 3 and truncate record 4 in half.
        let r3 = HEADER_LEN + 3 * RECORD_LEN;
        bytes[r3 + 10] ^= 0xFF;
        bytes.truncate(HEADER_LEN + 4 * RECORD_LEN + RECORD_LEN / 2);
        match replay(&bytes, &h).expect("v1 journal") {
            ReplayOutcome::Resumed { reports, valid_len, discarded } => {
                assert_eq!(reports.len(), 3);
                assert_eq!(valid_len as usize, HEADER_LEN + 3 * RECORD_LEN);
                assert_eq!(discarded, 2);
            }
            other => panic!("expected resume, got {other:?}"),
        }
    }

    #[test]
    fn replay_v2_keeps_valid_prefix_and_discards_damaged_tail() {
        let h = header();
        let mut bytes = encode_header_v2(&h);
        let rec_len = encode_record_v2(&sample_report(0)).unwrap().len();
        for id in 0..5 {
            bytes.extend_from_slice(&encode_record_v2(&sample_report(id)).unwrap());
        }
        let header_len = bytes.len() - 5 * rec_len;
        // Corrupt record 3 and truncate record 4 in half.
        bytes[header_len + 3 * rec_len + 10] ^= 0xFF;
        bytes.truncate(header_len + 4 * rec_len + rec_len / 2);
        match replay(&bytes, &h).expect("compatible") {
            ReplayOutcome::Resumed { reports, valid_len, .. } => {
                assert_eq!(reports.len(), 3);
                assert_eq!(valid_len as usize, header_len + 3 * rec_len);
            }
            other => panic!("expected resume, got {other:?}"),
        }
        // Boundaries agree with the replay walk.
        let bounds = record_boundaries(&bytes);
        assert_eq!(bounds.len(), 4);
        assert_eq!(bounds[0], header_len);
        assert_eq!(bounds[3], header_len + 3 * rec_len);
    }

    #[test]
    fn replay_flags_foreign_headers() {
        let other = JournalHeader { world_seed: 99, ..header() };
        let bytes = encode_header(&other);
        assert!(matches!(
            replay(&bytes, &header()).expect("v1 journal"),
            ReplayOutcome::HeaderMismatch { found } if found == other
        ));
        let v2 = encode_header_v2(&other);
        assert!(matches!(
            replay(&v2, &header()).expect("compatible"),
            ReplayOutcome::HeaderMismatch { found } if found == other
        ));
    }

    #[test]
    fn replay_tells_garbage_from_a_damaged_journal() {
        assert_eq!(replay(&[], &header()).unwrap_err(), DecodeError::BadMagic { found: 0 });
        let junk = vec![0xA5u8; 200];
        assert!(matches!(replay(&junk, &header()), Err(DecodeError::BadMagic { .. })));
        // A journal magic over a damaged header is a journal to rewrite.
        // Its 208 bytes are discarded in whole v1 records or minimum v2 ones.
        for (magic, discarded) in [(FILE_MAGIC, 3), (FILE_MAGIC_V2, 6)] {
            let mut bytes = magic.to_le_bytes().to_vec();
            bytes.extend_from_slice(&junk);
            match replay(&bytes, &header()) {
                Ok(ReplayOutcome::Fresh { discarded: got }) => assert_eq!(got, discarded),
                other => panic!("expected fresh, got {other:?}"),
            }
        }
    }

    #[test]
    fn open_resume_creates_replays_and_truncates() {
        let dir = std::env::temp_dir().join(format!("swjournal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.journal");
        let _ = std::fs::remove_file(&path);
        let h = header();
        {
            let (mut w, reports, stats) = open_resume(&path, &h).unwrap();
            assert!(reports.is_empty());
            assert_eq!(stats, ReplayStats::default());
            for id in 0..4 {
                assert!(w.append(&sample_report(id)).unwrap());
            }
            w.sync().unwrap();
        }
        // Sever mid-record and resume.
        let full = std::fs::read(&path).unwrap();
        assert_eq!(Codec::sniff(&full), Ok(Codec::V2), "fresh journals are v2");
        let bounds = record_boundaries(&full);
        assert_eq!(bounds.len(), 5, "header + 4 records");
        assert_eq!(*bounds.last().unwrap(), full.len());
        let cut = bounds[3] + (bounds[4] - bounds[3]) / 3;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (_w, reports, stats) = open_resume(&path, &h).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(stats.replayed, 3);
        assert!(stats.discarded >= 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bounds[3] as u64);
        // A different run must refuse the file.
        let foreign = JournalHeader { rounds: 1, ..h };
        assert!(matches!(open_resume(&path, &foreign), Err(JournalError::HeaderMismatch { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_resume_upgrades_v1_to_v2() {
        let dir = std::env::temp_dir().join(format!("swjournal-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let h = header();
        let v1_journal = |reports: &[WorldBlockReport]| {
            let mut bytes = encode_header(&h).to_vec();
            for r in reports {
                bytes.extend_from_slice(&encode_record(r).unwrap());
            }
            bytes
        };
        let v1_replay = |bytes: &[u8]| match replay(bytes, &h).unwrap() {
            ReplayOutcome::Resumed { reports, discarded, .. } => {
                (format!("{reports:?}"), discarded)
            }
            other => panic!("expected resume, got {other:?}"),
        };
        let v1 = v1_journal(&[sample_report(0), sample_report(1), sample_report(2)]);

        // A clean v1 file, beside a stale temporary from a crashed upgrade.
        let path = dir.join("v1.journal");
        std::fs::write(&path, &v1).unwrap();
        std::fs::write(upgrade_path(&path), b"half-written upgrade").unwrap();
        let (mut w, reports, stats) = open_resume(&path, &h).unwrap();
        assert_eq!((format!("{reports:?}"), stats.discarded), v1_replay(&v1));
        assert_eq!(stats.replayed, 3);
        assert!(!upgrade_path(&path).exists(), "the temporary was renamed into place");
        assert!(w.append(&sample_report(3)).unwrap());
        w.sync().unwrap();
        drop(w);
        let upgraded = std::fs::read(&path).unwrap();
        assert_eq!(Codec::sniff(&upgraded), Ok(Codec::V2));
        let bounds = record_boundaries(&upgraded);
        assert_eq!(bounds.len(), 1 + 3 + 1, "header + upgraded + appended records");
        assert_eq!(*bounds.last().unwrap(), upgraded.len());
        let (_w, reports, stats) = open_resume(&path, &h).unwrap();
        assert_eq!(stats, ReplayStats { replayed: 4, discarded: 0 });
        assert_eq!(format!("{:?}", &reports[..3]), v1_replay(&v1).0);

        // A damaged tail: only the valid prefix is upgraded.
        let torn = dir.join("v1-torn.journal");
        let mut damaged = v1.clone();
        damaged[HEADER_LEN + 2 * RECORD_LEN + 10] ^= 0xFF;
        damaged.extend_from_slice(&[0xAB; RECORD_LEN / 2]);
        std::fs::write(&torn, &damaged).unwrap();
        let (_w, reports, stats) = open_resume(&torn, &h).unwrap();
        assert_eq!((format!("{reports:?}"), stats.discarded), v1_replay(&damaged));
        assert_eq!(stats, ReplayStats { replayed: 2, discarded: 2 });
        let upgraded = std::fs::read(&torn).unwrap();
        assert_eq!(Codec::sniff(&upgraded), Ok(Codec::V2));
        assert_eq!(record_boundaries(&upgraded).len(), 1 + 2);
        assert_eq!(*record_boundaries(&upgraded).last().unwrap(), upgraded.len());

        // A report the v2 frame cannot hold is replayed for this run but
        // left out of the upgraded file, so a later resume re-analyzes it.
        let wide = dir.join("v1-wide.journal");
        std::fs::write(&wide, v1_journal(&[sample_report(0), sample_report(1 << 40)])).unwrap();
        let (_w, reports, stats) = open_resume(&wide, &h).unwrap();
        assert_eq!((reports.len(), stats.replayed), (2, 2));
        assert_eq!(reports[1].summary.block_id, 1 << 40);
        let (_w, reports, _) = open_resume(&wide, &h).unwrap();
        assert_eq!(reports.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_resume_refuses_incompatible_files() {
        let dir = std::env::temp_dir().join(format!("swjournal-inc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let h = header();
        // Byte-swapped magic: a big-endian writer.
        let swapped = dir.join("swapped.journal");
        let mut bytes = encode_header(&h).to_vec();
        bytes[0..8].reverse();
        std::fs::write(&swapped, &bytes).unwrap();
        assert!(matches!(
            open_resume(&swapped, &h),
            Err(JournalError::Incompatible(DecodeError::EndianMismatch))
        ));
        // Future version digit in the magic family.
        let future = dir.join("future.journal");
        let magic3 = (FILE_MAGIC & MAGIC_FAMILY_MASK) | b'3' as u64;
        let mut bytes = magic3.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&future, &bytes).unwrap();
        assert!(matches!(
            open_resume(&future, &h),
            Err(JournalError::Incompatible(DecodeError::UnsupportedVersion {
                found: 3,
                supported: JOURNAL_VERSION
            }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
