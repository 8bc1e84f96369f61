//! Disk persistence for the batch [`Engine`](crate::Engine)'s caches.
//!
//! Two append-only, versioned, checksummed stores live in a cache
//! directory:
//!
//! * **`results.smc`** — the content-hash result cache: one record per
//!   solved fingerprint, holding the full [`EngineOutcome`] (mapping,
//!   register allocation, per-II trace, race telemetry). A warm restart
//!   replays these without touching the SAT solver.
//! * **`bounds.smc`** — the proven-II-bound cache: `problem_fingerprint →
//!   proven lower bound` records (`u32::MAX` = unmappable at every II).
//!
//! ## On-disk format
//!
//! Both files share the layout (all integers little-endian):
//!
//! ```text
//! header:  magic "SMCACHE\0" (8) | format version u32 (4) | kind u8 (1) | zero pad (3)
//! record:  payload length u32 (4) | FNV-1a-64 checksum of payload u64 (8) | payload
//! ```
//!
//! Records are appended on every cache miss and the file is rewritten
//! ("compacted") on shutdown, deduplicating superseded records and
//! dropping any corrupt tail. Loading is defensive: a record whose
//! checksum or decoding fails is **skipped with a warning**, and a
//! truncated tail (an interrupted append) ends the scan without error —
//! corruption can cost cache entries but can never poison results or
//! panic the daemon.
//!
//! ## Stats blocks
//!
//! The effort counters inside a result record ([`satmapit_sat::SolverStats`]
//! per attempt, [`RaceStats`] per outcome) are *counted blocks*: `count
//! u8`, then `count` × `u64` in the order of the struct's counter table
//! ([`mod@satmapit_sat::counters`]). A reader that declares `N` counters takes
//! the first `min(count, N)`, leaves the rest at zero and skips any
//! surplus, and the tables are append-only — so a counter can be added
//! without changing how one byte already on disk is read, and without a
//! [`FORMAT_VERSION`] bump.
//!
//! The record payload codec ([`encode_result_record`] /
//! [`decode_result_record`], [`encode_bound_record`] /
//! [`decode_bound_record`]) is exposed for tests and tooling; round-trip
//! fidelity is pinned by proptests in `tests/persist_roundtrip.rs`.

use crate::fingerprint::Fingerprint;
use crate::race::{EngineOutcome, RaceStats};
use satmapit_core::encoder::EncodeStats;
use satmapit_core::{
    AttemptOutcome, IiAttempt, MapFailure, MapOutcome, MappedLoop, Mapping, Placement, TransferKind,
};
use satmapit_sat::Counters;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// File name of the result-cache store inside a cache directory.
pub const RESULTS_FILE: &str = "results.smc";
/// File name of the proven-II-bound store inside a cache directory.
pub const BOUNDS_FILE: &str = "bounds.smc";

/// Magic bytes opening every store file.
pub const MAGIC: [u8; 8] = *b"SMCACHE\0";
/// Current format version. Files whose version is neither this nor a
/// member of [`COMPATIBLE_VERSIONS`] are ignored wholesale (with a
/// warning) rather than misread.
///
/// v2 extended the persisted [`satmapit_sat::SolverStats`] with the
/// clause-arena GC counters; v3 added the portfolio clause-sharing
/// counters to it and to [`RaceStats`]. Older stores are simply
/// re-solved. v4 is the durability overhaul (appender rollback latch,
/// fsync policy, synced compaction, checksum-verified loader resync);
/// the record codec is byte-identical to v3, so v3 stores stay readable.
/// v5 added the cross-backend race counters to [`RaceStats`]; the codec
/// changed, so older stores are re-solved. v6 made the stats blocks
/// counted (see the module docs) — the last bump a counter will ever
/// cause; v5 stores are re-solved.
pub const FORMAT_VERSION: u32 = 6;
/// Prior format versions whose record codec is identical to the current
/// one; loaders accept them and appenders extend them in place. Empty
/// since v6 changed the stats-block codec.
pub const COMPATIBLE_VERSIONS: &[u32] = &[];
const HEADER_LEN: usize = 16;
/// Upper bound on the counter count a stats block may claim. Far above
/// any table in the tree, far below what a flipped bit could promise.
const MAX_COUNTERS: usize = 64;
/// Upper bound on a single record's payload; anything larger is treated
/// as framing corruption (a flipped bit in a length field must not make
/// the loader attempt a gigabyte allocation).
const MAX_RECORD_LEN: u32 = 64 << 20;

/// Which cache a store file holds (byte 12 of the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// The content-hash result cache.
    Results,
    /// The proven-II-bound cache.
    Bounds,
}

impl StoreKind {
    fn code(self) -> u8 {
        match self {
            StoreKind::Results => 1,
            StoreKind::Bounds => 2,
        }
    }

    /// Fault-plane site name for appends to this store.
    fn append_site(self) -> &'static str {
        match self {
            StoreKind::Results => "append.results",
            StoreKind::Bounds => "append.bounds",
        }
    }

    /// Fault-plane site name for the appender's fsync.
    fn sync_site(self) -> &'static str {
        match self {
            StoreKind::Results => "sync.results",
            StoreKind::Bounds => "sync.bounds",
        }
    }

    /// Fault-plane site name for the failed-append rollback truncate.
    fn truncate_site(self) -> &'static str {
        match self {
            StoreKind::Results => "truncate.results",
            StoreKind::Bounds => "truncate.bounds",
        }
    }
}

/// Decoding failures of persisted bytes. All of them are *recoverable*:
/// loaders report the record (or file) and move on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The payload ended before the value it promised.
    Truncated,
    /// An enum tag byte has no corresponding variant.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The unrecognized tag.
        tag: u8,
    },
    /// The file does not open with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion(u32),
    /// The file's kind byte does not match the expected store.
    BadKind(u8),
    /// A stored string is not valid UTF-8.
    BadString,
    /// A stored integer does not fit the target type.
    BadValue(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "record truncated"),
            PersistError::BadTag { what, tag } => write!(f, "unknown tag {tag} for {what}"),
            PersistError::BadMagic => write!(f, "not a SAT-MapIt cache file (bad magic)"),
            PersistError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported cache format version {v} (want {FORMAT_VERSION})"
                )
            }
            PersistError::BadKind(k) => write!(f, "wrong store kind byte {k}"),
            PersistError::BadString => write!(f, "stored string is not UTF-8"),
            PersistError::BadValue(what) => write!(f, "stored {what} out of range"),
        }
    }
}

impl std::error::Error for PersistError {}

/// 64-bit FNV-1a over `bytes` — the record checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Byte-level reader/writer
// ---------------------------------------------------------------------------

/// Little-endian byte sink for record payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The accumulated payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn duration(&mut self, d: Duration) {
        self.u64(d.as_secs());
        self.u32(d.subsec_nanos());
    }
}

/// Little-endian cursor over a record payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    /// `true` once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.data.len() {
            return Err(PersistError::Truncated);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(PersistError::BadTag { what: "bool", tag }),
        }
    }
    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, PersistError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| PersistError::BadValue("usize"))
    }
    fn str(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::BadString)
    }
    fn duration(&mut self) -> Result<Duration, PersistError> {
        let secs = self.u64()?;
        let nanos = self.u32()?;
        if nanos >= 1_000_000_000 {
            return Err(PersistError::BadValue("duration nanos"));
        }
        Ok(Duration::new(secs, nanos))
    }
    fn len_capped(&mut self, what: &'static str) -> Result<usize, PersistError> {
        let len = self.usize()?;
        // A length prefix can never promise more elements than bytes left;
        // rejecting early keeps a flipped length bit from allocating wild.
        if len > self.data.len().saturating_sub(self.pos) {
            return Err(PersistError::BadValue(what));
        }
        Ok(len)
    }
}

// ---------------------------------------------------------------------------
// Domain codecs
// ---------------------------------------------------------------------------

fn write_encode_stats(w: &mut ByteWriter, s: &EncodeStats) {
    w.usize(s.placement_vars);
    w.usize(s.total_vars);
    w.usize(s.clauses);
    w.usize(s.c1_clauses);
    w.usize(s.c2_clauses);
    w.usize(s.c3_compat_clauses);
    w.usize(s.c3_guard_clauses);
    w.usize(s.occupancy_vars);
    w.usize(s.pressure_vars);
    w.usize(s.pressure_clauses);
}

fn read_encode_stats(r: &mut ByteReader<'_>) -> Result<EncodeStats, PersistError> {
    Ok(EncodeStats {
        placement_vars: r.usize()?,
        total_vars: r.usize()?,
        clauses: r.usize()?,
        c1_clauses: r.usize()?,
        c2_clauses: r.usize()?,
        c3_compat_clauses: r.usize()?,
        c3_guard_clauses: r.usize()?,
        occupancy_vars: r.usize()?,
        pressure_vars: r.usize()?,
        pressure_clauses: r.usize()?,
    })
}

/// Writes the counters of `stats` as a counted block (see the module
/// docs).
fn write_counters<C: Counters>(w: &mut ByteWriter, stats: &C) {
    const { assert!(C::TABLE.len() <= MAX_COUNTERS) };
    w.u8(C::TABLE.len() as u8);
    for value in stats.values() {
        w.u64(value);
    }
}

/// Reads a counted block straight into the counters of `stats`: slots
/// the block does not reach keep their value, surplus values are skipped.
fn read_counters<C: Counters>(r: &mut ByteReader<'_>, stats: &mut C) -> Result<(), PersistError> {
    let count = usize::from(r.u8()?);
    if count > MAX_COUNTERS {
        return Err(PersistError::BadValue("counter count"));
    }
    let mut slots = stats.slots();
    for _ in 0..count {
        let value = r.u64()?;
        if let Some(slot) = slots.next() {
            *slot = value;
        }
    }
    Ok(())
}

fn write_stop_reason(w: &mut ByteWriter, reason: satmapit_sat::StopReason) {
    use satmapit_sat::StopReason;
    w.u8(match reason {
        StopReason::ConflictLimit => 0,
        StopReason::Timeout => 1,
        StopReason::Cancelled => 2,
    });
}

fn read_stop_reason(r: &mut ByteReader<'_>) -> Result<satmapit_sat::StopReason, PersistError> {
    use satmapit_sat::StopReason;
    match r.u8()? {
        0 => Ok(StopReason::ConflictLimit),
        1 => Ok(StopReason::Timeout),
        2 => Ok(StopReason::Cancelled),
        tag => Err(PersistError::BadTag {
            what: "StopReason",
            tag,
        }),
    }
}

fn write_pe_alloc_failure(w: &mut ByteWriter, f: satmapit_regalloc::PeAllocFailure) {
    use satmapit_regalloc::PeAllocFailure;
    match f {
        PeAllocFailure::Infeasible => w.u8(0),
        PeAllocFailure::BudgetExhausted => w.u8(1),
        PeAllocFailure::IllegalSpan { id } => {
            w.u8(2);
            w.u32(id);
        }
    }
}

fn read_pe_alloc_failure(
    r: &mut ByteReader<'_>,
) -> Result<satmapit_regalloc::PeAllocFailure, PersistError> {
    use satmapit_regalloc::PeAllocFailure;
    match r.u8()? {
        0 => Ok(PeAllocFailure::Infeasible),
        1 => Ok(PeAllocFailure::BudgetExhausted),
        2 => Ok(PeAllocFailure::IllegalSpan { id: r.u32()? }),
        tag => Err(PersistError::BadTag {
            what: "PeAllocFailure",
            tag,
        }),
    }
}

fn write_attempt_outcome(w: &mut ByteWriter, outcome: &AttemptOutcome) {
    match outcome {
        AttemptOutcome::Mapped => w.u8(0),
        AttemptOutcome::RegAllocFailed(e) => {
            w.u8(1);
            w.usize(e.pe);
            write_pe_alloc_failure(w, e.failure);
        }
        AttemptOutcome::Unsat => w.u8(2),
        AttemptOutcome::SolverBudget(reason) => {
            w.u8(3);
            write_stop_reason(w, *reason);
        }
    }
}

fn read_attempt_outcome(r: &mut ByteReader<'_>) -> Result<AttemptOutcome, PersistError> {
    match r.u8()? {
        0 => Ok(AttemptOutcome::Mapped),
        1 => Ok(AttemptOutcome::RegAllocFailed(
            satmapit_regalloc::RegAllocError {
                pe: r.usize()?,
                failure: read_pe_alloc_failure(r)?,
            },
        )),
        2 => Ok(AttemptOutcome::Unsat),
        3 => Ok(AttemptOutcome::SolverBudget(read_stop_reason(r)?)),
        tag => Err(PersistError::BadTag {
            what: "AttemptOutcome",
            tag,
        }),
    }
}

fn write_attempt(w: &mut ByteWriter, a: &IiAttempt) {
    w.u32(a.ii);
    write_encode_stats(w, &a.encode_stats);
    write_attempt_outcome(w, &a.outcome);
    match &a.solver_stats {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            write_counters(w, s);
        }
    }
    w.u32(a.ra_cuts);
    w.duration(a.elapsed);
}

fn read_attempt(r: &mut ByteReader<'_>) -> Result<IiAttempt, PersistError> {
    Ok(IiAttempt {
        ii: r.u32()?,
        encode_stats: read_encode_stats(r)?,
        outcome: read_attempt_outcome(r)?,
        solver_stats: match r.u8()? {
            0 => None,
            1 => {
                let mut stats = satmapit_sat::SolverStats::default();
                read_counters(r, &mut stats)?;
                Some(stats)
            }
            tag => {
                return Err(PersistError::BadTag {
                    what: "Option<SolverStats>",
                    tag,
                })
            }
        },
        ra_cuts: r.u32()?,
        elapsed: r.duration()?,
    })
}

fn write_mapping(w: &mut ByteWriter, m: &Mapping) {
    w.u32(m.ii);
    w.u32(m.folds);
    w.usize(m.placements.len());
    for p in &m.placements {
        w.u16(p.pe.0);
        w.u32(p.cycle);
        w.u32(p.fold);
    }
    w.usize(m.transfers.len());
    for t in &m.transfers {
        w.u8(match t {
            TransferKind::SamePeRegister => 0,
            TransferKind::NeighborOutput => 1,
        });
    }
}

fn read_mapping(r: &mut ByteReader<'_>) -> Result<Mapping, PersistError> {
    let ii = r.u32()?;
    let folds = r.u32()?;
    let n = r.len_capped("placement count")?;
    let mut placements = Vec::with_capacity(n);
    for _ in 0..n {
        placements.push(Placement {
            pe: satmapit_cgra::PeId(r.u16()?),
            cycle: r.u32()?,
            fold: r.u32()?,
        });
    }
    let n = r.len_capped("transfer count")?;
    let mut transfers = Vec::with_capacity(n);
    for _ in 0..n {
        transfers.push(match r.u8()? {
            0 => TransferKind::SamePeRegister,
            1 => TransferKind::NeighborOutput,
            tag => {
                return Err(PersistError::BadTag {
                    what: "TransferKind",
                    tag,
                })
            }
        });
    }
    Ok(Mapping {
        ii,
        folds,
        placements,
        transfers,
    })
}

fn write_mapped_loop(w: &mut ByteWriter, m: &MappedLoop) {
    write_mapping(w, &m.mapping);
    let per_pe = m.registers.per_pe();
    w.usize(per_pe.len());
    for pe in per_pe {
        w.usize(pe.len());
        for &(value, reg) in pe {
            w.u32(value);
            w.u8(reg);
        }
    }
    w.u32(m.mii);
}

fn read_mapped_loop(r: &mut ByteReader<'_>) -> Result<MappedLoop, PersistError> {
    let mapping = read_mapping(r)?;
    let num_pes = r.len_capped("register PE count")?;
    let mut per_pe = Vec::with_capacity(num_pes);
    for _ in 0..num_pes {
        let n = r.len_capped("register value count")?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push((r.u32()?, r.u8()?));
        }
        per_pe.push(values);
    }
    Ok(MappedLoop {
        mapping,
        registers: satmapit_regalloc::RegAllocation::from_per_pe(per_pe),
        mii: r.u32()?,
    })
}

fn write_map_failure(w: &mut ByteWriter, e: &MapFailure) {
    use satmapit_dfg::DfgError;
    match e {
        MapFailure::InvalidDfg(d) => {
            w.u8(0);
            match d {
                DfgError::Empty => w.u8(0),
                DfgError::DanglingEdge(e) => {
                    w.u8(1);
                    w.u32(e.0);
                }
                DfgError::SourceHasNoOutput(e) => {
                    w.u8(2);
                    w.u32(e.0);
                }
                DfgError::OperandOutOfRange(e) => {
                    w.u8(3);
                    w.u32(e.0);
                }
                DfgError::MissingOperand { node, slot } => {
                    w.u8(4);
                    w.u32(node.0);
                    w.usize(*slot);
                }
                DfgError::DuplicateOperand { node, slot } => {
                    w.u8(5);
                    w.u32(node.0);
                    w.usize(*slot);
                }
                DfgError::ForwardCycle => w.u8(6),
            }
        }
        MapFailure::Structural(s) => {
            use satmapit_core::encoder::EncodeError;
            w.u8(1);
            match s {
                EncodeError::NoPeForOp { node } => {
                    w.u8(0);
                    w.u32(node.0);
                }
                EncodeError::SelfEdgeDistance { edge } => {
                    w.u8(1);
                    w.u32(edge.0);
                }
            }
        }
        MapFailure::Timeout { at_ii } => {
            w.u8(2);
            w.u32(*at_ii);
        }
        MapFailure::IiCapReached { cap } => {
            w.u8(3);
            w.u32(*cap);
        }
        MapFailure::InvalidIi { ii, max_ii } => {
            w.u8(4);
            w.u32(*ii);
            w.u32(*max_ii);
        }
        MapFailure::Internal(msg) => {
            w.u8(5);
            w.str(msg);
        }
    }
}

fn read_map_failure(r: &mut ByteReader<'_>) -> Result<MapFailure, PersistError> {
    use satmapit_core::encoder::EncodeError;
    use satmapit_dfg::{DfgError, EdgeId, NodeId};
    match r.u8()? {
        0 => Ok(MapFailure::InvalidDfg(match r.u8()? {
            0 => DfgError::Empty,
            1 => DfgError::DanglingEdge(EdgeId(r.u32()?)),
            2 => DfgError::SourceHasNoOutput(EdgeId(r.u32()?)),
            3 => DfgError::OperandOutOfRange(EdgeId(r.u32()?)),
            4 => DfgError::MissingOperand {
                node: NodeId(r.u32()?),
                slot: r.usize()?,
            },
            5 => DfgError::DuplicateOperand {
                node: NodeId(r.u32()?),
                slot: r.usize()?,
            },
            6 => DfgError::ForwardCycle,
            tag => {
                return Err(PersistError::BadTag {
                    what: "DfgError",
                    tag,
                })
            }
        })),
        1 => Ok(MapFailure::Structural(match r.u8()? {
            0 => EncodeError::NoPeForOp {
                node: NodeId(r.u32()?),
            },
            1 => EncodeError::SelfEdgeDistance {
                edge: EdgeId(r.u32()?),
            },
            tag => {
                return Err(PersistError::BadTag {
                    what: "EncodeError",
                    tag,
                })
            }
        })),
        2 => Ok(MapFailure::Timeout { at_ii: r.u32()? }),
        3 => Ok(MapFailure::IiCapReached { cap: r.u32()? }),
        4 => Ok(MapFailure::InvalidIi {
            ii: r.u32()?,
            max_ii: r.u32()?,
        }),
        5 => Ok(MapFailure::Internal(r.str()?)),
        tag => Err(PersistError::BadTag {
            what: "MapFailure",
            tag,
        }),
    }
}

/// Serializes a full engine outcome (result, per-II trace, race stats).
pub fn write_outcome(w: &mut ByteWriter, outcome: &EngineOutcome) {
    match &outcome.outcome.result {
        Ok(mapped) => {
            w.u8(1);
            write_mapped_loop(w, mapped);
        }
        Err(e) => {
            w.u8(0);
            write_map_failure(w, e);
        }
    }
    w.usize(outcome.outcome.attempts.len());
    for a in &outcome.outcome.attempts {
        write_attempt(w, a);
    }
    w.duration(outcome.outcome.elapsed);
    w.usize(outcome.stats.workers);
    w.u32(outcome.stats.race_start);
    write_counters(w, &outcome.stats);
    w.bool(outcome.proven_unmappable);
}

/// Deserializes an engine outcome written by [`write_outcome`].
pub fn read_outcome(r: &mut ByteReader<'_>) -> Result<EngineOutcome, PersistError> {
    let result = match r.u8()? {
        1 => Ok(read_mapped_loop(r)?),
        0 => Err(read_map_failure(r)?),
        tag => {
            return Err(PersistError::BadTag {
                what: "Result<MappedLoop, MapFailure>",
                tag,
            })
        }
    };
    let n = r.len_capped("attempt count")?;
    let mut attempts = Vec::with_capacity(n);
    for _ in 0..n {
        attempts.push(read_attempt(r)?);
    }
    let elapsed = r.duration()?;
    let mut stats = RaceStats {
        workers: r.usize()?,
        race_start: r.u32()?,
        ..RaceStats::default()
    };
    read_counters(r, &mut stats)?;
    let proven_unmappable = r.bool()?;
    Ok(EngineOutcome {
        outcome: MapOutcome {
            result,
            attempts,
            elapsed,
        },
        stats,
        proven_unmappable,
    })
}

/// Encodes one result-cache record: `fingerprint → outcome`.
pub fn encode_result_record(key: Fingerprint, outcome: &EngineOutcome) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u128(key.0);
    write_outcome(&mut w, outcome);
    w.into_bytes()
}

/// Decodes a record written by [`encode_result_record`]. Trailing bytes
/// are rejected — a record must parse exactly.
pub fn decode_result_record(bytes: &[u8]) -> Result<(Fingerprint, EngineOutcome), PersistError> {
    let mut r = ByteReader::new(bytes);
    let key = Fingerprint(r.u128()?);
    let outcome = read_outcome(&mut r)?;
    if !r.is_empty() {
        return Err(PersistError::BadValue("trailing bytes"));
    }
    Ok((key, outcome))
}

/// Encodes one bound-cache record: `problem fingerprint → proven bound`.
pub fn encode_bound_record(key: Fingerprint, bound: u32) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u128(key.0);
    w.u32(bound);
    w.into_bytes()
}

/// Decodes a record written by [`encode_bound_record`].
pub fn decode_bound_record(bytes: &[u8]) -> Result<(Fingerprint, u32), PersistError> {
    let mut r = ByteReader::new(bytes);
    let key = Fingerprint(r.u128()?);
    let bound = r.u32()?;
    if !r.is_empty() {
        return Err(PersistError::BadValue("trailing bytes"));
    }
    Ok((key, bound))
}

// ---------------------------------------------------------------------------
// File store
// ---------------------------------------------------------------------------

fn header_bytes(kind: StoreKind) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12] = kind.code();
    h
}

fn check_header(bytes: &[u8], kind: StoreKind) -> Result<(), PersistError> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION && !COMPATIBLE_VERSIONS.contains(&version) {
        return Err(PersistError::BadVersion(version));
    }
    if bytes[12] != kind.code() {
        return Err(PersistError::BadKind(bytes[12]));
    }
    Ok(())
}

/// Reads every intact record payload of a store file.
///
/// Returns the payloads plus human-readable warnings for everything that
/// had to be skipped. A missing file is simply empty. The scan trusts
/// nothing but checksums: when a frame fails to validate — a torn
/// append, a corrupted length prefix, a flipped payload bit — the
/// loader searches forward for the next offset holding a
/// checksum-verified frame and resumes there, so damage is always
/// bounded to the damaged bytes and records appended *after* a tear are
/// still recovered. Only a tail with no verified frame anywhere in it
/// is dropped.
pub fn read_records(path: &Path, kind: StoreKind) -> io::Result<(Vec<Vec<u8>>, Vec<String>)> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), Vec::new())),
        Err(e) => return Err(e),
    }
    let mut warnings = Vec::new();
    if let Err(e) = check_header(&bytes, kind) {
        warnings.push(format!("{}: ignoring cache file: {e}", path.display()));
        return Ok((Vec::new(), warnings));
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let mut index = 0usize;
    while pos < bytes.len() {
        if bytes.len() - pos < 12 {
            warnings.push(format!(
                "{}: truncated record header at offset {pos} (interrupted append?); \
                 dropping tail",
                path.display()
            ));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let body = pos + 12;
        if len > MAX_RECORD_LEN || bytes.len() - body < len as usize {
            // Implausible framing: a torn append's length prefix promises
            // bytes that never landed. Records appended after the tear
            // (by a process that failed to roll the tear back) are still
            // intact — find the next frame whose checksum proves it real.
            match scan_for_record(&bytes, pos + 1) {
                Some(next) => {
                    warnings.push(format!(
                        "{}: record {index} at offset {pos} claims {len} bytes (torn \
                         append?); resynced at the next verified record, offset {next}",
                        path.display()
                    ));
                    pos = next;
                    index += 1;
                    continue;
                }
                None => {
                    warnings.push(format!(
                        "{}: record {index} at offset {pos} claims {len} bytes but only {} \
                         remain and no later record verifies; dropping tail",
                        path.display(),
                        bytes.len() - body
                    ));
                    break;
                }
            }
        }
        let payload = &bytes[body..body + len as usize];
        if checksum(payload) != sum {
            // The checksum only covers the payload the *length prefix*
            // framed — if the corruption hit the length itself, advancing
            // by it would desynchronize the scan and silently mis-skip
            // every following valid record. Advance by the prefix only
            // when the frame it implies next *verifies* (or the file ends
            // cleanly there); otherwise fall back to scanning for a
            // verified frame anywhere in the tail.
            let next = body + len as usize;
            if next == bytes.len() || verified_at(&bytes, next) {
                warnings.push(format!(
                    "{}: record {index} at offset {pos} fails its checksum; skipped",
                    path.display()
                ));
                pos = next;
                index += 1;
                continue;
            }
            match scan_for_record(&bytes, pos + 1) {
                Some(next) => {
                    warnings.push(format!(
                        "{}: record {index} at offset {pos} fails its checksum and its \
                         length prefix is untrustworthy; resynced at the next verified \
                         record, offset {next}",
                        path.display()
                    ));
                    pos = next;
                    index += 1;
                    continue;
                }
                None => {
                    warnings.push(format!(
                        "{}: record {index} at offset {pos} fails its checksum and no \
                         later record verifies; dropping tail",
                        path.display()
                    ));
                    break;
                }
            }
        }
        records.push(payload.to_vec());
        pos = body + len as usize;
        index += 1;
    }
    Ok((records, warnings))
}

/// `true` when a full record frame at `pos` parses *and* its payload
/// checksum validates — strong evidence (2⁻⁶⁴ false-positive odds) of a
/// real record boundary. This is what lets the loader resynchronize
/// after torn or corrupt bytes without ever trusting damaged framing.
fn verified_at(bytes: &[u8], pos: usize) -> bool {
    if pos > bytes.len() || bytes.len() - pos < 12 {
        return false;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
    let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
    let body = pos + 12;
    if len > MAX_RECORD_LEN || bytes.len() - body < len as usize {
        return false;
    }
    checksum(&bytes[body..body + len as usize]) == sum
}

/// The first offset ≥ `from` holding a checksum-verified record frame.
/// Candidate offsets whose length field is implausible are rejected
/// before any checksum work, so the scan is cheap on random garbage.
fn scan_for_record(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len()).find(|&pos| verified_at(bytes, pos))
}

/// Appends framed records to a store file, creating it (with a header)
/// when absent or empty.
///
/// The appender carries a **failure latch**: it tracks the end offset of
/// the last fully written record, and any failed append (`ENOSPC`, a
/// partial `write_all`, an injected fault) rolls the file back to that
/// offset so torn bytes can never sit between records and desync the
/// loader. If the rollback itself fails the appender **seals** — every
/// later append is refused — because continuing to append after
/// unremovable torn bytes would strand each new record behind garbage.
#[derive(Debug)]
pub struct Appender {
    file: File,
    path: PathBuf,
    kind: StoreKind,
    /// End offset of the last fully written record (or the header);
    /// the rollback target for a failed append.
    committed: u64,
    /// Successful appends since the last [`Appender::sync`] — the
    /// fsync-cadence state [`crate::DurabilityPolicy::fsync_every`]
    /// compares against.
    unsynced: u64,
    /// Set when a failed append could not be rolled back; permanent.
    sealed: bool,
}

impl Appender {
    /// Opens `path` for appending, writing the header first if the file is
    /// new or empty. A non-empty file whose header does not validate is
    /// **truncated** and re-headered: its records were unreachable anyway
    /// (loaders ignore the whole file), and appending after a bad header
    /// would make every record written this run equally unreadable — the
    /// cache regrows, silent ongoing data loss does not.
    pub fn open(path: &Path, kind: StoreKind) -> io::Result<Appender> {
        let valid_nonempty = match File::open(path) {
            Ok(mut f) => {
                let mut header = [0u8; HEADER_LEN];
                match f.read_exact(&mut header) {
                    Ok(()) => check_header(&header, kind).is_ok(),
                    Err(_) => false, // shorter than a header: rewrite
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        let file = if valid_nonempty {
            OpenOptions::new().append(true).open(path)?
        } else {
            let mut fresh = File::create(path)?; // truncates
            fresh.write_all(&header_bytes(kind))?;
            fresh.flush()?;
            drop(fresh);
            OpenOptions::new().append(true).open(path)?
        };
        let committed = file.metadata()?.len();
        Ok(Appender {
            file,
            path: path.to_path_buf(),
            kind,
            committed,
            unsynced: 0,
            sealed: false,
        })
    }

    /// The file this appender writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Successful appends since the last [`Appender::sync`].
    pub fn unsynced(&self) -> u64 {
        self.unsynced
    }

    /// `true` once a failed append could not be rolled back and the
    /// appender refused all further writes (see the type docs).
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// Appends one framed, checksummed record and flushes it. On any
    /// write failure the file is truncated back to the pre-write offset
    /// (the failure latch); if that truncation fails too, the appender
    /// seals itself permanently.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.sealed {
            return Err(io::Error::other(
                "appender sealed: an earlier failed append could not be rolled back",
            ));
        }
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        // One write_all per record keeps concurrent appends (behind the
        // engine's mutex) and crashes from interleaving frames.
        let written = satmapit_faults::write_all(self.kind.append_site(), &mut self.file, &frame)
            .and_then(|()| self.file.flush());
        match written {
            Ok(()) => {
                self.committed += frame.len() as u64;
                self.unsynced += 1;
                Ok(())
            }
            Err(e) => {
                // A partial write_all left torn bytes after `committed`;
                // without this rollback every later record would sit
                // behind garbage the loader has to fight past.
                let rollback = satmapit_faults::check(self.kind.truncate_site())
                    .and_then(|()| self.file.set_len(self.committed));
                if rollback.is_err() {
                    self.sealed = true;
                }
                Err(e)
            }
        }
    }

    /// Makes every appended record durable (`fsync`) and resets the
    /// [`Appender::unsynced`] cadence counter.
    pub fn sync(&mut self) -> io::Result<()> {
        satmapit_faults::check(self.kind.sync_site())?;
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }
}

/// Atomically rewrites a store file from in-memory payloads: write to a
/// sibling temp file, then rename over the original. Deduplicates nothing
/// itself — callers pass the already-deduplicated live set.
///
/// With `sync` set the rewrite is crash-durable, not merely atomic: the
/// temp file is `sync_all`ed *before* the rename (so the rename can
/// never publish a name whose bytes are still in the page cache) and
/// the parent directory is fsynced *after* it (so a crash cannot
/// resurrect the pre-compaction file). A temp file stranded by a crash
/// between create and rename is swept by [`clean_stale_tmp`] on the
/// next load.
pub fn rewrite(path: &Path, kind: StoreKind, payloads: &[Vec<u8>], sync: bool) -> io::Result<()> {
    let tmp = path.with_extension("smc.tmp");
    {
        let mut file = File::create(&tmp)?;
        satmapit_faults::write_all("compact.write", &mut file, &header_bytes(kind))?;
        for payload in payloads {
            let mut frame = Vec::with_capacity(12 + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&checksum(payload).to_le_bytes());
            frame.extend_from_slice(payload);
            satmapit_faults::write_all("compact.write", &mut file, &frame)?;
        }
        file.flush()?;
        if sync {
            satmapit_faults::check("compact.sync")?;
            file.sync_all()?;
        }
    }
    satmapit_faults::check("compact.rename")?;
    std::fs::rename(&tmp, path)?;
    if sync {
        satmapit_faults::check("compact.dirsync")?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                File::open(parent)?.sync_all()?;
            }
        }
    }
    Ok(())
}

/// Removes stray `*.smc.tmp` files left behind by a compaction that
/// crashed between writing its temp file and renaming it into place.
/// Returns one warning line per file swept (or per sweep failure); the
/// engine surfaces them through `load_warnings`.
pub fn clean_stale_tmp(dir: &Path) -> io::Result<Vec<String>> {
    let mut warnings = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.ends_with(".smc.tmp") {
            continue;
        }
        let path = entry.path();
        match std::fs::remove_file(&path) {
            Ok(()) => warnings.push(format!(
                "{}: removed stale temp file from an interrupted compaction",
                path.display()
            )),
            Err(e) => warnings.push(format!(
                "{}: could not remove stale temp file: {e}",
                path.display()
            )),
        }
    }
    Ok(warnings)
}

/// A loaded result cache: fingerprint-keyed shared outcomes.
pub type ResultMap = HashMap<Fingerprint, Arc<EngineOutcome>>;

/// Loads the result cache from `dir`. Duplicate keys keep the first
/// (oldest) record, matching the in-memory cache's first-insert-wins.
pub fn load_results(dir: &Path) -> io::Result<(ResultMap, Vec<String>)> {
    let path = dir.join(RESULTS_FILE);
    let (records, mut warnings) = read_records(&path, StoreKind::Results)?;
    let mut map = HashMap::with_capacity(records.len());
    for (index, payload) in records.iter().enumerate() {
        match decode_result_record(payload) {
            Ok((key, outcome)) => {
                map.entry(key).or_insert_with(|| Arc::new(outcome));
            }
            Err(e) => warnings.push(format!(
                "{}: record {index} does not decode ({e}); skipped",
                path.display()
            )),
        }
    }
    Ok((map, warnings))
}

/// Loads the proven-II-bound cache from `dir`; duplicate keys keep the
/// strongest (largest) bound, mirroring the in-memory merge.
pub fn load_bounds(dir: &Path) -> io::Result<(HashMap<Fingerprint, u32>, Vec<String>)> {
    let path = dir.join(BOUNDS_FILE);
    let (records, mut warnings) = read_records(&path, StoreKind::Bounds)?;
    let mut map = HashMap::with_capacity(records.len());
    for (index, payload) in records.iter().enumerate() {
        match decode_bound_record(payload) {
            Ok((key, bound)) => {
                let entry = map.entry(key).or_insert(bound);
                *entry = (*entry).max(bound);
            }
            Err(e) => warnings.push(format!(
                "{}: record {index} does not decode ({e}); skipped",
                path.display()
            )),
        }
    }
    Ok((map, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_input_sensitive() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
    }

    #[test]
    fn bound_record_round_trips() {
        let key = Fingerprint(0xDEAD_BEEF_0123_4567_89AB_CDEF_0000_FFFF);
        for bound in [0, 3, u32::MAX] {
            let bytes = encode_bound_record(key, bound);
            assert_eq!(decode_bound_record(&bytes), Ok((key, bound)));
        }
    }

    #[test]
    fn bound_record_rejects_trailing_bytes() {
        let mut bytes = encode_bound_record(Fingerprint(1), 2);
        bytes.push(0);
        assert_eq!(
            decode_bound_record(&bytes),
            Err(PersistError::BadValue("trailing bytes"))
        );
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let bytes = encode_bound_record(Fingerprint(1), 2);
        for cut in 0..bytes.len() {
            assert!(decode_bound_record(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn reader_rejects_absurd_length_prefixes() {
        // A length prefix promising more elements than remaining bytes must
        // fail fast instead of attempting the allocation.
        let mut w = ByteWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.len_capped("test").is_err());
    }
}
