//! Disk persistence for the batch [`Engine`](crate::Engine)'s caches.
//!
//! Two append-only, versioned, checksummed stores live in a cache
//! directory:
//!
//! * **`results.smc`** — the content-hash result cache: one record per
//!   solved fingerprint, holding the full [`EngineOutcome`] (mapping,
//!   register allocation, per-II trace, race telemetry). A warm restart
//!   indexes these in one checksum-verifying scan ([`index_results`]),
//!   keeping only fingerprint → frame place, and decodes a record on its
//!   first hit; nothing touches the SAT solver.
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
//! panic the daemon. The scan reads through one fixed buffer and
//! verifies every frame's checksum; a hit re-reads its one frame and
//! verifies it again before decoding, so a record damaged after the
//! scan is a miss, never an answer.
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
use std::ops::Range;
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Continues an FNV-1a hash `h` over `bytes`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// 64-bit FNV-1a over `bytes` — the record checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// How many payloads [`checksums`] hashes side by side.
const LANES: usize = 4;

/// The [`checksum`] of each `payloads` range of `bytes`, into `sums`.
/// FNV-1a is one multiply chain per payload, so a lone hash waits out
/// every multiply's latency; [`LANES`] payloads are hashed in lockstep
/// instead, their independent multiplies overlapping. A lane whose
/// payload ends takes the next one, and the last few finish alone.
fn checksums(bytes: &[u8], payloads: &[Range<usize>], sums: &mut Vec<u64>) {
    sums.clear();
    sums.resize(payloads.len(), FNV_OFFSET);
    if payloads.len() < LANES {
        for (sum, payload) in sums.iter_mut().zip(payloads) {
            *sum = checksum(&bytes[payload.clone()]);
        }
        return;
    }
    // Lane `l` hashes payload `who[l]`, has `rest[l]` of it to go and
    // holds `h[l]` so far; `None` once no payload is left for it.
    let mut who: [Option<usize>; LANES] = std::array::from_fn(Some);
    let mut rest: [&[u8]; LANES] = std::array::from_fn(|l| &bytes[payloads[l].clone()]);
    let mut h = [FNV_OFFSET; LANES];
    let mut next = LANES;
    while who.iter().all(Option::is_some) {
        let step = rest.iter().map(|r| r.len()).min().unwrap_or(0);
        let [a, b, c, d] = rest.map(|r| &r[..step]);
        for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
            h[0] = (h[0] ^ u64::from(a)).wrapping_mul(FNV_PRIME);
            h[1] = (h[1] ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            h[2] = (h[2] ^ u64::from(c)).wrapping_mul(FNV_PRIME);
            h[3] = (h[3] ^ u64::from(d)).wrapping_mul(FNV_PRIME);
        }
        for lane in 0..LANES {
            rest[lane] = &rest[lane][step..];
            let Some(done) = who[lane].filter(|_| rest[lane].is_empty()) else {
                continue;
            };
            sums[done] = h[lane];
            who[lane] = payloads.get(next).map(|payload| {
                rest[lane] = &bytes[payload.clone()];
                h[lane] = FNV_OFFSET;
                next += 1;
                next - 1
            });
        }
    }
    for lane in 0..LANES {
        if let Some(payload) = who[lane] {
            sums[payload] = fnv1a(h[lane], rest[lane]);
        }
    }
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

/// Bytes of a record frame before its payload: length u32 + checksum u64.
const FRAME_HEADER: usize = 12;
/// Bytes the store scan reads at a time into its one reused buffer. The
/// buffer grows past this only for a frame larger than it, or to hold
/// the rest of the file once a frame fails and the resync has to search
/// it.
const SCAN_CHUNK: usize = 128 << 10;

/// Opens a store file for reading; a missing file is `None`.
fn open_store(path: &Path) -> io::Result<Option<File>> {
    match File::open(path) {
        Ok(file) => Ok(Some(file)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The length a record frame opening `bytes` claims, if its header is
/// complete and the length plausible.
fn frame_len(bytes: &[u8]) -> Option<usize> {
    let header = bytes.get(..FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    (len <= MAX_RECORD_LEN).then_some(len as usize)
}

/// The payload of the record frame opening `bytes`, when the frame is
/// complete and its payload checksum validates — strong evidence (2⁻⁶⁴
/// false-positive odds) of a real record boundary. This is what lets the
/// loader resynchronize after torn or corrupt bytes without ever trusting
/// damaged framing.
fn verified_payload(bytes: &[u8]) -> Option<&[u8]> {
    let len = frame_len(bytes)?;
    let payload = bytes.get(FRAME_HEADER..FRAME_HEADER + len)?;
    let sum = u64::from_le_bytes(bytes[4..FRAME_HEADER].try_into().unwrap());
    (checksum(payload) == sum).then_some(payload)
}

/// The first offset ≥ `from` in `bytes` holding a checksum-verified
/// record frame. Candidate offsets whose length field is implausible are
/// rejected before any checksum work, so the scan is cheap on random
/// garbage.
fn scan_for_record(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len()).find(|&pos| verified_payload(&bytes[pos..]).is_some())
}

/// A forward-only window onto a store file: the bytes from file offset
/// `base` on, read [`SCAN_CHUNK`] at a time into one reused buffer.
struct Window<'a> {
    file: &'a File,
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    base: u64,
    /// `true` once `buf` runs to the end of the file.
    whole: bool,
}

impl Window<'_> {
    /// The bytes from file offset `pos` on — at least `need` of them, or
    /// all that remain when the file ends sooner. `pos` never lies behind
    /// the window; the bytes before it are released.
    fn at(&mut self, pos: u64, need: usize) -> io::Result<&[u8]> {
        let skip = usize::try_from(pos - self.base).expect("a window position lies in its buffer");
        if self.whole || self.buf.len() - skip >= need {
            return Ok(&self.buf[skip..]);
        }
        self.buf.drain(..skip);
        self.base = pos;
        let want = need.max(SCAN_CHUNK) - self.buf.len();
        let got = self.file.take(want as u64).read_to_end(&mut self.buf)?;
        self.whole = got < want;
        Ok(&self.buf)
    }
}

/// Walks a store file once, in file order, handing `visit` the offset
/// and payload of every record frame whose checksum verifies, and
/// returns human-readable warnings for everything it had to skip.
///
/// The walk reads the file through one reused [`SCAN_CHUNK`] buffer and
/// trusts nothing but checksums: when a frame fails to validate — a torn
/// append, a corrupted length prefix, a flipped payload bit — it reads
/// the rest of the file and searches forward for the next offset holding
/// a checksum-verified frame, and resumes there, so damage is always
/// bounded to the damaged bytes and records appended *after* a tear are
/// still recovered. Only a tail with no verified frame anywhere in it is
/// dropped.
fn scan(
    file: &File,
    path: &Path,
    kind: StoreKind,
    mut visit: impl FnMut(u64, &[u8]),
) -> io::Result<Vec<String>> {
    let mut window = Window {
        file,
        buf: Vec::new(),
        base: 0,
        whole: false,
    };
    let mut warnings = Vec::new();
    if let Err(e) = check_header(window.at(0, HEADER_LEN)?, kind) {
        warnings.push(format!("{}: ignoring cache file: {e}", path.display()));
        return Ok(warnings);
    }
    let mut pos = HEADER_LEN as u64;
    let mut index = 0usize;
    let mut payloads = Vec::new();
    let mut sums = Vec::new();
    loop {
        let bytes = window.at(pos, FRAME_HEADER)?;
        if bytes.is_empty() {
            break;
        }
        // Every frame the buffer holds whole is checksummed at once, then
        // visited in order up to the first that fails.
        payloads.clear();
        let mut end = 0;
        while let Some(len) = frame_len(&bytes[end..]) {
            let payload = end + FRAME_HEADER..end + FRAME_HEADER + len;
            if payload.end > bytes.len() {
                break;
            }
            end = payload.end;
            payloads.push(payload);
        }
        checksums(bytes, &payloads, &mut sums);
        let mut verified = 0;
        for (payload, &sum) in payloads.iter().zip(&sums) {
            let frame = payload.start - FRAME_HEADER;
            if bytes[frame + 4..payload.start] != sum.to_le_bytes() {
                break;
            }
            visit(pos + frame as u64, &bytes[payload.clone()]);
            verified = payload.end;
            index += 1;
        }
        if verified > 0 {
            pos += verified as u64;
            continue;
        }
        // The first frame is not in the buffer whole, or does not verify.
        if let Some(len) = frame_len(bytes) {
            if let Some(payload) = verified_payload(window.at(pos, FRAME_HEADER + len)?) {
                visit(pos, payload);
                pos += (FRAME_HEADER + len) as u64;
                index += 1;
                continue;
            }
        }
        match resync(window.at(pos, usize::MAX)?, pos, index, path, &mut warnings) {
            Some(skip) => {
                pos += skip as u64;
                index += 1;
            }
            None => break,
        }
    }
    Ok(warnings)
}

/// Recovery from record `index`, at file offset `pos`, whose frame does
/// not verify; `bytes` runs from that frame to the end of the file.
/// Returns how far to skip to the next frame worth reading, or `None` to
/// drop the tail, and says which in `warnings`.
fn resync(
    bytes: &[u8],
    pos: u64,
    index: usize,
    path: &Path,
    warnings: &mut Vec<String>,
) -> Option<usize> {
    if bytes.len() < FRAME_HEADER {
        warnings.push(format!(
            "{}: truncated record header at offset {pos} (interrupted append?); \
             dropping tail",
            path.display()
        ));
        return None;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    let remain = bytes.len() - FRAME_HEADER;
    if len > MAX_RECORD_LEN || remain < len as usize {
        // Implausible framing: a torn append's length prefix promises
        // bytes that never landed. Records appended after the tear (by a
        // process that failed to roll the tear back) are still intact —
        // find the next frame whose checksum proves it real.
        return match scan_for_record(bytes, 1) {
            Some(next) => {
                warnings.push(format!(
                    "{}: record {index} at offset {pos} claims {len} bytes (torn \
                     append?); resynced at the next verified record, offset {}",
                    path.display(),
                    pos + next as u64
                ));
                Some(next)
            }
            None => {
                warnings.push(format!(
                    "{}: record {index} at offset {pos} claims {len} bytes but only {remain} \
                     remain and no later record verifies; dropping tail",
                    path.display(),
                ));
                None
            }
        };
    }
    // The checksum only covers the payload the *length prefix* framed — if
    // the corruption hit the length itself, advancing by it would
    // desynchronize the scan and silently mis-skip every following valid
    // record. Advance by the prefix only when the frame it implies next
    // *verifies* (or the file ends cleanly there); otherwise fall back to
    // scanning for a verified frame anywhere in the tail.
    let next = FRAME_HEADER + len as usize;
    if next == bytes.len() || verified_payload(&bytes[next..]).is_some() {
        warnings.push(format!(
            "{}: record {index} at offset {pos} fails its checksum; skipped",
            path.display()
        ));
        return Some(next);
    }
    match scan_for_record(bytes, 1) {
        Some(next) => {
            warnings.push(format!(
                "{}: record {index} at offset {pos} fails its checksum and its \
                 length prefix is untrustworthy; resynced at the next verified \
                 record, offset {}",
                path.display(),
                pos + next as u64
            ));
            Some(next)
        }
        None => {
            warnings.push(format!(
                "{}: record {index} at offset {pos} fails its checksum and no \
                 later record verifies; dropping tail",
                path.display()
            ));
            None
        }
    }
}

/// Reads every intact record payload of a store file, in file order.
///
/// Returns the payloads plus human-readable warnings for everything that
/// had to be skipped. A missing file is simply empty. The one scan
/// behind every loader decides what is intact; see [`load_results`] for
/// the recovery rules.
pub fn read_records(path: &Path, kind: StoreKind) -> io::Result<(Vec<Vec<u8>>, Vec<String>)> {
    let Some(file) = open_store(path)? else {
        return Ok((Vec::new(), Vec::new()));
    };
    let mut records = Vec::new();
    let warnings = scan(&file, path, kind, |_, payload| {
        records.push(payload.to_vec())
    })?;
    Ok((records, warnings))
}

/// Writes the frame of `payload` — length, checksum, payload — into
/// `frame`, replacing what it held.
fn frame_into(frame: &mut Vec<u8>, payload: &[u8]) {
    frame.clear();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&checksum(payload).to_le_bytes());
    frame.extend_from_slice(payload);
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
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame_into(&mut frame, payload);
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
/// itself — callers pass the already-deduplicated live set. A
/// [`StoreWriter`] does the same a frame at a time.
pub fn rewrite(path: &Path, kind: StoreKind, payloads: &[Vec<u8>], sync: bool) -> io::Result<()> {
    let mut out = StoreWriter::create(path, kind)?;
    for payload in payloads {
        out.push(payload)?;
    }
    out.commit(sync).map(drop)
}

/// A store file rewritten a frame at a time: frames go to a sibling temp
/// file, and [`StoreWriter::commit`] renames it over the store.
///
/// With `sync` set the commit is crash-durable, not merely atomic: the
/// temp file is `sync_all`ed *before* the rename (so the rename can
/// never publish a name whose bytes are still in the page cache) and
/// the parent directory is fsynced *after* it (so a crash cannot
/// resurrect the pre-compaction file). A temp file stranded by a crash
/// between create and rename is swept by [`clean_stale_tmp`] on the
/// next load.
#[derive(Debug)]
pub struct StoreWriter {
    file: File,
    path: PathBuf,
    tmp: PathBuf,
    /// Bytes written so far: the offset the next frame lands at.
    len: u64,
    /// Reused frame buffer for [`StoreWriter::push`].
    frame: Vec<u8>,
}

impl StoreWriter {
    /// Starts rewriting the `kind` store at `path`: creates the temp file
    /// and writes the header.
    pub fn create(path: &Path, kind: StoreKind) -> io::Result<StoreWriter> {
        let tmp = path.with_extension("smc.tmp");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        satmapit_faults::write_all("compact.write", &mut file, &header_bytes(kind))?;
        Ok(StoreWriter {
            file,
            path: path.to_path_buf(),
            tmp,
            len: HEADER_LEN as u64,
            frame: Vec::new(),
        })
    }

    /// Frames and writes one record payload; returns the frame's offset.
    pub fn push(&mut self, payload: &[u8]) -> io::Result<u64> {
        let mut frame = std::mem::take(&mut self.frame);
        frame_into(&mut frame, payload);
        let offset = self.push_frame(&frame);
        self.frame = frame;
        offset
    }

    /// Writes one already framed record as it is — a frame
    /// [`StoredRecord::frame`] verified — and returns its offset.
    pub fn push_frame(&mut self, frame: &[u8]) -> io::Result<u64> {
        satmapit_faults::write_all("compact.write", &mut self.file, frame)?;
        let offset = self.len;
        self.len += frame.len() as u64;
        Ok(offset)
    }

    /// Renames the rewritten file over the store (durably with `sync`;
    /// see the type docs) and returns it, open for reading.
    pub fn commit(mut self, sync: bool) -> io::Result<File> {
        self.file.flush()?;
        if sync {
            satmapit_faults::check("compact.sync")?;
            self.file.sync_all()?;
        }
        satmapit_faults::check("compact.rename")?;
        std::fs::rename(&self.tmp, &self.path)?;
        if sync {
            satmapit_faults::check("compact.dirsync")?;
            if let Some(parent) = self.path.parent() {
                if !parent.as_os_str().is_empty() {
                    File::open(parent)?.sync_all()?;
                }
            }
        }
        Ok(self.file)
    }
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

/// Loads and decodes the whole result cache from `dir`. Duplicate keys
/// keep the first (oldest) record, matching the in-memory cache's
/// first-insert-wins. The engine itself loads an index instead
/// ([`index_results`]); this eager form serves tools and tests.
pub fn load_results(dir: &Path) -> io::Result<(ResultMap, Vec<String>)> {
    let path = dir.join(RESULTS_FILE);
    let Some(file) = open_store(&path)? else {
        return Ok((HashMap::new(), Vec::new()));
    };
    let mut map = HashMap::new();
    let mut undecodable = Vec::new();
    let mut index = 0usize;
    let mut warnings = scan(&file, &path, StoreKind::Results, |_, payload| {
        match decode_result_record(payload) {
            Ok((key, outcome)) => {
                map.entry(key).or_insert_with(|| Arc::new(outcome));
            }
            Err(e) => undecodable.push((index, e)),
        }
        index += 1;
    })?;
    warnings.extend(undecodable_warnings(&path, undecodable));
    Ok((map, warnings))
}

/// One warning per verified record that did not decode, by its position
/// among the verified records.
fn undecodable_warnings(
    path: &Path,
    undecodable: Vec<(usize, PersistError)>,
) -> impl Iterator<Item = String> + '_ {
    undecodable.into_iter().map(move |(index, e)| {
        format!(
            "{}: record {index} does not decode ({e}); skipped",
            path.display()
        )
    })
}

/// A checksum-verified result record that [`index_results`] left on
/// disk: the open store file it sits in, and where. Holding the file
/// keeps the record readable after a compaction renames a new store
/// over it.
#[derive(Debug, Clone)]
pub struct StoredRecord {
    file: Arc<File>,
    /// File offset of the record's frame.
    offset: u64,
    /// Payload length the scan verified.
    len: u32,
}

impl StoredRecord {
    /// File offset of the record's frame.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The record copied unchanged to `offset` of `file`, a rewritten
    /// store.
    pub fn moved_to(&self, file: &Arc<File>, offset: u64) -> StoredRecord {
        StoredRecord {
            file: Arc::clone(file),
            offset,
            len: self.len,
        }
    }

    /// Reads the record's frame into `buf` with one positioned read and
    /// verifies it again — the length the scan indexed, and the payload
    /// checksum — before returning it.
    pub fn frame<'a>(&self, buf: &'a mut Vec<u8>) -> io::Result<&'a [u8]> {
        use std::os::unix::fs::FileExt;
        buf.resize(FRAME_HEADER + self.len as usize, 0);
        self.file.read_exact_at(buf, self.offset)?;
        if buf[..4] != self.len.to_le_bytes() || verified_payload(buf).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "fails its checksum",
            ));
        }
        Ok(buf)
    }

    /// Reads, re-verifies ([`StoredRecord::frame`]) and decodes the
    /// record, which must be the one for `key`.
    pub fn load(&self, key: Fingerprint) -> io::Result<EngineOutcome> {
        let mut buf = Vec::new();
        let frame = self.frame(&mut buf)?;
        let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
        match decode_result_record(&frame[FRAME_HEADER..]) {
            Ok((found, outcome)) if found == key => Ok(outcome),
            Ok((found, _)) => Err(invalid(format!("holds key {found}, not {key}"))),
            Err(e) => Err(invalid(format!("does not decode ({e})"))),
        }
    }
}

/// A result store indexed, not loaded: fingerprint → where its record
/// sits.
pub type ResultIndex = HashMap<Fingerprint, StoredRecord>;

/// Indexes the result cache in `dir` in one scan: every frame's checksum
/// is verified exactly as [`load_results`] does, but only the key (the
/// payload's first 16 bytes) and the frame's place are kept — a record
/// is decoded by [`StoredRecord::load`] when it is first asked for.
/// Duplicate keys keep the first (oldest) record, as [`load_results`]
/// does. The warnings are [`load_results`]' except that a record whose
/// checksum verifies but whose outcome does not decode is reported only
/// when it is loaded.
pub fn index_results(dir: &Path) -> io::Result<(ResultIndex, Vec<String>)> {
    let path = dir.join(RESULTS_FILE);
    let Some(file) = open_store(&path)? else {
        return Ok((HashMap::new(), Vec::new()));
    };
    let file = Arc::new(file);
    let mut records = HashMap::new();
    let mut undecodable = Vec::new();
    let mut index = 0usize;
    let mut warnings = scan(&file, &path, StoreKind::Results, |offset, payload| {
        match payload.get(..16) {
            Some(key) => {
                let key = Fingerprint(u128::from_le_bytes(key.try_into().unwrap()));
                records.entry(key).or_insert_with(|| StoredRecord {
                    file: Arc::clone(&file),
                    offset,
                    len: payload.len() as u32,
                });
            }
            None => undecodable.push((index, PersistError::Truncated)),
        }
        index += 1;
    })?;
    warnings.extend(undecodable_warnings(&path, undecodable));
    Ok((records, warnings))
}

/// Loads the proven-II-bound cache from `dir`; duplicate keys keep the
/// strongest (largest) bound, mirroring the in-memory merge.
pub fn load_bounds(dir: &Path) -> io::Result<(HashMap<Fingerprint, u32>, Vec<String>)> {
    let path = dir.join(BOUNDS_FILE);
    let Some(file) = open_store(&path)? else {
        return Ok((HashMap::new(), Vec::new()));
    };
    let mut map = HashMap::new();
    let mut undecodable = Vec::new();
    let mut index = 0usize;
    let mut warnings = scan(&file, &path, StoreKind::Bounds, |_, payload| {
        match decode_bound_record(payload) {
            Ok((key, bound)) => {
                let entry = map.entry(key).or_insert(bound);
                *entry = (*entry).max(bound);
            }
            Err(e) => undecodable.push((index, e)),
        }
        index += 1;
    })?;
    warnings.extend(undecodable_warnings(&path, undecodable));
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
    fn lockstep_checksums_equal_one_at_a_time() {
        let bytes: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let mut sums = Vec::new();
        for count in 0..12 {
            // Lengths that differ, repeat and include empty payloads, so
            // lanes finish out of order and refill.
            let payloads: Vec<Range<usize>> = (0..count)
                .map(|k| {
                    let start = k * 97 % 1000;
                    start..start + k * 131 % 300 * (k % 5)
                })
                .collect();
            checksums(&bytes, &payloads, &mut sums);
            let one_at_a_time: Vec<u64> = payloads
                .iter()
                .map(|payload| checksum(&bytes[payload.clone()]))
                .collect();
            assert_eq!(sums, one_at_a_time, "{count} payloads");
        }
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
