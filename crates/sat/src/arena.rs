//! Flat clause storage: one contiguous `u32` arena plus a compacting
//! garbage collector.
//!
//! The first three PRs stored every clause as its own heap `Vec<Lit>`
//! behind a `Clause` header — two pointer chases per watched-literal
//! visit, allocator traffic on every learnt clause, and no way to ever
//! return the memory of a retired incremental rung. This module adopts
//! the MiniSat-lineage layout instead: all clauses live in one growable
//! `Vec<u32>` and are addressed by [`ClauseRef`] word offsets, so
//! propagation walks cache-adjacent memory and deleting a clause is a
//! single header-bit flip.
//!
//! # Record layout
//!
//! A clause record occupies `1 + size (+ 2 if learnt)` consecutive words:
//!
//! ```text
//! word 0            : header — size in bits 0..=28, LEARNT bit 29,
//!                     DELETED bit 30
//! words 1..=size    : literal codes ([`Lit::code`]) — first, so the
//!                     propagation hot path never needs the trailer
//! size+1, size+2    : learnt trailer — activity (f32 bits), LBD
//! ```
//!
//! The literals come directly after the header so that
//! [`ClauseArena::lit`] is a constant-offset read regardless of whether
//! the clause is learnt; the rarely-touched activity/LBD trailer pays the
//! size-dependent offset instead.
//!
//! # Deletion and garbage collection
//!
//! [`ClauseArena::delete`] only sets the DELETED header bit (the record —
//! literals included — stays readable, which the lazy watcher scheme in
//! the solver relies on) and accounts the record's words as waste. When
//! the wasted fraction crosses the solver's GC trigger,
//! [`ClauseArena::collect`] compacts: one forward sweep copies every live
//! record into a fresh buffer (records are allocated strictly
//! append-only, so a sequential header walk visits them all) and leaves a
//! forwarding pointer in each moved record's old slot. The returned
//! [`ArenaRemap`] — the retired buffer — translates stale [`ClauseRef`]s
//! in O(1) — watchers, `reason` pointers, learnt and group indices — and
//! answers `None` for deleted clauses so the caller can drop those
//! references on the spot.
//!
//! `ClauseRef`s are **unstable across `collect`**: the solver must remap
//! every stored reference immediately after a collection and never hold a
//! `ClauseRef` across one otherwise.

use crate::types::Lit;
use std::fmt;

const SIZE_BITS: u32 = 29;
const SIZE_MASK: u32 = (1 << SIZE_BITS) - 1;
const LEARNT_BIT: u32 = 1 << 29;
const DELETED_BIT: u32 = 1 << 30;
/// Set on an *old-buffer* header during collection: the record moved and
/// its first literal slot holds the forwarding offset. Never set on a
/// live arena record.
const RELOC_BIT: u32 = 1 << 31;

/// A reference to a clause record: the word offset of its header inside
/// the arena. Stable across allocations, invalidated by
/// [`ClauseArena::collect`] (use the returned [`ArenaRemap`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    /// The null reference (used for "no reason" / decision variables).
    pub(crate) const NONE: ClauseRef = ClauseRef(u32::MAX);
}

impl fmt::Debug for ClauseRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ClauseRef::NONE {
            write!(f, "cref#none")
        } else {
            write!(f, "cref#{}", self.0)
        }
    }
}

/// What one [`ClauseArena::collect`] run reclaimed.
#[derive(Debug)]
pub(crate) struct GcSweep {
    /// Offset translation for surviving clauses.
    pub(crate) remap: ArenaRemap,
    /// Literal slots freed (deleted clauses' sizes summed).
    pub(crate) lits_reclaimed: u64,
}

/// The pre-collection buffer, reused as an O(1) forwarding table: every
/// surviving record's old header carries [`RELOC_BIT`] and its first
/// literal slot holds the new offset; deleted records were left as-is.
#[derive(Debug)]
pub(crate) struct ArenaRemap {
    old: Vec<u32>,
}

impl ArenaRemap {
    /// The post-compaction offset of `old`, or `None` if the clause was
    /// deleted and swept. Constant time — one header read in the retired
    /// buffer.
    pub(crate) fn remap(&self, old: ClauseRef) -> Option<ClauseRef> {
        let header = self.old[old.0 as usize];
        if header & RELOC_BIT != 0 {
            Some(ClauseRef(self.old[old.0 as usize + 1]))
        } else {
            None
        }
    }
}

/// The flat clause store. See the module docs for the record layout.
#[derive(Debug, Default)]
pub(crate) struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by deleted records (headers + lits + trailers).
    wasted: u64,
    /// A retired collection buffer kept for reuse ([`ClauseArena::recycle`]):
    /// ping-ponging between two high-water-sized buffers avoids a fresh
    /// multi-MB allocation (and its page faults) on every collection.
    spare: Vec<u32>,
}

impl ClauseArena {
    pub(crate) fn new() -> ClauseArena {
        ClauseArena::default()
    }

    /// Total words currently allocated (live + wasted).
    pub(crate) fn words(&self) -> u64 {
        self.data.len() as u64
    }

    /// Words occupied by deleted records awaiting collection.
    pub(crate) fn wasted_words(&self) -> u64 {
        self.wasted
    }

    /// Makes room for `words` more words, so that a bulk load grows the
    /// buffer once instead of by doubling.
    pub(crate) fn reserve(&mut self, words: usize) {
        self.data.reserve(words);
    }

    /// Appends a clause record; `lits` must have at least 2 literals (unit
    /// and empty clauses never reach the store).
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        debug_assert!(lits.len() as u32 <= SIZE_MASK);
        // ClauseRefs are u32 word offsets: past 2^32 words (16 GiB) a new
        // ref would silently alias an existing record. Fail loudly instead
        // — the check is one compare per allocation.
        assert!(
            self.data.len() + 3 + lits.len() < u32::MAX as usize,
            "clause arena exceeds the 2^32-word ClauseRef address space"
        );
        let cref = ClauseRef(self.data.len() as u32);
        let mut header = lits.len() as u32;
        if learnt {
            header |= LEARNT_BIT;
        }
        self.data.push(header);
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        if learnt {
            self.data.push(0f32.to_bits()); // activity
            self.data.push(lbd);
        }
        cref
    }

    #[inline]
    pub(crate) fn len(&self, c: ClauseRef) -> usize {
        (self.data[c.0 as usize] & SIZE_MASK) as usize
    }

    #[inline]
    pub(crate) fn is_learnt(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize] & LEARNT_BIT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize] & DELETED_BIT != 0
    }

    /// Literal `i` of clause `c` (no bounds relation to other clauses:
    /// the caller must keep `i < len(c)`).
    #[inline]
    pub(crate) fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        debug_assert!(i < self.len(c));
        Lit::from_code(self.data[c.0 as usize + 1 + i] as usize)
    }

    #[inline]
    pub(crate) fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        debug_assert!(i < self.len(c) && j < self.len(c));
        let base = c.0 as usize + 1;
        self.data.swap(base + i, base + j);
    }

    /// `true` if `lit` occurs in clause `c`.
    pub(crate) fn contains(&self, c: ClauseRef, lit: Lit) -> bool {
        let base = c.0 as usize + 1;
        let code = lit.code() as u32;
        self.data[base..base + self.len(c)].contains(&code)
    }

    /// Marks `c` deleted. The record stays readable (lazy watchers may
    /// still dereference it) until the next [`ClauseArena::collect`].
    pub(crate) fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.wasted += self.record_words(c) as u64;
        self.data[c.0 as usize] |= DELETED_BIT;
    }

    #[inline]
    pub(crate) fn activity(&self, c: ClauseRef) -> f32 {
        debug_assert!(self.is_learnt(c));
        f32::from_bits(self.data[self.trailer(c)])
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, c: ClauseRef, act: f32) {
        debug_assert!(self.is_learnt(c));
        let at = self.trailer(c);
        self.data[at] = act.to_bits();
    }

    #[inline]
    pub(crate) fn lbd(&self, c: ClauseRef) -> u32 {
        debug_assert!(self.is_learnt(c));
        self.data[self.trailer(c) + 1]
    }

    #[inline]
    fn trailer(&self, c: ClauseRef) -> usize {
        c.0 as usize + 1 + self.len(c)
    }

    /// Words the record at `c` occupies (header + lits + learnt trailer).
    fn record_words(&self, c: ClauseRef) -> usize {
        1 + self.len(c) + if self.is_learnt(c) { 2 } else { 0 }
    }

    /// Copying collection: moves every live record into a fresh, exactly
    /// live-sized buffer (records are allocated strictly append-only, so
    /// one sequential header walk visits them all) and turns the retired
    /// buffer into the forwarding table — each moved record's old header
    /// gains [`RELOC_BIT`] and its first literal slot the new offset, so
    /// [`ArenaRemap::remap`] is O(1) per stale reference. O(arena) time,
    /// one transient buffer of the live size.
    pub(crate) fn collect(&mut self) -> GcSweep {
        let live = self.data.len() - self.wasted as usize;
        // Reuse the previous collection's retired buffer when one was
        // recycled, and keep the high-water capacity either way: a ladder
        // rung that grew the arena to N words will be followed by another
        // of about the same size, and re-growing (or freshly mapping) a
        // multi-MB buffer on every collection costs more than the
        // collection itself.
        let mut new: Vec<u32> = std::mem::take(&mut self.spare);
        new.clear();
        new.reserve(live.max(self.data.capacity()));
        let mut lits_reclaimed = 0u64;
        let mut read = 0usize;
        let end = self.data.len();
        while read < end {
            let c = ClauseRef(read as u32);
            let words = self.record_words(c);
            if self.is_deleted(c) {
                lits_reclaimed += self.len(c) as u64;
            } else {
                let dst = new.len() as u32;
                new.extend_from_slice(&self.data[read..read + words]);
                // Forwarding pointer: records always have ≥ 2 literal
                // slots, so word `read + 1` exists.
                self.data[read] |= RELOC_BIT;
                self.data[read + 1] = dst;
            }
            read += words;
        }
        debug_assert_eq!(new.len(), live);
        let old = std::mem::replace(&mut self.data, new);
        self.wasted = 0;
        GcSweep {
            remap: ArenaRemap { old },
            lits_reclaimed,
        }
    }

    /// Returns a spent forwarding table's buffer to the arena for the
    /// next collection (see [`ClauseArena::collect`]). Keeps whichever
    /// buffer is larger.
    pub(crate) fn recycle(&mut self, remap: ArenaRemap) {
        if remap.old.capacity() > self.spare.capacity() {
            self.spare = remap.old;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lits(codes: &[usize]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c)).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[0, 3, 5]), false, 0);
        let c2 = a.alloc(&lits(&[2, 7]), true, 4);
        assert_eq!(a.len(c1), 3);
        assert!(!a.is_learnt(c1));
        assert_eq!(a.lit(c1, 1), Lit::from_code(3));
        assert_eq!(a.len(c2), 2);
        assert!(a.is_learnt(c2));
        assert_eq!(a.lbd(c2), 4);
        assert_eq!(a.activity(c2), 0.0);
        a.set_activity(c2, 1.5);
        assert_eq!(a.activity(c2), 1.5);
        assert_eq!(a.words(), 4 + 5);
    }

    #[test]
    fn swap_and_contains() {
        let mut a = ClauseArena::new();
        let v: Vec<Lit> = (0..4).map(|i| Var::new(i).positive()).collect();
        let c = a.alloc(&v, false, 0);
        a.swap_lits(c, 0, 3);
        assert_eq!(a.lit(c, 0), v[3]);
        assert_eq!(a.lit(c, 3), v[0]);
        assert!(a.contains(c, v[2]));
        assert!(!a.contains(c, !v[2]));
    }

    #[test]
    fn delete_accounts_waste_and_collect_compacts() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[0, 2]), false, 0); // 3 words
        let c2 = a.alloc(&lits(&[4, 6, 8]), true, 2); // 6 words
        let c3 = a.alloc(&lits(&[1, 3]), false, 0); // 3 words
        a.delete(c2);
        assert_eq!(a.wasted_words(), 6);
        assert!(a.is_deleted(c2));
        // Deleted record stays readable until collection.
        assert_eq!(a.lit(c2, 2), Lit::from_code(8));

        let sweep = a.collect();
        assert_eq!(sweep.lits_reclaimed, 3);
        assert_eq!(a.wasted_words(), 0);
        assert_eq!(a.words(), 6);
        let n1 = sweep.remap.remap(c1).unwrap();
        let n3 = sweep.remap.remap(c3).unwrap();
        assert!(sweep.remap.remap(c2).is_none(), "deleted clause unmapped");
        assert_eq!(a.lit(n1, 1), Lit::from_code(2));
        assert_eq!(a.lit(n3, 0), Lit::from_code(1));
        assert_eq!(n1, c1, "records before the hole keep their offset");
        assert_eq!(n3.0, 3, "records after the hole slide down");
    }

    #[test]
    fn collect_on_clean_arena_is_identity() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[0, 2, 4]), true, 3);
        a.set_activity(c1, 2.25);
        let sweep = a.collect();
        assert_eq!(sweep.remap.remap(c1), Some(c1));
        assert_eq!(sweep.lits_reclaimed, 0);
        assert_eq!(a.activity(c1), 2.25, "trailer moves with the record");
    }

    #[test]
    fn learnt_trailer_survives_compaction() {
        let mut a = ClauseArena::new();
        let dead = a.alloc(&lits(&[0, 2]), false, 0);
        let keep = a.alloc(&lits(&[4, 6, 8]), true, 7);
        a.set_activity(keep, 9.75);
        a.delete(dead);
        let sweep = a.collect();
        let keep = sweep.remap.remap(keep).unwrap();
        assert_eq!(keep.0, 0);
        assert_eq!(a.lbd(keep), 7);
        assert_eq!(a.activity(keep), 9.75);
        assert_eq!(a.len(keep), 3);
    }
}
