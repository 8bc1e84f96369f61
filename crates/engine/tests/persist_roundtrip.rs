//! Property coverage for the persisted record codec: arbitrary engine
//! outcomes — successes with full mappings and register files, every
//! failure variant, attempt traces with every outcome kind — survive
//! encode→decode bit-exactly (compared through their complete `Debug`
//! rendering, which covers every field).
//!
//! Plus the contract of the counter tables the stats blocks are written
//! from: counted blocks tolerate a reader with fewer or more counters,
//! the table orders are pinned (append-only), and the engine's fleet
//! counters are the fold the tables describe.

use proptest::prelude::*;
use satmapit_cgra::PeId;
use satmapit_core::encoder::EncodeStats;
use satmapit_core::{
    AttemptOutcome, IiAttempt, MapFailure, MapOutcome, MappedLoop, Mapping, Placement, TransferKind,
};
use satmapit_engine::persist::PersistError;
use satmapit_engine::persist::{
    decode_bound_record, decode_result_record, encode_bound_record, encode_result_record,
};
use satmapit_engine::{
    CacheStats, CounterKind, Counters, Engine, EngineConfig, EngineOutcome, Fingerprint, Job,
    RaceStats,
};
use satmapit_regalloc::{PeAllocFailure, RegAllocError, RegAllocation};
use satmapit_sat::{SolverStats, StopReason};
use std::time::Duration;

/// Deterministically expands a seed into an arbitrary outcome, exercising
/// every enum variant the codec handles. A seeded xorshift keeps the
/// generator simple under the offline proptest stand-in.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn u32(&mut self, bound: u32) -> u32 {
        (self.next() % u64::from(bound.max(1))) as u32
    }

    fn usize(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    /// A stats struct with every counter of its table drawn below `bound`
    /// (and every other field at its default).
    fn counters<C: Counters + Default>(&mut self, bound: u64) -> C {
        let mut stats = C::default();
        for slot in stats.slots() {
            *slot = self.next() % bound;
        }
        stats
    }

    fn duration(&mut self) -> Duration {
        Duration::new(self.next() % 10_000, self.u32(1_000_000_000))
    }

    fn mapping(&mut self) -> Mapping {
        let nodes = 1 + self.usize(12);
        let edges = self.usize(16);
        Mapping {
            ii: 1 + self.u32(49),
            folds: 1 + self.u32(7),
            placements: (0..nodes)
                .map(|_| Placement {
                    pe: PeId(self.u32(25) as u16),
                    cycle: self.u32(50),
                    fold: self.u32(8),
                })
                .collect(),
            transfers: (0..edges)
                .map(|_| {
                    if self.next().is_multiple_of(2) {
                        TransferKind::SamePeRegister
                    } else {
                        TransferKind::NeighborOutput
                    }
                })
                .collect(),
        }
    }

    fn registers(&mut self) -> RegAllocation {
        let pes = self.usize(9);
        RegAllocation::from_per_pe(
            (0..pes)
                .map(|_| {
                    let n = self.usize(5);
                    (0..n).map(|_| (self.u32(64), self.u32(4) as u8)).collect()
                })
                .collect(),
        )
    }

    fn attempt_outcome(&mut self) -> AttemptOutcome {
        match self.next() % 6 {
            0 => AttemptOutcome::Mapped,
            1 => AttemptOutcome::Unsat,
            2 => AttemptOutcome::SolverBudget(match self.next() % 3 {
                0 => StopReason::ConflictLimit,
                1 => StopReason::Timeout,
                _ => StopReason::Cancelled,
            }),
            _ => AttemptOutcome::RegAllocFailed(RegAllocError {
                pe: self.usize(25),
                failure: match self.next() % 3 {
                    0 => PeAllocFailure::Infeasible,
                    1 => PeAllocFailure::BudgetExhausted,
                    _ => PeAllocFailure::IllegalSpan { id: self.u32(64) },
                },
            }),
        }
    }

    fn attempt(&mut self) -> IiAttempt {
        IiAttempt {
            ii: 1 + self.u32(49),
            encode_stats: EncodeStats {
                placement_vars: self.usize(100_000),
                total_vars: self.usize(100_000),
                clauses: self.usize(1_000_000),
                c1_clauses: self.usize(100_000),
                c2_clauses: self.usize(100_000),
                c3_compat_clauses: self.usize(100_000),
                c3_guard_clauses: self.usize(100_000),
                occupancy_vars: self.usize(100_000),
                pressure_vars: self.usize(100_000),
                pressure_clauses: self.usize(100_000),
            },
            outcome: self.attempt_outcome(),
            solver_stats: if self.next().is_multiple_of(4) {
                None
            } else {
                Some(self.counters(u64::MAX))
            },
            ra_cuts: self.u32(200),
            elapsed: self.duration(),
        }
    }

    fn failure(&mut self) -> MapFailure {
        use satmapit_core::encoder::EncodeError;
        use satmapit_dfg::{DfgError, EdgeId, NodeId};
        match self.next() % 6 {
            0 => MapFailure::InvalidDfg(match self.next() % 7 {
                0 => DfgError::Empty,
                1 => DfgError::DanglingEdge(EdgeId(self.u32(64))),
                2 => DfgError::SourceHasNoOutput(EdgeId(self.u32(64))),
                3 => DfgError::OperandOutOfRange(EdgeId(self.u32(64))),
                4 => DfgError::MissingOperand {
                    node: NodeId(self.u32(64)),
                    slot: self.usize(3),
                },
                5 => DfgError::DuplicateOperand {
                    node: NodeId(self.u32(64)),
                    slot: self.usize(3),
                },
                _ => DfgError::ForwardCycle,
            }),
            1 => MapFailure::Structural(if self.next().is_multiple_of(2) {
                EncodeError::NoPeForOp {
                    node: NodeId(self.u32(64)),
                }
            } else {
                EncodeError::SelfEdgeDistance {
                    edge: EdgeId(self.u32(64)),
                }
            }),
            2 => MapFailure::Timeout {
                at_ii: 1 + self.u32(49),
            },
            3 => MapFailure::IiCapReached {
                cap: 1 + self.u32(49),
            },
            4 => MapFailure::InvalidIi {
                ii: self.u32(100),
                max_ii: self.u32(100),
            },
            _ => MapFailure::Internal(format!("synthetic #{:x} — ünïcode ✓", self.next())),
        }
    }

    fn outcome(&mut self) -> EngineOutcome {
        let result = if self.next().is_multiple_of(2) {
            Ok(MappedLoop {
                mapping: self.mapping(),
                registers: self.registers(),
                mii: 1 + self.u32(20),
            })
        } else {
            Err(self.failure())
        };
        let attempts = {
            let n = self.usize(6);
            (0..n).map(|_| self.attempt()).collect()
        };
        EngineOutcome {
            outcome: MapOutcome {
                result,
                attempts,
                elapsed: self.duration(),
            },
            stats: RaceStats {
                workers: 1 + self.usize(16),
                race_start: self.u32(50),
                ..self.counters(100_000)
            },
            proven_unmappable: self.next().is_multiple_of(8),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn result_records_round_trip(seed in any::<u64>()) {
        let mut generator = Gen(seed | 1);
        let key = Fingerprint((u128::from(generator.next()) << 64) | u128::from(generator.next()));
        let outcome = generator.outcome();
        let bytes = encode_result_record(key, &outcome);
        let (key2, outcome2) = decode_result_record(&bytes).expect("decodes");
        prop_assert_eq!(key, key2);
        prop_assert_eq!(format!("{outcome:?}"), format!("{outcome2:?}"));
        // Re-encoding the decoded value is byte-stable (canonical form).
        prop_assert_eq!(bytes, encode_result_record(key2, &outcome2));
    }

    #[test]
    fn bound_records_round_trip(hi in any::<u64>(), lo in any::<u64>(), bound in any::<u32>()) {
        let key = Fingerprint((u128::from(hi) << 64) | u128::from(lo));
        let bytes = encode_bound_record(key, bound);
        prop_assert_eq!(decode_bound_record(&bytes).expect("decodes"), (key, bound));
    }

    /// Mangled payloads never panic the decoder: every prefix and every
    /// single-byte corruption yields either an error or a decoded value —
    /// no slice-index or allocation blowups.
    #[test]
    fn decoder_is_total_on_corrupt_bytes(seed in any::<u64>(), flip in any::<usize>()) {
        let mut generator = Gen(seed | 1);
        let key = Fingerprint(u128::from(generator.next()));
        let outcome = generator.outcome();
        let bytes = encode_result_record(key, &outcome);
        let cut = flip % (bytes.len() + 1);
        let _ = decode_result_record(&bytes[..cut]);
        let mut mangled = bytes.clone();
        mangled[cut % bytes.len()] ^= 1 << (flip % 8);
        let _ = decode_result_record(&mangled);
    }
}

/// An outcome whose record ends `… solver block | ra_cuts | elapsed |
/// elapsed | workers | race_start | race block | proven_unmappable`, so
/// both stats blocks sit at offsets computable from the tail.
fn one_attempt_outcome(generator: &mut Gen) -> EngineOutcome {
    let mut outcome = generator.outcome();
    let mut attempt = generator.attempt();
    attempt.solver_stats = Some(generator.counters(u64::MAX));
    outcome.outcome.attempts = vec![attempt];
    outcome
}

const SOLVER_N: usize = SolverStats::TABLE.len();
const RACE_N: usize = RaceStats::TABLE.len();

/// Offset of the race block's count byte in a record of `len` bytes.
fn race_block_at(len: usize) -> usize {
    len - 1 - (1 + 8 * RACE_N)
}

/// Offset of the last attempt's solver block: before the race block come
/// `race_start` (4), `workers` (8), two durations (12 each) and `ra_cuts`
/// (4).
fn solver_block_at(len: usize) -> usize {
    race_block_at(len) - (4 + 8 + 12 + 12 + 4) - (1 + 8 * SOLVER_N)
}

/// Rewrites the counted block at `at` (holding `old` values) as a writer
/// that knew `new` counters would have: the first `min(old, new)` values
/// kept, any further ones made up.
fn with_block_count(bytes: &[u8], at: usize, old: usize, new: usize) -> Vec<u8> {
    assert_eq!(usize::from(bytes[at]), old, "not the block's count byte");
    let mut out = bytes[..at].to_vec();
    out.push(new as u8);
    out.extend_from_slice(&bytes[at + 1..at + 1 + 8 * old.min(new)]);
    for extra in old..new {
        out.extend_from_slice(&(0xABCD_0000 + extra as u64).to_le_bytes());
    }
    out.extend_from_slice(&bytes[at + 1 + 8 * old..]);
    out
}

/// `stats` as a reader would see it after a writer that knew only the
/// first `known` counters.
fn first_counters<C: Counters>(stats: &C, known: usize) -> C {
    let mut cut = stats.clone();
    for slot in cut.slots().skip(known) {
        *slot = 0;
    }
    cut
}

#[test]
fn a_block_from_an_older_writer_decodes_with_the_new_counters_zero() {
    let mut generator = Gen(0x5EED);
    let outcome = one_attempt_outcome(&mut generator);
    let bytes = encode_result_record(Fingerprint(7), &outcome);

    let older = with_block_count(&bytes, race_block_at(bytes.len()), RACE_N, RACE_N - 2);
    let (_, decoded) = decode_result_record(&older).expect("a shorter race block decodes");
    assert_eq!(decoded.stats, first_counters(&outcome.stats, RACE_N - 2));
    assert_eq!(
        format!("{:?}", decoded.outcome.attempts),
        format!("{:?}", outcome.outcome.attempts)
    );

    let at = solver_block_at(bytes.len());
    let older = with_block_count(&bytes, at, SOLVER_N, SOLVER_N - 2);
    let (_, decoded) = decode_result_record(&older).expect("a shorter solver block decodes");
    let written = outcome.outcome.attempts[0].solver_stats.as_ref().unwrap();
    assert_eq!(
        decoded.outcome.attempts[0].solver_stats,
        Some(first_counters(written, SOLVER_N - 2))
    );
    assert_eq!(decoded.stats, outcome.stats);
}

#[test]
fn a_block_from_a_newer_writer_decodes_with_the_surplus_skipped() {
    let mut generator = Gen(0xFEED);
    let outcome = one_attempt_outcome(&mut generator);
    let bytes = encode_result_record(Fingerprint(7), &outcome);
    for (at, known) in [
        (race_block_at(bytes.len()), RACE_N),
        (solver_block_at(bytes.len()), SOLVER_N),
    ] {
        let newer = with_block_count(&bytes, at, known, known + 3);
        let (_, decoded) = decode_result_record(&newer).expect("a longer block decodes");
        assert_eq!(format!("{decoded:?}"), format!("{outcome:?}"));
        // The surplus is skipped, not swallowed: the record still has to
        // parse exactly.
        let mut trailing = newer.clone();
        trailing.push(0);
        assert_eq!(
            decode_result_record(&trailing).unwrap_err(),
            PersistError::BadValue("trailing bytes")
        );
        assert_eq!(
            decode_result_record(&newer[..newer.len() - 1]).unwrap_err(),
            PersistError::Truncated
        );
    }
}

#[test]
fn a_block_count_above_the_cap_is_rejected() {
    let mut generator = Gen(0xCA9);
    let outcome = one_attempt_outcome(&mut generator);
    let bytes = encode_result_record(Fingerprint(7), &outcome);
    for (at, known) in [
        (race_block_at(bytes.len()), RACE_N),
        (solver_block_at(bytes.len()), SOLVER_N),
    ] {
        // Enough bytes follow for the claim to be readable: the count
        // itself is what is refused.
        for claim in [65, 255] {
            let absurd = with_block_count(&bytes, at, known, claim);
            assert_eq!(
                decode_result_record(&absurd).unwrap_err(),
                PersistError::BadValue("counter count")
            );
        }
        assert!(decode_result_record(&with_block_count(&bytes, at, known, 64)).is_ok());
    }
}

fn names<C: Counters>() -> Vec<&'static str> {
    C::TABLE.iter().map(|&(name, _)| name).collect()
}

/// The tables are append-only: persisted blocks are positional, so a new
/// counter goes at the end of its list and nothing here is ever removed,
/// renamed or reordered.
#[test]
fn counter_tables_keep_their_order() {
    assert_eq!(
        names::<SolverStats>(),
        [
            "decisions",
            "propagations",
            "conflicts",
            "restarts",
            "learnt_clauses",
            "removed_clauses",
            "added_clauses",
            "gc_runs",
            "lits_reclaimed",
            "arena_wasted",
            "arena_words",
            "shared_exported",
            "shared_imported",
            "shared_dropped",
        ]
    );
    let gauges: Vec<&str> = SolverStats::TABLE
        .iter()
        .filter(|(_, kind)| *kind != CounterKind::Sum)
        .map(|&(name, _)| name)
        .collect();
    assert_eq!(gauges, ["learnt_clauses", "arena_wasted", "arena_words"]);
    assert_eq!(
        names::<RaceStats>(),
        [
            "tasks_started",
            "tasks_cancelled",
            "shared_exported",
            "shared_imported",
            "shared_dropped",
            "sat_wins",
            "morph_wins",
            "bound_exchanges",
        ]
    );
    assert_eq!(
        names::<CacheStats>(),
        [
            "hits",
            "misses",
            "persistent_hits",
            "bound_starts",
            "gc_runs",
            "lits_reclaimed",
            "arena_wasted",
            "shared_exported",
            "shared_imported",
            "shared_dropped",
            "sat_wins",
            "morph_wins",
            "bound_exchanges",
            "evicted_size",
            "evicted_age",
            "compactions",
            "append_errors",
            "fsyncs",
        ]
    );
}

/// After a batch, every fleet counter a solve feeds reads what its table
/// entry says: the race's figure where the race declares the name, else
/// the attempts' solver figures — sums added, peaks kept.
#[test]
fn cache_stats_are_the_fold_of_the_outcomes() {
    let engine = Engine::new(EngineConfig::default());
    let jobs: Vec<Job> = ["sha", "gsm", "srand", "bitcount"]
        .iter()
        .map(|name| {
            let kernel = satmapit_kernels::by_name(name).expect("suite kernel");
            Job::new(*name, kernel.dfg, satmapit_cgra::Cgra::square(2))
        })
        .collect();
    let solved = engine.map_batch(jobs.clone());
    assert!(solved.iter().all(|item| !item.cached));
    assert!(engine.map_batch(jobs).iter().all(|item| item.cached));

    fn lookup(stats: &impl Counters, name: &str) -> Option<u64> {
        stats.fields().find(|f| f.0 == name).map(|f| f.2)
    }
    let mut expected = CacheStats {
        entries: solved.len(),
        bound_entries: engine.cache_stats().bound_entries,
        ..CacheStats::default()
    };
    for (slot, &(name, kind)) in expected.slots().zip(CacheStats::TABLE) {
        *slot = match name {
            "hits" | "misses" => solved.len() as u64,
            _ => solved
                .iter()
                .fold(0, |acc, item| match lookup(&item.outcome.stats, name) {
                    Some(raced) => kind.fold(acc, raced),
                    None => item
                        .outcome
                        .outcome
                        .attempts
                        .iter()
                        .filter_map(|attempt| attempt.solver_stats.as_ref())
                        .filter_map(|stats| lookup(stats, name))
                        .fold(acc, |acc, value| kind.fold(acc, value)),
                }),
        };
    }
    assert_eq!(engine.cache_stats(), expected);
    assert_eq!(
        expected.sat_wins,
        solved.len() as u64,
        "every race had a winner"
    );
}
