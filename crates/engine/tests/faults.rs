//! Fault-injection suite for the persistence layer: every failure mode
//! the `satmapit-faults` plane can synthesize — short writes, `ENOSPC`,
//! failed truncations, interrupted compactions — must leave the store
//! either rolled back or recoverable, and the fault plane itself must be
//! invisible when no plan is installed.
//!
//! Fault plans are process-global, so every test that reaches a fault
//! site — by installing a plan *or* just by appending, syncing or
//! compacting while a sibling's plan could be live — holds the plane
//! ([`FaultPlane::acquire`]) for its whole body; the binary effectively
//! runs those tests one at a time.

use satmapit_engine::persist::{self, Appender, StoreKind};
use satmapit_engine::{DurabilityPolicy, Engine, EngineConfig, Fingerprint};
use satmapit_faults as faults;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

/// Exclusive use of the process-global fault plane for one test: starts
/// with no plan installed and guarantees none is left behind, even when
/// an assertion panics mid-test.
struct FaultPlane(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultPlane {
    fn acquire() -> FaultPlane {
        let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        faults::clear();
        FaultPlane(guard)
    }

    fn install(&self, spec: &str) {
        faults::install(spec).expect("valid plan");
    }

    fn clear(&self) {
        faults::clear();
    }
}

impl Drop for FaultPlane {
    fn drop(&mut self) {
        faults::clear();
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "satmapit-faults-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn bound(key: u64, ii: u32) -> Vec<u8> {
    persist::encode_bound_record(Fingerprint(u128::from(key)), ii)
}

/// With no plan installed the fault plane must be a ghost: sites are not
/// even *counted* (the off path is a single relaxed atomic load that
/// bypasses all bookkeeping). Installing a plan afterwards proves it:
/// the very first call is hit 1, as if the earlier traffic never
/// happened.
#[test]
fn inactive_fault_plane_counts_nothing() {
    let plane = FaultPlane::acquire();
    let dir = TempDir::new("ghost");
    let path = dir.path().join(persist::BOUNDS_FILE);
    let mut appender = Appender::open(&path, StoreKind::Bounds).unwrap();
    appender.append(&bound(1, 2)).unwrap();
    appender.append(&bound(2, 3)).unwrap();
    appender.sync().unwrap();
    assert!(!faults::active());
    assert_eq!(faults::hits("append.bounds"), 0, "off = not even counted");
    assert_eq!(faults::injected(), 0);

    plane.install("error@append.bounds:1");
    let err = appender.append(&bound(3, 4)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Other);
    assert_eq!(
        faults::hits("append.bounds"),
        1,
        "the first counted hit is the first call under the plan"
    );
    assert_eq!(faults::injected(), 1);
}

/// `DurabilityPolicy` is an I/O knob, not a solver knob: two configs
/// that differ only in durability must fingerprint identically, or a
/// daemon restarted with different fsync cadence would orphan its own
/// cache. (This is the test the exemption table entry for
/// `EngineConfig.durability` points at.)
#[test]
fn durability_policy_is_fingerprint_neutral() {
    let mut dfg = satmapit_dfg::Dfg::new("fpneutral");
    let a = dfg.add_const(1);
    let b = dfg.add_node(satmapit_dfg::Op::Neg);
    dfg.add_edge(a, b, 0);
    let cgra = satmapit_cgra::Cgra::square(2);

    let default_config = EngineConfig::default();
    let tuned = EngineConfig {
        durability: DurabilityPolicy {
            fsync_every: 64,
            sync_compaction: false,
            max_append_failures: 1,
        },
        ..EngineConfig::default()
    };
    assert_eq!(
        satmapit_engine::fingerprint::fingerprint(&dfg, &cgra, &default_config),
        satmapit_engine::fingerprint::fingerprint(&dfg, &cgra, &tuned),
    );
}

/// A short write must not leave torn bytes: the failure latch truncates
/// the file back to the last committed record, so the next append lands
/// cleanly and the loader never sees the tear.
#[test]
fn partial_write_is_rolled_back_to_a_clean_file() {
    let plane = FaultPlane::acquire();
    let dir = TempDir::new("rollback");
    let path = dir.path().join(persist::BOUNDS_FILE);
    let mut appender = Appender::open(&path, StoreKind::Bounds).unwrap();
    appender.append(&bound(1, 2)).unwrap();
    let committed = fs::metadata(&path).unwrap().len();

    plane.install("partial-write=7@append.bounds:1");
    let err = appender.append(&bound(2, 3)).unwrap_err();
    assert!(err.to_string().contains("torn write"), "got: {err}");
    plane.clear();
    assert_eq!(
        fs::metadata(&path).unwrap().len(),
        committed,
        "the 7 torn bytes were truncated away"
    );
    assert!(!appender.sealed());

    // The store is clean: the failed record can simply be re-appended.
    appender.append(&bound(2, 3)).unwrap();
    let (records, warnings) = persist::read_records(&path, StoreKind::Bounds).unwrap();
    assert_eq!(warnings, Vec::<String>::new());
    assert_eq!(records, vec![bound(1, 2), bound(2, 3)]);
}

/// `ENOSPC` surfaces as the real OS error, so callers can tell a full
/// disk from a bug.
#[test]
fn enospc_surfaces_as_the_os_error() {
    let plane = FaultPlane::acquire();
    let dir = TempDir::new("enospc");
    let path = dir.path().join(persist::BOUNDS_FILE);
    let mut appender = Appender::open(&path, StoreKind::Bounds).unwrap();
    plane.install("enospc-once@append.bounds");
    let err = appender.append(&bound(1, 2)).unwrap_err();
    assert_eq!(err.raw_os_error(), Some(28), "ENOSPC");
    // -once: the plan's budget is spent, the next append goes through.
    appender.append(&bound(1, 2)).unwrap();
}

/// An injected `EINTR` storm is absorbed by the retry loop inside the
/// write shim — the append succeeds and nothing is torn.
#[test]
fn eintr_storm_is_retried_to_completion() {
    let plane = FaultPlane::acquire();
    let dir = TempDir::new("eintr");
    let path = dir.path().join(persist::BOUNDS_FILE);
    let mut appender = Appender::open(&path, StoreKind::Bounds).unwrap();
    plane.install("eintr=5@append.bounds");
    appender.append(&bound(9, 4)).unwrap();
    assert!(faults::hits("append.bounds") >= 5, "the storm was consumed");
    let (records, warnings) = persist::read_records(&path, StoreKind::Bounds).unwrap();
    assert_eq!(warnings, Vec::<String>::new());
    assert_eq!(records, vec![bound(9, 4)]);
}

/// When the rollback truncation itself fails, the appender seals: no
/// further append may stack records behind unremovable torn bytes.
#[test]
fn failed_rollback_seals_the_appender() {
    let plane = FaultPlane::acquire();
    let dir = TempDir::new("seal");
    let path = dir.path().join(persist::BOUNDS_FILE);
    let mut appender = Appender::open(&path, StoreKind::Bounds).unwrap();
    appender.append(&bound(1, 2)).unwrap();

    plane.install("partial-write=7@append.bounds:1;error@truncate.bounds:1");
    appender.append(&bound(2, 3)).unwrap_err();
    plane.clear();
    assert!(appender.sealed());
    let refused = appender.append(&bound(3, 4)).unwrap_err();
    assert!(refused.to_string().contains("sealed"), "got: {refused}");

    // The torn bytes are still on disk (rollback failed), but the
    // checksum scan refuses to surface garbage: only the committed
    // record loads, with a warning about the tail.
    let (records, warnings) = persist::read_records(&path, StoreKind::Bounds).unwrap();
    assert_eq!(records, vec![bound(1, 2)]);
    assert_eq!(warnings.len(), 1, "{warnings:?}");
}

/// Satellite 1's bit-level fixture: header, valid record A, a torn frame
/// whose length prefix promises more bytes than landed, then valid
/// record B appended by a later (oblivious) process. The old loader
/// dropped everything from the tear on; the checksum-verified resync
/// must recover both A and B.
#[test]
fn torn_append_followed_by_valid_appends_recovers_both_sides() {
    let _plane = FaultPlane::acquire();
    let dir = TempDir::new("torn");
    let path = dir.path().join(persist::BOUNDS_FILE);
    let a = bound(0xA, 3);
    let b = bound(0xB, 7);

    // Lay the file out by hand from real frames: write A and B through
    // the appender, then splice a fabricated torn frame between them.
    let mut appender = Appender::open(&path, StoreKind::Bounds).unwrap();
    appender.append(&a).unwrap();
    appender.append(&b).unwrap();
    drop(appender);
    let bytes = fs::read(&path).unwrap();
    let frame_len = 12 + a.len();
    let (head, frame_b) = bytes.split_at(16 + frame_len);
    let mut spliced = head.to_vec();
    spliced.extend_from_slice(&100u32.to_le_bytes()); // promises 100 bytes…
    spliced.extend_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
    spliced.extend_from_slice(&[0x5A; 5]); // …but only 5 landed
    spliced.extend_from_slice(frame_b);
    fs::write(&path, &spliced).unwrap();

    let (records, warnings) = persist::read_records(&path, StoreKind::Bounds).unwrap();
    assert_eq!(records, vec![a, b], "both sides of the tear must survive");
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].contains("torn append?"), "{warnings:?}");
    assert!(warnings[0].contains("resynced"), "{warnings:?}");
}

/// A compaction that dies before its fsync leaves the original store
/// untouched and a stale temp file behind; the sweep on the next load
/// removes it.
#[test]
fn interrupted_compaction_preserves_the_original_and_strands_a_tmp() {
    let plane = FaultPlane::acquire();
    let dir = TempDir::new("compact");
    let path = dir.path().join(persist::BOUNDS_FILE);
    let original = vec![bound(1, 2), bound(2, 3)];
    persist::rewrite(&path, StoreKind::Bounds, &original, true).unwrap();

    plane.install("error-once@compact.sync");
    persist::rewrite(&path, StoreKind::Bounds, &[bound(9, 9)], true).unwrap_err();
    plane.clear();

    let (records, warnings) = persist::read_records(&path, StoreKind::Bounds).unwrap();
    assert_eq!(records, original, "the original store is intact");
    assert_eq!(warnings, Vec::<String>::new());

    let tmp = path.with_extension("smc.tmp");
    assert!(tmp.exists(), "the interrupted compaction stranded its tmp");
    let swept = persist::clean_stale_tmp(dir.path()).unwrap();
    assert_eq!(swept.len(), 1, "{swept:?}");
    assert!(!tmp.exists());
}

/// End-to-end degraded mode at the engine level: persistent append
/// failures trip the latch after `max_append_failures` consecutive
/// misses, the engine keeps answering from memory, and the stats
/// surface the transition.
#[test]
fn persistent_append_failures_trip_degraded_memory_only_mode() {
    let plane = FaultPlane::acquire();
    let dir = TempDir::new("degraded");
    let config = EngineConfig {
        durability: DurabilityPolicy {
            max_append_failures: 3,
            ..DurabilityPolicy::default()
        },
        ..EngineConfig::default()
    };
    let cgra = satmapit_cgra::Cgra::square(2);
    let chain = |n: usize| {
        let mut dfg = satmapit_dfg::Dfg::new(format!("chain{n}"));
        let mut prev = dfg.add_const(1);
        for _ in 1..n {
            let next = dfg.add_node(satmapit_dfg::Op::Neg);
            dfg.add_edge(prev, next, 0);
            prev = next;
        }
        dfg
    };

    // Every disk append fails: each solve loses its bound record *and*
    // its result record, so one solve costs two consecutive failures.
    plane.install("error@append.results;error@append.bounds");
    let engine = Engine::with_cache_dir(config.clone(), dir.path()).unwrap();
    assert!(!engine.degraded());
    let (outcome, _) = engine.map(&chain(2), &cgra);
    assert!(outcome.ii().is_some(), "the solve itself is unaffected");
    assert!(!engine.degraded(), "two failures at threshold 3: not yet");
    let (outcome, _) = engine.map(&chain(3), &cgra);
    assert!(outcome.ii().is_some());
    assert!(engine.degraded(), "the third consecutive failure trips it");

    // Degraded: answers keep coming, from memory, and stats say so.
    let (outcome, cached) = engine.map(&chain(4), &cgra);
    assert!(outcome.ii().is_some());
    assert!(!cached);
    let (_, cached) = engine.map(&chain(4), &cgra);
    assert!(cached, "the in-memory cache still serves");
    let stats = engine.cache_stats();
    assert!(stats.degraded);
    assert_eq!(
        stats.append_errors, 3,
        "after the latch no further append is attempted or counted"
    );
    drop(engine); // shutdown compaction must also be skipped…

    // …so the on-disk store still carries only the (empty) header and a
    // restart comes back healthy with zero entries.
    plane.clear();
    let engine = Engine::with_cache_dir(config, dir.path()).unwrap();
    assert!(!engine.degraded(), "degraded mode clears on restart");
    assert_eq!(engine.cache_stats().persistent_entries, 0);
    assert_eq!(engine.load_warnings(), Vec::<String>::new());
}

/// The fsync cadence policy actually batches syncs: with
/// `fsync_every = 3`, three appends cost one fsync, not three.
#[test]
fn fsync_cadence_batches_syncs() {
    let _plane = FaultPlane::acquire();
    let dir = TempDir::new("cadence");
    let config = EngineConfig {
        durability: DurabilityPolicy {
            fsync_every: 3,
            ..DurabilityPolicy::default()
        },
        ..EngineConfig::default()
    };
    let cgra = satmapit_cgra::Cgra::square(2);
    let engine = Engine::with_cache_dir(config, dir.path()).unwrap();
    for n in 2..5 {
        let mut dfg = satmapit_dfg::Dfg::new(format!("c{n}"));
        let mut prev = dfg.add_const(1);
        for _ in 1..n {
            let next = dfg.add_node(satmapit_dfg::Op::Neg);
            dfg.add_edge(prev, next, 0);
            prev = next;
        }
        let _ = engine.map(&dfg, &cgra);
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.append_errors, 0);
    assert!(!stats.degraded);
    // Each solve appends one result record and one bound record; at
    // cadence 3 each store syncs exactly once instead of three times.
    assert_eq!(stats.fsyncs, 2, "one fsync per store, not one per append");
}
