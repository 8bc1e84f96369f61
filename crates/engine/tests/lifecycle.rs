//! The cache lifecycle end to end: the size bound holds under a
//! sustained cold-miss workload (LRU victims, counters booked), the age
//! bound expires stale entries, and incremental compaction keeps the
//! on-disk store one-record-per-entry without waiting for shutdown —
//! copying the records a reopened engine never decoded byte for byte.

use satmapit_cgra::Cgra;
use satmapit_dfg::{Dfg, Op};
use satmapit_engine::persist::{self, StoreKind};
use satmapit_engine::{CacheLifecycle, Engine, EngineConfig, Fingerprint};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// A unique, self-cleaning cache directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "satmapit-lifecycle-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).expect("create temp cache dir");
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

fn chain(n: usize) -> Dfg {
    let mut dfg = Dfg::new(format!("chain{n}"));
    let mut prev = dfg.add_const(1);
    for _ in 1..n {
        let next = dfg.add_node(Op::Neg);
        dfg.add_edge(prev, next, 0);
        prev = next;
    }
    dfg
}

fn bounded(max_entries: usize) -> EngineConfig {
    EngineConfig {
        lifecycle: CacheLifecycle {
            max_entries,
            ..CacheLifecycle::default()
        },
        ..EngineConfig::default()
    }
}

#[test]
fn the_size_bound_holds_under_a_sustained_cold_miss_workload() {
    let cgra = Cgra::square(2);
    let engine = Engine::new(bounded(4));
    for n in 2..14 {
        let (_, cached) = engine.map(&chain(n), &cgra);
        assert!(!cached, "chain{n} is a distinct problem");
        let stats = engine.cache_stats();
        assert!(
            stats.entries <= 4,
            "cache exceeded its bound after chain{n}: {} entries",
            stats.entries
        );
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 4, "cache sits exactly at its bound");
    assert_eq!(stats.misses, 12);
    assert_eq!(
        stats.evicted_size, 8,
        "12 inserts into a 4-slot cache evict 8"
    );
    assert_eq!(stats.evicted_age, 0, "no age bound configured");
}

#[test]
fn eviction_is_least_recently_used_and_a_touch_refreshes() {
    let cgra = Cgra::square(2);
    let engine = Engine::new(bounded(2));
    let old = chain(2);
    let newer = chain(3);
    engine.map(&old, &cgra);
    engine.map(&newer, &cgra);
    // Touch `old` so `newer` becomes the LRU victim of the next insert.
    let (_, cached) = engine.map(&old, &cgra);
    assert!(cached);
    engine.map(&chain(4), &cgra);
    let (_, cached) = engine.map(&old, &cgra);
    assert!(cached, "the recently touched entry survived eviction");
    let (_, cached) = engine.map(&newer, &cgra);
    assert!(!cached, "the least recently used entry was the victim");
}

#[test]
fn the_age_bound_expires_stale_entries() {
    let cgra = Cgra::square(2);
    let config = EngineConfig {
        lifecycle: CacheLifecycle {
            max_age: Some(Duration::from_millis(30)),
            ..CacheLifecycle::default()
        },
        ..EngineConfig::default()
    };
    let engine = Engine::new(config);
    engine.map(&chain(2), &cgra);
    std::thread::sleep(Duration::from_millis(40));
    // The sweep runs on insert: this solve evicts the stale entry.
    engine.map(&chain(3), &cgra);
    let stats = engine.cache_stats();
    assert!(
        stats.evicted_age >= 1,
        "the over-age entry was swept: {stats:?}"
    );
    let (_, cached) = engine.map(&chain(2), &cgra);
    assert!(!cached, "an expired entry re-solves");
}

#[test]
fn incremental_compaction_runs_between_appends_not_just_at_shutdown() {
    let dir = TempDir::new("incremental");
    let cgra = Cgra::square(2);
    let config = EngineConfig {
        lifecycle: CacheLifecycle {
            compact_every: 2,
            ..CacheLifecycle::default()
        },
        ..EngineConfig::default()
    };
    let engine = Engine::with_cache_dir(config, dir.path()).unwrap();
    for n in 2..6 {
        engine.map(&chain(n), &cgra);
    }
    let stats = engine.cache_stats();
    assert!(
        stats.compactions >= 2,
        "4 appends at compact_every=2 start at least 2 generations: {stats:?}"
    );
    // The compacted store replays cleanly while the engine is still
    // running — no shutdown needed.
    let replay = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert!(
        replay.load_warnings().is_empty(),
        "{:?}",
        replay.load_warnings()
    );
    assert!(replay.cache_stats().persistent_entries >= 2);
}

/// Compaction rewrites the store without holding the cache lock, so
/// inserts race it: every insert must still reach the disk — one that
/// lands after the snapshot appends to the compacted file. Each insert
/// runs against back-to-back compactions and is looked for on disk as
/// soon as they stop, before a later compaction could rewrite it in.
/// Any one insert rarely hits the window, hence many of them.
#[test]
fn inserts_racing_a_compaction_all_reach_the_store() {
    let cells: Vec<(usize, Cgra)> = [Cgra::square(2), Cgra::new(1, 2), Cgra::new(2, 3)]
        .into_iter()
        .flat_map(|cgra| (2..14).map(move |n| (n, cgra.clone())))
        .collect();
    for round in 0..4 {
        race_inserts_against_compactions(&TempDir::new(&format!("race-{round}")), &cells);
    }
}

fn race_inserts_against_compactions(dir: &TempDir, cells: &[(usize, Cgra)]) {
    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    for (n, cgra) in cells {
        let inserting = AtomicBool::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while inserting.load(Ordering::Relaxed) {
                    engine.compact_persistent().expect("compaction");
                }
            });
            engine.map(&chain(*n), cgra);
            inserting.store(false, Ordering::Relaxed);
        });
        let replay = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        assert!(
            replay.lookup_cached(&chain(*n), cgra).is_some(),
            "chain{n}@{}x{} never reached the store",
            cgra.rows(),
            cgra.cols()
        );
    }
}

#[test]
fn an_evicted_persistent_entry_stops_counting_as_loaded() {
    let dir = TempDir::new("evict-loaded");
    let cgra = Cgra::square(2);
    {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        engine.map(&chain(2), &cgra);
        engine.map(&chain(3), &cgra);
    }
    let engine = Engine::with_cache_dir(
        EngineConfig {
            lifecycle: CacheLifecycle {
                max_entries: 1,
                ..CacheLifecycle::default()
            },
            ..EngineConfig::default()
        },
        dir.path(),
    )
    .unwrap();
    assert_eq!(engine.cache_stats().persistent_entries, 2);
    // A fresh solve overflows the 1-slot cache and evicts both loaded
    // entries (they share tick 0; two evictions restore the bound).
    engine.map(&chain(4), &cgra);
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.evicted_size, 2);
    assert_eq!(
        stats.persistent_entries, 0,
        "evicted keys no longer report as loaded-from-disk"
    );
    // Re-solving an evicted key is fresh work, not a persistent hit.
    let served = engine.map_with_deadline(&chain(2), &cgra, None);
    assert!(!served.cached);
    assert!(!served.persistent);
}

/// The payload of every record in the results store of `dir`, by key.
fn stored_payloads(dir: &TempDir) -> std::collections::HashMap<Fingerprint, Vec<u8>> {
    let path = dir.path().join(persist::RESULTS_FILE);
    let (records, warnings) = persist::read_records(&path, StoreKind::Results).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
    records
        .into_iter()
        .map(|payload| {
            let key = Fingerprint(u128::from_le_bytes(payload[..16].try_into().unwrap()));
            (key, payload)
        })
        .collect()
}

/// How many store files of `dir` this process holds open after their
/// name was replaced or removed.
fn unlinked_stores_held_open(dir: &TempDir) -> usize {
    let dir = dir.path().to_string_lossy().into_owned();
    fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| {
            let target = target.to_string_lossy();
            target.starts_with(&dir) && target.ends_with(".smc (deleted)")
        })
        .count()
}

#[test]
fn compaction_copies_never_decoded_records_byte_for_byte() {
    let dir = TempDir::new("undecoded");
    let cgra = Cgra::square(2);
    {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        for n in 2..6 {
            engine.map(&chain(n), &cgra);
        }
    }
    let before = stored_payloads(&dir);
    assert_eq!(before.len(), 4);

    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    let decoded = engine.lookup_cached(&chain(2), &cgra).unwrap();
    assert!(decoded.persistent);
    let (_, cached) = engine.map(&chain(6), &cgra);
    assert!(!cached);
    engine.compact_persistent().unwrap();
    assert_eq!(
        unlinked_stores_held_open(&dir),
        0,
        "entries still on disk moved to the compacted file"
    );

    let after = stored_payloads(&dir);
    assert_eq!(after.len(), 5, "four loaded records and the new solve");
    for (key, payload) in &before {
        assert!(&after[key] == payload, "{key} kept its bytes");
    }
    // The never-decoded entries now read from the compacted file.
    for n in 3..6 {
        let served = engine.lookup_cached(&chain(n), &cgra).unwrap();
        assert!(served.persistent, "chain{n} hits after the compaction");
        let (_, stored) = persist::decode_result_record(&before[&served.key]).unwrap();
        assert_eq!(format!("{:?}", served.outcome), format!("{stored:?}"));
    }
    drop(engine);

    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert!(engine.load_warnings().is_empty());
    assert_eq!(engine.cache_stats().persistent_entries, 5);
    for n in 2..7 {
        let served = engine.lookup_cached(&chain(n), &cgra).unwrap();
        assert!(served.persistent, "chain{n} hits after a second reopen");
    }
}

#[test]
fn an_evicted_never_decoded_entry_leaves_the_next_compaction() {
    let dir = TempDir::new("evict-undecoded");
    let cgra = Cgra::square(2);
    {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        for n in 2..5 {
            engine.map(&chain(n), &cgra);
        }
    }
    let engine = Engine::with_cache_dir(bounded(2), dir.path()).unwrap();
    assert_eq!(engine.cache_stats().persistent_entries, 3);
    // Touch chain2, so the never-decoded chain3 and chain4 are the LRU
    // victims the next insert evicts.
    assert!(engine.lookup_cached(&chain(2), &cgra).unwrap().persistent);
    engine.map(&chain(5), &cgra);
    assert_eq!(engine.cache_stats().evicted_size, 2);
    engine.compact_persistent().unwrap();

    let kept = stored_payloads(&dir);
    let keys: Vec<Fingerprint> = [2, 5].map(|n| engine.key(&chain(n), &cgra)).to_vec();
    assert_eq!(kept.len(), 2);
    assert!(
        keys.iter().all(|key| kept.contains_key(key)),
        "evicted records dropped"
    );
    assert!(engine.lookup_cached(&chain(3), &cgra).is_none());
}
