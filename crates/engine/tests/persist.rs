//! The persistence layer end to end: warm restarts answer from disk,
//! proven bounds survive, and corrupt or truncated store files are
//! detected by the versioned header + checksums and skipped with a
//! warning instead of panicking or poisoning results. A reopened result
//! store is an index, each record decoded on its first hit: the lazy
//! answers are held to the eager decode of the same store, and the scan
//! to the whole-file reader it replaced.

use satmapit_cgra::Cgra;
use satmapit_dfg::{Dfg, Op};
use satmapit_engine::persist::{self, Appender, StoreKind};
use satmapit_engine::{Engine, EngineConfig, EngineOutcome, Fingerprint};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique, self-cleaning cache directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "satmapit-persist-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).expect("create temp cache dir");
        TempDir(path)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }

    fn results_file(&self) -> PathBuf {
        self.0.join(persist::RESULTS_FILE)
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

/// One producer fanned out to 5 consumers on a 1x2 row: climbs through
/// several UNSAT rungs, so a proven II lower bound gets recorded.
fn fanout() -> (Dfg, Cgra) {
    let mut dfg = Dfg::new("fan5");
    let src = dfg.add_const(1);
    for _ in 0..5 {
        let n = dfg.add_node(Op::Neg);
        dfg.add_edge(src, n, 0);
    }
    (dfg, Cgra::new(1, 2))
}

#[test]
fn warm_restart_serves_results_from_disk_without_solving() {
    let dir = TempDir::new("warm");
    let dfg = chain(4);
    let cgra = Cgra::square(2);

    let first_debug = {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        assert!(engine.load_warnings().is_empty());
        assert_eq!(engine.cache_stats().persistent_entries, 0);
        let (outcome, cached) = engine.map(&dfg, &cgra);
        assert!(!cached);
        format!("{outcome:?}")
        // engine drops here → shutdown compaction rewrites the stores
    };

    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert!(
        engine.load_warnings().is_empty(),
        "{:?}",
        engine.load_warnings()
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.persistent_entries, 1, "result record reloaded");
    assert_eq!(stats.entries, 1);

    let served = engine.map_with_deadline(&dfg, &cgra, None);
    assert!(served.cached, "warm restart must not re-solve");
    assert!(served.persistent, "the hit came from the on-disk store");
    assert_eq!(
        format!("{:?}", served.outcome),
        first_debug,
        "replayed outcome is byte-identical to the original solve"
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 0, "no SAT work on the second run");
    assert_eq!(stats.persistent_hits, 1);
}

#[test]
fn proven_bounds_survive_restart_and_lift_the_ladder() {
    let dir = TempDir::new("bounds");
    let (dfg, cgra) = fanout();

    let best = {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        let (outcome, _) = engine.map(&dfg, &cgra);
        let best = outcome.ii().expect("fanout maps");
        assert_eq!(engine.proven_bound(&dfg, &cgra), Some(best));
        best
    };

    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert_eq!(
        engine.proven_bound(&dfg, &cgra),
        Some(best),
        "the bound is on record before any mapping"
    );
    // Drop the result cache but keep the bound: the re-solve must start
    // its ladder at the proven bound instead of grinding the low rungs.
    engine.clear_cache();
    let engine2 = {
        drop(engine);
        Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap()
    };
    assert_eq!(
        engine2.cache_stats().persistent_entries,
        0,
        "results cleared"
    );
    assert_eq!(
        engine2.proven_bound(&dfg, &cgra),
        None,
        "bounds cleared too"
    );
}

#[test]
fn bounds_restart_skips_closed_rungs() {
    let dir = TempDir::new("bounds-skip");
    let (dfg, cgra) = fanout();

    let (best, cold_attempts) = {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        let (outcome, _) = engine.map(&dfg, &cgra);
        (outcome.ii().unwrap(), outcome.outcome.attempts.len())
    };
    assert!(cold_attempts > 1, "fanout must climb through UNSAT rungs");

    // Restart, remove only the *result* store so the lookup misses but the
    // bound store still lifts the ladder.
    fs::remove_file(dir.results_file()).unwrap();
    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert_eq!(engine.cache_stats().persistent_entries, 0);
    let (outcome, cached) = engine.map(&dfg, &cgra);
    assert!(!cached);
    assert_eq!(outcome.ii(), Some(best));
    assert_eq!(outcome.stats.race_start, best, "ladder starts at the bound");
    assert_eq!(outcome.outcome.attempts.len(), 1, "lower rungs skipped");
    assert_eq!(engine.cache_stats().bound_starts, 1);
}

#[test]
fn bit_flipped_record_is_skipped_with_warning() {
    let dir = TempDir::new("bitflip");
    let dfg = chain(4);
    let cgra = Cgra::square(2);
    {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        let _ = engine.map(&dfg, &cgra);
    }

    // Flip one payload byte of the single record: header (16) + frame (12)
    // + a couple bytes in.
    let path = dir.results_file();
    let mut bytes = fs::read(&path).unwrap();
    assert!(bytes.len() > 40, "store holds a record");
    bytes[16 + 12 + 2] ^= 0x40;
    fs::write(&path, &bytes).unwrap();

    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert_eq!(
        engine.load_warnings().len(),
        1,
        "{:?}",
        engine.load_warnings()
    );
    assert!(engine.load_warnings()[0].contains("checksum"));
    assert_eq!(engine.cache_stats().persistent_entries, 0, "record dropped");
    // The engine still works — it just solves afresh.
    let (outcome, cached) = engine.map(&dfg, &cgra);
    assert!(!cached);
    assert_eq!(outcome.ii(), Some(1));
}

#[test]
fn corrupt_record_does_not_take_down_its_neighbours() {
    let dir = TempDir::new("neighbour");
    let cgra = Cgra::square(2);
    {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        let _ = engine.map(&chain(3), &cgra);
        let _ = engine.map(&chain(4), &cgra);
    }

    // Corrupt only the first record's payload; the second is still framed
    // by its own length prefix and must load.
    let path = dir.results_file();
    let mut bytes = fs::read(&path).unwrap();
    bytes[16 + 12 + 4] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();

    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert_eq!(engine.load_warnings().len(), 1);
    assert_eq!(engine.cache_stats().persistent_entries, 1, "survivor loads");
}

/// Satellite regression: a bit flip in a record's *length prefix* fails
/// the checksum like any corruption, but the old loader still advanced
/// the scan by the corrupt length — silently desynchronizing the frame
/// boundaries and mis-skipping every following valid record. The loader
/// now refuses to trust an unverified length: it scans forward for the
/// next frame whose checksum verifies and resynchronizes there, so the
/// flip costs exactly the flipped record and nothing after it.
#[test]
fn bit_flip_in_length_field_cannot_desync_the_scan() {
    use satmapit_engine::persist::{self, StoreKind};
    use satmapit_engine::Fingerprint;
    let dir = TempDir::new("len-flip");
    let path = dir.path().join(persist::BOUNDS_FILE);
    let p1 =
        persist::encode_bound_record(Fingerprint(0xAAAA_0000_1111_2222_3333_4444_5555_6666), 3);
    let p2 =
        persist::encode_bound_record(Fingerprint(0xBBBB_9999_8888_7777_6666_5555_4444_3333), 7);
    persist::rewrite(&path, StoreKind::Bounds, &[p1.clone(), p2.clone()], true).unwrap();

    // Record 1's length prefix lives right after the 16-byte file header;
    // flip one bit (20 → 28), which points the implied next-record
    // boundary into the middle of record 2's frame.
    let mut bytes = fs::read(&path).unwrap();
    bytes[16] ^= 0x08;
    fs::write(&path, &bytes).unwrap();

    let (records, warnings) = persist::read_records(&path, StoreKind::Bounds).unwrap();
    assert_eq!(
        records,
        vec![p2],
        "the scan must resynchronize on record 2's verified frame"
    );
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(
        warnings[0].contains("resynced"),
        "the loader must report the recovery scan: {warnings:?}"
    );

    // Contrast: the same flip in the *payload* leaves the framing intact,
    // so only the flipped record is lost and its neighbour still loads
    // (pinned in detail by `corrupt_record_does_not_take_down_its_neighbours`).
    let (intact, _) = {
        let p1 = persist::encode_bound_record(Fingerprint(1), 3);
        let p2 = persist::encode_bound_record(Fingerprint(2), 7);
        persist::rewrite(&path, StoreKind::Bounds, &[p1, p2], true).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[16 + 12 + 2] ^= 0x08; // payload byte of record 1
        fs::write(&path, &bytes).unwrap();
        persist::read_records(&path, StoreKind::Bounds).unwrap()
    };
    assert_eq!(intact.len(), 1, "a payload flip costs exactly one record");
}

#[test]
fn truncated_tail_is_dropped_without_panic() {
    let dir = TempDir::new("truncate");
    let cgra = Cgra::square(2);
    {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        let _ = engine.map(&chain(4), &cgra);
    }
    let path = dir.results_file();
    let bytes = fs::read(&path).unwrap();
    // Cut the record in half — an interrupted append.
    fs::write(&path, &bytes[..16 + 12 + (bytes.len() - 28) / 2]).unwrap();

    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert_eq!(engine.load_warnings().len(), 1);
    assert!(engine.load_warnings()[0].contains("dropping tail"));
    assert_eq!(engine.cache_stats().persistent_entries, 0);
}

#[test]
fn foreign_or_wrong_version_file_is_ignored_wholesale() {
    let dir = TempDir::new("magic");
    fs::write(dir.results_file(), b"definitely not a cache file").unwrap();
    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert_eq!(engine.load_warnings().len(), 1);
    assert!(engine.load_warnings()[0].contains("bad magic"));
    assert_eq!(engine.cache_stats().persistent_entries, 0);

    // A future format version must be left alone, not misread.
    let dir2 = TempDir::new("version");
    let mut header = Vec::new();
    header.extend_from_slice(&satmapit_engine::persist::MAGIC);
    header.extend_from_slice(&99u32.to_le_bytes());
    header.push(1);
    header.extend_from_slice(&[0, 0, 0]);
    fs::write(dir2.results_file(), &header).unwrap();
    let engine = Engine::with_cache_dir(EngineConfig::default(), dir2.path()).unwrap();
    assert_eq!(engine.load_warnings().len(), 1);
    assert!(engine.load_warnings()[0].contains("version 99"));
}

#[test]
fn appends_after_a_bad_header_are_not_lost() {
    // Regression: a store whose header fails validation is ignored by the
    // loader — but the appender used to append *after* the bad header,
    // making every record written during the run unreadable too (silent
    // ongoing data loss if the process died before compaction). The
    // appender now truncates and re-headers the unusable file up front.
    let dir = TempDir::new("bad-header-append");
    fs::write(dir.results_file(), b"garbage, not a cache file").unwrap();
    {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        assert_eq!(engine.cache_stats().persistent_entries, 0);
        let _ = engine.map(&chain(4), &Cgra::square(2));
        // Simulate a crash: skip the shutdown compaction entirely. The
        // appended record alone must be loadable.
        std::mem::forget(engine);
    }
    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert!(
        engine.load_warnings().is_empty(),
        "{:?}",
        engine.load_warnings()
    );
    assert_eq!(
        engine.cache_stats().persistent_entries,
        1,
        "the record appended after the corrupt header must survive"
    );
}

#[test]
fn follower_with_expired_deadline_answers_without_the_leader() {
    use std::time::{Duration, Instant};
    // While a leader solves a problem, a same-key lookup whose own
    // deadline already passed must not inherit the leader's budget: it
    // answers on its own (a fast Timeout), or — if the leader happened to
    // finish first — takes the cache hit.
    let (dfg, cgra) = fanout();
    let engine = Engine::new(EngineConfig::default());
    std::thread::scope(|scope| {
        let leader = scope.spawn(|| engine.map(&dfg, &cgra));
        let expired = Instant::now() - Duration::from_millis(1);
        let served = engine.map_with_deadline(&dfg, &cgra, Some(expired));
        if !served.cached {
            assert!(
                matches!(
                    served.outcome.outcome.result,
                    Err(satmapit_core::MapFailure::Timeout { .. })
                ),
                "an expired-deadline follower reports its own timeout, got {:?}",
                served.outcome.outcome.result
            );
        }
        let (outcome, _) = leader.join().unwrap();
        assert!(outcome.ii().is_some(), "the leader is undisturbed");
    });
}

#[test]
fn compaction_deduplicates_superseded_records() {
    let dir = TempDir::new("compact");
    let (dfg, cgra) = fanout();
    {
        let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
        let _ = engine.map(&dfg, &cgra);
        // Appends so far: one result record plus one bound record. Map a
        // second job to grow the append-only file…
        let _ = engine.map(&chain(3), &cgra);
        engine.compact_persistent().unwrap();
        let after_first = fs::metadata(dir.results_file()).unwrap().len();
        // …and verify appends after a compaction still reach the store
        // (the appender reopened the rewritten file).
        let _ = engine.map(&chain(4), &cgra);
        engine.compact_persistent().unwrap();
        assert!(fs::metadata(dir.results_file()).unwrap().len() > after_first);
    }
    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert!(
        engine.load_warnings().is_empty(),
        "{:?}",
        engine.load_warnings()
    );
    assert_eq!(engine.cache_stats().persistent_entries, 3);
}

#[test]
fn plain_engine_has_no_persistence_side_effects() {
    let engine = Engine::new(EngineConfig::default());
    assert!(engine.cache_dir().is_none());
    assert!(engine.load_warnings().is_empty());
    let (outcome, _) = engine.map(&chain(3), &Cgra::square(2));
    assert_eq!(outcome.ii(), Some(1));
    assert_eq!(engine.cache_stats().persistent_entries, 0);
    engine.compact_persistent().unwrap(); // no-op, must not fail
}

/// An outcome as text, with the wall-clock fields zeroed: two solves of
/// one problem agree on everything else.
fn timeless(outcome: &EngineOutcome) -> String {
    let mut outcome = outcome.clone();
    outcome.outcome.elapsed = std::time::Duration::ZERO;
    for attempt in &mut outcome.outcome.attempts {
        attempt.elapsed = std::time::Duration::ZERO;
    }
    format!("{outcome:?}")
}

/// Solves `dfgs` on a 2x2 mesh through a persistent engine in `dir` and
/// drops it, leaving one compacted record per problem.
fn populate(dir: &Path, dfgs: &[Dfg]) -> Vec<Arc<EngineOutcome>> {
    let engine = Engine::with_cache_dir(EngineConfig::default(), dir).unwrap();
    dfgs.iter()
        .map(|dfg| engine.map(dfg, &Cgra::square(2)).0)
        .collect()
}

/// Flips one payload byte of the record at frame `offset`, in place:
/// the file keeps its inode, so an engine that has it open sees the
/// damage.
fn flip_payload_byte(path: &Path, offset: u64) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut file = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let at = SeekFrom::Start(offset + 12 + 20);
    let mut byte = [0u8];
    file.seek(at).unwrap();
    file.read_exact(&mut byte).unwrap();
    file.seek(at).unwrap();
    file.write_all(&[byte[0] ^ 0x10]).unwrap();
}

#[test]
fn a_reopened_store_counts_every_record_and_decodes_on_the_first_hit() {
    let dir = TempDir::new("index");
    let dfgs: Vec<Dfg> = (2..6).map(chain).collect();
    let solved = populate(dir.path(), &dfgs);

    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert!(engine.load_warnings().is_empty());
    let stats = engine.cache_stats();
    assert_eq!(stats.persistent_entries, dfgs.len(), "one entry per record");
    assert_eq!(stats.entries, dfgs.len());
    for (dfg, solved) in dfgs.iter().zip(&solved) {
        let first = engine.lookup_cached(dfg, &Cgra::square(2)).expect("a hit");
        assert!(first.cached && first.persistent);
        assert_eq!(format!("{:?}", first.outcome), format!("{solved:?}"));
        // The decoded outcome replaced the index entry: later hits share it.
        let again = engine.lookup_cached(dfg, &Cgra::square(2)).unwrap();
        assert!(again.persistent);
        assert!(Arc::ptr_eq(&first.outcome, &again.outcome));
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.persistent_hits, 2 * dfgs.len() as u64);
    assert_eq!(
        stats.persistent_entries,
        dfgs.len(),
        "decoding keeps provenance"
    );
    assert_eq!(stats.misses, 0);
}

#[test]
fn a_record_damaged_after_the_open_is_a_miss_on_its_first_hit() {
    let dir = TempDir::new("late-damage");
    let cgra = Cgra::square(2);
    let dfgs: Vec<Dfg> = (3..6).map(chain).collect();
    let solved = populate(dir.path(), &dfgs);

    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert!(engine.load_warnings().is_empty());
    let (index, _) = persist::index_results(dir.path()).unwrap();
    let victim = engine.key(&dfgs[1], &cgra);
    flip_payload_byte(&dir.results_file(), index[&victim].offset());

    assert!(
        engine.lookup_keyed(victim).is_none(),
        "a record that no longer verifies is never served"
    );
    assert_eq!(
        engine.cache_stats().persistent_entries,
        2,
        "and leaves the cache"
    );
    let served = engine.map_with_deadline(&dfgs[1], &cgra, None);
    assert!(!served.cached, "the miss re-solves");
    assert_eq!(timeless(&served.outcome), timeless(&solved[1]));
    assert!(engine.lookup_keyed(victim).is_some_and(|s| !s.persistent));
    for k in [0, 2] {
        let served = engine.map_with_deadline(&dfgs[k], &cgra, None);
        assert!(served.persistent, "chain{} still hits", k + 3);
        assert_eq!(format!("{:?}", served.outcome), format!("{:?}", solved[k]));
    }
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.persistent_hits), (1, 2));
}

#[test]
fn the_first_record_for_a_duplicate_key_wins() {
    let dir = TempDir::new("duplicate");
    let dfg = chain(3);
    let cgra = Cgra::square(2);
    let solved = populate(dir.path(), std::slice::from_ref(&dfg));
    let key = Engine::new(EngineConfig::default()).key(&dfg, &cgra);
    let mut later = (*solved[0]).clone();
    later.outcome.elapsed += std::time::Duration::from_secs(1);
    let mut appender = Appender::open(&dir.results_file(), StoreKind::Results).unwrap();
    appender
        .append(&persist::encode_result_record(key, &later))
        .unwrap();
    drop(appender);

    let (eager, warnings) = persist::load_results(dir.path()).unwrap();
    assert!(warnings.is_empty());
    assert_eq!(format!("{:?}", eager[&key]), format!("{:?}", solved[0]));
    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert_eq!(engine.cache_stats().persistent_entries, 1);
    let served = engine.lookup_keyed(key).unwrap();
    assert_eq!(format!("{:?}", served.outcome), format!("{:?}", solved[0]));
}

// ---------------------------------------------------------------------
// The scan against the whole-file reader it replaced
// ---------------------------------------------------------------------

/// The store reader the streaming scan replaced, kept as a test oracle:
/// the whole file in memory, one frame after another, and the same
/// checksum-verified resync. Stores under test keep a valid header.
fn oracle_records(path: &Path) -> (Vec<Vec<u8>>, Vec<String>) {
    fn verified_at(bytes: &[u8], pos: usize) -> bool {
        if pos > bytes.len() || bytes.len() - pos < 12 {
            return false;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let body = pos + 12;
        if len > 64 << 20 || bytes.len() - body < len as usize {
            return false;
        }
        persist::checksum(&bytes[body..body + len as usize]) == sum
    }
    let scan_for_record =
        |bytes: &[u8], from: usize| (from..bytes.len()).find(|&pos| verified_at(bytes, pos));
    let bytes = fs::read(path).unwrap();
    let mut warnings = Vec::new();
    let mut records = Vec::new();
    let mut pos = 16;
    let mut index = 0usize;
    let path = path.display();
    while pos < bytes.len() {
        if bytes.len() - pos < 12 {
            warnings.push(format!(
                "{path}: truncated record header at offset {pos} (interrupted append?); \
                 dropping tail"
            ));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let body = pos + 12;
        if len > 64 << 20 || bytes.len() - body < len as usize {
            match scan_for_record(&bytes, pos + 1) {
                Some(next) => {
                    warnings.push(format!(
                        "{path}: record {index} at offset {pos} claims {len} bytes (torn \
                         append?); resynced at the next verified record, offset {next}"
                    ));
                    pos = next;
                    index += 1;
                    continue;
                }
                None => {
                    warnings.push(format!(
                        "{path}: record {index} at offset {pos} claims {len} bytes but only {} \
                         remain and no later record verifies; dropping tail",
                        bytes.len() - body
                    ));
                    break;
                }
            }
        }
        let payload = &bytes[body..body + len as usize];
        if persist::checksum(payload) != sum {
            let next = body + len as usize;
            if next == bytes.len() || verified_at(&bytes, next) {
                warnings.push(format!(
                    "{path}: record {index} at offset {pos} fails its checksum; skipped"
                ));
                pos = next;
                index += 1;
                continue;
            }
            match scan_for_record(&bytes, pos + 1) {
                Some(next) => {
                    warnings.push(format!(
                        "{path}: record {index} at offset {pos} fails its checksum and its \
                         length prefix is untrustworthy; resynced at the next verified \
                         record, offset {next}"
                    ));
                    pos = next;
                    index += 1;
                    continue;
                }
                None => {
                    warnings.push(format!(
                        "{path}: record {index} at offset {pos} fails its checksum and no \
                         later record verifies; dropping tail"
                    ));
                    break;
                }
            }
        }
        records.push(payload.to_vec());
        pos = body + len as usize;
        index += 1;
    }
    (records, warnings)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// An outcome whose record is larger than the scan's read buffer.
fn oversized_outcome(like: &EngineOutcome) -> EngineOutcome {
    let mut outcome = like.clone();
    outcome.outcome.result = Err(satmapit_core::MapFailure::Internal("x".repeat(300_000)));
    outcome
}

/// A results store in `dir` several scan buffers long: the real records
/// of four chains, then `padding` records under random keys cycling
/// through them — one of them oversized — and a duplicate key. Returns
/// the store's path.
fn padded_store(dir: &Path, padding: usize, seed: u64) -> PathBuf {
    let dfgs: Vec<Dfg> = (3..7).map(chain).collect();
    let mut outcomes: Vec<EngineOutcome> = populate(dir, &dfgs)
        .iter()
        .map(|outcome| (**outcome).clone())
        .collect();
    outcomes.push(oversized_outcome(&outcomes[0]));
    let path = dir.join(persist::RESULTS_FILE);
    let mut appender = Appender::open(&path, StoreKind::Results).unwrap();
    let mut state = seed | 1;
    let mut keys = Vec::new();
    for k in 0..padding {
        let key = Fingerprint(u128::from(xorshift(&mut state)) << 64 | u128::from(k as u64));
        let outcome = &outcomes[if k == padding / 2 { 4 } else { k % 4 }];
        appender
            .append(&persist::encode_result_record(key, outcome))
            .unwrap();
        keys.push(key);
    }
    // A later record for an earlier key: the first one must win.
    appender
        .append(&persist::encode_result_record(keys[1], &outcomes[3]))
        .unwrap();
    path
}

/// Holds the engine's lazy answers, the eager loader and the scan to the
/// oracle on the store in `dir`: the same records, the same warnings
/// (text and count), and for every key the same outcome.
fn assert_lazy_matches_eager(dir: &Path) {
    let path = dir.join(persist::RESULTS_FILE);
    let (oracle, oracle_warnings) = oracle_records(&path);
    let (records, warnings) = persist::read_records(&path, StoreKind::Results).unwrap();
    assert_eq!(warnings, oracle_warnings);
    assert!(
        records == oracle,
        "the scan keeps exactly the oracle's records"
    );

    let (eager, eager_warnings) = persist::load_results(dir).unwrap();
    assert_eq!(eager_warnings, oracle_warnings);
    let mut expected = std::collections::HashMap::new();
    for payload in &oracle {
        let (key, outcome) = persist::decode_result_record(payload).unwrap();
        expected
            .entry(key)
            .or_insert_with(|| format!("{outcome:?}"));
    }
    assert_eq!(eager.len(), expected.len());

    let engine = Engine::with_cache_dir(EngineConfig::default(), dir).unwrap();
    assert_eq!(engine.load_warnings(), oracle_warnings.as_slice());
    assert_eq!(engine.cache_stats().persistent_entries, expected.len());
    for (key, outcome) in &expected {
        assert_eq!(&format!("{:?}", eager[key]), outcome, "eager {key}");
        let served = engine.lookup_keyed(*key).expect("every key hits");
        assert!(served.persistent);
        assert_eq!(&format!("{:?}", served.outcome), outcome, "lazy {key}");
    }
    // Nothing was appended: dropping the engine leaves the store as it is.
    std::mem::forget(engine);
}

/// The frame offsets of a store, walked by their (intact) length
/// prefixes.
fn frame_offsets(path: &Path) -> Vec<usize> {
    let bytes = fs::read(path).unwrap();
    let mut offsets = Vec::new();
    let mut pos = 16;
    while pos + 12 <= bytes.len() {
        offsets.push(pos);
        pos += 12 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    }
    offsets
}

#[test]
fn lazy_answers_equal_the_eager_decode_on_intact_and_damaged_stores() {
    let source = TempDir::new("differential");
    let path = padded_store(source.path(), 1200, 7);
    let pristine = fs::read(&path).unwrap();
    let offsets = frame_offsets(&path);
    assert!(pristine.len() > 4 * (128 << 10), "several scan buffers");
    let middle = offsets[offsets.len() / 3];

    let damaged: Vec<(&str, Vec<u8>)> = vec![
        ("intact", pristine.clone()),
        ("torn-tail", {
            let last = *offsets.last().unwrap();
            pristine[..last + (pristine.len() - last) / 2].to_vec()
        }),
        ("flipped-length", {
            let mut bytes = pristine.clone();
            bytes[middle] ^= 0x08;
            bytes
        }),
        ("bad-checksum", {
            let mut bytes = pristine.clone();
            bytes[middle + 12 + 30] ^= 0x40;
            bytes
        }),
    ];
    for (tag, bytes) in damaged {
        let dir = TempDir::new(tag);
        fs::write(dir.results_file(), &bytes).unwrap();
        assert_lazy_matches_eager(dir.path());
        if tag != "intact" {
            let (_, warnings) = oracle_records(&dir.results_file());
            assert_eq!(warnings.len(), 1, "{tag}: {warnings:?}");
        }
    }
}

/// Random damage anywhere past the header — flipped bytes, cut tails,
/// inserted garbage, zeroed and repeated runs — across buffer
/// boundaries: the scan must keep exactly the oracle's records and say
/// exactly the oracle's warnings.
#[test]
fn the_scan_agrees_with_the_whole_file_reader_on_random_damage() {
    let source = TempDir::new("random-damage");
    let path = padded_store(source.path(), 700, 11);
    let pristine = fs::read(&path).unwrap();
    let dir = TempDir::new("random-damage-copy");
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..40 {
        let mut bytes = pristine.clone();
        for _ in 0..1 + xorshift(&mut state) % 3 {
            let at = 16 + (xorshift(&mut state) as usize) % (bytes.len() - 16);
            match xorshift(&mut state) % 5 {
                0 => bytes[at] ^= 1 << (xorshift(&mut state) % 8),
                1 => bytes.truncate(at),
                2 => {
                    let garbage: Vec<u8> = (0..1 + xorshift(&mut state) % 40)
                        .map(|_| xorshift(&mut state) as u8)
                        .collect();
                    bytes.splice(at..at, garbage);
                }
                3 => {
                    let end = (at + 1 + (xorshift(&mut state) as usize) % 2000).min(bytes.len());
                    bytes[at..end].fill(0);
                }
                _ => {
                    let end = (at + (xorshift(&mut state) as usize) % 3000).min(bytes.len());
                    let run = bytes[at..end].to_vec();
                    bytes.splice(at..at, run);
                }
            }
        }
        let path = dir.results_file();
        fs::write(&path, &bytes).unwrap();
        let (oracle, oracle_warnings) = oracle_records(&path);
        let (records, warnings) = persist::read_records(&path, StoreKind::Results).unwrap();
        assert_eq!(warnings, oracle_warnings, "round {round}");
        assert!(records == oracle, "round {round}: records differ");
    }
}

// ---------------------------------------------------------------------
// The committed format-v6 store
// ---------------------------------------------------------------------

/// The kernels the committed v6 fixture store holds, all at 2x2.
const FIXTURE_KERNELS: [&str; 3] = ["srand", "basicmath", "sha"];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v6")
}

/// Writes `tests/fixtures/v6`. The committed files were written by the
/// format-v6 engine and are the gate that later readers still serve
/// them: never rerun this after a format change, or the fixture stops
/// pinning v6. Run with `cargo test -p satmapit-engine --test persist
/// -- --ignored write_the_v6_fixture`.
#[test]
#[ignore = "writes the committed fixture"]
fn write_the_v6_fixture() {
    let dir = fixture_dir();
    let _ = fs::remove_dir_all(&dir);
    let engine = Engine::with_cache_dir(EngineConfig::default(), &dir).unwrap();
    for name in FIXTURE_KERNELS {
        let kernel = satmapit_kernels::by_name(name).expect("suite kernel");
        let (outcome, cached) = engine.map(&kernel.dfg, &Cgra::square(2));
        assert!(!cached && outcome.ii().is_some(), "{name} maps at 2x2");
    }
    engine.compact_persistent().unwrap();
}

#[test]
fn the_v6_fixture_reopens_into_the_outcomes_of_a_fresh_solve() {
    let dir = TempDir::new("v6");
    for name in [persist::RESULTS_FILE, persist::BOUNDS_FILE] {
        fs::copy(fixture_dir().join(name), dir.path().join(name)).unwrap();
    }
    let engine = Engine::with_cache_dir(EngineConfig::default(), dir.path()).unwrap();
    assert!(
        engine.load_warnings().is_empty(),
        "{:?}",
        engine.load_warnings()
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.persistent_entries, FIXTURE_KERNELS.len());
    assert_eq!(stats.bound_entries, FIXTURE_KERNELS.len());
    let fresh = Engine::new(EngineConfig::default());
    let cgra = Cgra::square(2);
    for name in FIXTURE_KERNELS {
        let dfg = satmapit_kernels::by_name(name).unwrap().dfg;
        let served = engine.map_with_deadline(&dfg, &cgra, None);
        assert!(served.persistent, "{name} answers from the fixture");
        let (solved, _) = fresh.map(&dfg, &cgra);
        assert_eq!(timeless(&served.outcome), timeless(&solved), "{name}");
        assert_eq!(
            engine.proven_bound(&dfg, &cgra),
            fresh.proven_bound(&dfg, &cgra),
            "{name}: the fixture's proven bound"
        );
    }
    assert_eq!(engine.cache_stats().misses, 0);
    // Re-encoding the decoded outcomes gives back the fixture's bytes.
    engine.compact_persistent().unwrap();
    for name in [persist::RESULTS_FILE, persist::BOUNDS_FILE] {
        assert!(
            fs::read(dir.path().join(name)).unwrap() == fs::read(fixture_dir().join(name)).unwrap(),
            "{name} compacts back to the fixture's bytes"
        );
    }
}
