//! The batch frontend: many (kernel × CGRA) jobs over a bounded worker
//! pool, memoized in a content-addressed result cache.

use satmapit_cgra::Cgra;
use satmapit_dfg::Dfg;
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::fingerprint::{fingerprint, problem_fingerprint, Fingerprint};
use crate::persist::{self, Appender, StoreKind, StoredRecord};
use crate::race::{solve, EngineOutcome};
use crate::EngineConfig;
use satmapit_core::AttemptOutcome;
use satmapit_obs as obs;
use satmapit_sat::counters::index_of;
use satmapit_sat::{CounterKind, Counters};

/// One mapping request in a batch.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name (reported back in the [`BatchItem`]).
    pub name: String,
    /// The loop body to map.
    pub dfg: Dfg,
    /// The target architecture.
    pub cgra: Cgra,
}

impl Job {
    /// A named mapping request.
    pub fn new(name: impl Into<String>, dfg: Dfg, cgra: Cgra) -> Job {
        Job {
            name: name.into(),
            dfg,
            cgra,
        }
    }
}

/// Result of one batch job.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The job's display name.
    pub name: String,
    /// Content hash the result is cached under.
    pub fingerprint: Fingerprint,
    /// The mapping outcome (shared with the cache: a repeated request
    /// returns the *same allocation*, so results are byte-identical).
    pub outcome: Arc<EngineOutcome>,
    /// `true` when the result came from the cache without solving.
    pub cached: bool,
    /// Wall-clock time this job took inside the batch (≈0 on cache hits).
    pub elapsed: Duration,
}

satmapit_sat::counters! {
    /// Cache occupancy and traffic counters. The `u64` counters are a
    /// table (see [`mod@satmapit_sat::counters`]): the engine keeps one atomic
    /// per entry, and the wire `stats` object and `batch --stats` list
    /// them from the declaration. A counter whose name
    /// [`crate::RaceStats`] or [`satmapit_sat::SolverStats`] also declares
    /// is fed from every solve this engine runs (see
    /// [`Engine::cache_stats`]). The table is append-only and persisted by
    /// position, so retired counters keep their slots and read 0.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CacheStats {
        /// Distinct results currently held.
        pub entries: usize,
        /// Problems with a proven II lower bound on record (kept across
        /// execution-config changes and even across results the result
        /// cache refuses to hold, like timeouts).
        pub bound_entries: usize,
        /// Entries that came from the on-disk store at startup (0 without
        /// persistence).
        pub persistent_entries: usize,
        /// `true` once consecutive append failures crossed
        /// [`crate::DurabilityPolicy::max_append_failures`] and the engine
        /// entered degraded memory-only mode: it keeps answering (and
        /// solving) from memory but no longer touches the disk. Cleared
        /// only by restart.
        pub degraded: bool,
    }
    counters {
        /// Requests answered from the cache.
        hits: sum,
        /// Requests that had to solve.
        misses: sum,
        /// Hits answered by an entry loaded from disk — repeat lookups
        /// that never touched the SAT solver in *this* process's lifetime.
        persistent_hits: sum,
        /// Misses whose II ladder started from a previously proven lower
        /// bound instead of the MII — rungs below it were skipped unsolved.
        bound_starts: sum,
        /// Clause-arena garbage collections across every solve this engine
        /// ran (summed from the per-attempt [`satmapit_sat::SolverStats`]).
        gc_runs: sum,
        /// Literal slots reclaimed by those collections, summed likewise.
        lits_reclaimed: sum,
        /// The largest post-solve arena waste (in words) any attempt left
        /// behind — an upper bound on how much dead clause memory a single
        /// solver carried at once.
        arena_wasted: peak,
        /// Retired with learnt-clause sharing (PR 24), always 0.
        shared_exported: sum,
        /// Retired likewise, always 0.
        shared_imported: sum,
        /// Retired likewise, always 0.
        shared_dropped: sum,
        /// Solves whose mapping came from the SAT backend, summed across
        /// every solve this engine ran (see
        /// [`crate::RaceStats::sat_wins`]).
        sat_wins: sum,
        /// Solves whose mapping came from the morph backend, summed
        /// likewise.
        morph_wins: sum,
        /// Retired with the cross-backend lane (PR 24), always 0.
        bound_exchanges: sum,
        /// Result-cache entries evicted by the size bound
        /// ([`crate::CacheLifecycle::max_entries`]), least-recently-used
        /// first. 0 with the default unbounded lifecycle.
        evicted_size: sum,
        /// Result-cache entries evicted by the age bound
        /// ([`crate::CacheLifecycle::max_age`]).
        evicted_age: sum,
        /// Store-compaction generations completed so far: incremental
        /// compactions triggered by
        /// [`crate::CacheLifecycle::compact_every`] plus explicit
        /// [`Engine::compact_persistent`] calls. 0 without persistence.
        compactions: sum,
        /// Failed store appends/fsyncs since startup (0 without
        /// persistence). Solving is unaffected — the failed record simply
        /// is not durable.
        append_errors: sum,
        /// fsyncs issued by the append cadence
        /// ([`crate::DurabilityPolicy::fsync_every`]).
        fsyncs: sum,
    }
}

/// The position of the [`CacheStats`] counter `name` in [`Engine`]'s
/// counter array, for the counters the engine bumps itself. Meant for
/// `const` contexts: there a name the table does not declare fails the
/// build.
const fn slot(name: &str) -> usize {
    match index_of(CacheStats::TABLE, name) {
        Some(i) => i,
        None => panic!("not a CacheStats counter"),
    }
}

/// Where a served result came from.
#[derive(Debug, Clone)]
pub struct Served {
    /// The (shared) outcome.
    pub outcome: Arc<EngineOutcome>,
    /// The content hash the request was looked up under (callers reuse
    /// it instead of re-hashing the problem).
    pub key: Fingerprint,
    /// `true` when no solving happened — the result cache answered.
    pub cached: bool,
    /// `true` when the answering entry was loaded from the on-disk store
    /// (implies `cached`).
    pub persistent: bool,
}

/// A memoized outcome: decoded, or still on disk where the startup scan
/// indexed it, decoded by its first hit ([`Engine::decode_stored`]). An
/// entry is on disk only from the load on; only a compaction moves it,
/// and compactions run one at a time under the results appender's lock.
#[derive(Debug, Clone)]
enum Stored {
    Decoded(Arc<EngineOutcome>),
    OnDisk(StoredRecord),
}

/// One memoized result plus the metadata cache eviction needs.
#[derive(Debug)]
struct CacheEntry {
    outcome: Stored,
    /// When the entry entered this process's cache (by load or solve);
    /// the age bound measures from here.
    inserted: Instant,
    /// Engine-wide access tick at last use; the size bound evicts the
    /// smallest first (least recently used).
    last_used: u64,
    /// `true` when the entry was loaded from the on-disk store at startup
    /// (hits on it count as persistent hits); an entry this process solved
    /// — first time or again after an eviction — is born `false`.
    from_disk: bool,
}

/// A mapping service: solves through [`solve`] and memoizes every result
/// under a content hash of (DFG structure, CGRA, configuration), so
/// repeated requests are O(1).
///
/// ```
/// use satmapit_cgra::Cgra;
/// use satmapit_dfg::{Dfg, Op};
/// use satmapit_engine::{Engine, EngineConfig};
/// use std::sync::Arc;
///
/// let mut dfg = Dfg::new("pair");
/// let a = dfg.add_const(1);
/// let b = dfg.add_node(Op::Neg);
/// dfg.add_edge(a, b, 0);
///
/// let engine = Engine::new(EngineConfig::default());
/// let (first, cached) = engine.map(&dfg, &Cgra::square(2));
/// assert!(!cached);
/// let (second, cached) = engine.map(&dfg, &Cgra::square(2));
/// assert!(cached);
/// assert!(Arc::ptr_eq(&first, &second)); // byte-identical result
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    cache: Mutex<HashMap<Fingerprint, CacheEntry>>,
    /// Proven II lower bounds per *problem* (see
    /// [`problem_fingerprint`]): `b` means every II below `b` was answered
    /// `Unsat` for that problem; `u32::MAX` means proven unmappable at
    /// every II. Unlike the result cache this survives timeouts — a job
    /// that died at the deadline still donates the rungs it closed, so
    /// the retry starts its ladder higher.
    bounds: Mutex<HashMap<Fingerprint, u32>>,
    /// One atomic per [`CacheStats`] counter, in table order: bumped one
    /// event at a time ([`Engine::bump`]), fed a whole solve at a time
    /// ([`Engine::absorb`]), read by [`Engine::cache_stats`].
    counters: [AtomicU64; CacheStats::TABLE.len()],
    /// Monotone access clock for LRU eviction: every cache touch takes
    /// a ticket and stamps the entry. Tickets start at 1: 0 stamps the
    /// entries loaded from disk, older than any touch.
    tick: AtomicU64,
    /// Thundering-herd guard: fingerprints currently being solved. A
    /// lookup that finds its key here waits for the leader to finish and
    /// then re-reads the cache, instead of solving the identical problem
    /// a second time — essential once many service clients submit the
    /// same job concurrently.
    inflight: Mutex<HashSet<Fingerprint>>,
    inflight_cv: Condvar,
    /// Disk persistence, when opened with [`Engine::with_cache_dir`].
    persist: Option<Persistence>,
}

/// The open on-disk stores and their write-path state.
#[derive(Debug)]
struct Persistence {
    dir: PathBuf,
    results: Mutex<Appender>,
    bounds: Mutex<Appender>,
    /// `true` once anything was appended since the last compaction; lets
    /// the drop-time compaction skip rewriting files that are already
    /// exactly the live set.
    dirty: std::sync::atomic::AtomicBool,
    /// Successful appends since the last compaction; when it reaches
    /// [`crate::CacheLifecycle::compact_every`] the appending thread
    /// compacts in place, starting a new generation.
    appends: AtomicU64,
    /// Single-flight latch so concurrent append thresholds trigger one
    /// compaction, not a pile-up behind the store locks.
    compacting: std::sync::atomic::AtomicBool,
    /// Consecutive append failures — reset by any success; crossing
    /// [`crate::DurabilityPolicy::max_append_failures`] trips
    /// `degraded`.
    failure_streak: AtomicU64,
    /// One-way latch: once set, the engine stops touching the disk
    /// entirely (no appends, no compaction) and serves from memory only
    /// until restart.
    degraded: std::sync::atomic::AtomicBool,
    /// Load-time diagnostics: skipped records, ignored files.
    warnings: Vec<String>,
}

/// The ordering of every operation on [`Engine`]'s `counters`.
// ordering: each counter is an independent telemetry value — a monotone
// sum or a high-water mark — that publishes no other data, and a snapshot
// is advisory: it needs no consistency across counters.
const TELEMETRY: Ordering = Ordering::Relaxed;

/// Locks an engine-internal mutex, recovering from poison. Every
/// structure behind these mutexes is mutated by single inserts/clears
/// that leave it coherent even if the owning thread panics mid-solve,
/// so a panicking worker must degrade to one failed request — never
/// wedge the shared engine for every later caller (the lock-discipline
/// invariant; see docs/lint.md).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// An engine with the given configuration and an empty, in-memory-only
    /// cache.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            config,
            cache: Mutex::new(HashMap::new()),
            bounds: Mutex::new(HashMap::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            tick: AtomicU64::new(1),
            inflight: Mutex::new(HashSet::new()),
            inflight_cv: Condvar::new(),
            persist: None,
        }
    }

    /// An engine whose result and proven-II-bound caches are backed by the
    /// versioned, checksummed stores in `dir` (see [`crate::persist`]):
    /// existing records seed the caches — result records as an index, each
    /// decoded on its first hit — every miss appends its record, and
    /// [`Engine::compact_persistent`] (also run on drop) rewrites the files
    /// from the live set. Corrupt or truncated records are skipped and
    /// reported through [`Engine::load_warnings`], never trusted.
    ///
    /// # Errors
    ///
    /// Fails only on real I/O errors (unreadable directory, failing
    /// appends); corruption is downgraded to warnings.
    pub fn with_cache_dir(config: EngineConfig, dir: &Path) -> io::Result<Engine> {
        std::fs::create_dir_all(dir)?;
        // Sweep temp files stranded by a compaction that crashed before
        // its rename — they hold a superseded snapshot at best.
        let mut warnings = persist::clean_stale_tmp(dir)?;
        let (results, load_warnings) = persist::index_results(dir)?;
        warnings.extend(load_warnings);
        let (bounds, bound_warnings) = persist::load_bounds(dir)?;
        warnings.extend(bound_warnings);
        let persistence = Persistence {
            results: Mutex::new(Appender::open(
                &dir.join(persist::RESULTS_FILE),
                StoreKind::Results,
            )?),
            bounds: Mutex::new(Appender::open(
                &dir.join(persist::BOUNDS_FILE),
                StoreKind::Bounds,
            )?),
            dir: dir.to_path_buf(),
            dirty: std::sync::atomic::AtomicBool::new(false),
            appends: AtomicU64::new(0),
            compacting: std::sync::atomic::AtomicBool::new(false),
            failure_streak: AtomicU64::new(0),
            degraded: std::sync::atomic::AtomicBool::new(false),
            warnings,
        };
        // Loaded entries all share one birth instant and tick 0: the age
        // bound measures residency in *this* process, and an untouched
        // loaded entry is the first LRU victim.
        let now = Instant::now();
        let cache: HashMap<Fingerprint, CacheEntry> = results
            .into_iter()
            .map(|(key, record)| {
                (
                    key,
                    CacheEntry {
                        outcome: Stored::OnDisk(record),
                        inserted: now,
                        last_used: 0,
                        from_disk: true,
                    },
                )
            })
            .collect();
        let mut engine = Engine::new(config);
        engine.cache = Mutex::new(cache);
        engine.bounds = Mutex::new(bounds);
        engine.persist = Some(persistence);
        Ok(engine)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The cache directory backing this engine, if persistence is on.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(|p| p.dir.as_path())
    }

    /// Diagnostics from loading the on-disk stores (skipped corrupt
    /// records, ignored foreign files). Empty without persistence.
    pub fn load_warnings(&self) -> &[String] {
        self.persist.as_ref().map_or(&[], |p| &p.warnings)
    }

    /// Cache occupancy and traffic counters. Besides the events the engine
    /// counts itself, every solve feeds the counters whose names the
    /// solve's own statistics declare: [`crate::RaceStats`] counters from
    /// the outcome's `stats`, [`satmapit_sat::SolverStats`] counters from
    /// the attempts the outcome lists — sums added up, peaks kept.
    pub fn cache_stats(&self) -> CacheStats {
        let (entries, persistent_entries) = {
            let cache = lock(&self.cache);
            let from_disk = cache.values().filter(|entry| entry.from_disk).count();
            (cache.len(), from_disk)
        };
        let mut stats = CacheStats {
            entries,
            bound_entries: lock(&self.bounds).len(),
            persistent_entries,
            degraded: self.degraded(),
            ..CacheStats::default()
        };
        for (slot, counter) in stats.slots().zip(&self.counters) {
            *slot = counter.load(TELEMETRY);
        }
        stats
    }

    /// Counts one event of the counter at `slot` (see [`slot`]).
    fn bump(&self, slot: usize) {
        self.counters[slot].fetch_add(1, TELEMETRY);
    }

    /// Folds the effort of one solve into the engine-wide counters.
    fn absorb(&self, outcome: &EngineOutcome) {
        let mut effort = CacheStats::default();
        effort.absorb(outcome.stats.fields());
        for attempt in &outcome.outcome.attempts {
            if let Some(stats) = &attempt.solver_stats {
                effort.absorb(stats.fields());
            }
        }
        for (counter, (_, kind, value)) in self.counters.iter().zip(effort.fields()) {
            match kind {
                CounterKind::Sum => counter.fetch_add(value, TELEMETRY),
                CounterKind::Peak => counter.fetch_max(value, TELEMETRY),
                CounterKind::Gauge => counter.swap(value, TELEMETRY),
            };
        }
    }

    /// `true` once the engine tripped into degraded memory-only mode:
    /// consecutive store-append failures crossed
    /// [`crate::DurabilityPolicy::max_append_failures`], so disk writes
    /// are disabled and every answer comes from (and stays in) memory.
    /// Always `false` without persistence; cleared only by restart.
    pub fn degraded(&self) -> bool {
        // ordering: one-way advisory latch; a racing reader seeing the
        // old value only costs one more append attempt.
        self.persist
            .as_ref()
            .is_some_and(|p| p.degraded.load(Ordering::Relaxed))
    }

    /// Drops every cached result and every proven II bound (in memory
    /// only; on-disk stores keep their records until the next compaction).
    pub fn clear_cache(&self) {
        lock(&self.cache).clear();
        lock(&self.bounds).clear();
        if let Some(persist) = &self.persist {
            // The stores no longer match the (now empty) live set.
            // ordering: dirty is a single advisory flag read at drop;
            // nothing synchronizes through it.
            persist.dirty.store(true, Ordering::Relaxed);
        }
    }

    /// Rewrites the on-disk stores from the live in-memory caches:
    /// deduplicates superseded records, drops corrupt tails, and leaves
    /// each file exactly one record per entry. A no-op without
    /// persistence. Runs automatically when the engine is dropped.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the rewrite; the original files
    /// are replaced atomically (temp file + rename), so a failed
    /// compaction never destroys existing records.
    pub fn compact_persistent(&self) -> io::Result<()> {
        let Some(persist) = &self.persist else {
            return Ok(());
        };
        // A degraded engine has sworn off the disk: compacting would be
        // a fresh round of writes against the same failing device, and
        // worse, a *successful* rewrite would replace a store holding
        // records the memory-only mode never persisted.
        // ordering: one-way advisory latch (see `Engine::degraded`).
        if persist.degraded.load(Ordering::Relaxed) {
            return Ok(());
        }
        let sync = self.config.durability.sync_compaction;
        // Each store's appender lock is taken first and held through the
        // rewrite, but the live map's lock only while it is snapshotted:
        // encoding and the write + fsync + rename run with the cache free
        // for probes and inserts. An insert that lands after the snapshot
        // appends through the same appender, so it waits here and goes to
        // the compacted file.
        {
            let mut appender = lock(&persist.results);
            let mut live: Vec<(Fingerprint, Stored)> = lock(&self.cache)
                .iter()
                .map(|(&key, entry)| (key, entry.outcome.clone()))
                .collect();
            // Deterministic file contents: key order, not hash-map order.
            live.sort_by_key(|(key, _)| *key);
            let path = persist.dir.join(persist::RESULTS_FILE);
            let mut out = persist::StoreWriter::create(&path, StoreKind::Results)?;
            // A record never decoded is copied frame for frame, so it
            // stays byte-identical; one that no longer verifies is left
            // out, and its entry goes below.
            let mut moved = Vec::new();
            let mut lost = Vec::new();
            let mut frame = Vec::new();
            for (key, stored) in live {
                match stored {
                    Stored::Decoded(outcome) => {
                        out.push(&persist::encode_result_record(key, &outcome))?;
                    }
                    Stored::OnDisk(record) => match record.frame(&mut frame) {
                        Ok(bytes) => moved.push((key, record, out.push_frame(bytes)?)),
                        Err(e) => {
                            self.warn_stored(&record, &e);
                            lost.push(key);
                        }
                    },
                }
            }
            let file = Arc::new(out.commit(sync)?);
            // Entries still on disk now read from the compacted file, so
            // the replaced store's inode is not held open.
            {
                let mut cache = lock(&self.cache);
                for (key, old, offset) in moved {
                    if let Some(Stored::OnDisk(record)) =
                        cache.get_mut(&key).map(|entry| &mut entry.outcome)
                    {
                        *record = old.moved_to(&file, offset);
                    }
                }
                for key in lost {
                    remove_stored(&mut cache, key);
                }
            }
            // The rewrite replaced the inode the appender held open;
            // reopen so later appends land in the compacted file.
            *appender = Appender::open(&path, StoreKind::Results)?;
        }
        {
            let mut appender = lock(&persist.bounds);
            let mut live: Vec<(Fingerprint, u32)> = lock(&self.bounds)
                .iter()
                .map(|(&key, &bound)| (key, bound))
                .collect();
            live.sort_by_key(|(key, _)| *key);
            let payloads: Vec<Vec<u8>> = live
                .iter()
                .map(|&(key, bound)| persist::encode_bound_record(key, bound))
                .collect();
            persist::rewrite(
                &persist.dir.join(persist::BOUNDS_FILE),
                StoreKind::Bounds,
                &payloads,
                sync,
            )?;
            *appender = Appender::open(&persist.dir.join(persist::BOUNDS_FILE), StoreKind::Bounds)?;
        }
        // ordering: same advisory dirty flag as in clear_cache.
        persist.dirty.store(false, Ordering::Relaxed);
        // ordering: advisory counter — restarts the incremental-compaction
        // countdown.
        persist.appends.store(0, Ordering::Relaxed);
        self.bump(const { slot("compactions") });
        Ok(())
    }

    /// The proven II lower bound on record for `(dfg, cgra)` under this
    /// engine's mapping semantics, if any (`u32::MAX` = proven unmappable
    /// at every II).
    pub fn proven_bound(&self, dfg: &Dfg, cgra: &Cgra) -> Option<u32> {
        let key = problem_fingerprint(dfg, cgra, &self.config.mapper);
        lock(&self.bounds).get(&key).copied()
    }

    /// Maps one request, serving it from the cache when possible. Returns
    /// the (shared) outcome and whether it was a cache hit.
    pub fn map(&self, dfg: &Dfg, cgra: &Cgra) -> (Arc<EngineOutcome>, bool) {
        let served = self.map_with_deadline(dfg, cgra, None);
        (served.outcome, served.cached)
    }

    /// A pure cache probe: answers from the result cache if the entry
    /// exists (counting it as a hit, exactly like [`Engine::map`] would),
    /// and returns `None` without solving — or queuing, or waiting on an
    /// in-flight leader — otherwise. Lets callers with an already-expired
    /// deadline still serve cached answers instead of a reflexive
    /// timeout.
    pub fn lookup_cached(&self, dfg: &Dfg, cgra: &Cgra) -> Option<Served> {
        self.lookup_keyed(self.key(dfg, cgra))
    }

    /// The content hash this engine caches `(dfg, cgra)` under — the key
    /// [`Engine::lookup_keyed`] and [`Engine::map_keyed`] take, so a
    /// caller that probes and then solves hashes the problem once.
    pub fn key(&self, dfg: &Dfg, cgra: &Cgra) -> Fingerprint {
        fingerprint(dfg, cgra, &self.config)
    }

    /// [`Engine::lookup_cached`] under a key from [`Engine::key`]. The
    /// one cache-hit path: looks `key` up, stamps the entry's LRU tick,
    /// decodes an entry still on disk, books the hit (and the persistent
    /// hit, for an entry loaded from disk) and records the `cache_probe`
    /// span.
    pub fn lookup_keyed(&self, key: Fingerprint) -> Option<Served> {
        let mut span = obs::trace::Span::begin(obs::trace::Category::Persist, "cache_probe");
        let hit = {
            // ordering: the LRU tick only needs uniqueness-ish
            // monotonicity for victim selection; ties are harmless.
            let tick = self.tick.fetch_add(1, Ordering::Relaxed);
            let mut cache = lock(&self.cache);
            cache.get_mut(&key).map(|entry| {
                entry.last_used = tick;
                (entry.outcome.clone(), entry.from_disk)
            })
        };
        let outcome = match hit {
            Some((Stored::Decoded(outcome), persistent)) => Some((outcome, persistent)),
            Some((Stored::OnDisk(record), persistent)) => self
                .decode_stored(key, &record)
                .map(|outcome| (outcome, persistent)),
            None => None,
        };
        let Some((outcome, persistent)) = outcome else {
            span.arg("hit", 0);
            return None;
        };
        self.bump(const { slot("hits") });
        if persistent {
            self.bump(const { slot("persistent_hits") });
        }
        span.arg("hit", 1);
        span.arg("persistent", i64::from(persistent));
        Some(Served {
            outcome,
            key,
            cached: true,
            persistent,
        })
    }

    /// The first hit on an entry still on disk: reads, re-verifies and
    /// decodes its record outside the cache lock, then swaps the outcome
    /// in — or, when another hit decoded it first, serves that one, so
    /// every hit shares one allocation. A record that no longer verifies
    /// or decodes leaves the cache and the hit becomes a miss: it is
    /// never served, and the caller re-solves.
    fn decode_stored(&self, key: Fingerprint, record: &StoredRecord) -> Option<Arc<EngineOutcome>> {
        let loaded = record.load(key);
        let mut cache = lock(&self.cache);
        match loaded {
            Ok(outcome) => {
                let outcome = Arc::new(outcome);
                match cache.get_mut(&key) {
                    Some(entry) => match &entry.outcome {
                        Stored::Decoded(first) => Some(Arc::clone(first)),
                        Stored::OnDisk(_) => {
                            entry.outcome = Stored::Decoded(Arc::clone(&outcome));
                            Some(outcome)
                        }
                    },
                    // Evicted since the probe: the record verified, so
                    // this hit is still answered.
                    None => Some(outcome),
                }
            }
            Err(e) => {
                remove_stored(&mut cache, key);
                drop(cache);
                if let Some(persist) = &self.persist {
                    // ordering: advisory dirty flag, read at drop.
                    persist.dirty.store(true, Ordering::Relaxed);
                }
                self.warn_stored(record, &e);
                None
            }
        }
    }

    /// Reports a record the startup scan verified that can no longer be
    /// served.
    fn warn_stored(&self, record: &StoredRecord, e: &io::Error) {
        let path = self
            .cache_dir()
            .map(|dir| dir.join(persist::RESULTS_FILE))
            .unwrap_or_default();
        obs::warn!(
            "satmapit::engine::persist",
            "{}: record at offset {} {e}; dropped from the cache",
            path.display(),
            record.offset()
        );
    }

    /// [`Engine::map`] with an optional wall-clock deadline for *this
    /// lookup only*. The cache key is unchanged — the deadline is an
    /// execution constraint, not part of the problem — so a request that
    /// completes in time populates the cache for every later caller, and
    /// one that times out is not memoized (the retry solves afresh).
    /// The effective solve budget is the tighter of the engine's
    /// configured timeout and the remaining time to `deadline`.
    pub fn map_with_deadline(&self, dfg: &Dfg, cgra: &Cgra, deadline: Option<Instant>) -> Served {
        self.map_keyed(self.key(dfg, cgra), dfg, cgra, deadline)
    }

    /// [`Engine::map_with_deadline`] under a key from [`Engine::key`], for
    /// a caller that already hashed the problem to probe the cache. The
    /// cache is probed again here: a duplicate may have landed since.
    pub fn map_keyed(
        &self,
        key: Fingerprint,
        dfg: &Dfg,
        cgra: &Cgra,
        deadline: Option<Instant>,
    ) -> Served {
        loop {
            if let Some(served) = self.lookup_keyed(key) {
                return served;
            }
            // Become the leader for this key, or wait for the current one
            // and re-read the cache (its result lands there unless it was
            // transient, in which case we take over).
            {
                let mut inflight = lock(&self.inflight);
                if inflight.contains(&key) {
                    // A follower whose own deadline has passed must not
                    // keep waiting on a leader with a laxer budget: fall
                    // through and solve — with the expired deadline the
                    // climb reports Timeout at once, honouring this
                    // caller's budget without disturbing the leader.
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        drop(inflight);
                        return self.solve_keyed(key, dfg, cgra, deadline);
                    }
                    let _wait = self
                        .inflight_cv
                        .wait_timeout(inflight, Duration::from_millis(50))
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                inflight.insert(key);
            }
            // The guard removes the key and wakes followers even if the
            // solve below unwinds — a panicking leader must not strand
            // its followers in the wait loop.
            struct InflightGuard<'a> {
                engine: &'a Engine,
                key: Fingerprint,
            }
            impl Drop for InflightGuard<'_> {
                fn drop(&mut self) {
                    lock(&self.engine.inflight).remove(&self.key);
                    self.engine.inflight_cv.notify_all();
                }
            }
            let _guard = InflightGuard { engine: self, key };
            return self.solve_keyed(key, dfg, cgra, deadline);
        }
    }

    /// The miss path: solve the problem, record bounds, memoize and
    /// persist. Callers hold the in-flight leadership for `key`.
    fn solve_keyed(
        &self,
        key: Fingerprint,
        dfg: &Dfg,
        cgra: &Cgra,
        deadline: Option<Instant>,
    ) -> Served {
        let mut config = self.config.clone();
        if let Some(deadline) = deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            config.mapper.timeout = Some(match config.mapper.timeout {
                Some(t) => t.min(remaining),
                None => remaining,
            });
        }
        // Consume any proven lower bound for this problem: rungs below it
        // were already answered Unsat (possibly by a differently-configured
        // or timed-out run), so the climb starts above them.
        let problem_key = problem_fingerprint(dfg, cgra, &config.mapper);
        let known_bound = lock(&self.bounds).get(&problem_key).copied();
        if known_bound.is_some() {
            self.bump(const { slot("bound_starts") });
        }
        let outcome = Arc::new(solve(dfg, cgra, &config, known_bound));
        self.bump(const { slot("misses") });
        self.absorb(&outcome);
        self.record_bound(problem_key, known_bound, &outcome);
        // Wall-clock-dependent failures are not memoized: a timed-out job
        // resubmitted later (idler machine) deserves a fresh
        // solve. Internal failures (a panicking attempt, caught and
        // isolated by `solve`) are likewise transient — memoizing one
        // would pin a crash report into the cache forever. Everything
        // else — successes and deterministic failures — is cached; the
        // first insert wins so concurrent solvers of the same key still
        // leave later lookups byte-identical.
        let transient = matches!(
            outcome.outcome.result,
            Err(satmapit_core::MapFailure::Timeout { .. })
                | Err(satmapit_core::MapFailure::Internal(_))
        );
        if transient {
            return Served {
                outcome,
                key,
                cached: false,
                persistent: false,
            };
        }
        let shared = {
            // ordering: LRU tick, as in `probe`. Taken before the
            // lock so the freshly inserted entry carries the newest
            // stamp and can never be the eviction victim it just made
            // room for.
            let tick = self.tick.fetch_add(1, Ordering::Relaxed);
            let mut cache = lock(&self.cache);
            let fresh = || CacheEntry {
                outcome: Stored::Decoded(Arc::clone(&outcome)),
                inserted: Instant::now(),
                last_used: 0,
                from_disk: false,
            };
            let entry = cache.entry(key).or_insert_with(fresh);
            // An entry still on disk here is one the probe could not
            // serve; the fresh solve replaces it.
            if matches!(entry.outcome, Stored::OnDisk(_)) {
                *entry = fresh();
            }
            entry.last_used = tick;
            let Stored::Decoded(shared) = &entry.outcome else {
                unreachable!("a solved entry is decoded")
            };
            let shared = Arc::clone(shared);
            self.evict_locked(&mut cache);
            shared
        };
        // Only the winning insert reaches the store — a caller that lost
        // the insert to an identical key must not write a duplicate record.
        if Arc::ptr_eq(&shared, &outcome) {
            if let Some(persist) = &self.persist {
                let mut span =
                    obs::trace::Span::begin(obs::trace::Category::Persist, "persist_result");
                let record = persist::encode_result_record(key, &shared);
                span.arg("bytes", record.len() as i64);
                let acknowledged = self.persist_append(persist, &persist.results, &record);
                span.arg("persisted", i64::from(acknowledged));
                drop(span);
                if acknowledged {
                    self.note_append();
                }
            }
        }
        Served {
            outcome: shared,
            key,
            cached: false,
            persistent: false,
        }
    }

    /// Extracts and records the II lower bound this outcome proved: the
    /// contiguous run of `Unsat` rungs anchored at the climb's start
    /// (IIs below the start are covered by the MII theory plus the
    /// previously recorded bound), or `u32::MAX` when an UNSAT core proved
    /// the problem unmappable at every II. Only sound proofs feed the map
    /// — a give-up (an exhausted register-allocation retry loop) or a rung
    /// the deadline cut short never does, and engines configured with an
    /// explicit `start_ii` record nothing (their start is not a
    /// feasibility statement).
    fn record_bound(
        &self,
        problem_key: Fingerprint,
        known_bound: Option<u32>,
        outcome: &EngineOutcome,
    ) {
        if self.config.mapper.start_ii.is_some() {
            return;
        }
        let proven = if outcome.proven_unmappable {
            u32::MAX
        } else {
            let anchor = outcome.stats.race_start;
            if anchor == 0 {
                return; // no rung was attempted
            }
            let mut expected = anchor;
            for attempt in &outcome.outcome.attempts {
                if attempt.ii == expected && attempt.outcome == AttemptOutcome::Unsat {
                    expected += 1;
                } else {
                    break;
                }
            }
            expected
        };
        if Some(proven) <= known_bound {
            return; // nothing new proven
        }
        let improved = {
            let mut bounds = lock(&self.bounds);
            let entry = bounds.entry(problem_key).or_insert(0);
            if proven > *entry {
                *entry = proven;
                true
            } else {
                false
            }
        };
        if improved {
            if let Some(persist) = &self.persist {
                let mut span =
                    obs::trace::Span::begin(obs::trace::Category::Persist, "persist_bound");
                span.arg("proven_ii", i64::from(proven));
                let record = persist::encode_bound_record(problem_key, proven);
                let acknowledged = self.persist_append(persist, &persist.bounds, &record);
                span.arg("persisted", i64::from(acknowledged));
                drop(span);
                if acknowledged {
                    self.note_append();
                }
            }
        }
    }

    /// Applies the configured [`crate::CacheLifecycle`] bounds with the
    /// cache lock held: first sweeps entries past `max_age`, then evicts
    /// least-recently-used entries until `max_entries` is honoured. The
    /// caller just inserted the newest entry, which carries the highest
    /// tick and therefore never evicts itself. An eviction marks the
    /// store dirty: it still holds the evicted record until the next
    /// compaction.
    fn evict_locked(&self, cache: &mut HashMap<Fingerprint, CacheEntry>) {
        let lifecycle = &self.config.lifecycle;
        let before = cache.len();
        if let Some(max_age) = lifecycle.max_age {
            let now = Instant::now();
            let expired: Vec<Fingerprint> = cache
                .iter()
                .filter(|(_, entry)| now.duration_since(entry.inserted) > max_age)
                .map(|(&key, _)| key)
                .collect();
            for key in expired {
                cache.remove(&key);
                self.bump(const { slot("evicted_age") });
            }
        }
        while lifecycle.max_entries > 0 && cache.len() > lifecycle.max_entries {
            let victim = cache
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(&key, _)| key);
            let Some(victim) = victim else { break };
            cache.remove(&victim);
            self.bump(const { slot("evicted_size") });
        }
        if let Some(persist) = self.persist.as_ref().filter(|_| cache.len() < before) {
            // ordering: advisory dirty flag, read at drop.
            persist.dirty.store(true, Ordering::Relaxed);
        }
    }

    /// Appends one record to a persistent store under the configured
    /// [`crate::DurabilityPolicy`]: write through the appender's failure
    /// latch, fsync on the cadence, count failures, and trip the
    /// degraded latch after `max_append_failures` consecutive failures.
    /// Returns `true` when the record was acknowledged (written, and
    /// synced if the cadence said so) — `false` on failure or when the
    /// engine is already degraded, in which case the caller serves from
    /// memory and moves on.
    fn persist_append(
        &self,
        persist: &Persistence,
        store: &Mutex<Appender>,
        record: &[u8],
    ) -> bool {
        // ordering: one-way advisory latch (see `Engine::degraded`).
        if persist.degraded.load(Ordering::Relaxed) {
            return false;
        }
        let fsync_every = self.config.durability.fsync_every;
        let result = {
            let mut appender = lock(store);
            appender.append(record).and_then(|()| {
                if fsync_every > 0 && appender.unsynced() >= fsync_every {
                    appender.sync()?;
                    self.bump(const { slot("fsyncs") });
                }
                Ok(())
            })
        };
        match result {
            Ok(()) => {
                // ordering: the streak is advisory failure bookkeeping;
                // an interleaved reset/bump only shifts when the latch
                // trips by one append.
                persist.failure_streak.store(0, Ordering::Relaxed);
                // ordering: advisory dirty flag, read at drop.
                persist.dirty.store(true, Ordering::Relaxed);
                true
            }
            Err(e) => {
                self.bump(const { slot("append_errors") });
                // ordering: advisory failure bookkeeping (see above).
                let streak = persist.failure_streak.fetch_add(1, Ordering::Relaxed) + 1;
                obs::warn!(
                    "satmapit::engine::persist",
                    "store append failed ({streak} consecutive): {e}"
                );
                let max = self.config.durability.max_append_failures;
                // ordering: one-way advisory latch; swap so exactly one
                // thread logs the transition.
                if max > 0 && streak >= max && !persist.degraded.swap(true, Ordering::Relaxed) {
                    obs::error!(
                        "satmapit::engine::persist",
                        "entering degraded memory-only mode after {streak} consecutive \
                         append failures; disk writes disabled until restart"
                    );
                }
                false
            }
        }
    }

    /// Books one successful store append and, every
    /// [`crate::CacheLifecycle::compact_every`] appends, compacts the
    /// stores in place — incremental compaction instead of letting
    /// superseded records pile up until shutdown. Single-flight: when
    /// several threads cross the threshold together, one compacts and
    /// the rest skip. Callers must not hold any engine lock.
    fn note_append(&self) {
        let every = self.config.lifecycle.compact_every;
        let Some(persist) = &self.persist else { return };
        if every == 0 {
            return;
        }
        // ordering: the append counter is advisory — an off-by-a-few
        // threshold crossing only shifts when compaction runs.
        if persist.appends.fetch_add(1, Ordering::Relaxed) + 1 < every {
            return;
        }
        // ordering: acquire/release on the single-flight latch pairs the
        // winner's compaction with the store(false) that reopens it.
        if persist
            .compacting
            .compare_exchange(
                false,
                true,
                Ordering::Acquire,
                Ordering::Relaxed, // ordering: failed CAS just skips; no data guarded
            )
            .is_err()
        {
            return;
        }
        let result = self.compact_persistent();
        // ordering: release the latch; see the CAS above.
        persist.compacting.store(false, Ordering::Release);
        if let Err(e) = result {
            obs::warn!(
                "satmapit::engine::persist",
                "incremental cache compaction failed: {e}"
            );
        }
    }

    /// Maps a whole batch over a bounded pool: up to `workers` distinct
    /// jobs run concurrently, each a sequential solve on its own thread.
    /// Jobs with identical content (same fingerprint) are solved once and
    /// fanned out — duplicates come back as cache hits. Results come back
    /// in job order.
    pub fn map_batch(&self, jobs: Vec<Job>) -> Vec<BatchItem> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let keys: Vec<Fingerprint> = jobs
            .iter()
            .map(|job| self.key(&job.dfg, &job.cgra))
            .collect();
        // In-flight dedup: solve each distinct fingerprint exactly once
        // (the cache alone can't prevent two lanes solving the same key).
        let mut seen: HashSet<Fingerprint> = HashSet::new();
        let first_occurrence: Vec<bool> = keys.iter().map(|&k| seen.insert(k)).collect();
        let unique: Vec<usize> = first_occurrence
            .iter()
            .enumerate()
            .filter_map(|(index, &first)| first.then_some(index))
            .collect();

        let lanes = self.config.effective_workers().min(unique.len()).max(1);

        type Solved = (Arc<EngineOutcome>, bool, Duration);
        let solved: Vec<Mutex<Option<Solved>>> = unique.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..lanes {
                scope.spawn(|| loop {
                    // ordering: a work-stealing ticket counter; each slot
                    // is claimed exactly once and the result handoff
                    // happens through the per-slot mutex, not this atomic.
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= unique.len() {
                        return;
                    }
                    let index = unique[slot];
                    let job = &jobs[index];
                    let t0 = Instant::now();
                    let served = self.map_keyed(keys[index], &job.dfg, &job.cgra, None);
                    *lock(&solved[slot]) = Some((served.outcome, served.cached, t0.elapsed()));
                });
            }
        });

        let mut by_key: HashMap<Fingerprint, Solved> = HashMap::with_capacity(unique.len());
        for (slot, &index) in unique.iter().enumerate() {
            let result = lock(&solved[slot])
                .clone()
                .expect("every unique slot was visited");
            by_key.insert(keys[index], result);
        }

        jobs.iter()
            .zip(&keys)
            .zip(&first_occurrence)
            .map(|((job, &key), &first)| {
                let (outcome, cached, elapsed) = by_key[&key].clone();
                // A duplicate of an earlier job in the same batch is a hit
                // by construction and took no solve time of its own —
                // except for transient (timed-out or internally failed)
                // results, which the cache refuses to hold and a
                // resubmission would re-solve.
                let transient = matches!(
                    outcome.outcome.result,
                    Err(satmapit_core::MapFailure::Timeout { .. })
                        | Err(satmapit_core::MapFailure::Internal(_))
                );
                BatchItem {
                    name: job.name.clone(),
                    fingerprint: key,
                    outcome,
                    cached: cached || (!first && !transient),
                    elapsed: if first { elapsed } else { Duration::ZERO },
                }
            })
            .collect()
    }
}

/// Drops `key`'s entry if it is still on disk: its record was found
/// unservable.
fn remove_stored(cache: &mut HashMap<Fingerprint, CacheEntry>, key: Fingerprint) {
    if matches!(
        cache.get(&key),
        Some(CacheEntry {
            outcome: Stored::OnDisk(_),
            ..
        })
    ) {
        cache.remove(&key);
    }
}

impl Drop for Engine {
    /// Best-effort shutdown compaction: a persistent engine rewrites its
    /// stores so the next startup loads one clean record per entry.
    /// Skipped when nothing was appended since the last compaction (an
    /// explicit [`Engine::compact_persistent`] — e.g. the service's
    /// shutdown path — already left the files exactly the live set).
    /// Failures are reported, never panicked — drop runs on unwind paths.
    fn drop(&mut self) {
        let dirty = self
            .persist
            .as_ref()
            // ordering: advisory dirty flag; by drop time no other
            // thread holds the engine, so there is nothing to order.
            .is_some_and(|p| p.dirty.load(Ordering::Relaxed));
        if dirty {
            if let Err(e) = self.compact_persistent() {
                obs::warn!(
                    "satmapit::engine::persist",
                    "cache compaction on shutdown failed: {e}"
                );
            }
        }
    }
}
