//! # satmapit-engine
//!
//! The batch and caching layer over the SAT-MapIt mapper
//! (`satmapit-core`):
//!
//! 1. **One II loop** ([`solve`]): a miss climbs the paper's sequential
//!    ladder (Fig. 3) through [`satmapit_core::run_ladder`] and the
//!    configured [`satmapit_core::Backend`], starting above any II lower
//!    bound already proven for the problem.
//! 2. **Batch + cache** ([`Engine`]): many (kernel × CGRA) jobs over a
//!    bounded worker pool, memoized in a content-hash-keyed result cache
//!    — repeated requests are O(1) and return byte-identical results —
//!    and, optionally, persisted to checksummed stores ([`persist`]).
//!
//! The engine returns **the per-II trace, mapping and best II of a plain
//! loop over the backend's one-shot `attempt_ii`**, which is the best II
//! of the sequential mapper whenever its search is exact (the default
//! configuration).
//!
//! ```
//! use satmapit_cgra::Cgra;
//! use satmapit_dfg::{Dfg, Op};
//! use satmapit_engine::{solve, EngineConfig};
//!
//! let mut dfg = Dfg::new("pair");
//! let a = dfg.add_const(1);
//! let b = dfg.add_node(Op::Neg);
//! dfg.add_edge(a, b, 0);
//!
//! let outcome = solve(&dfg, &Cgra::square(2), &EngineConfig::default(), None);
//! assert_eq!(outcome.ii(), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod fingerprint;
pub mod persist;
pub mod race;

pub use batch::{BatchItem, CacheStats, Engine, Job, Served};
pub use fingerprint::{problem_fingerprint, Fingerprint};
pub use race::{solve, EngineOutcome, RaceStats};
/// The counter-table machinery behind [`RaceStats`] and [`CacheStats`],
/// for callers that list or fold the counters (wire, CLI, tests).
pub use satmapit_sat::{CounterKind, Counters};

use satmapit_core::MapperConfig;

/// Which exact backend the engine climbs the II ladder on (see
/// [`satmapit_core::Backend`] for the per-II attempt contract and
/// `docs/backends.md` for the design).
///
/// Both kinds are exact and agree on the best II: they search the same
/// KMS candidate space, so an `Unsat` rung of either is a bound the other
/// may start above. The default (`Sat`) hashes into no fingerprint, so
/// existing caches stay warm; `Morph` joins the result key (a morph-found
/// mapping for a feasible II can legitimately differ from the SAT model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The SAT ladder (paper backend).
    #[default]
    Sat,
    /// The monomorphism search (`satmapit-morph`).
    Morph,
}

impl BackendKind {
    /// The `--backend` flag spelling of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Sat => "sat",
            BackendKind::Morph => "morph",
        }
    }

    /// Parses a `--backend` flag value.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "sat" => Some(BackendKind::Sat),
            "morph" => Some(BackendKind::Morph),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Lifecycle bounds for the engine's result cache and its on-disk
/// store. None of these knobs joins any fingerprint: they change *when*
/// an answer has to be recomputed, never what the answer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLifecycle {
    /// Upper bound on in-memory result-cache entries; exceeding it
    /// evicts least-recently-used entries (counted in
    /// [`CacheStats::evicted_size`]). `0` means unbounded — the
    /// default, preserving the grow-forever behaviour batch runs want.
    pub max_entries: usize,
    /// Upper bound on an entry's age (measured from when it entered
    /// this process's cache, by load or by solve); older entries are
    /// evicted on the next insert (counted in
    /// [`CacheStats::evicted_age`]). `None` means unbounded.
    pub max_age: Option<std::time::Duration>,
    /// How many successful store appends accumulate before the engine
    /// compacts the persistent stores in place, starting a new
    /// generation (counted in [`CacheStats::compactions`]). `0` defers
    /// every compaction to shutdown, the pre-lifecycle behaviour.
    pub compact_every: u64,
}

impl Default for CacheLifecycle {
    fn default() -> CacheLifecycle {
        CacheLifecycle {
            max_entries: 0,
            max_age: None,
            compact_every: 256,
        }
    }
}

/// Crash-safety policy for the persistent stores. None of these knobs
/// joins any fingerprint: they change *when bytes become durable* and
/// how write failures are handled, never which mapping any solve
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// `fsync` a store after every N successful appends. `1` (the
    /// default) makes each append durable before the solve returns —
    /// the property the crash-torture suite asserts: an acknowledged
    /// record survives any later kill. `0` never fsyncs from the append
    /// path (a crash can lose whatever the page cache held).
    pub fsync_every: u64,
    /// Make compaction durable, not merely atomic: `sync_all` the temp
    /// file before renaming it over the store, and fsync the parent
    /// directory after the rename (see [`persist::rewrite`]). Default
    /// `true`.
    pub sync_compaction: bool,
    /// After this many *consecutive* failed appends (or fsyncs) the
    /// engine stops touching the disk and serves from memory only —
    /// degraded mode, surfaced as [`CacheStats::degraded`] and the
    /// daemon's `"status":"degraded"` health. A restart with a healthy
    /// disk recovers. `0` disables the latch (every append keeps
    /// retrying the disk). Default `3`.
    pub max_append_failures: u64,
}

impl Default for DurabilityPolicy {
    fn default() -> DurabilityPolicy {
        DurabilityPolicy {
            fsync_every: 1,
            sync_compaction: true,
            max_append_failures: 3,
        }
    }
}

/// Configuration of the engine.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// The underlying mapper configuration, run verbatim.
    pub mapper: MapperConfig,
    /// Which exact backend climbs the ladder (SAT by default; see
    /// [`BackendKind`]).
    pub backend: BackendKind,
    /// How many jobs [`Engine::map_batch`] runs at once. `0` means one
    /// per available hardware thread. A single solve is sequential.
    pub workers: usize,
    /// Result-cache eviction bounds and incremental store compaction
    /// cadence (unbounded cache, compaction every 256 appends by
    /// default). Never part of a fingerprint.
    pub lifecycle: CacheLifecycle,
    /// Crash-safety policy for the persistent stores: fsync cadence,
    /// synced compaction, and the degraded-mode failure latch. Never
    /// part of a fingerprint — durability changes when bytes hit disk,
    /// not what any solve returns.
    pub durability: DurabilityPolicy,
    /// Test-only fault injection: [`solve`] panics while attempting a
    /// DFG with exactly this name, exercising the engine's
    /// panic-isolation path. `None` (always, outside tests) is
    /// free of overhead.
    #[doc(hidden)]
    pub panic_on_name: Option<String>,
}

impl EngineConfig {
    /// The resolved worker count (`workers`, or the hardware parallelism
    /// when 0).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satmapit_cgra::Cgra;
    use satmapit_core::{map, AttemptOutcome, MapFailure, MapperConfig};
    use satmapit_dfg::{Dfg, Op};
    use std::sync::Arc;
    use std::time::Duration;

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

    /// A recurrence that forces the search through UNSAT IIs before the
    /// feasible one (RecMII < achieved II is impossible here; instead the
    /// 1x1 resource bound forces climbing).
    fn recurrence() -> Dfg {
        let mut dfg = Dfg::new("rec");
        let a = dfg.add_node(Op::Neg);
        let b = dfg.add_node(Op::Neg);
        let c = dfg.add_node(Op::Neg);
        dfg.add_edge(a, b, 0);
        dfg.add_edge(b, c, 0);
        dfg.add_back_edge(c, a, 0, 1, 0);
        dfg
    }

    #[test]
    fn solve_matches_sequential_on_simple_chain() {
        let dfg = chain(4);
        let cgra = Cgra::square(2);
        let sequential = map(&dfg, &cgra);
        let solved = solve(&dfg, &cgra, &EngineConfig::default(), None);
        assert_eq!(solved.ii(), sequential.ii());
        assert_eq!(solved.ii(), Some(1));
    }

    #[test]
    fn solve_matches_sequential_through_unsat_prefix() {
        let dfg = recurrence();
        let cgra = Cgra::square(1);
        let sequential = map(&dfg, &cgra);
        let solved = solve(&dfg, &cgra, &EngineConfig::default(), None);
        assert_eq!(solved.ii(), sequential.ii());
        assert_eq!(solved.ii(), Some(3));
        // The trace must show the same definitive attempts, in order.
        let seq_iis: Vec<u32> = sequential.attempts.iter().map(|a| a.ii).collect();
        let solve_iis: Vec<u32> = solved.outcome.attempts.iter().map(|a| a.ii).collect();
        assert_eq!(solve_iis, seq_iis);
    }

    #[test]
    fn ii_cap_reported_like_sequential() {
        let dfg = chain(5);
        let cgra = Cgra::square(1);
        let mapper = MapperConfig {
            max_ii: 3, // MII is 5 on a 1x1
            ..MapperConfig::default()
        };
        let config = EngineConfig {
            mapper,
            ..EngineConfig::default()
        };
        let solved = solve(&dfg, &cgra, &config, None);
        assert_eq!(
            solved.outcome.result.unwrap_err(),
            MapFailure::IiCapReached { cap: 3 }
        );
        assert!(solved.outcome.attempts.is_empty());
    }

    #[test]
    fn invalid_dfg_fails_fast() {
        let mut dfg = Dfg::new("bad");
        let _ = dfg.add_node(Op::Add); // Add with no operands
        let solved = solve(&dfg, &Cgra::square(2), &EngineConfig::default(), None);
        assert!(matches!(
            solved.outcome.result,
            Err(MapFailure::InvalidDfg(_))
        ));
    }

    #[test]
    fn zero_timeout_reports_timeout() {
        let dfg = chain(6);
        let cgra = Cgra::square(2);
        let mapper = MapperConfig {
            timeout: Some(Duration::ZERO),
            ..MapperConfig::default()
        };
        let config = EngineConfig {
            mapper,
            ..EngineConfig::default()
        };
        let solved = solve(&dfg, &cgra, &config, None);
        assert!(matches!(
            solved.outcome.result,
            Err(MapFailure::Timeout { .. })
        ));
    }

    #[test]
    fn winning_attempt_is_last_and_mapped() {
        let dfg = recurrence();
        let solved = solve(&dfg, &Cgra::square(1), &EngineConfig::default(), None);
        let last = solved.outcome.attempts.last().expect("has attempts");
        assert_eq!(last.outcome, AttemptOutcome::Mapped);
        assert_eq!(Some(last.ii), solved.ii());
    }

    #[test]
    fn engine_cache_returns_identical_result() {
        let dfg = chain(4);
        let cgra = Cgra::square(2);
        let engine = Engine::new(EngineConfig::default());
        let (first, cached_first) = engine.map(&dfg, &cgra);
        let (second, cached_second) = engine.map(&dfg, &cgra);
        assert!(!cached_first);
        assert!(cached_second);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn batch_deduplicates_identical_jobs() {
        let dfg = chain(4);
        let cgra = Cgra::square(2);
        let engine = Engine::new(EngineConfig::default());
        let jobs = vec![
            Job::new("a", dfg.clone(), cgra.clone()),
            Job::new("b", chain(3), cgra.clone()),
            Job::new("a-again", dfg.clone(), cgra.clone()),
        ];
        let items = engine.map_batch(jobs);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].name, "a");
        assert_eq!(items[2].name, "a-again");
        assert_eq!(items[0].fingerprint, items[2].fingerprint);
        assert_ne!(items[0].fingerprint, items[1].fingerprint);
        // The duplicate is solved once and fanned out: only two distinct
        // solves happen, the repeat comes back as a hit sharing the same
        // allocation as the original.
        assert!(!items[0].cached);
        assert!(items[2].cached);
        assert!(Arc::ptr_eq(&items[0].outcome, &items[2].outcome));
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 2, "the duplicate never reached a solver");
        assert_eq!(items[0].outcome.ii(), items[2].outcome.ii());
    }

    #[test]
    fn concurrent_identical_lookups_solve_once() {
        // The thundering-herd guard: N threads racing the same cold key
        // must produce exactly one solve; the rest wait and hit.
        let dfg = chain(4);
        let cgra = Cgra::square(2);
        let engine = Engine::new(EngineConfig::default());
        let outcomes: Vec<Arc<crate::EngineOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| engine.map(&dfg, &cgra).0))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one leader solved");
        assert_eq!(stats.hits, 7, "every follower hit the cache");
        for outcome in &outcomes {
            assert!(Arc::ptr_eq(outcome, &outcomes[0]), "all byte-identical");
        }
    }

    #[test]
    fn timeouts_are_not_cached() {
        let dfg = chain(6);
        let cgra = Cgra::square(2);
        let mapper = MapperConfig {
            timeout: Some(Duration::ZERO),
            ..MapperConfig::default()
        };
        let engine = Engine::new(EngineConfig {
            mapper,
            ..EngineConfig::default()
        });
        let (first, cached) = engine.map(&dfg, &cgra);
        assert!(!cached);
        assert!(matches!(
            first.outcome.result,
            Err(MapFailure::Timeout { .. })
        ));
        // A wall-clock failure must not poison the cache: the retry solves
        // afresh instead of replaying the stale Err(Timeout).
        assert_eq!(engine.cache_stats().entries, 0);
        let (_, cached) = engine.map(&dfg, &cgra);
        assert!(!cached);
    }

    /// A load (column 0) feeding a store (column 3) on a split-port 1x4:
    /// PE-level infeasible at every II.
    fn split_unmappable() -> (Dfg, Cgra) {
        use satmapit_cgra::MemoryPolicy;
        let mut dfg = Dfg::new("split");
        let addr = dfg.add_const(0);
        let ld = dfg.add_node(Op::Load);
        dfg.add_edge(addr, ld, 0);
        let st = dfg.add_node(Op::Store);
        dfg.add_edge(addr, st, 0);
        dfg.add_edge(ld, st, 1);
        let cgra = Cgra::new(1, 4).with_memory_policy(MemoryPolicy::SplitLoadStore);
        (dfg, cgra)
    }

    /// A fanout that forces the climb through several UNSAT rungs: one
    /// producer with 5 consumers on a 1x2 row (MII 3, maps well above it).
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
    fn solve_consumes_unmappable_core() {
        let (dfg, cgra) = split_unmappable();
        let solved = solve(&dfg, &cgra, &EngineConfig::default(), None);
        assert_eq!(
            solved.outcome.result.unwrap_err(),
            MapFailure::IiCapReached { cap: 50 }
        );
        assert!(solved.proven_unmappable, "core avoids the per-II group");
        assert!(
            solved.stats.tasks_started < 50,
            "the doomed ladder must not be ground out rung by rung ({} rungs)",
            solved.stats.tasks_started
        );
        // Agreement: the sequential incremental ladder reaches the same
        // verdict.
        let sequential = map(&dfg, &cgra);
        assert_eq!(
            sequential.result.unwrap_err(),
            MapFailure::IiCapReached { cap: 50 }
        );
    }

    #[test]
    fn proven_bound_lets_repeat_solves_skip_closed_rungs() {
        let (dfg, cgra) = fanout();
        let config = EngineConfig::default();
        let cold = solve(&dfg, &cgra, &config, None);
        let best = cold.ii().expect("fanout maps eventually");
        let sequential = map(&dfg, &cgra);
        assert_eq!(Some(best), sequential.ii(), "agreement first");
        assert!(
            cold.outcome.attempts.len() > 1,
            "fanout must climb through UNSAT rungs, got {:?}",
            cold.outcome
                .attempts
                .iter()
                .map(|a| a.ii)
                .collect::<Vec<_>>()
        );
        // Feed the proven bound back: the climb starts at the winner
        // directly and answers with a single rung.
        let warm = solve(&dfg, &cgra, &config, Some(best));
        assert_eq!(warm.ii(), Some(best));
        assert_eq!(warm.outcome.attempts.len(), 1, "lower rungs skipped");
        assert_eq!(warm.stats.race_start, best);
    }

    #[test]
    fn engine_records_proven_bounds() {
        let (dfg, cgra) = fanout();
        let engine = Engine::new(EngineConfig::default());
        assert_eq!(engine.proven_bound(&dfg, &cgra), None);
        let (outcome, _) = engine.map(&dfg, &cgra);
        let best = outcome.ii().expect("maps");
        assert_eq!(
            engine.proven_bound(&dfg, &cgra),
            Some(best),
            "every II below the winner was closed Unsat"
        );
        assert_eq!(engine.cache_stats().bound_entries, 1);

        let (split_dfg, split_cgra) = split_unmappable();
        let (outcome, _) = engine.map(&split_dfg, &split_cgra);
        assert!(outcome.outcome.result.is_err());
        assert_eq!(
            engine.proven_bound(&split_dfg, &split_cgra),
            Some(u32::MAX),
            "unmappability is recorded as an infinite bound"
        );
        engine.clear_cache();
        assert_eq!(engine.cache_stats().bound_entries, 0);
        assert_eq!(engine.proven_bound(&dfg, &cgra), None);
    }

    #[test]
    fn bounds_past_the_cap_answer_without_preparing_a_rung() {
        let (dfg, cgra) = fanout();
        let config = EngineConfig::default();
        let cap = config.mapper.max_ii;
        for (bound, unmappable) in [(cap + 1, false), (u32::MAX, true)] {
            let outcome = solve(&dfg, &cgra, &config, Some(bound));
            assert_eq!(
                outcome.outcome.result.unwrap_err(),
                MapFailure::IiCapReached { cap },
                "bound {bound}"
            );
            assert_eq!(outcome.proven_unmappable, unmappable, "bound {bound}");
            assert!(outcome.outcome.attempts.is_empty(), "bound {bound}");
            assert_eq!(outcome.stats, RaceStats::default(), "bound {bound}");
        }
    }
}
