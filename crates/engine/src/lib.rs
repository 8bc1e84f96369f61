//! # satmapit-engine
//!
//! A multi-threaded mapping engine layered on the SAT-MapIt mapper
//! (`satmapit-core`). The sequential search of paper Fig. 3 proves
//! candidate IIs infeasible one at a time; this crate attacks that
//! wall-clock bottleneck on three fronts:
//!
//! 1. **II-race** ([`map_raced`]): a pool of workers speculatively solves
//!    II, II+1, …, II+k concurrently. A shared stop flag (plumbed into
//!    [`satmapit_sat::SolveLimits`]) cancels losing workers cooperatively
//!    the moment a lower feasible II is proven, and UNSAT proofs at low
//!    IIs slide the race window upward.
//! 2. **Portfolio**: optionally, several solver configurations (phase
//!    seed, restart scale, at-most-one encoding) race *the same* II; the
//!    first definitive answer cancels its siblings.
//! 3. **Batch + cache** ([`Engine`]): many (kernel × CGRA) jobs over a
//!    bounded worker pool, memoized in a content-hash-keyed result cache
//!    — repeated requests are O(1) and return byte-identical results.
//!
//! The engine returns **the same best II as the sequential mapper**
//! whenever the sequential search is exact (the default configuration);
//! see [`race`] for the precise guarantee.
//!
//! ```
//! use satmapit_cgra::Cgra;
//! use satmapit_dfg::{Dfg, Op};
//! use satmapit_engine::{map_raced, EngineConfig};
//!
//! let mut dfg = Dfg::new("pair");
//! let a = dfg.add_const(1);
//! let b = dfg.add_node(Op::Neg);
//! dfg.add_edge(a, b, 0);
//!
//! let outcome = map_raced(&dfg, &Cgra::square(2), &EngineConfig::default());
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
pub use race::{map_raced, map_raced_with_bound, portfolio_variant, EngineOutcome, RaceStats};
/// The counter-table machinery behind [`RaceStats`] and [`CacheStats`],
/// for callers that list or fold the counters (wire, CLI, tests).
pub use satmapit_sat::{CounterKind, Counters};

use satmapit_core::MapperConfig;

/// Which exact backend(s) the engine runs (see
/// [`satmapit_core::Backend`] for the per-II attempt contract and
/// `docs/backends.md` for the cross-backend design).
///
/// Every kind is exact and agrees on the best II: `Sat` and `Morph` are
/// single-backend races over the same KMS candidate space, and `Race`
/// runs both concurrently on the same II window with bound exchange —
/// an UNSAT proof from either backend closes the II for both. The
/// default (`Sat`) hashes into no fingerprint, so existing caches stay
/// warm; the other kinds join the result key (a morph-found mapping for
/// a feasible II can legitimately differ from the SAT model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The SAT ladder (paper backend), optionally a solver portfolio.
    #[default]
    Sat,
    /// The monomorphism search (`satmapit-morph`) alone.
    Morph,
    /// Both backends cross-raced on the same II window.
    Race,
}

impl BackendKind {
    /// The `--backend` flag spelling of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Sat => "sat",
            BackendKind::Morph => "morph",
            BackendKind::Race => "race",
        }
    }

    /// Parses a `--backend` flag value.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "sat" => Some(BackendKind::Sat),
            "morph" => Some(BackendKind::Morph),
            "race" => Some(BackendKind::Race),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Learnt-clause sharing between the portfolio siblings racing one II
/// (see [`satmapit_sat::share`] for the pool mechanics and soundness
/// rules). Off by default: with sharing off (or `portfolio = 1`) the
/// race is bit-identical to a build without the feature, and the result
/// fingerprint is unchanged. With sharing on, siblings exchange short
/// low-LBD lemmas through a bounded per-II pool — which can change which
/// (equally valid) model is found and how fast, so the knobs join the
/// result fingerprint, and determinism requires `portfolio = 1` or
/// sharing off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareConfig {
    /// Master switch. `false` ⇒ no pool is ever allocated and the solver
    /// hot path is untouched.
    pub enabled: bool,
    /// Only clauses with LBD ≤ this are exported (the classic portfolio
    /// quality filter; glue clauses travel, noise stays home).
    pub share_lbd_max: u32,
    /// Only clauses with at most this many literals are exported.
    pub share_len_max: usize,
    /// Capacity of each per-II pool ring; bounds share-pool memory at
    /// `ring_cap × mean clause size` per open II. Overflow evicts the
    /// oldest clause (counted in `shared_dropped`).
    pub share_ring_cap: usize,
}

impl ShareConfig {
    /// Sharing disabled (the default; bit-identical to PR 4 behaviour).
    pub fn off() -> ShareConfig {
        ShareConfig {
            enabled: false,
            ..ShareConfig::on()
        }
    }

    /// Sharing enabled with the default thresholds.
    pub fn on() -> ShareConfig {
        ShareConfig {
            enabled: true,
            share_lbd_max: 6,
            share_len_max: 24,
            share_ring_cap: 4096,
        }
    }
}

impl Default for ShareConfig {
    fn default() -> ShareConfig {
        ShareConfig::off()
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

/// Configuration of the parallel engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The underlying mapper configuration (variant 0 of the portfolio
    /// runs it verbatim — the agreement anchor with the sequential
    /// mapper).
    pub mapper: MapperConfig,
    /// Which exact backend(s) to race (SAT ladder by default; see
    /// [`BackendKind`]).
    pub backend: BackendKind,
    /// How many candidate IIs are raced concurrently (the sliding window
    /// above the lowest unresolved II). `1` disables speculation across
    /// IIs.
    pub race_width: usize,
    /// Solver-portfolio variants raced per II. `1` disables the
    /// portfolio; variant 0 is always the canonical configuration.
    pub portfolio: usize,
    /// Worker threads. `0` means one per available hardware thread.
    pub workers: usize,
    /// Learnt-clause sharing between portfolio siblings (off by
    /// default).
    pub share: ShareConfig,
    /// Result-cache eviction bounds and incremental store compaction
    /// cadence (unbounded cache, compaction every 256 appends by
    /// default). Never part of a fingerprint.
    pub lifecycle: CacheLifecycle,
    /// Crash-safety policy for the persistent stores: fsync cadence,
    /// synced compaction, and the degraded-mode failure latch. Never
    /// part of a fingerprint — durability changes when bytes hit disk,
    /// not what any solve returns.
    pub durability: DurabilityPolicy,
    /// Test-only fault injection: race workers panic while attempting a
    /// DFG with exactly this name, exercising the engine's
    /// panic-isolation path. `None` (always, outside tests) is
    /// free of overhead.
    #[doc(hidden)]
    pub panic_on_name: Option<String>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            mapper: MapperConfig::default(),
            backend: BackendKind::default(),
            race_width: 4,
            portfolio: 1,
            workers: 0,
            share: ShareConfig::off(),
            lifecycle: CacheLifecycle::default(),
            durability: DurabilityPolicy::default(),
            panic_on_name: None,
        }
    }
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
    fn race_matches_sequential_on_simple_chain() {
        let dfg = chain(4);
        let cgra = Cgra::square(2);
        let sequential = map(&dfg, &cgra);
        let raced = map_raced(&dfg, &cgra, &EngineConfig::default());
        assert_eq!(raced.ii(), sequential.ii());
        assert_eq!(raced.ii(), Some(1));
    }

    #[test]
    fn race_matches_sequential_through_unsat_prefix() {
        let dfg = recurrence();
        let cgra = Cgra::square(1);
        let sequential = map(&dfg, &cgra);
        let raced = map_raced(&dfg, &cgra, &EngineConfig::default());
        assert_eq!(raced.ii(), sequential.ii());
        assert_eq!(raced.ii(), Some(3));
        // The trace must show the same definitive attempts, in order.
        let seq_iis: Vec<u32> = sequential.attempts.iter().map(|a| a.ii).collect();
        let race_iis: Vec<u32> = raced.outcome.attempts.iter().map(|a| a.ii).collect();
        assert_eq!(race_iis, seq_iis);
    }

    #[test]
    fn portfolio_race_still_agrees() {
        let dfg = recurrence();
        let cgra = Cgra::square(1);
        let config = EngineConfig {
            portfolio: 3,
            race_width: 2,
            ..EngineConfig::default()
        };
        let raced = map_raced(&dfg, &cgra, &config);
        assert_eq!(raced.ii(), Some(3));
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
        let raced = map_raced(&dfg, &cgra, &config);
        assert_eq!(
            raced.outcome.result.unwrap_err(),
            MapFailure::IiCapReached { cap: 3 }
        );
        assert!(raced.outcome.attempts.is_empty());
    }

    #[test]
    fn invalid_dfg_fails_fast() {
        let mut dfg = Dfg::new("bad");
        let _ = dfg.add_node(Op::Add); // Add with no operands
        let raced = map_raced(&dfg, &Cgra::square(2), &EngineConfig::default());
        assert!(matches!(
            raced.outcome.result,
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
        let raced = map_raced(&dfg, &cgra, &config);
        assert!(matches!(
            raced.outcome.result,
            Err(MapFailure::Timeout { .. })
        ));
    }

    #[test]
    fn winning_attempt_is_last_and_mapped() {
        let dfg = recurrence();
        let raced = map_raced(&dfg, &Cgra::square(1), &EngineConfig::default());
        let last = raced.outcome.attempts.last().expect("has attempts");
        assert_eq!(last.outcome, AttemptOutcome::Mapped);
        assert_eq!(Some(last.ii), raced.ii());
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

    /// A fanout that forces the race through several UNSAT rungs: one
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
    fn race_consumes_unmappable_core() {
        let (dfg, cgra) = split_unmappable();
        let raced = map_raced(&dfg, &cgra, &EngineConfig::default());
        assert_eq!(
            raced.outcome.result.unwrap_err(),
            MapFailure::IiCapReached { cap: 50 }
        );
        assert!(raced.proven_unmappable, "core avoids the per-II group");
        assert!(
            raced.stats.tasks_started < 50,
            "the doomed ladder must not be ground out rung by rung ({} tasks)",
            raced.stats.tasks_started
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
    fn proven_bound_lets_repeat_races_skip_closed_rungs() {
        let (dfg, cgra) = fanout();
        let config = EngineConfig::default();
        let cold = map_raced(&dfg, &cgra, &config);
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
        // Feed the proven bound back: the race starts at the winner
        // directly and answers with a single rung.
        let warm = race::map_raced_with_bound(&dfg, &cgra, &config, Some(best));
        assert_eq!(warm.ii(), Some(best));
        assert_eq!(warm.outcome.attempts.len(), 1, "lower rungs skipped");
        assert_eq!(warm.stats.race_start, best);
        // An unmappability bound short-circuits without solving at all.
        let doomed = race::map_raced_with_bound(&dfg, &cgra, &config, Some(u32::MAX));
        assert_eq!(
            doomed.outcome.result.unwrap_err(),
            MapFailure::IiCapReached { cap: 50 }
        );
        assert!(doomed.proven_unmappable);
        assert_eq!(doomed.stats.tasks_started, 0);
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
    fn share_on_portfolio_race_agrees_with_sequential() {
        // Sharing only changes *which* clauses each sibling knows; the
        // closure rules (variant 0 or a sound UNSAT proof) are untouched,
        // so the best II must match the sequential mapper's exactly.
        let dfg = recurrence();
        let cgra = Cgra::square(1);
        let sequential = map(&dfg, &cgra);
        let config = EngineConfig {
            portfolio: 3,
            race_width: 2,
            share: ShareConfig::on(),
            ..EngineConfig::default()
        };
        let raced = map_raced(&dfg, &cgra, &config);
        assert_eq!(raced.ii(), sequential.ii());
        assert_eq!(raced.ii(), Some(3));

        let (fan_dfg, fan_cgra) = fanout();
        let raced = map_raced(&fan_dfg, &fan_cgra, &config);
        assert_eq!(raced.ii(), map(&fan_dfg, &fan_cgra).ii());
    }

    #[test]
    fn share_off_and_single_variant_races_allocate_no_pools() {
        // With sharing off — or a portfolio of one — the race must stay on
        // the handle-free hot path: zero share traffic in the telemetry.
        let dfg = recurrence();
        let cgra = Cgra::square(1);
        for config in [
            EngineConfig::default(),
            EngineConfig {
                portfolio: 3,
                share: ShareConfig::off(),
                ..EngineConfig::default()
            },
            EngineConfig {
                portfolio: 1,
                share: ShareConfig::on(),
                ..EngineConfig::default()
            },
        ] {
            let raced = map_raced(&dfg, &cgra, &config);
            assert_eq!(raced.ii(), Some(3));
            assert_eq!(raced.stats.shared_exported, 0);
            assert_eq!(raced.stats.shared_imported, 0);
            assert_eq!(raced.stats.shared_dropped, 0);
        }
    }

    #[test]
    fn single_worker_race_still_resolves() {
        let config = EngineConfig {
            workers: 1,
            race_width: 1,
            ..EngineConfig::default()
        };
        let raced = map_raced(&recurrence(), &Cgra::square(1), &config);
        assert_eq!(raced.ii(), Some(3));
        assert_eq!(raced.stats.workers, 1);
    }
}
