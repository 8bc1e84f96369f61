//! The engine's miss path: one sequential II climb.
//!
//! [`solve`] is the paper's loop (Fig. 3) — attempt II, on failure `II++`
//! — run through the one driver every backend shares
//! ([`satmapit_core::run_ladder`] / [`satmapit_core::Rungs::climb`]) over
//! the configured [`Backend`]'s one-shot `attempt_ii`. It adds only what
//! the batch [`crate::Engine`] needs around that loop: a start lifted by
//! a previously proven II lower bound, the unmappability fast path, panic
//! containment, and the [`RaceStats`] record persisted with the outcome.
//! (The module and the statistics keep the name of the speculative
//! II-race that used to live here: the persisted record layout and the
//! wire `stats` keys are defined in terms of them.)

use satmapit_cgra::Cgra;
use satmapit_core::{run_ladder, Backend, MapFailure, MapOutcome, Mapper};
use satmapit_dfg::Dfg;
use satmapit_morph::MorphMapper;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::{BackendKind, EngineConfig};

satmapit_sat::counters! {
    /// Effort and outcome counters of one solve. The `u64` counters are a
    /// table (see [`mod@satmapit_sat::counters`]): the engine's fleet totals
    /// and the persisted record follow from the declaration. The table is
    /// append-only and persisted by position, so counters of the retired
    /// II-race keep their slots and read 0.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RaceStats {
        /// Threads the solve ran on: 1 (0 when no rung was attempted).
        pub workers: usize,
        /// The first candidate II the climb attempted (the prepared start,
        /// lifted by any known proven bound). 0 when no rung was attempted
        /// (preparation failed or the start lay above the II cap). The
        /// batch engine uses this as the anchor when it turns `Unsat`
        /// rungs into a proven II lower bound.
        pub race_start: u32,
    }
    counters {
        /// Rungs attempted.
        tasks_started: sum,
        /// Retired with the II-race (PR 24), always 0.
        tasks_cancelled: sum,
        /// Retired with learnt-clause sharing (PR 24), always 0.
        shared_exported: sum,
        /// Retired likewise, always 0.
        shared_imported: sum,
        /// Retired likewise, always 0.
        shared_dropped: sum,
        /// 1 when the SAT backend produced the mapping of this solve,
        /// else 0. Summed by the batch engine into a fleet-level counter.
        sat_wins: sum,
        /// 1 when the morph backend produced the mapping, else 0.
        morph_wins: sum,
        /// Retired with the cross-backend lane (PR 24), always 0.
        bound_exchanges: sum,
    }
}

/// A [`MapOutcome`] plus engine-level telemetry.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Result and per-II trace, like the sequential mapper's.
    pub outcome: MapOutcome,
    /// Solve telemetry.
    pub stats: RaceStats,
    /// `true` when the loop is proven unmappable at *every* II — either a
    /// cached unmappability bound was supplied, or the backend's
    /// pre-solved II-invariant relaxation is contradictory (see
    /// [`Backend::proven_unmappable`]). The solve then fails fast without
    /// attempting a single rung, and the batch engine records an infinite
    /// II lower bound so repeat lookups never solve again.
    pub proven_unmappable: bool,
}

impl EngineOutcome {
    /// The achieved II, if mapping succeeded.
    pub fn ii(&self) -> Option<u32> {
        self.outcome.ii()
    }
}

/// Renders a `catch_unwind` payload for the [`MapFailure::Internal`]
/// message (panics carry `&str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `dfg` onto `cgra` on the configured backend: prepares it, then
/// climbs from its start II — or from `known_lower_bound`, if higher —
/// one one-shot rung at a time until a rung maps, the wall-clock budget
/// runs out, or II passes the cap. The per-II trace, the mapping and the
/// best II are exactly those of a plain loop over the backend's
/// `attempt_ii`.
///
/// Candidate IIs below `known_lower_bound` must already be *proven*
/// infeasible for this exact problem (same DFG, CGRA and mapping
/// semantics); [`u32::MAX`] means proven unmappable at every II. The
/// batch [`crate::Engine`] only feeds bounds derived from `Unsat` rungs
/// or unmappability cores.
///
/// A panicking attempt (a solver bug, or the injected test fault) costs
/// exactly this request: it is caught and reported as a transient
/// [`MapFailure::Internal`]. Rungs closed before a terminal failure stay
/// in the trace, so a timed-out solve still donates its proven bound.
pub fn solve(
    dfg: &Dfg,
    cgra: &Cgra,
    config: &EngineConfig,
    known_lower_bound: Option<u32>,
) -> EngineOutcome {
    let mut stats = RaceStats::default();
    let mut proven_unmappable = false;
    // Test-only fault injection: make this loop's attempts panic,
    // exercising the catch-unwind path end to end.
    let inject_panic = config.panic_on_name.as_deref() == Some(dfg.name());
    let suffix = match config.backend {
        BackendKind::Sat => "",
        BackendKind::Morph => " (morph)",
    };
    let outcome = run_ladder(
        format_args!("ladder {}{suffix}", dfg.name()),
        &config.mapper,
        |rungs| {
            let mapper = config.mapper.clone();
            let backend: Box<dyn Backend + '_> = match config.backend {
                BackendKind::Sat => Box::new(Mapper::new(dfg, cgra).with_config(mapper).prepare()?),
                BackendKind::Morph => {
                    Box::new(MorphMapper::new(dfg, cgra).with_config(mapper).prepare()?)
                }
            };
            let cap = config.mapper.max_ii;
            // Either a cached proof or the backend's pre-solved
            // II-invariant relaxation says no II can map: no rung runs.
            proven_unmappable = known_lower_bound == Some(u32::MAX) || backend.proven_unmappable();
            let start = backend.start_ii().max(known_lower_bound.unwrap_or(0));
            if proven_unmappable || start > cap {
                return Err(MapFailure::IiCapReached { cap });
            }
            stats.workers = 1;
            stats.race_start = start;
            let mapped = rungs.climb(start, |ii, limits| {
                stats.tasks_started += 1;
                catch_unwind(AssertUnwindSafe(|| {
                    if inject_panic {
                        panic!("injected solve fault (panic_on_name)");
                    }
                    backend.attempt_ii(ii, limits)
                }))
                .unwrap_or_else(|payload| {
                    Err(MapFailure::Internal(format!(
                        "solve panicked at ii={ii}: {}",
                        panic_message(payload.as_ref())
                    )))
                })
            })?;
            match config.backend {
                BackendKind::Sat => stats.sat_wins = 1,
                BackendKind::Morph => stats.morph_wins = 1,
            }
            Ok(mapped)
        },
    );
    EngineOutcome {
        outcome,
        stats,
        proven_unmappable,
    }
}
