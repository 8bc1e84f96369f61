//! The speculative II-race.
//!
//! The sequential mapper (paper Fig. 3) tries II = MII, MII+1, … strictly
//! in order, and almost all of its time is burnt *proving the infeasible
//! IIs infeasible* — every other core sits idle while one SAT instance
//! grinds. The race flips that around: a pool of workers attempts a
//! window of candidate IIs (and, optionally, several solver-portfolio
//! variants per II) concurrently, with cooperative cancellation through
//! the stop flag in [`SolveLimits`]:
//!
//! * a **mapping** found at II = k immediately cancels every attempt at
//!   II ≥ k — they can no longer improve the answer;
//! * an **UNSAT proof** (or the canonical variant giving up) at II = j
//!   *closes* j and lets the window slide upward;
//! * the race resolves once some mapped II has every lower candidate
//!   closed — which is exactly the sequential answer.
//!
//! ## Agreement with the sequential mapper
//!
//! Variant 0 of the portfolio runs the *identical* configuration as
//! [`Mapper::run`], and only variant 0 (or a sound UNSAT proof from any
//! variant) may close an II. Under the default configuration — no per-II
//! conflict budget, no register-allocation giveups — every closure is
//! then a proof, and the race returns **the same best II as the
//! sequential search**. When the sequential search is itself heuristic
//! (conflict budgets, RA giveups), a non-canonical variant may still
//! *map* an II the canonical configuration would have skipped, in which
//! case the race only improves on the sequential answer (a lower II),
//! never worsens it.
//!
//! ## Learnt-clause sharing between siblings
//!
//! With [`crate::ShareConfig::enabled`] and `portfolio ≥ 2`, the
//! siblings racing one II exchange short, low-LBD learnt clauses through
//! a bounded per-II [`SharePool`] (see `satmapit_sat::share` for the
//! pool mechanics, the compatibility-class fencing between different AMO
//! encodings, and the guard-filtering soundness rules). Sharing never
//! changes *whether* an II is feasible — closures still require variant
//! 0 or a sound UNSAT proof, so the best II is unchanged — but it can
//! change which (equally valid) model is found and how fast.
//! **Determinism therefore requires `portfolio = 1` or sharing off**;
//! share-off races are bit-identical to builds without the feature and
//! keep their result-cache fingerprints.
//!
//! ## Cross-backend racing and bound exchange
//!
//! With [`crate::BackendKind::Race`] the lanes racing each II are not
//! all SAT: a [`satmapit_morph`] monomorphism lane joins the window,
//! attempting the same IIs through the [`Backend`] trait. Both backends
//! enumerate the identical KMS candidate space, so an `Unsat` **proof**
//! from either lane soundly closes the II for both — that closure is a
//! *bound exchange* (counted in [`RaceStats::bound_exchanges`]): the II
//! one backend proved infeasible is a rung the other backend never has
//! to grind, and it feeds the engine's shared proven-bound cache that
//! either backend starts above on the next solve. Closure discipline is
//! unchanged: lane 0 stays the canonical agreement anchor (its
//! definitive giveups close), non-canonical lanes close only with
//! proofs, so the best II still matches the sequential mapper. See
//! `docs/backends.md` for the soundness argument.

use satmapit_cgra::Cgra;
use satmapit_core::{
    AttemptOutcome, AttemptReport, Backend, IiAttempt, MapFailure, MapOutcome, MappedLoop, Mapper,
    MapperConfig,
};
use satmapit_dfg::Dfg;
use satmapit_morph::MorphMapper;
use satmapit_obs as obs;
use satmapit_sat::encode::AmoEncoding;
use satmapit_sat::{Counters, ShareHandle, SharePool, SolveLimits};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::{BackendKind, EngineConfig, ShareConfig};

satmapit_sat::counters! {
    /// Effort and outcome counters of one race. The `u64` counters are a
    /// table (see [`mod@satmapit_sat::counters`]): the engine's fleet totals
    /// and the persisted record follow from the declaration.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RaceStats {
        /// Worker threads the race ran on.
        pub workers: usize,
        /// The first candidate II the race considered (the prepared
        /// start, lifted by any known proven bound). 0 when the race never
        /// started (preparation failed or the window was empty). The batch
        /// engine uses this as the anchor when it turns `Unsat` closures
        /// into a proven II lower bound.
        pub race_start: u32,
    }
    counters {
        /// Single-II attempts dispatched (including cancelled ones).
        tasks_started: sum,
        /// Attempts that observed the stop flag and aborted cooperatively.
        tasks_cancelled: sum,
        /// Learnt clauses portfolio siblings exported to their per-II
        /// share pools, summed over *every* attempt of the race —
        /// cancelled siblings included, since their exports are exactly
        /// what the winners imported. 0 with sharing off.
        shared_exported: sum,
        /// Sibling clauses imported at restart boundaries, summed likewise.
        shared_imported: sum,
        /// Share-pool ring evictions (clauses overwritten before every
        /// sibling read them); a persistently high value means
        /// `share_ring_cap` is too small for the conflict rate.
        shared_dropped: sum,
        /// 1 when a SAT lane produced the winning mapping of this race,
        /// else 0. Summed by the batch engine into a fleet-level counter.
        sat_wins: sum,
        /// 1 when the morph lane produced the winning mapping, else 0.
        morph_wins: sum,
        /// II closures whose `Unsat` proof crossed backends: in a
        /// [`crate::BackendKind::Race`], one backend proved the II
        /// infeasible and the other backend was thereby spared ever
        /// establishing it (see the module docs). Always 0 in
        /// single-backend races.
        bound_exchanges: sum,
    }
}

/// A [`MapOutcome`] plus race-level telemetry.
///
/// `outcome.attempts` holds the *definitive* attempts in II order: every
/// closed II below the winner plus the winning attempt itself. Cancelled
/// attempts appear only in `stats.tasks_cancelled`.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Result and definitive per-II trace, like the sequential mapper's.
    pub outcome: MapOutcome,
    /// Race telemetry.
    pub stats: RaceStats,
    /// `true` when the loop is proven unmappable at *every* II — either a
    /// cached unmappability bound was supplied, or preparation's
    /// pre-solved II-invariant PE-level prefix is contradictory (see
    /// [`satmapit_core::AttemptReport::proven_unmappable`]). The race
    /// then fails fast without dispatching a single rung, and the batch
    /// engine records an infinite II lower bound so repeat lookups never
    /// solve again.
    pub proven_unmappable: bool,
}

impl EngineOutcome {
    /// The achieved II, if mapping succeeded.
    pub fn ii(&self) -> Option<u32> {
        self.outcome.ii()
    }
}

/// The solver configuration raced as portfolio variant `k`.
///
/// Variant 0 is always the caller's configuration verbatim (the agreement
/// anchor); higher variants perturb the phase seed, the restart scale and
/// the at-most-one encoding — all answer-preserving knobs.
pub fn portfolio_variant(base: &MapperConfig, k: usize) -> MapperConfig {
    if k == 0 {
        return base.clone();
    }
    let mut config = base.clone();
    config.solver.phase_seed = Some((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    config.solver.restart_base = match k % 3 {
        1 => 32,
        2 => 400,
        _ => base.solver.restart_base,
    };
    // Odd variants force the ladder encoding; even ones keep Auto (which
    // already picks pairwise for small groups without risking the
    // quadratic blowup unguarded pairwise has on large ones).
    config.amo = if k % 2 == 1 {
        AmoEncoding::Sequential
    } else {
        AmoEncoding::Auto
    };
    config
}

/// One competitor in the race: a prepared backend plus its lane-level
/// policy. Lane 0 is always the canonical agreement anchor (the
/// caller's configuration verbatim on the primary backend).
struct Lane<'a> {
    backend: Box<dyn Backend + 'a>,
    /// Whether this lane exchanges learnt clauses with its per-II
    /// siblings (SAT portfolio lanes only; the morph lane has no clause
    /// database).
    shares: bool,
    /// The lane's Perfetto timeline-row label (kernel-name prefixed).
    label: String,
}

struct Task {
    ii: u32,
    lane: usize,
    stop: Arc<AtomicBool>,
    /// This sibling's connection to the II's share pool (sharing on and
    /// ≥ 2 sharing lanes only).
    share: Option<ShareHandle>,
}

struct Best {
    ii: u32,
    lane: usize,
    attempt: IiAttempt,
    mapped: MappedLoop,
}

#[derive(Default)]
struct OpenIi {
    dispatched: usize,
    stops: Vec<Arc<AtomicBool>>,
    /// The learnt-clause exchange ring shared by this II's portfolio
    /// siblings; allocated lazily on the first dispatch when sharing is
    /// on, dropped with the `OpenIi` once the II is settled.
    pool: Option<Arc<SharePool>>,
}

struct RaceState {
    start: u32,
    max_ii: u32,
    race_width: u32,
    /// Per-lane clause-sharing participation, indexed by lane; its
    /// length is the lane count each open II dispatches.
    lane_shares: Vec<bool>,
    /// Per-lane backend name ([`Backend::name`]), for win attribution.
    lane_backends: Vec<&'static str>,
    /// `true` when the lanes span more than one backend — the
    /// precondition for counting bound exchanges.
    cross_backend: bool,
    /// `Some` when learnt-clause sharing is active for this race
    /// (enabled in the config *and* more than one sharing lane per II).
    share: Option<ShareConfig>,
    open: HashMap<u32, OpenIi>,
    closed: BTreeMap<u32, IiAttempt>,
    best: Option<Best>,
    fatal: Option<MapFailure>,
    /// The race's counters so far; `workers`, `race_start` and the win
    /// attribution are filled in once the race is over.
    stats: RaceStats,
}

impl RaceState {
    fn finished(&self) -> bool {
        if self.fatal.is_some() {
            return true;
        }
        match &self.best {
            Some(best) => (self.start..best.ii).all(|ii| self.closed.contains_key(&ii)),
            None => (self.start..=self.max_ii).all(|ii| self.closed.contains_key(&ii)),
        }
    }

    /// Dispatches the next (II, lane) attempt inside the sliding race
    /// window, if one is available.
    fn take_task(&mut self) -> Option<Task> {
        let mut ii = self.start;
        let mut considered = 0u32;
        let num_lanes = self.lane_shares.len();
        while ii <= self.max_ii && considered < self.race_width {
            if self.best.as_ref().is_some_and(|b| ii >= b.ii) {
                break; // IIs at or above the current winner are moot
            }
            if !self.closed.contains_key(&ii) {
                considered += 1;
                let share = self.share;
                let open = self.open.entry(ii).or_default();
                if open.dispatched < num_lanes {
                    let lane = open.dispatched;
                    open.dispatched += 1;
                    let stop = Arc::new(AtomicBool::new(false));
                    open.stops.push(Arc::clone(&stop));
                    let share = share.filter(|_| self.lane_shares[lane]).map(|cfg| {
                        let pool = open
                            .pool
                            .get_or_insert_with(|| Arc::new(SharePool::new(cfg.share_ring_cap)));
                        ShareHandle::new(
                            Arc::clone(pool),
                            lane as u32,
                            cfg.share_lbd_max,
                            cfg.share_len_max,
                        )
                    });
                    self.stats.tasks_started += 1;
                    return Some(Task {
                        ii,
                        lane,
                        stop,
                        share,
                    });
                }
            }
            ii += 1;
        }
        None
    }

    fn cancel_at_or_above(&mut self, ii: u32) {
        for (&open_ii, open) in &self.open {
            if open_ii >= ii {
                for stop in &open.stops {
                    // ordering: one-way cancel latch polled at solver
                    // restart boundaries; no data rides on it, a stale
                    // read just delays the cooperative abort one poll.
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
    }

    fn cancel_ii(&mut self, ii: u32) {
        if let Some(open) = self.open.get(&ii) {
            for stop in &open.stops {
                // ordering: same one-way cancel latch as above.
                stop.store(true, Ordering::Relaxed);
            }
        }
    }

    fn cancel_all(&mut self) {
        self.cancel_at_or_above(0);
    }

    fn record(&mut self, task: &Task, result: Result<AttemptReport, MapFailure>) {
        // The solver counters the race also declares (the share traffic)
        // are summed over every report that ran a solver — cancelled
        // siblings included: their exports are precisely what the
        // surviving siblings imported, and dropping them would make the
        // export count read near zero on a healthy race.
        if let Ok(report) = &result {
            if let Some(stats) = &report.attempt.solver_stats {
                self.stats.absorb(stats.fields());
            }
        }
        match result {
            Err(MapFailure::Timeout { at_ii }) => {
                // attempt_ii only reports Timeout when the shared deadline
                // genuinely passed, so this is always fatal here; a race
                // that nevertheless completed a winner is restored by the
                // end-of-race rescue below.
                match &mut self.fatal {
                    Some(MapFailure::Timeout { at_ii: lowest }) => {
                        *lowest = (*lowest).min(at_ii);
                    }
                    Some(_) => {}
                    None => self.fatal = Some(MapFailure::Timeout { at_ii }),
                }
            }
            Err(e) => {
                // Structural/Internal failures outrank a Timeout: the
                // end-of-race rescue may clear a Timeout fatal, but these
                // must never be masked.
                let existing_outranks =
                    matches!(self.fatal, Some(ref f) if !matches!(f, MapFailure::Timeout { .. }));
                if !existing_outranks {
                    self.fatal = Some(e);
                }
            }
            Ok(report) if !report.is_definitive() => {
                // The attempt was abandoned (cooperative cancel), not
                // answered; it never closes its II.
                self.stats.tasks_cancelled += 1;
            }
            Ok(report) => match report.attempt.outcome {
                AttemptOutcome::Mapped => {
                    if self.best.as_ref().is_none_or(|b| task.ii < b.ii) {
                        self.best = Some(Best {
                            ii: task.ii,
                            lane: task.lane,
                            attempt: report.attempt,
                            mapped: report.mapped.expect("Mapped outcome carries a mapping"),
                        });
                        // Everything at or above the winner is now moot —
                        // including sibling variants of the same II.
                        self.cancel_at_or_above(task.ii);
                    }
                }
                _ => {
                    // Definitive no-mapping. Closure is sound when it comes
                    // from the canonical lane (it mirrors the sequential
                    // mapper exactly) or is an UNSAT proof (lane-
                    // independent — both backends exhaust the same KMS
                    // candidate space). Giveups from non-canonical lanes
                    // are dropped — closing on them could diverge from the
                    // sequential answer.
                    let is_proof = matches!(report.attempt.outcome, AttemptOutcome::Unsat);
                    if (task.lane == 0 || is_proof) && !self.closed.contains_key(&task.ii) {
                        // A proof closing an II in a cross-backend race
                        // spares the *other* backend that rung entirely —
                        // the bound exchange the module docs describe.
                        if is_proof && self.cross_backend {
                            self.stats.bound_exchanges += 1;
                        }
                        self.closed.insert(task.ii, report.attempt);
                        self.cancel_ii(task.ii);
                    }
                }
            },
        }
        if self.finished() {
            self.cancel_all();
        }
    }
}

struct Shared {
    state: Mutex<RaceState>,
    cv: Condvar,
}

impl Shared {
    /// Locks the race state, recovering from poison: the state is a set
    /// of counters and per-II records that stay coherent under every
    /// partial update, and a panicking sibling must degrade to a
    /// per-request error — never wedge the race for the surviving
    /// workers.
    fn lock_state(&self) -> MutexGuard<'_, RaceState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
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

fn worker(
    shared: &Shared,
    lanes: &[Lane<'_>],
    limits_proto: &SolveLimits,
    trace_base: Option<u64>,
    inject_panic: bool,
) {
    loop {
        let task = {
            let mut state = shared.lock_state();
            loop {
                if state.finished() {
                    drop(state);
                    shared.cv.notify_all();
                    return;
                }
                if let Some(task) = state.take_task() {
                    break task;
                }
                // Window fully in flight: wait for a sibling to record.
                // The timeout guards against missed wakeups near the end.
                state = shared
                    .cv
                    .wait_timeout(state, Duration::from_millis(25))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let mut limits = limits_proto.clone().with_stop_flag(Arc::clone(&task.stop));
        if let Some(share) = &task.share {
            limits = limits.with_share(share.clone());
        }
        // Spans from this task (the `race` task span here, the `rung`
        // span inside `attempt_ii`) all land on the lane's own track, so
        // concurrent lanes render as parallel timeline rows — one per
        // portfolio sibling and one per backend. `trace_base` is None
        // whenever tracing was off at race start — the hot path stays
        // guard-free.
        let lane = &lanes[task.lane];
        let _track = trace_base.map(|base| obs::trace::push_track(base + task.lane as u64));
        let mut span = obs::trace::Span::begin(
            obs::trace::Category::Race,
            &format!("task ii={} lane={}", task.ii, task.lane),
        );
        span.arg("ii", i64::from(task.ii));
        span.arg("lane", task.lane as i64);
        // A panicking attempt (a solver bug, or the injected test fault)
        // must cost exactly one task, not the whole engine: catch the
        // unwind here — before it can poison the shared state or tear
        // down the scoped-thread pool — and record it as an `Internal`
        // failure for this request.
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected race-worker fault (panic_on_name)");
            }
            lane.backend.attempt_ii(task.ii, &limits)
        }))
        .unwrap_or_else(|payload| {
            Err(MapFailure::Internal(format!(
                "race worker panicked at ii={} lane={}: {}",
                task.ii,
                task.lane,
                panic_message(payload.as_ref())
            )))
        });
        if span.active() {
            // ordering: advisory cancel latch; a stale read only mislabels
            // the trace span, it never affects the result.
            span.arg("cancelled", i64::from(task.stop.load(Ordering::Relaxed)));
        }
        drop(span);
        let mut state = shared.lock_state();
        state.record(&task, result);
        drop(state);
        shared.cv.notify_all();
    }
}

/// Maps `dfg` onto `cgra` by racing candidate IIs (and portfolio variants)
/// across a worker pool. See the module docs for the guarantees.
pub fn map_raced(dfg: &Dfg, cgra: &Cgra, config: &EngineConfig) -> EngineOutcome {
    map_raced_with_bound(dfg, cgra, config, None)
}

/// [`map_raced`] with a previously *proven* II lower bound: candidate IIs
/// below `known_lower_bound` were already answered `Unsat` for this exact
/// problem (same DFG, CGRA and mapping semantics) and are skipped without
/// solving. [`u32::MAX`] means the problem was proven unmappable at every
/// II. Passing an unproven bound forfeits the engine's agreement
/// guarantee — the batch [`crate::Engine`] only feeds bounds derived from
/// UNSAT closures or unmappability cores.
pub fn map_raced_with_bound(
    dfg: &Dfg,
    cgra: &Cgra,
    config: &EngineConfig,
    known_lower_bound: Option<u32>,
) -> EngineOutcome {
    let t0 = Instant::now();
    let failure = |result: MapFailure, elapsed: Duration, unmappable: bool| EngineOutcome {
        outcome: MapOutcome {
            result: Err(result),
            attempts: Vec::new(),
            elapsed,
        },
        stats: RaceStats::default(),
        proven_unmappable: unmappable,
    };

    let backend = config.backend;
    let mapper = Mapper::new(dfg, cgra).with_config(config.mapper.clone());
    let morph_mapper = MorphMapper::new(dfg, cgra).with_config(config.mapper.clone());
    let sat_base = if backend == BackendKind::Morph {
        None
    } else {
        match mapper.prepare() {
            Ok(p) => Some(p),
            Err(e) => return failure(e, t0.elapsed(), false),
        }
    };
    let morph_base = if backend == BackendKind::Sat {
        None
    } else {
        match morph_mapper.prepare() {
            Ok(p) => Some(p),
            Err(e) => return failure(e, t0.elapsed(), false),
        }
    };
    let max_ii = config.mapper.max_ii;
    // Either a cached proof or a backend's pre-solved II-invariant
    // relaxation says no II can map: fail fast, no rungs dispatched. Both
    // backends' probes are sound proofs over the same candidate space, so
    // either verdict condemns the whole race.
    let pre_proven = sat_base.as_ref().is_some_and(|b| b.proven_unmappable())
        || morph_base.as_ref().is_some_and(|b| b.proven_unmappable());
    if known_lower_bound == Some(u32::MAX) || pre_proven {
        return failure(MapFailure::IiCapReached { cap: max_ii }, t0.elapsed(), true);
    }
    let prepared_start = sat_base
        .as_ref()
        .map(|b| b.start_ii())
        .into_iter()
        .chain(morph_base.as_ref().map(|b| b.start_ii()))
        .max()
        .unwrap_or(1);
    let start = prepared_start.max(known_lower_bound.unwrap_or(0));
    if start > max_ii {
        return failure(
            MapFailure::IiCapReached { cap: max_ii },
            t0.elapsed(),
            false,
        );
    }

    // Lane 0 is the canonical agreement anchor: the caller's configuration
    // verbatim on the primary backend (SAT for `Sat`/`Race`, morph for
    // `Morph`). The portfolio only multiplies SAT lanes — the morph search
    // is deterministic, so racing perturbed copies of it would burn
    // workers re-deriving the same answer.
    let portfolio = config.portfolio.max(1);
    let mut lanes: Vec<Lane<'_>> = Vec::new();
    if let Some(base) = &sat_base {
        for k in 0..portfolio {
            let label = if k == 0 {
                format!("{} sat 0 (canonical)", dfg.name())
            } else {
                format!("{} sat {k}", dfg.name())
            };
            lanes.push(Lane {
                backend: Box::new(
                    base.clone()
                        .with_config(portfolio_variant(&config.mapper, k)),
                ),
                shares: true,
                label,
            });
        }
    }
    if let Some(base) = morph_base {
        lanes.push(Lane {
            backend: Box::new(base),
            shares: false,
            label: format!("{} morph", dfg.name()),
        });
    }

    let race_width = config.race_width.max(1) as u32;
    let deadline = config.mapper.timeout.map(|d| t0 + d);
    let mut limits_proto = SolveLimits::none();
    if let Some(dl) = deadline {
        limits_proto = limits_proto.with_deadline(dl);
    }
    if let Some(c) = config.mapper.max_conflicts_per_ii {
        limits_proto = limits_proto.with_max_conflicts(c);
    }

    let max_useful = (race_width as usize).saturating_mul(lanes.len());
    let workers = config.effective_workers().min(max_useful).max(1);

    // Sharing needs at least two *sharing* lanes per II to have a partner
    // (the morph lane has no clause database); with one SAT variant the
    // race stays on the handle-free hot path.
    let sharing_lanes = lanes.iter().filter(|l| l.shares).count();
    let share = (config.share.enabled && sharing_lanes > 1).then_some(config.share);

    let lane_shares: Vec<bool> = lanes.iter().map(|l| l.shares).collect();
    let lane_backends: Vec<&'static str> = lanes.iter().map(|l| l.backend.name()).collect();
    let cross_backend = lane_backends.iter().any(|&n| n != lane_backends[0]);

    let shared = Shared {
        state: Mutex::new(RaceState {
            start,
            max_ii,
            race_width,
            lane_shares,
            lane_backends,
            cross_backend,
            share,
            open: HashMap::new(),
            closed: BTreeMap::new(),
            best: None,
            fatal: None,
            stats: RaceStats::default(),
        }),
        cv: Condvar::new(),
    };

    // One trace track per lane, reserved up front so every worker thread
    // maps task lane `k` to the same backend-named timeline row.
    let trace_base = obs::trace::enabled().then(|| {
        let base = obs::trace::allocate_tracks(lanes.len() as u64);
        for (k, lane) in lanes.iter().enumerate() {
            obs::trace::name_track(base + k as u64, &lane.label);
        }
        base
    });

    // Test-only fault injection: make this loop's attempts panic inside
    // the workers, exercising the catch-unwind path end to end.
    let inject_panic = config.panic_on_name.as_deref() == Some(dfg.name());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker(&shared, &lanes, &limits_proto, trace_base, inject_panic));
        }
    });

    let mut state = shared
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let elapsed = t0.elapsed();

    // A complete winner (every lower II closed) beats a Timeout recorded
    // by a losing worker: the mapping was found before the deadline and is
    // provably the best II, so discarding it for Err(Timeout) would throw
    // away a full answer. Other fatals (structural/internal) still win —
    // they signal problems a mapping must not mask.
    let timeout_only = matches!(state.fatal, Some(MapFailure::Timeout { .. }));
    let best_is_complete = state
        .best
        .as_ref()
        .is_some_and(|b| (start..b.ii).all(|ii| state.closed.contains_key(&ii)));
    if timeout_only && best_is_complete {
        state.fatal = None;
    }

    // Winner attribution: exactly one lane's mapping is returned per
    // successful race, so its backend scores a single win; failed races
    // score nothing. Computed after the timeout rescue so a rescued
    // winner still counts.
    let (sat_wins, morph_wins) = match &state.best {
        Some(best) if state.fatal.is_none() => match state.lane_backends[best.lane] {
            "morph" => (0, 1),
            _ => (1, 0),
        },
        _ => (0, 0),
    };
    let stats = RaceStats {
        workers,
        race_start: start,
        sat_wins,
        morph_wins,
        ..state.stats
    };

    let (result, attempts) = if let Some(fatal) = state.fatal {
        let attempts = state.closed.into_values().collect();
        (Err(fatal), attempts)
    } else if let Some(best) = state.best {
        let mut attempts: Vec<IiAttempt> = state
            .closed
            .into_iter()
            .filter(|(ii, _)| *ii < best.ii)
            .map(|(_, a)| a)
            .collect();
        attempts.push(best.attempt);
        (Ok(best.mapped), attempts)
    } else {
        let attempts = state.closed.into_values().collect();
        (Err(MapFailure::IiCapReached { cap: max_ii }), attempts)
    };

    EngineOutcome {
        outcome: MapOutcome {
            result,
            attempts,
            elapsed,
        },
        stats,
        // Unmappability is decided before dispatch (preparation pre-solves
        // the PE-level prefix, shared by every portfolio variant), so a
        // race that ran rungs was, by construction, not proven unmappable.
        proven_unmappable: false,
    }
}
