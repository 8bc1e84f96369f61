//! The iterative mapping loop (paper Fig. 3): starting at MII, encode the
//! KMS constraints, solve, register-allocate, and increase II on failure.

use crate::encoder::{EncodeError, EncodeStats};
use crate::mapping::{Mapping, TransferKind};
use satmapit_cgra::Cgra;
use satmapit_dfg::{Dfg, DfgError};
use satmapit_regalloc::{RegAllocError, RegAllocation};
use satmapit_sat::encode::AmoEncoding;
use satmapit_sat::{Counters, SolveLimits, Solver, SolverOptions, SolverStats, StopReason};
use satmapit_schedule::{mii, Kms, MobilitySchedule};
use std::fmt;
use std::time::{Duration, Instant};

/// How far beyond its ALAP a node's mobility window is extended when the
/// KMS is built (see [`Kms::build_with_slack`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlackPolicy {
    /// The paper's strict windows (`[asap, alap]`). Shallow, wide DFGs can
    /// be unmappable at every II under this policy.
    Zero,
    /// Extend every window by a fixed number of cycles.
    Fixed(u32),
    /// Extend by `II - 1`, so every node can reach every kernel cycle in
    /// some fold (the default; restores completeness of the II search).
    #[default]
    FullWheel,
}

impl SlackPolicy {
    /// The slack in cycles for a candidate `ii`.
    ///
    /// `ii == 0` is not a meaningful candidate; `FullWheel` saturates to 0
    /// there instead of underflowing (callers reject II = 0 before any
    /// KMS is built — see [`PreparedMapper::attempt_ii`]).
    pub fn slack(self, ii: u32) -> u32 {
        match self {
            SlackPolicy::Zero => 0,
            SlackPolicy::Fixed(s) => s,
            SlackPolicy::FullWheel => ii.saturating_sub(1),
        }
    }
}

/// Configuration of the iterative mapper.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Give up once II exceeds this cap (the paper terminates at II = 50).
    pub max_ii: u32,
    /// Overall wall-clock budget (the paper's experiments use 4000 s).
    pub timeout: Option<Duration>,
    /// At-most-one encoding used for C1/C2.
    pub amo: AmoEncoding,
    /// Step budget for the exact register-allocation colouring.
    pub regalloc_budget: u64,
    /// Start the search at this II instead of the computed MII.
    pub start_ii: Option<u32>,
    /// Mobility-window extension policy.
    pub slack: SlackPolicy,
    /// Encode register-file capacity (C4) directly in the SAT formulation
    /// (extension over the paper; see
    /// [`crate::encoder::EncodeOptions::register_pressure`]).
    pub register_pressure: bool,
    /// Solver tunables. None are left; the field stays for callers that
    /// pass it on to [`Solver::from_cnf_with`].
    pub solver: SolverOptions,
}

/// When register allocation fails at a rung, the failing PE's exact
/// configuration is forbidden with a blocking clause and the same II is
/// re-solved, up to this many cuts, before the rung is given up as
/// `RegAllocFailed` (paper Fig. 3's second loop). The cut is sound:
/// register demand on a PE is fully determined by the nodes placed on
/// it, so only genuinely infeasible configurations are excluded. The
/// morph backend counts failed embeddings against the same budget.
pub const RA_CUT_BUDGET: u32 = 200;

impl MapperConfig {
    /// Candidate IIs must lie in `1..=max_ii` (II = 0 has no kernel and
    /// would underflow the `FullWheel` slack computation).
    ///
    /// # Errors
    ///
    /// [`MapFailure::InvalidIi`] for anything outside that range.
    pub fn check_ii(&self, ii: u32) -> Result<(), MapFailure> {
        if ii == 0 || ii > self.max_ii {
            return Err(MapFailure::InvalidIi {
                ii,
                max_ii: self.max_ii,
            });
        }
        Ok(())
    }
}

impl Default for MapperConfig {
    fn default() -> MapperConfig {
        MapperConfig {
            max_ii: 50,
            timeout: None,
            amo: AmoEncoding::Auto,
            regalloc_budget: 1_000_000,
            start_ii: None,
            slack: SlackPolicy::FullWheel,
            register_pressure: true,
            solver: SolverOptions::default(),
        }
    }
}

/// What happened at one candidate II.
#[derive(Debug, Clone)]
pub struct IiAttempt {
    /// The candidate II.
    pub ii: u32,
    /// Encoded instance sizes.
    pub encode_stats: EncodeStats,
    /// Outcome of this attempt.
    pub outcome: AttemptOutcome,
    /// Solver effort (when the solver ran).
    pub solver_stats: Option<SolverStats>,
    /// Register-allocation blocking cuts added at this II.
    pub ra_cuts: u32,
    /// Wall-clock time spent on this II.
    pub elapsed: Duration,
}

/// Per-II outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// A mapping was found and register-allocated.
    Mapped,
    /// SAT, but register allocation failed (paper Fig. 3's second loop).
    RegAllocFailed(RegAllocError),
    /// Proven unsatisfiable at this II.
    Unsat,
    /// Retired: a rung given up under a conflict budget or a stop flag,
    /// both gone. Nothing produces it; it stays because stored traces may
    /// hold it.
    SolverBudget(StopReason),
}

/// Terminal mapping failures.
#[derive(Debug, Clone, PartialEq)]
pub enum MapFailure {
    /// The input DFG is malformed.
    InvalidDfg(DfgError),
    /// No II can map this DFG on this architecture (see [`EncodeError`]).
    Structural(EncodeError),
    /// The wall-clock budget expired (a "red ✕" in the paper's Fig. 6).
    Timeout {
        /// The II being attempted when time ran out.
        at_ii: u32,
    },
    /// II climbed past the cap without a mapping (a "black ✕" in Fig. 6).
    IiCapReached {
        /// The configured cap.
        cap: u32,
    },
    /// A candidate II outside the valid range was requested (0, or above
    /// the configured cap). The iterative drivers never produce this; it
    /// guards direct [`PreparedMapper::attempt_ii`] callers against the
    /// `II - 1` underflow a zero II would otherwise hit.
    InvalidIi {
        /// The rejected candidate.
        ii: u32,
        /// The configured cap it must not exceed.
        max_ii: u32,
    },
    /// Internal consistency failure: the decoded mapping did not validate
    /// (indicates an encoder bug; never expected).
    Internal(String),
}

impl fmt::Display for MapFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapFailure::InvalidDfg(e) => write!(f, "invalid DFG: {e}"),
            MapFailure::Structural(e) => write!(f, "structurally unmappable: {e}"),
            MapFailure::Timeout { at_ii } => write!(f, "timeout while attempting II={at_ii}"),
            MapFailure::IiCapReached { cap } => write!(f, "no mapping up to II cap {cap}"),
            MapFailure::InvalidIi { ii, max_ii } => {
                write!(f, "candidate II {ii} outside the valid range 1..={max_ii}")
            }
            MapFailure::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for MapFailure {}

/// A successful mapping with its register allocation.
#[derive(Debug, Clone)]
pub struct MappedLoop {
    /// The placement/schedule.
    pub mapping: Mapping,
    /// Register assignment for register-file transfers.
    pub registers: RegAllocation,
    /// The MII lower bound the search started from.
    pub mii: u32,
}

impl MappedLoop {
    /// The achieved initiation interval.
    pub fn ii(&self) -> u32 {
        self.mapping.ii
    }
}

/// Full mapping report: result plus the per-II trace.
#[derive(Debug, Clone)]
pub struct MapOutcome {
    /// Success or terminal failure.
    pub result: Result<MappedLoop, MapFailure>,
    /// One entry per II tried, in order.
    pub attempts: Vec<IiAttempt>,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

impl MapOutcome {
    /// The achieved II, if mapping succeeded.
    pub fn ii(&self) -> Option<u32> {
        self.result.as_ref().ok().map(MappedLoop::ii)
    }
}

/// The SAT-MapIt mapper.
///
/// ```
/// use satmapit_core::Mapper;
/// use satmapit_cgra::Cgra;
/// use satmapit_dfg::{Dfg, Op};
///
/// let mut dfg = Dfg::new("pair");
/// let a = dfg.add_const(1);
/// let b = dfg.add_node(Op::Neg);
/// dfg.add_edge(a, b, 0);
///
/// let cgra = Cgra::square(2);
/// let outcome = Mapper::new(&dfg, &cgra).run();
/// assert_eq!(outcome.ii(), Some(1));
/// ```
#[derive(Debug)]
pub struct Mapper<'a> {
    dfg: &'a Dfg,
    cgra: &'a Cgra,
    config: MapperConfig,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper with the default configuration.
    pub fn new(dfg: &'a Dfg, cgra: &'a Cgra) -> Mapper<'a> {
        Mapper {
            dfg,
            cgra,
            config: MapperConfig::default(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: MapperConfig) -> Mapper<'a> {
        self.config = config;
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Mapper<'a> {
        self.config.timeout = Some(timeout);
        self
    }

    /// Validates the DFG and precomputes the mobility schedule and MII,
    /// returning a session that can attempt candidate IIs individually.
    ///
    /// This is the reusable core shared by the sequential [`Mapper::run`]
    /// loop and the engine's miss path in `satmapit-engine`.
    pub fn prepare(&self) -> Result<PreparedMapper<'a>, MapFailure> {
        self.dfg.validate().map_err(MapFailure::InvalidDfg)?;
        let ms = MobilitySchedule::compute(self.dfg).expect("validated above");
        let Some(mii_v) = mii(self.dfg, self.cgra) else {
            // Memory operations with zero memory-capable PEs: the same
            // structural condition the encoder reports per node.
            let node = self
                .dfg
                .node_ids()
                .find(|&n| self.dfg.node(n).op.is_memory())
                .expect("res_mii is only None when memory ops exist");
            return Err(MapFailure::Structural(EncodeError::NoPeForOp { node }));
        };
        Ok(PreparedMapper {
            dfg: self.dfg,
            cgra: self.cgra,
            config: self.config.clone(),
            ms,
            mii: mii_v,
            prefix_unsat: std::sync::OnceLock::new(),
        })
    }

    /// Runs the iterative search of paper Fig. 3 on one live solver: the
    /// whole ladder shares an [`crate::ladder::IiLadder`], so learned
    /// clauses carry across candidate IIs and an UNSAT core confined to
    /// the II-invariant prefix ends the search immediately.
    pub fn run(&self) -> MapOutcome {
        run_ladder(
            format_args!("ladder {}", self.dfg.name()),
            &self.config,
            |rungs| {
                let prepared = self.prepare()?;
                let mut ladder = prepared.ladder()?;
                rungs.climb(prepared.start_ii(), |ii, limits| {
                    ladder.attempt_ii(ii, limits)
                })
            },
        )
    }
}

/// The rungs of one sequential II search in progress: the per-II trace
/// collected so far plus the deadline every rung runs under. Handed to
/// the session closure of [`run_ladder`].
#[derive(Debug)]
pub struct Rungs {
    max_ii: u32,
    /// What every rung runs under: the search's wall-clock deadline.
    limits: SolveLimits,
    attempts: Vec<IiAttempt>,
}

impl Rungs {
    /// The II loop of paper Fig. 3: calls `attempt` on `start_ii`,
    /// `start_ii + 1`, … until a rung maps, proves the loop unmappable at
    /// every II, fails terminally, the wall-clock budget runs out, or II
    /// passes [`MapperConfig::max_ii`]. Every rung runs under the
    /// search's deadline.
    ///
    /// # Errors
    ///
    /// The terminal failure that ended the search without a mapping.
    pub fn climb(
        &mut self,
        start_ii: u32,
        mut attempt: impl FnMut(u32, &SolveLimits) -> Result<AttemptReport, MapFailure>,
    ) -> Result<MappedLoop, MapFailure> {
        let mut ii = start_ii;
        while ii <= self.max_ii {
            if self.limits.expired() {
                return Err(MapFailure::Timeout { at_ii: ii });
            }
            let report = attempt(ii, &self.limits)?;
            self.attempts.push(report.attempt);
            if let Some(mapped) = report.mapped {
                return Ok(mapped);
            }
            if report.proven_unmappable {
                // The contradiction is II-invariant: no II can map. Skip
                // the remaining rungs; the answer is exactly what grinding
                // them out one by one would reach.
                break;
            }
            ii += 1;
        }
        Err(MapFailure::IiCapReached { cap: self.max_ii })
    }
}

/// The one sequential driver behind every backend's `run`: starts the
/// clock (the wall-clock budget covers preparation too), opens the
/// `ladder` trace span under `span_name`, runs `session` — which prepares
/// its backend and then [`Rungs::climb`]s with its per-rung attempt — and
/// packages the result with the per-II trace. The span records the rung
/// count and the final status; with tracing off it costs one atomic load
/// and `span_name` is never formatted. A timeout too large to add to the
/// clock sets no deadline.
pub fn run_ladder(
    span_name: fmt::Arguments<'_>,
    config: &MapperConfig,
    session: impl FnOnce(&mut Rungs) -> Result<MappedLoop, MapFailure>,
) -> MapOutcome {
    use satmapit_obs::trace::{self, Category, Span};
    let t0 = Instant::now();
    let mut span = trace::enabled().then(|| Span::begin(Category::Ladder, &span_name.to_string()));
    let mut rungs = Rungs {
        max_ii: config.max_ii,
        limits: SolveLimits {
            deadline: config.timeout.and_then(|d| t0.checked_add(d)),
        },
        attempts: Vec::new(),
    };
    let result = session(&mut rungs);
    if let Some(span) = &mut span {
        span.arg("rungs", rungs.attempts.len() as i64);
        match &result {
            Ok(mapped) => {
                span.arg_str("status", "mapped");
                span.arg("ii", i64::from(mapped.mapping.ii));
            }
            Err(failure) => span.arg_str("status", failure_label(failure)),
        }
    }
    MapOutcome {
        result,
        attempts: rungs.attempts,
        elapsed: t0.elapsed(),
    }
}

/// What one [`PreparedMapper::attempt_ii`] call produced.
#[derive(Debug, Clone)]
pub struct AttemptReport {
    /// The attempt trace entry (outcome, solver effort, timings).
    pub attempt: IiAttempt,
    /// The mapping, present iff `attempt.outcome == AttemptOutcome::Mapped`.
    pub mapped: Option<MappedLoop>,
    /// `true` when the UNSAT core of this attempt did not touch the per-II
    /// clause group: the contradiction lives entirely in the II-invariant
    /// PE-level prefix, so **every** candidate II is infeasible and the
    /// remaining ladder rungs can be skipped without solving. Only a
    /// solve that assumed a rung gate (or the precomputed prefix probe,
    /// [`PreparedMapper::proven_unmappable`]) can establish this; an
    /// ordinary `Unsat` leaves it `false`.
    pub proven_unmappable: bool,
}

impl AttemptReport {
    /// The report of an attempt answered without solving because the loop
    /// is already proven unmappable at every II: `Unsat` with
    /// [`AttemptReport::proven_unmappable`] set.
    pub fn unmappable(ii: u32, elapsed: Duration) -> AttemptReport {
        AttemptReport {
            proven_unmappable: true,
            ..AttemptReport::unsolved(ii, AttemptOutcome::Unsat, elapsed)
        }
    }

    /// The report of a rung the domain filter ([`crate::filter`]) refuted
    /// before any search: a proven `Unsat` with no solver effort.
    /// `encode_stats` sizes the candidate space the filter examined.
    pub fn filter_refuted(ii: u32, encode_stats: EncodeStats, elapsed: Duration) -> AttemptReport {
        let mut report = AttemptReport::unsolved(ii, AttemptOutcome::Unsat, elapsed);
        report.attempt.encode_stats = encode_stats;
        report
    }

    fn unsolved(ii: u32, outcome: AttemptOutcome, elapsed: Duration) -> AttemptReport {
        AttemptReport {
            attempt: IiAttempt {
                ii,
                encode_stats: EncodeStats::default(),
                outcome,
                solver_stats: None,
                ra_cuts: 0,
                elapsed,
            },
            mapped: None,
            proven_unmappable: false,
        }
    }
}

/// Short trace label for a terminal failure.
pub(crate) fn failure_label(failure: &MapFailure) -> &'static str {
    match failure {
        MapFailure::InvalidDfg(_) => "invalid_dfg",
        MapFailure::Structural(_) => "structural",
        MapFailure::Timeout { .. } => "timeout",
        MapFailure::IiCapReached { .. } => "ii_cap_reached",
        MapFailure::InvalidIi { .. } => "invalid_ii",
        MapFailure::Internal(_) => "internal",
    }
}

/// Runs one II attempt under a `rung` span: outcome plus every
/// [`SolverStats`] counter of the attempt — and, when the GC counters are
/// nonzero, a companion `gc` instant so the category is filterable on the
/// timeline.
/// Shared by the one-shot [`PreparedMapper::attempt_ii`], the live
/// [`crate::ladder::IiLadder::attempt_ii`], and out-of-crate
/// [`crate::backend::Backend`] implementations (so every backend's rungs
/// render identically on the timeline). One atomic load when tracing is
/// off.
pub fn traced_rung(
    ii: u32,
    attempt: impl FnOnce() -> Result<AttemptReport, MapFailure>,
) -> Result<AttemptReport, MapFailure> {
    use satmapit_obs::trace::{self, ArgValue, Category};
    if !trace::enabled() {
        return attempt();
    }
    let start_us = trace::now_us();
    let result = attempt();
    let end_us = trace::now_us();
    let mut args: Vec<(&'static str, ArgValue)> = vec![("ii", ArgValue::Int(i64::from(ii)))];
    let outcome = match &result {
        Ok(report) => match &report.attempt.outcome {
            AttemptOutcome::Mapped => "mapped",
            AttemptOutcome::RegAllocFailed(_) => "regalloc_failed",
            AttemptOutcome::Unsat if report.proven_unmappable => "unsat_prefix",
            // Proven without a solver, yet not by the prefix: the domain
            // filter refuted the rung before it was encoded.
            AttemptOutcome::Unsat if report.attempt.solver_stats.is_none() => "unsat_filter",
            AttemptOutcome::Unsat => "unsat",
            // Unreachable: no attempt gives up under a budget any more.
            AttemptOutcome::SolverBudget(_) => "solver_budget",
        },
        Err(failure) => failure_label(failure),
    };
    args.push(("outcome", ArgValue::Str(outcome.to_string())));
    let stats = match &result {
        Ok(report) => {
            args.push(("ra_cuts", ArgValue::Int(i64::from(report.attempt.ra_cuts))));
            report.attempt.solver_stats.as_ref()
        }
        Err(_) => None,
    };
    if let Some(stats) = stats {
        args.extend(
            stats
                .fields()
                .map(|(name, _, value)| (name, ArgValue::Int(value as i64))),
        );
    }
    let dur_us = end_us.saturating_sub(start_us);
    trace::complete(
        Category::Rung,
        &format!("rung ii={ii}"),
        start_us,
        dur_us,
        args,
    );
    if let Some(stats) = stats {
        if stats.gc_runs > 0 {
            trace::complete(
                Category::Gc,
                &format!("gc ii={ii}"),
                end_us,
                0,
                vec![
                    ("gc_runs", ArgValue::Int(stats.gc_runs as i64)),
                    ("lits_reclaimed", ArgValue::Int(stats.lits_reclaimed as i64)),
                ],
            );
        }
    }
    result
}

/// A validated mapping session: the DFG's mobility schedule and MII are
/// computed once, after which any candidate II can be attempted — from one
/// thread or many (it is `Sync`; each attempt builds its own solver).
///
/// ```
/// use satmapit_cgra::Cgra;
/// use satmapit_core::Mapper;
/// use satmapit_dfg::{Dfg, Op};
/// use satmapit_sat::SolveLimits;
///
/// let mut dfg = Dfg::new("pair");
/// let a = dfg.add_const(1);
/// let b = dfg.add_node(Op::Neg);
/// dfg.add_edge(a, b, 0);
/// let cgra = Cgra::square(2);
///
/// let mapper = Mapper::new(&dfg, &cgra);
/// let prepared = mapper.prepare().unwrap();
/// let report = prepared.attempt_ii(prepared.start_ii(), &SolveLimits::none()).unwrap();
/// assert!(report.mapped.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct PreparedMapper<'a> {
    pub(crate) dfg: &'a Dfg,
    pub(crate) cgra: &'a Cgra,
    pub(crate) config: MapperConfig,
    pub(crate) ms: MobilitySchedule,
    pub(crate) mii: u32,
    /// The lazily pre-solved verdict of the II-invariant PE-level prefix:
    /// `true` means no II can map.
    /// Lazy so the sequential ladder — which installs the prefix in its
    /// own live solver anyway — never pays for a second build; the
    /// one-shot path probes it once per session.
    pub(crate) prefix_unsat: std::sync::OnceLock<bool>,
}

impl<'a> PreparedMapper<'a> {
    /// The MII lower bound (`max(ResMII, RecMII)`).
    pub fn mii(&self) -> u32 {
        self.mii
    }

    /// `true` when the loop is proven unmappable at *every* II: the
    /// II-invariant PE-level prefix is contradictory. Computed on first
    /// use; it shares no variables with any per-II delta, so the verdict
    /// is a per-session constant. Drivers can skip the whole ladder.
    pub fn proven_unmappable(&self) -> bool {
        *self.prefix_unsat.get_or_init(|| {
            let mut probe = Solver::new();
            crate::ladder::install_prefix(&mut probe, self.dfg, self.cgra).is_ok() && !probe.is_ok()
        })
    }

    /// The first II the search considers (configured start or MII).
    pub fn start_ii(&self) -> u32 {
        self.config.start_ii.unwrap_or(self.mii).max(1)
    }

    /// The configuration this session attempts IIs under.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Replaces the configuration. The DFG/CGRA and precomputed schedule
    /// are reused.
    pub fn with_config(mut self, config: MapperConfig) -> PreparedMapper<'a> {
        self.config = config;
        self
    }

    /// Opens the live II ladder over this session: one solver
    /// answers every candidate II, carrying learned clauses (and the
    /// II-invariant PE-level prefix) across rungs. See
    /// [`crate::ladder::IiLadder`].
    ///
    /// # Errors
    ///
    /// Fails with [`MapFailure::Structural`] when some node has no PE able
    /// to execute it (the same condition every per-II encode would hit).
    pub fn ladder(&self) -> Result<crate::ladder::IiLadder<'_, 'a>, MapFailure> {
        crate::ladder::IiLadder::open(self).map_err(MapFailure::Structural)
    }

    /// Attempts one candidate II: encode, solve (with register-allocation
    /// cuts), decode, validate, allocate registers.
    ///
    /// Candidate IIs must lie in `1..=max_ii`; anything else is rejected
    /// with [`MapFailure::InvalidIi`] (II = 0 has no kernel and used to
    /// underflow the `FullWheel` slack computation).
    ///
    /// Terminal conditions become `Err`: an out-of-range II, a structural
    /// encoding failure, an internal consistency failure, or the
    /// wall-clock deadline in `limits` expiring ([`MapFailure::Timeout`],
    /// the only limit outcome). Everything else is an `Ok` report.
    ///
    /// Every attempt builds a fresh solver of its own, so a plain loop
    /// over this method is the paper's scratch ladder.
    /// The II-invariant PE-level prefix of [`crate::ladder`] is probed
    /// once per session ([`PreparedMapper::proven_unmappable`]); if it is
    /// contradictory, the attempt answers `Unsat` with
    /// [`AttemptReport::proven_unmappable`] set *without building a
    /// formula* — every II is infeasible. (The prefix shares no variables
    /// with any per-II encoding, so per-attempt core analysis could never
    /// say more than this precomputed verdict; the persistent
    /// [`PreparedMapper::ladder`] derives the same fact through its
    /// failed-assumption cores.)
    pub fn attempt_ii(&self, ii: u32, limits: &SolveLimits) -> Result<AttemptReport, MapFailure> {
        traced_rung(ii, || self.attempt_ii_inner(ii, limits))
    }

    fn attempt_ii_inner(&self, ii: u32, limits: &SolveLimits) -> Result<AttemptReport, MapFailure> {
        self.config.check_ii(ii)?;
        let t_ii = Instant::now();
        if self.proven_unmappable() {
            return Ok(AttemptReport::unmappable(ii, t_ii.elapsed()));
        }
        let (kms, enc) = self.encode_rung(ii)?;
        if enc.refuted.is_some() {
            return Ok(AttemptReport::filter_refuted(ii, enc.stats, t_ii.elapsed()));
        }
        let mut solver = Solver::from_cnf(&enc.formula);
        // A solver of its own, nothing ahead of the encoding in it: no
        // gate, variable base 0.
        crate::ladder::solve_rung(self, &mut solver, &enc, &kms, None, 0, limits, t_ii)
    }

    /// Folds the mobility schedule at `ii` and encodes C1–C4 over it — the
    /// front half of every rung, whichever solver then receives the
    /// clauses.
    pub(crate) fn encode_rung(
        &self,
        ii: u32,
    ) -> Result<(Kms, crate::encoder::Encoded), MapFailure> {
        let kms = Kms::build_with_slack(&self.ms, ii, self.config.slack.slack(ii));
        let options = crate::encoder::EncodeOptions {
            amo: self.config.amo,
            register_pressure: self.config.register_pressure,
        };
        let enc = crate::encoder::encode_with_options(self.dfg, self.cgra, &kms, options)
            .map_err(MapFailure::Structural)?;
        Ok((kms, enc))
    }

    /// Builds a blocking clause after a register-allocation failure on
    /// `failed_pe`.
    ///
    /// Preferred cut: a minimal witness of infeasibility — `regs + 1`
    /// mutually-overlapping live ranges (a clique in the PE's circular-arc
    /// interference graph), blocked via the producers *and* the consumers
    /// that pin each lifetime. Whenever those placements co-occur the PE
    /// provably needs more registers than it has, so the cut never removes
    /// a feasible solution. Fallback: block the PE's whole configuration
    /// (register demand on a PE is fully determined by the nodes placed on
    /// it — also sound, just weaker).
    pub(crate) fn ra_cut_clause(
        &self,
        varmap: &crate::varmap::VarMap,
        model: &[bool],
        mapping: &Mapping,
        failed_pe: usize,
    ) -> Vec<satmapit_sat::Lit> {
        use satmapit_graphs::arcs::{interference_graph, CyclicArc};
        use satmapit_graphs::clique::clique_of_size;

        // True placement literal per node.
        let mut lit_of = vec![None; self.dfg.num_nodes()];
        #[allow(clippy::needless_range_loop)] // idx doubles as the variable id
        for idx in 0..varmap.num_vars() {
            if model[idx] {
                let (node, _, _) = varmap.decode(satmapit_sat::Var::new(idx as u32));
                lit_of[node.index()] = Some(satmapit_sat::Var::new(idx as u32).positive());
            }
        }

        let per_pe = crate::regs::live_values(self.dfg, self.cgra, mapping);
        let values = &per_pe[failed_pe];
        let ii = mapping.ii;
        let arcs: Vec<CyclicArc> = values.iter().map(|v| v.arc(ii)).collect();
        let graph = interference_graph(&arcs);
        let want = usize::from(self.cgra.regs_per_pe()) + 1;
        let result = clique_of_size(&graph, want, 50_000);

        let mut cut_nodes: Vec<usize> = Vec::new();
        if result.clique.len() >= want {
            for &vi in &result.clique {
                let producer = values[vi].id as usize;
                cut_nodes.push(producer);
                // The same-PE consumer realizing the value's span.
                let pnode = satmapit_dfg::NodeId(producer as u32);
                let mut best: Option<(i64, usize)> = None;
                for eid in self.dfg.out_edges(pnode) {
                    if mapping.transfer(eid) == TransferKind::SamePeRegister {
                        let delta = mapping.edge_delta(self.dfg, eid);
                        let consumer = self.dfg.edge(eid).dst.index();
                        if best.is_none_or(|(d, _)| delta > d) {
                            best = Some((delta, consumer));
                        }
                    }
                }
                if let Some((_, consumer)) = best {
                    cut_nodes.push(consumer);
                }
            }
        } else {
            // Fallback: every node on the failing PE.
            for (n, p) in mapping.iter() {
                if p.pe.index() == failed_pe {
                    cut_nodes.push(n.index());
                }
            }
        }
        cut_nodes.sort_unstable();
        cut_nodes.dedup();
        cut_nodes
            .into_iter()
            .filter_map(|n| lit_of[n].map(|l| !l))
            .collect()
    }
}

/// Maps `dfg` onto `cgra` with the default configuration.
pub fn map(dfg: &Dfg, cgra: &Cgra) -> MapOutcome {
    Mapper::new(dfg, cgra).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::tests::recurrence;
    use crate::validate::validate_mapping;
    use satmapit_dfg::Op;

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

    #[test]
    fn chain_maps_at_mii() {
        let dfg = chain(4);
        let cgra = Cgra::square(2);
        let outcome = map(&dfg, &cgra);
        assert_eq!(outcome.ii(), Some(1));
        let mapped = outcome.result.unwrap();
        assert_eq!(mapped.mii, 1);
        assert!(validate_mapping(&dfg, &cgra, &mapped.mapping).is_ok());
    }

    #[test]
    fn parallel_ops_push_ii_up() {
        // 9 independent constants on 2x2: ResMII = 3.
        let mut dfg = Dfg::new("par9");
        for i in 0..9 {
            let _ = dfg.add_const(i);
        }
        let cgra = Cgra::square(2);
        let outcome = map(&dfg, &cgra);
        assert_eq!(outcome.ii(), Some(3));
        assert_eq!(outcome.attempts.len(), 1, "starts directly at MII=3");
    }

    #[test]
    fn attempts_record_unsat_iis() {
        // A recurrence a->b->c->a on a 1x1: RecMII=3 and everything on one
        // PE. The accumulator cycle forces II=3.
        let dfg = recurrence();
        let cgra = Cgra::square(1);
        let outcome = map(&dfg, &cgra);
        assert_eq!(outcome.ii(), Some(3));
    }

    #[test]
    fn ii_cap_reported() {
        // Fanout that cannot be satisfied on a 1x1 CGRA: a const feeding
        // two consumers is fine (same PE), but a node with a consumer that
        // must read within II while every II is blocked... Use an
        // unmappable case: two parallel chains with a cross dependency
        // needing adjacency on 1 PE is actually fine. Instead use a cap of
        // 0 iterations: max_ii below MII.
        let dfg = chain(5);
        let cgra = Cgra::square(1);
        let config = MapperConfig {
            max_ii: 3, // MII is 5 on a 1x1 (5 nodes, 1 PE)
            ..MapperConfig::default()
        };
        let outcome = Mapper::new(&dfg, &cgra).with_config(config).run();
        assert_eq!(
            outcome.result.unwrap_err(),
            MapFailure::IiCapReached { cap: 3 }
        );
        assert!(outcome.attempts.is_empty(), "MII already exceeds the cap");
    }

    #[test]
    fn invalid_dfg_fails_fast() {
        let mut dfg = Dfg::new("bad");
        let _ = dfg.add_node(Op::Add);
        let cgra = Cgra::square(2);
        let outcome = map(&dfg, &cgra);
        assert!(matches!(outcome.result, Err(MapFailure::InvalidDfg(_))));
    }

    #[test]
    fn structural_failure_reported() {
        let mut dfg = Dfg::new("fib");
        let f = dfg.add_node(Op::Add);
        dfg.add_back_edge(f, f, 0, 1, 1);
        dfg.add_back_edge(f, f, 1, 2, 0);
        let cgra = Cgra::square(2);
        let outcome = map(&dfg, &cgra);
        assert!(matches!(
            outcome.result,
            Err(MapFailure::Structural(EncodeError::SelfEdgeDistance { .. }))
        ));
    }

    #[test]
    fn zero_timeout_reports_timeout() {
        let dfg = chain(6);
        let cgra = Cgra::square(2);
        let outcome = Mapper::new(&dfg, &cgra)
            .with_timeout(Duration::from_secs(0))
            .run();
        assert!(matches!(outcome.result, Err(MapFailure::Timeout { .. })));
    }

    #[test]
    fn a_timeout_past_the_clock_means_no_deadline() {
        // `t0 + timeout` used to overflow and panic in `run_ladder`.
        let dfg = chain(4);
        let cgra = Cgra::square(2);
        let outcome = Mapper::new(&dfg, &cgra).with_timeout(Duration::MAX).run();
        assert_eq!(outcome.ii(), Some(1));
    }

    #[test]
    fn start_ii_override() {
        let dfg = chain(3);
        let cgra = Cgra::square(2);
        let config = MapperConfig {
            start_ii: Some(2),
            ..MapperConfig::default()
        };
        let outcome = Mapper::new(&dfg, &cgra).with_config(config).run();
        assert_eq!(outcome.ii(), Some(2), "search starts above MII");
    }

    #[test]
    fn attempt_ii_rejects_out_of_range_candidates() {
        // Satellite regression: II = 0 used to underflow the FullWheel
        // slack (`ii - 1` on u32) and panic; out-of-range IIs are now a
        // proper error for both the one-shot and the live-ladder path.
        let dfg = chain(3);
        let cgra = Cgra::square(2);
        let prepared = Mapper::new(&dfg, &cgra).prepare().unwrap();
        assert_eq!(
            prepared.attempt_ii(0, &SolveLimits::none()).unwrap_err(),
            MapFailure::InvalidIi { ii: 0, max_ii: 50 }
        );
        assert_eq!(
            prepared.attempt_ii(51, &SolveLimits::none()).unwrap_err(),
            MapFailure::InvalidIi { ii: 51, max_ii: 50 }
        );
        let mut ladder = prepared.ladder().unwrap();
        assert_eq!(
            ladder.attempt_ii(0, &SolveLimits::none()).unwrap_err(),
            MapFailure::InvalidIi { ii: 0, max_ii: 50 }
        );
    }

    /// The paper's scratch loop, kept as a test oracle: the shared II
    /// driver over the one-shot attempt — a fresh solver per II, nothing
    /// carried between rungs.
    fn scratch_run(dfg: &Dfg, cgra: &Cgra, config: MapperConfig) -> MapOutcome {
        run_ladder(format_args!("scratch {}", dfg.name()), &config, |rungs| {
            let prepared = Mapper::new(dfg, cgra)
                .with_config(config.clone())
                .prepare()?;
            rungs.climb(prepared.start_ii(), |ii, limits| {
                prepared.attempt_ii(ii, limits)
            })
        })
    }

    #[test]
    fn live_and_scratch_ladders_agree() {
        // The recurrence climbs through UNSAT rungs before mapping; both
        // formulations must settle on the same best II with the same
        // per-II trace.
        let dfg = recurrence();
        let cgra = Cgra::square(1);
        let config = MapperConfig {
            start_ii: Some(1),
            ..MapperConfig::default()
        };
        let scratch = scratch_run(&dfg, &cgra, config.clone());
        let live = Mapper::new(&dfg, &cgra).with_config(config).run();
        assert_eq!(live.ii(), scratch.ii());
        assert_eq!(live.ii(), Some(3));
        let trace = |outcome: &MapOutcome| -> Vec<(u32, AttemptOutcome)> {
            outcome
                .attempts
                .iter()
                .map(|a| (a.ii, a.outcome.clone()))
                .collect()
        };
        assert_eq!(trace(&scratch), trace(&live));
        assert_eq!(scratch.attempts.len(), 3, "II 1 and 2 refuted first");
    }

    #[test]
    fn prefix_core_proves_unmappable_in_one_rung() {
        // Split load/store columns on a 1x4: the load (column 0) feeds the
        // store (column 3) directly, which no II can make adjacent. The
        // prefix alone is contradictory, so one rung settles the ladder.
        use satmapit_cgra::MemoryPolicy;
        let mut dfg = Dfg::new("split");
        let addr = dfg.add_const(0);
        let ld = dfg.add_node(Op::Load);
        dfg.add_edge(addr, ld, 0);
        let st = dfg.add_node(Op::Store);
        dfg.add_edge(addr, st, 0);
        dfg.add_edge(ld, st, 1);
        let cgra = Cgra::new(1, 4).with_memory_policy(MemoryPolicy::SplitLoadStore);

        let prepared = Mapper::new(&dfg, &cgra).prepare().unwrap();
        let report = prepared
            .attempt_ii(prepared.start_ii(), &SolveLimits::none())
            .unwrap();
        assert_eq!(report.attempt.outcome, AttemptOutcome::Unsat);
        assert!(report.proven_unmappable, "core avoids the per-II group");

        let outcome = Mapper::new(&dfg, &cgra).run();
        assert_eq!(
            outcome.result.unwrap_err(),
            MapFailure::IiCapReached { cap: 50 }
        );
        assert_eq!(
            outcome.attempts.len(),
            1,
            "one rung settles the whole ladder"
        );
    }

    #[test]
    fn ungated_unsat_is_not_a_prefix_proof() {
        // The one-shot path solves without a rung gate, so an ordinary
        // UNSAT leaves `final_conflict()` empty — which on the gated path
        // would read "prefix contradictory". A merely too-small II must
        // not condemn the ladder: II = 1 is refuted, II = 3 still maps.
        let dfg = recurrence();
        let cgra = Cgra::square(1);
        let prepared = Mapper::new(&dfg, &cgra).prepare().unwrap();
        let refuted = prepared.attempt_ii(1, &SolveLimits::none()).unwrap();
        assert_eq!(refuted.attempt.outcome, AttemptOutcome::Unsat);
        assert!(!refuted.proven_unmappable, "only this II is infeasible");
        assert!(!prepared.proven_unmappable());
        let mapped = prepared.attempt_ii(3, &SolveLimits::none()).unwrap();
        assert_eq!(mapped.attempt.outcome, AttemptOutcome::Mapped);
        assert!(mapped.mapped.is_some());
    }

    #[test]
    fn ladder_tracks_proven_lower_bound() {
        let dfg = recurrence();
        let cgra = Cgra::square(2);
        let config = MapperConfig {
            start_ii: Some(1),
            ..MapperConfig::default()
        };
        let prepared = Mapper::new(&dfg, &cgra)
            .with_config(config)
            .prepare()
            .unwrap();
        let mut ladder = prepared.ladder().unwrap();
        assert_eq!(ladder.proven_lower_bound(), 1);
        for ii in 1..=2 {
            let report = ladder.attempt_ii(ii, &SolveLimits::none()).unwrap();
            assert_eq!(report.attempt.outcome, AttemptOutcome::Unsat, "ii={ii}");
        }
        assert_eq!(ladder.proven_lower_bound(), 3, "IIs 1 and 2 proven out");
        let report = ladder.attempt_ii(3, &SolveLimits::none()).unwrap();
        assert!(report.mapped.is_some());
        assert!(!ladder.proven_unmappable());
    }

    #[test]
    fn register_pressure_forces_higher_ii() {
        // One producer with many long-lived same-PE consumers would exceed
        // 4 registers; on a 1x1 CGRA everything is same-PE. A node feeding
        // 6 consumers on a 1x1: II must reach at least 7 (7 nodes), and all
        // six values... only the producer's value needs a register (span up
        // to 6 <= II=7), so allocation succeeds with 1 register. Make
        // pressure real: 5 producers each feeding a consumer far away.
        let mut dfg = Dfg::new("pressure");
        let regs_needed = 5;
        let mut pairs = Vec::new();
        for _ in 0..regs_needed {
            let p = dfg.add_const(1);
            let c = dfg.add_node(Op::Neg);
            pairs.push((p, c));
        }
        for (p, c) in pairs {
            dfg.add_edge(p, c, 0);
        }
        let cgra = Cgra::square(1).with_regs_per_pe(2);
        let outcome = map(&dfg, &cgra);
        // 10 nodes on 1 PE: MII = 10. With II=10 the solver can schedule
        // producer/consumer adjacently so lifetimes don't overlap much; the
        // search must terminate with a valid allocation either way.
        let mapped = outcome.result.expect("should map");
        assert!(mapped.ii() >= 10);
        assert!(validate_mapping(&dfg, &cgra, &mapped.mapping).is_ok());
    }
}
