//! # satmapit-morph
//!
//! The monomorphism mapper: an exact, space/time-decoupled CGRA
//! modulo-scheduling backend in the style of Tirelli & Otoni,
//! *"Monomorphism-based CGRA Mapping via Space and Time Decoupling"* —
//! the second [`Backend`] of the workspace, selectable in
//! `satmapit-engine` in place of the SAT ladder.
//!
//! ## Approach
//!
//! Where the SAT backend encodes placement *and* schedule into one CNF,
//! this backend decouples them:
//!
//! 1. **Time first.** For a candidate II, fold the ASAP/ALAP mobility
//!    windows into the kernel mobility schedule
//!    ([`satmapit_schedule::Kms`]) — exactly the folding the SAT encoder
//!    uses, so both backends search the *same* candidate space and their
//!    verdicts are interchangeable.
//! 2. **Space second.** Build the time-expanded routing graph of the
//!    CGRA (one vertex per `(PE, kernel cycle)` slot, one arc per
//!    single-cycle value hop — see [`search`]) and look for a **subgraph
//!    monomorphism**: an injective-per-slot embedding of the DFG into
//!    the slot graph that respects op support, slot exclusivity,
//!    dependency timing windows and the output-register lifetime rule —
//!    precisely the rules `satmapit_core::validate_mapping` re-checks.
//!
//! The search is exact backtracking with forward checking: prune
//! candidate slots of unassigned nodes on every assignment, pick the
//! most-constrained node next, and undo through a trail. Exhausting the
//! space **proves** the II infeasible (the report's `Unsat` is a real
//! proof the engine may record as a bound the SAT backend later starts
//! above);
//! register-allocation failures are retried up to
//! [`satmapit_core::RA_CUT_BUDGET`] embeddings, after which the II is
//! declared `RegAllocFailed` — definitive, but not a proof, mirroring the
//! SAT backend's cut budget.
//!
//! ## The deadline
//!
//! Attempts honor the [`SolveLimits`] deadline with the same cadence as
//! the SAT core: it is polled every [`satmapit_sat::LIMIT_POLL_INTERVAL`]
//! search steps (assignments and dead-ends both count), so a morph
//! attempt ends as promptly as a SAT one when the deadline passes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod search;

use satmapit_cgra::Cgra;
use satmapit_core::encoder::EncodeError;
use satmapit_core::{
    run_ladder, AttemptReport, Backend, MapFailure, MapOutcome, Mapper, MapperConfig,
};
use satmapit_dfg::Dfg;
use satmapit_sat::SolveLimits;
use satmapit_schedule::{mii, MobilitySchedule};
use std::sync::OnceLock;
use std::time::Duration;

/// The monomorphism mapper: same problem types and configuration as
/// [`satmapit_core::Mapper`], different search engine.
///
/// Only the schedule-shaped configuration applies here — `max_ii`,
/// `start_ii`, `timeout`, `slack`, `regalloc_budget`. The SAT-specific
/// knobs (`amo`, `solver`, `register_pressure`) are ignored.
#[derive(Debug, Clone)]
pub struct MorphMapper<'a> {
    dfg: &'a Dfg,
    cgra: &'a Cgra,
    config: MapperConfig,
}

impl<'a> MorphMapper<'a> {
    /// A mapper with the default configuration.
    pub fn new(dfg: &'a Dfg, cgra: &'a Cgra) -> MorphMapper<'a> {
        MorphMapper {
            dfg,
            cgra,
            config: MapperConfig::default(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: MapperConfig) -> MorphMapper<'a> {
        self.config = config;
        self
    }

    /// Sets a wall-clock budget for [`MorphMapper::run`].
    pub fn with_timeout(mut self, timeout: Duration) -> MorphMapper<'a> {
        self.config.timeout = Some(timeout);
        self
    }

    /// Validates the problem and precomputes the mobility schedule and
    /// MII, yielding a shareable attempt session.
    ///
    /// # Errors
    ///
    /// The same terminal conditions as [`Mapper::prepare`]: an invalid
    /// DFG, or a memory operation with zero memory-capable PEs.
    pub fn prepare(&self) -> Result<PreparedMorph<'a>, MapFailure> {
        // Delegate the shared problem checks (DFG validation, the
        // memory-policy MII hole) to the SAT mapper's prepare — the two
        // backends must agree on what is structurally solvable.
        Mapper::new(self.dfg, self.cgra)
            .with_config(self.config.clone())
            .prepare()?;
        let ms = MobilitySchedule::compute(self.dfg).expect("prepare validated the DFG");
        let mii_v = mii(self.dfg, self.cgra).expect("prepare computed an MII");
        // Structural rejections the SAT path reports at encode time are
        // II-independent; surface them at prepare so every later attempt
        // is spared the check.
        for n in self.dfg.node_ids() {
            let op = self.dfg.node(n).op;
            if !self.cgra.pes().any(|p| self.cgra.supports_op(p, op)) {
                return Err(MapFailure::Structural(EncodeError::NoPeForOp { node: n }));
            }
        }
        for (eid, e) in self.dfg.edges() {
            if e.src == e.dst && e.distance != 1 {
                return Err(MapFailure::Structural(EncodeError::SelfEdgeDistance {
                    edge: eid,
                }));
            }
        }
        Ok(PreparedMorph {
            dfg: self.dfg,
            cgra: self.cgra,
            config: self.config.clone(),
            ms,
            mii: mii_v,
            relaxation_infeasible: OnceLock::new(),
        })
    }

    /// Runs the iterative II search (paper Fig. 3's outer loop, the
    /// driver shared with [`Mapper::run`]) with the monomorphism engine on
    /// every rung.
    pub fn run(&self) -> MapOutcome {
        run_ladder(
            format_args!("ladder {} (morph)", self.dfg.name()),
            &self.config,
            |rungs| {
                let prepared = self.prepare()?;
                rungs.climb(prepared.start_ii(), |ii, limits| {
                    prepared.attempt_ii(ii, limits)
                })
            },
        )
    }
}

/// Node-expansion budget for the PE-level relaxation probe behind
/// [`PreparedMorph::proven_unmappable`]. The relaxation is tiny (one
/// variable per DFG node, one value per PE), but its worst case is still
/// exponential; past this many expansions the probe gives up and answers
/// "not proven" — always sound, never wrong.
const RELAXATION_BUDGET: u64 = 200_000;

/// A prepared monomorphism session: problem validated, mobility windows
/// and MII precomputed. Shareable across threads; every
/// [`PreparedMorph::attempt_ii`] owns its search state.
#[derive(Debug)]
pub struct PreparedMorph<'a> {
    dfg: &'a Dfg,
    cgra: &'a Cgra,
    config: MapperConfig,
    ms: MobilitySchedule,
    mii: u32,
    relaxation_infeasible: OnceLock<bool>,
}

impl<'a> PreparedMorph<'a> {
    /// The MII lower bound (`max(ResMII, RecMII)`).
    pub fn mii(&self) -> u32 {
        self.mii
    }

    /// The first II the search considers (configured start or MII).
    pub fn start_ii(&self) -> u32 {
        self.config.start_ii.unwrap_or(self.mii).max(1)
    }

    /// The configuration this session attempts IIs under.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Replaces the configuration. The precomputed schedule is reused.
    pub fn with_config(mut self, config: MapperConfig) -> PreparedMorph<'a> {
        self.config = config;
        self
    }

    /// `true` when the loop is proven unmappable at *every* II.
    ///
    /// The probe is the monomorphism twin of the SAT ladder's
    /// II-invariant PE-level prefix: drop all timing and ask only
    /// whether *some* assignment of nodes to PEs satisfies op support
    /// and per-edge adjacency. Those constraints are implied by every
    /// valid mapping at every II, so an infeasible relaxation condemns
    /// the whole ladder. Computed once per session (bounded by a fixed
    /// step budget — on blow-up the answer is `false`, which merely
    /// declines the shortcut).
    pub fn proven_unmappable(&self) -> bool {
        *self.relaxation_infeasible.get_or_init(|| {
            search::pe_relaxation_infeasible(self.dfg, self.cgra, RELAXATION_BUDGET)
        })
    }

    /// Attempts one candidate II: fold the mobility schedule, search for
    /// a monomorphism embedding, allocate registers.
    ///
    /// The contract is [`satmapit_core::PreparedMapper::attempt_ii`]'s, term for term:
    /// `Err` only for an out-of-range II, a structural failure, an
    /// internal inconsistency, or the deadline in `limits` expiring.
    ///
    /// # Errors
    ///
    /// Terminal conditions only, as above.
    pub fn attempt_ii(&self, ii: u32, limits: &SolveLimits) -> Result<AttemptReport, MapFailure> {
        satmapit_core::traced_rung(ii, || {
            self.config.check_ii(ii)?;
            search::attempt(self, ii, limits)
        })
    }
}

impl Backend for PreparedMorph<'_> {
    fn name(&self) -> &'static str {
        "morph"
    }

    fn mii(&self) -> u32 {
        PreparedMorph::mii(self)
    }

    fn start_ii(&self) -> u32 {
        PreparedMorph::start_ii(self)
    }

    fn proven_unmappable(&self) -> bool {
        PreparedMorph::proven_unmappable(self)
    }

    fn attempt_ii(&self, ii: u32, limits: &SolveLimits) -> Result<AttemptReport, MapFailure> {
        PreparedMorph::attempt_ii(self, ii, limits)
    }
}
