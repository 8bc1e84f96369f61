//! The backend abstraction: "a thing that attempts an II".
//!
//! The engine's miss path, the batch cache and the service tier never
//! cared *how* a candidate II gets answered — only that attempting one
//! under a [`SolveLimits`] deadline yields an [`AttemptReport`] or a
//! terminal failure. This trait makes that contract explicit so exact
//! mappers with completely different search profiles (the SAT ladder
//! here, the monomorphism mapper in `satmapit-morph`) can be driven
//! interchangeably by the one II loop, [`crate::Rungs::climb`].
//!
//! ## The contract
//!
//! An implementation is a prepared, immutable mapping session over one
//! `(DFG, CGRA, config)` problem. It must be callable from many threads
//! at once (each attempt owns its scratch state), and every attempt
//! must obey the rules [`PreparedMapper::attempt_ii`] documents:
//!
//! * `Err` only for terminal conditions (invalid II, structural
//!   infeasibility, internal inconsistency, the wall-clock deadline in
//!   `limits` expiring); `Err(Timeout)` is the only limit outcome;
//! * everything else is an `Ok` report that settles the II;
//! * an `AttemptOutcome::Unsat` report is a **proof**: no mapping
//!   exists at that II under the problem semantics (mobility-window
//!   slack, register feasibility). Proofs are what the engine persists
//!   as II lower bounds — and either backend later starts above — so a
//!   backend must never report `Unsat` heuristically;
//! * the deadline is polled on a bounded cadence
//!   (`satmapit_sat::LIMIT_POLL_INTERVAL` search steps for the in-tree
//!   backends), so it ends an attempt promptly.

use crate::mapper::{AttemptReport, MapFailure, PreparedMapper};
use satmapit_sat::SolveLimits;

/// An exact mapping backend: a prepared session that attempts candidate
/// IIs under [`SolveLimits`]. See the module docs for the contract.
pub trait Backend: Send + Sync {
    /// Stable short identity of the backend ("sat", "morph", …): names
    /// the per-backend win counters and bench entries.
    fn name(&self) -> &'static str;

    /// The MII lower bound (`max(ResMII, RecMII)`).
    fn mii(&self) -> u32;

    /// The first II the search considers (configured start or MII).
    fn start_ii(&self) -> u32;

    /// `true` when the loop is proven unmappable at *every* II (an
    /// II-invariant contradiction). Drivers skip the whole ladder.
    fn proven_unmappable(&self) -> bool;

    /// Attempts one candidate II under `limits`.
    ///
    /// # Errors
    ///
    /// Terminal conditions only — see the module docs.
    fn attempt_ii(&self, ii: u32, limits: &SolveLimits) -> Result<AttemptReport, MapFailure>;
}

/// The SAT ladder re-hosted behind the [`Backend`] contract (it already
/// satisfied every rule; the impl just delegates to the inherent
/// methods).
impl Backend for PreparedMapper<'_> {
    fn name(&self) -> &'static str {
        "sat"
    }

    fn mii(&self) -> u32 {
        PreparedMapper::mii(self)
    }

    fn start_ii(&self) -> u32 {
        PreparedMapper::start_ii(self)
    }

    fn proven_unmappable(&self) -> bool {
        PreparedMapper::proven_unmappable(self)
    }

    fn attempt_ii(&self, ii: u32, limits: &SolveLimits) -> Result<AttemptReport, MapFailure> {
        PreparedMapper::attempt_ii(self, ii, limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mapper;
    use satmapit_cgra::Cgra;
    use satmapit_dfg::{Dfg, Op};

    #[test]
    fn sat_backend_answers_through_the_trait() {
        let mut dfg = Dfg::new("pair");
        let a = dfg.add_const(1);
        let b = dfg.add_node(Op::Neg);
        dfg.add_edge(a, b, 0);
        let cgra = Cgra::square(2);
        let prepared = Mapper::new(&dfg, &cgra).prepare().unwrap();
        let backend: &dyn Backend = &prepared;
        assert_eq!(backend.name(), "sat");
        assert_eq!(backend.mii(), 1);
        assert!(!backend.proven_unmappable());
        let report = backend
            .attempt_ii(backend.start_ii(), &SolveLimits::none())
            .unwrap();
        assert!(report.mapped.is_some());
    }
}
