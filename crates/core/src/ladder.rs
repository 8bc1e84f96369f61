//! Incremental solving of the II ladder.
//!
//! The paper's loop (Fig. 3) re-encodes and re-solves the whole KMS
//! formula from scratch at every candidate II, discarding everything the
//! solver learned about *why* the previous II failed. This module keeps
//! one live [`Solver`] across the ladder instead:
//!
//! * an **II-invariant prefix** is installed once, as permanent clauses:
//!   one `on(n, p)` variable per node × allowed PE, exactly-one per node,
//!   and PE-level adjacency implications per dependency (`src` and `dst`
//!   must sit on the same or neighbouring PEs at *every* II). These
//!   clauses — and any learned clause derived from them alone — stay
//!   valid for the whole ladder;
//! * each candidate II contributes a **gated delta**: the full per-II
//!   encoding (C1–C4, plus any register-allocation cuts) lives in an
//!   assumption-gated clause group ([`Solver::new_group`]) that is
//!   activated only for that rung's solves and retired before the next
//!   rung solves (deferred so the ladder's final rung skips the sweep) —
//!   its clauses and every learned clause that depended on them are
//!   swept, feeding the clause arena's garbage collector, and its
//!   variables are masked out of branching
//!   ([`Solver::set_decision_var`]);
//! * an **UNSAT core** that does not mention the rung's activation
//!   literal proves the contradiction lives in the prefix alone — every
//!   II is infeasible, and the remaining rungs are skipped without
//!   solving ([`AttemptReport::proven_unmappable`]).
//!
//! Because the prefix shares no variables with any per-II delta, its
//! verdict is a per-session constant;
//! [`PreparedMapper::proven_unmappable`] probes it lazily, once per
//! session, so that one-shot [`PreparedMapper::attempt_ii`] calls — what
//! `satmapit-engine` climbs through the [`crate::Backend`] trait — get the
//! unmappability signal without carrying any of the gated machinery.
//!
//! Neither entry point loads a rung the domain filter ([`crate::filter`])
//! already refuted: the encoder hands back a marker instead of a formula
//! and the attempt answers `Unsat` on the spot — no clause group, no
//! variables, nothing queued for retirement. The measurement behind it
//! (benchmark traced pass, seed 1, at the commit before the filter):
//! the monomorphism backend's root arc consistency closed 65 of 65 UNSAT
//! rungs of `ladder_wide` (`morph.root_refuted_ratio` 1.000) and 32 of 42
//! on `ladder_refute` (0.762), and no UNSAT rung of any ladder cell fell
//! to its *search* inside the 150 ms budget — the refuter was the
//! fixpoint alone, so the fixpoint now runs here, ahead of every encode.
//!
//! Both entry points run the same rung body, `solve_rung`: solve →
//! decode → validate → allocate registers → cut and re-solve. They differ
//! only in where the solver comes from — the ladder's live solver behind
//! a rung gate, or a fresh solver per attempt. A rung runs to a verdict
//! or to the search's deadline, so unless the register-allocation retry
//! loop ([`crate::RA_CUT_BUDGET`]) runs out the live ladder returns the
//! same best II as a fresh solver per II, the paper's scratch loop
//! (pinned by `tests/engine_agreement.rs`); an exhausted retry loop is a
//! give-up, and the two may give up at different rungs.
//!
//! Soundness: the prefix only states facts true of every valid mapping at
//! every II (each node executes on exactly one PE; dependent nodes are
//! same-or-adjacent), so adding it never changes satisfiability at any
//! II. The clause-group soundness argument (learnt clauses derived from a
//! group always carry its negated activation literal) lives in the
//! `satmapit-sat` module docs. The deltas are deliberately *not*
//! channelled to the prefix variables — every channeling variant measured
//! slower across the 11-kernel suite than letting the prefix act purely
//! through top-level propagation and core analysis; see `attempt_gated`.

use crate::encoder::EncodeError;
use crate::mapper::{
    AttemptOutcome, AttemptReport, IiAttempt, MapFailure, MappedLoop, PreparedMapper,
};
use crate::{decode_model, validate_mapping};
use satmapit_cgra::{Cgra, PeId};
use satmapit_dfg::Dfg;
use satmapit_sat::encode::{exactly_one, AmoEncoding};
use satmapit_sat::{CnfFormula, Counters, Lit, SolveLimits, SolveResult, Solver, SolverStats, Var};
use satmapit_schedule::Kms;
use std::time::Instant;

/// The installed II-invariant prefix: the per-node allowed-PE lists
/// (identical, by construction, to the ones every per-II
/// [`crate::VarMap`] computes). The `on(n, p)` variables themselves live
/// only inside the solver — the per-II deltas never reference them (see
/// `attempt_gated` on why channeling lost its ablation).
#[derive(Debug)]
pub(crate) struct PePrefix {
    /// Per node, the PEs that may execute it (memory-policy filtered),
    /// in the same order as `VarMap::allowed_pes`.
    allowed: Vec<Vec<PeId>>,
}

/// Installs the II-invariant PE-level prefix into `solver` (permanent,
/// ungated clauses) and returns the variable table.
///
/// # Errors
///
/// Fails with [`EncodeError::NoPeForOp`] when some node has no PE able to
/// execute it — the same structural condition every per-II encode reports.
pub(crate) fn install_prefix(
    solver: &mut Solver,
    dfg: &Dfg,
    cgra: &Cgra,
) -> Result<PePrefix, EncodeError> {
    let base = solver.num_vars() as u32;
    let mut formula = CnfFormula::new();
    let mut offsets = Vec::with_capacity(dfg.num_nodes());
    let mut allowed: Vec<Vec<PeId>> = Vec::with_capacity(dfg.num_nodes());
    for n in dfg.node_ids() {
        let pes = cgra.supported_pes(dfg.node(n).op);
        if pes.is_empty() {
            return Err(EncodeError::NoPeForOp { node: n });
        }
        offsets.push(formula.num_vars() as u32);
        let _ = formula.new_vars(pes.len());
        allowed.push(pes);
    }
    // Formula-local literal (the solver applies the offset on load).
    let on =
        |node: usize, pe_idx: usize| -> Lit { Var::new(offsets[node] + pe_idx as u32).positive() };

    // Every node executes on exactly one PE (true at every II).
    for n in dfg.node_ids() {
        let lits: Vec<Lit> = (0..allowed[n.index()].len())
            .map(|j| on(n.index(), j))
            .collect();
        exactly_one(&mut formula, &lits, AmoEncoding::Auto);
    }

    // Every dependency is a same-PE register transfer or a neighbour
    // output-register transfer, at every II: on(s, p) → ⋁ on(d, q) over
    // q ∈ {p} ∪ N(p), and symmetrically for the consumer side.
    let num_pes = cgra.num_pes();
    let adjacent = cgra.adjacency_matrix();
    let reach = |a: PeId, b: PeId| a == b || adjacent[a.index() * num_pes + b.index()];
    for (_eid, edge) in dfg.edges() {
        if edge.src == edge.dst {
            continue; // trivially same PE
        }
        for (here, there) in [(edge.src, edge.dst), (edge.dst, edge.src)] {
            for (j, &p) in allowed[here.index()].iter().enumerate() {
                let mut clause = vec![!on(here.index(), j)];
                for (k, &q) in allowed[there.index()].iter().enumerate() {
                    if reach(p, q) {
                        clause.push(on(there.index(), k));
                    }
                }
                formula.add_clause(&clause);
            }
        }
    }

    solver.ensure_vars(base as usize + formula.num_vars());
    solver.add_formula(&formula, base, None);
    // Prefix variables are propagation-only: the per-II deltas are not
    // channelled to them (see `attempt_gated`), so branching on them
    // could only wander through placement-irrelevant assignments.
    for v in base..solver.num_vars() as u32 {
        solver.set_decision_var(Var::new(v), false);
    }
    Ok(PePrefix { allowed })
}

/// One gated rung: the attempt's result plus the activation literal of
/// the clause group it used and the variable block it allocated. The
/// handle is returned even when the attempt itself failed (timeout,
/// internal error), so the persistent caller can always retire the group
/// and mask the dead variables out of future branching — an abandoned
/// rung must not leak its encoding into later solves.
pub(crate) struct GatedAttempt {
    pub(crate) result: Result<AttemptReport, MapFailure>,
    pub(crate) gate: Lit,
    pub(crate) delta_vars: std::ops::Range<u32>,
    /// The rung's variable table, kept for the phase/activity transfer
    /// into the next rung (see [`RungMemory`]).
    pub(crate) varmap: crate::varmap::VarMap,
}

/// Heuristic memory of the most recently settled rung: its variable table
/// plus the solver-variable offset its delta block started at. Used to
/// seed the next rung's saved phases and VSIDS activities
/// ([`Solver::on_rung_advance`]) from semantically corresponding
/// variables.
pub(crate) struct RungMemory {
    varmap: crate::varmap::VarMap,
    base: u32,
}

/// How strongly a new rung's variables inherit the previous rung's VSIDS
/// activity (1.0 = verbatim, 0.0 = phases only). Measured across the
/// 2x2/3x3 ladder ablations, carrying the activity is what closes the
/// 3x3 incremental-vs-scratch gap (phases alone regress ~20 %); scales in
/// [0.25, 2] are indistinguishable within noise, so the transfer is
/// verbatim.
const RUNG_ACTIVITY_SCALE: f64 = 1.0;

/// The `(from, to)` variable pairs connecting the previous rung's delta
/// block to the new one: same node, same unfolded schedule slot
/// (`fold * II + cycle` — the II-invariant time axis), same PE. Adjacent
/// rungs share most of their slots, so coverage is high; slots only one
/// side has are simply left cold.
fn rung_transfer_pairs(
    prev: &RungMemory,
    cur: &crate::varmap::VarMap,
    cur_base: u32,
) -> Vec<(Var, Var)> {
    let prev_ii = u64::from(prev.varmap.ii());
    let mut old: std::collections::HashMap<(u32, u64, u32), u32> =
        std::collections::HashMap::with_capacity(prev.varmap.num_vars());
    for i in 0..prev.varmap.num_vars() {
        let (n, pos, pe) = prev.varmap.decode(Var::new(i as u32));
        let t = u64::from(pos.fold) * prev_ii + u64::from(pos.cycle);
        old.insert(
            (n.index() as u32, t, pe.index() as u32),
            prev.base + i as u32,
        );
    }
    let cur_ii = u64::from(cur.ii());
    let mut pairs = Vec::with_capacity(cur.num_vars());
    for i in 0..cur.num_vars() {
        let (n, pos, pe) = cur.decode(Var::new(i as u32));
        let t = u64::from(pos.fold) * cur_ii + u64::from(pos.cycle);
        if let Some(&from) = old.get(&(n.index() as u32, t, pe.index() as u32)) {
            pairs.push((Var::new(from), Var::new(cur_base + i as u32)));
        }
    }
    pairs
}

/// Loads the encoded rung `enc` into `solver` using the gated
/// formulation and attempts it: the per-II encoding is appended as a
/// fresh clause group, solved under its activation literal, and
/// register-allocation cuts are added to the same group. The group is
/// *not* retired here — the caller ([`IiLadder`]) retires it once the
/// rung is settled, success or failure. Every failure — including
/// [`MapFailure::Timeout`] — lands in [`GatedAttempt::result`], so the
/// group handle is never lost.
#[allow(clippy::too_many_arguments)] // internal plumbing of one rung
pub(crate) fn attempt_gated(
    prepared: &PreparedMapper<'_>,
    solver: &mut Solver,
    prefix: &PePrefix,
    prev_rung: Option<&RungMemory>,
    kms: &Kms,
    enc: crate::encoder::Encoded,
    limits: &SolveLimits,
    t_ii: Instant,
) -> GatedAttempt {
    // The rung's effort is what the live solver does from here on — the
    // clause load included, as in a one-shot attempt.
    let stats_before = solver.stats().clone();
    let base = solver.num_vars() as u32;
    solver.ensure_vars(base as usize + enc.formula.num_vars());
    let gate = solver.new_group();
    let delta_vars = base..solver.num_vars() as u32;
    solver.add_formula(&enc.formula, base, Some(gate));
    // The delta is deliberately NOT channelled to the prefix `on`
    // variables: an ablation across the 11-kernel suite showed every
    // channeling variant (x → on binaries, the abstraction-direction
    // on → ⋁x form, decidable or propagation-only prefix) slows the
    // per-rung search down — the prefix's accumulated VSIDS activity and
    // the extra clauses perturb the placement search far more than the
    // PE-level pruning returns. The prefix still earns its keep through
    // the failed-assumption-core analysis: when it is contradictory on
    // its own (install-time propagation finds this), every rung's solve
    // returns `Unsat` with an empty core and the ladder stops.
    debug_assert!(prepared
        .dfg
        .node_ids()
        .all(|n| enc.varmap.allowed_pes(n) == &prefix.allowed[n.index()][..]));

    // Rung-aware heuristic hygiene: seed this rung's saved phases and
    // VSIDS activities from the previous rung's semantically
    // corresponding variables before the first solve — same node, same
    // unfolded schedule slot, same PE. Answer-preserving: it only steers
    // the search order.
    if let Some(prev) = prev_rung {
        let pairs = rung_transfer_pairs(prev, &enc.varmap, base);
        solver.on_rung_advance(&pairs, RUNG_ACTIVITY_SCALE);
    }

    let mut result = solve_rung(prepared, solver, &enc, kms, Some(gate), base, limits, t_ii);
    if let Ok(AttemptReport { attempt, .. }) = &mut result {
        attempt.solver_stats = Some(solver.stats().delta_since(&stats_before));
    }
    GatedAttempt {
        result,
        gate,
        delta_vars,
        varmap: enc.varmap,
    }
}

/// The solve → decode → validate → allocate → cut loop of one rung — the
/// only one in the workspace. `enc` must already be loaded into `solver`
/// with its variables shifted up by `base`. With a `gate`, the rung lives
/// in that assumption-gated clause group of a longer-lived solver: solves
/// assume the gate and register-allocation cuts join the group. Without
/// one, `solver` was built for this rung alone: solves run unassumed and
/// cuts are plain clauses. Either way the reported effort is the solver's
/// whole life, clause load included — `attempt_gated` narrows it to the
/// rung's own share of a live solver.
#[allow(clippy::too_many_arguments)] // internal plumbing of one rung
pub(crate) fn solve_rung(
    prepared: &PreparedMapper<'_>,
    solver: &mut Solver,
    enc: &crate::encoder::Encoded,
    kms: &Kms,
    gate: Option<Lit>,
    base: u32,
    limits: &SolveLimits,
    t_ii: Instant,
) -> Result<AttemptReport, MapFailure> {
    let config = &prepared.config;
    let ii = kms.ii();
    let mut cuts = 0u32;
    let mut last_ra_error = None;
    let (outcome, mapped, proven_unmappable) = loop {
        match solver.solve_limited(gate.as_slice(), limits) {
            SolveResult::Sat => {
                let model = solver.model().expect("SAT result has a model");
                let delta_model = &model[base as usize..];
                let mapping = decode_model(prepared.dfg, kms, &enc.varmap, delta_model)
                    .map_err(|e| MapFailure::Internal(e.to_string()))?;
                if let Err(violations) = validate_mapping(prepared.dfg, prepared.cgra, &mapping) {
                    return Err(MapFailure::Internal(format!(
                        "decoded mapping failed validation: {violations:?}"
                    )));
                }
                match crate::regs::allocate_registers(
                    prepared.dfg,
                    prepared.cgra,
                    &mapping,
                    config.regalloc_budget,
                ) {
                    Ok(registers) => {
                        let mapped = MappedLoop {
                            mapping,
                            registers,
                            mii: prepared.mii,
                        };
                        break (AttemptOutcome::Mapped, Some(mapped), false);
                    }
                    // Cut the failing PE's configuration and re-solve
                    // (warm solver).
                    Err(e) if cuts < crate::RA_CUT_BUDGET => {
                        let cut = prepared.ra_cut_clause(&enc.varmap, delta_model, &mapping, e.pe);
                        debug_assert!(!cut.is_empty());
                        let cut: Vec<Lit> = cut.iter().map(|l| l.shifted_by(base)).collect();
                        match gate {
                            Some(gate) => solver.add_clause_in_group(gate, &cut),
                            None => solver.add_clause(&cut),
                        };
                        cuts += 1;
                        last_ra_error = Some(e);
                    }
                    Err(e) => break (AttemptOutcome::RegAllocFailed(e), None, false),
                }
            }
            SolveResult::Unsat => {
                // An empty failed-assumption core means the contradiction
                // does not involve this rung's clause group: the permanent
                // prefix is already unsatisfiable, so *no* II can map. Only
                // meaningful when a gate was assumed — an unassumed solve
                // has an empty core on every ordinary UNSAT.
                let proven_unmappable = gate.is_some() && solver.final_conflict().is_empty();
                // With cuts, UNSAT means: no register-allocatable mapping
                // exists at this II.
                let outcome = match last_ra_error {
                    Some(e) if cuts > 0 => AttemptOutcome::RegAllocFailed(e),
                    _ => AttemptOutcome::Unsat,
                };
                break (outcome, None, proven_unmappable);
            }
            // The deadline is the only limit a rung runs under.
            SolveResult::Unknown => return Err(MapFailure::Timeout { at_ii: ii }),
        }
    };
    Ok(AttemptReport {
        attempt: IiAttempt {
            ii,
            encode_stats: enc.stats.clone(),
            outcome,
            solver_stats: Some(solver.stats().clone()),
            ra_cuts: cuts,
            elapsed: t_ii.elapsed(),
        },
        mapped,
        proven_unmappable,
    })
}

/// The live II ladder: one solver answers every candidate II of a
/// [`PreparedMapper`] session in sequence, carrying learned clauses
/// across rungs and retiring each rung's clause group once it is settled.
///
/// Obtained from [`PreparedMapper::ladder`]; [`crate::Mapper::run`] drives
/// one for every sequential search.
///
/// ```
/// use satmapit_cgra::Cgra;
/// use satmapit_core::Mapper;
/// use satmapit_dfg::{Dfg, Op};
/// use satmapit_sat::SolveLimits;
///
/// let mut dfg = Dfg::new("rec");
/// let a = dfg.add_node(Op::Neg);
/// let b = dfg.add_node(Op::Neg);
/// dfg.add_edge(a, b, 0);
/// dfg.add_back_edge(b, a, 0, 1, 0);
///
/// let cgra = Cgra::square(1);
/// let mapper = Mapper::new(&dfg, &cgra);
/// let prepared = mapper.prepare().unwrap();
/// let mut ladder = prepared.ladder().unwrap();
/// // II=1 is infeasible (2 nodes, 1 PE); II=2 maps.
/// let r1 = ladder.attempt_ii(1, &SolveLimits::none()).unwrap();
/// assert!(r1.mapped.is_none());
/// let r2 = ladder.attempt_ii(2, &SolveLimits::none()).unwrap();
/// assert!(r2.mapped.is_some());
/// assert_eq!(ladder.proven_lower_bound(), 2);
/// ```
pub struct IiLadder<'p, 'a> {
    prepared: &'p PreparedMapper<'a>,
    solver: Solver,
    prefix: PePrefix,
    unmappable: bool,
    proven_lower_bound: u32,
    /// Heuristic memory of the previous rung, feeding the phase/activity
    /// transfer into the next one (see [`rung_transfer_pairs`]).
    last_rung: Option<RungMemory>,
    /// The settled-but-not-yet-retired rung (activation literal + delta
    /// variable block). Retirement is deferred to the start of the next
    /// attempt so the ladder's *final* rung — after which the ladder is
    /// dropped — never pays for a sweep and collection nothing consumes.
    pending_retire: Option<(Lit, std::ops::Range<u32>)>,
}

impl std::fmt::Debug for IiLadder<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IiLadder")
            .field("unmappable", &self.unmappable)
            .field("proven_lower_bound", &self.proven_lower_bound)
            .finish_non_exhaustive()
    }
}

impl<'p, 'a> IiLadder<'p, 'a> {
    pub(crate) fn open(prepared: &'p PreparedMapper<'a>) -> Result<IiLadder<'p, 'a>, EncodeError> {
        let mut solver = Solver::new();
        let prefix = install_prefix(&mut solver, prepared.dfg, prepared.cgra)?;
        let solver_ok = solver.is_ok();
        Ok(IiLadder {
            prepared,
            solver,
            prefix,
            // A contradictory prefix is known before any rung runs (the
            // install above already hit it).
            unmappable: !solver_ok,
            proven_lower_bound: prepared.start_ii(),
            last_rung: None,
            pending_retire: None,
        })
    }

    /// Retires the previously settled rung, if one is queued: asserts its
    /// activation literal off (sweeping the group's clauses and every
    /// learnt clause derived from them — the sweep that feeds the clause
    /// arena's garbage collector) and masks its dead variables out of
    /// branching so later rungs do not waste decisions enumerating them.
    fn retire_pending(&mut self) {
        if let Some((gate, delta_vars)) = self.pending_retire.take() {
            self.solver.retire_group(gate);
            for v in delta_vars {
                self.solver
                    .set_decision_var(satmapit_sat::Var::new(v), false);
            }
        }
    }

    /// The live solver's cumulative effort counters — including the
    /// clause-arena occupancy gauges (`arena_words` / `arena_wasted`) and
    /// GC counters.
    pub fn solver_stats(&self) -> &SolverStats {
        self.solver.stats()
    }

    /// `true` once some rung's UNSAT core avoided its clause group: every
    /// candidate II is infeasible and further attempts are pointless (they
    /// return synthetic `Unsat` reports without solving).
    pub fn proven_unmappable(&self) -> bool {
        self.unmappable
    }

    /// The smallest candidate II not yet *proven* infeasible by this
    /// ladder: rungs below it were answered `Unsat` contiguously from the
    /// session's start II. [`u32::MAX`] once the whole ladder is proven
    /// unmappable.
    pub fn proven_lower_bound(&self) -> u32 {
        if self.unmappable {
            u32::MAX
        } else {
            self.proven_lower_bound
        }
    }

    /// Attempts one candidate II on the shared solver. Same contract as
    /// [`PreparedMapper::attempt_ii`], plus: the rung's clause group is
    /// queued for retirement (performed at the start of the next attempt
    /// — see `retire_pending`), and a prefix-only UNSAT core marks the
    /// whole ladder unmappable.
    pub fn attempt_ii(
        &mut self,
        ii: u32,
        limits: &SolveLimits,
    ) -> Result<AttemptReport, MapFailure> {
        crate::mapper::traced_rung(ii, || self.attempt_ii_inner(ii, limits))
    }

    fn attempt_ii_inner(
        &mut self,
        ii: u32,
        limits: &SolveLimits,
    ) -> Result<AttemptReport, MapFailure> {
        self.prepared.config.check_ii(ii)?;
        let t_ii = Instant::now();
        if self.unmappable {
            // Already proven at an earlier rung; answer without solving.
            return Ok(AttemptReport::unmappable(ii, t_ii.elapsed()));
        }
        // Retire the *previous* rung now, not the current one at exit:
        // deferring the sweep (and the arena collection it feeds) to the
        // start of the next attempt means a ladder that stops — because
        // the rung mapped, timed out, or proved unmappability — never
        // pays for a retirement whose cleanliness nothing will consume.
        // The deferred group is inert in the meantime (its activation
        // literal is simply never assumed again), so solve-time state is
        // identical to eager retirement.
        self.retire_pending();
        // The rung's clock starts after the previous rung's sweep.
        let t_ii = Instant::now();
        let (kms, enc) = self.prepared.encode_rung(ii)?;
        let report = if enc.refuted.is_some() {
            // The domain filter closed the rung before a clause existed:
            // nothing is loaded, so there is no group to retire and the
            // previous rung stays the heuristic memory of the next one.
            AttemptReport::filter_refuted(ii, enc.stats, t_ii.elapsed())
        } else {
            let gated = attempt_gated(
                self.prepared,
                &mut self.solver,
                &self.prefix,
                self.last_rung.as_ref(),
                &kms,
                enc,
                limits,
                t_ii,
            );
            // Queue this rung for retirement whatever its result — an
            // abandoned rung (timeout, internal failure) must not leak its
            // encoding into the next solve, and `retire_pending` runs
            // before that solve. The rung's saved phases and activities
            // survive in the solver's per-variable arrays; its variable
            // table feeds the next rung's phase/activity transfer.
            self.pending_retire = Some((gated.gate, gated.delta_vars.clone()));
            self.last_rung = Some(RungMemory {
                varmap: gated.varmap,
                base: gated.delta_vars.start,
            });
            gated.result?
        };
        if report.proven_unmappable {
            self.unmappable = true;
        } else if report.attempt.outcome == AttemptOutcome::Unsat && ii == self.proven_lower_bound {
            self.proven_lower_bound = ii + 1;
        }
        Ok(report)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Mapper, MapperConfig};
    use satmapit_dfg::Op;

    /// a -> b -> c -> a: RecMII = 3, and the domain filter alone refutes
    /// II = 1 and II = 2 on any mesh.
    pub(crate) fn recurrence() -> Dfg {
        let mut dfg = Dfg::new("rec");
        let a = dfg.add_node(Op::Neg);
        let b = dfg.add_node(Op::Neg);
        let c = dfg.add_node(Op::Neg);
        dfg.add_edge(a, b, 0);
        dfg.add_edge(b, c, 0);
        dfg.add_back_edge(c, a, 0, 1, 0);
        dfg
    }

    fn from_ii_1() -> MapperConfig {
        MapperConfig {
            start_ii: Some(1),
            ..MapperConfig::default()
        }
    }

    fn assert_filter_closed(report: &AttemptReport, ii: u32) {
        assert_eq!(report.attempt.ii, ii);
        assert_eq!(report.attempt.outcome, AttemptOutcome::Unsat);
        assert_eq!(report.attempt.solver_stats, None, "no solver ran");
        assert_eq!(report.attempt.ra_cuts, 0);
        assert_eq!(report.attempt.encode_stats.clauses, 1, "the empty clause");
        assert!(report.mapped.is_none());
        assert!(!report.proven_unmappable, "only this II is refuted");
    }

    #[test]
    fn filter_closed_rungs_leave_the_live_solver_untouched() {
        let dfg = recurrence();
        let cgra = Cgra::square(2);
        let prepared = Mapper::new(&dfg, &cgra)
            .with_config(from_ii_1())
            .prepare()
            .unwrap();
        let mut ladder = prepared.ladder().unwrap();
        // A clause group costs an activation variable, so a constant
        // variable count also says no group was opened.
        let vars = ladder.solver.num_vars();
        let clauses = ladder.solver.stats().added_clauses;
        for ii in 1..=2 {
            let report = ladder.attempt_ii(ii, &SolveLimits::none()).unwrap();
            assert_filter_closed(&report, ii);
            assert_eq!(ladder.proven_lower_bound(), ii + 1);
            assert_eq!(ladder.solver.num_vars(), vars, "ii={ii}");
            assert_eq!(ladder.solver.stats().added_clauses, clauses, "ii={ii}");
            assert!(ladder.pending_retire.is_none(), "nothing to retire");
            assert!(ladder.last_rung.is_none(), "no rung to remember");
        }
        let report = ladder.attempt_ii(3, &SolveLimits::none()).unwrap();
        assert!(report.mapped.is_some());
        assert!(report.attempt.solver_stats.is_some());
        assert!(
            ladder.solver.num_vars() > vars,
            "the surviving rung is loaded"
        );
        assert!(!ladder.proven_unmappable());
    }

    #[test]
    fn one_shot_attempts_and_the_driver_report_filter_closed_rungs_alike() {
        let dfg = recurrence();
        let cgra = Cgra::square(2);
        let prepared = Mapper::new(&dfg, &cgra).prepare().unwrap();
        for ii in 1..=2 {
            let report = prepared.attempt_ii(ii, &SolveLimits::none()).unwrap();
            assert_filter_closed(&report, ii);
        }
        // The driver keeps them in the trace: the first attempt is still
        // the start II.
        let outcome = Mapper::new(&dfg, &cgra).with_config(from_ii_1()).run();
        assert_eq!(outcome.ii(), Some(3));
        let trace: Vec<(u32, bool)> = outcome
            .attempts
            .iter()
            .map(|a| (a.ii, a.solver_stats.is_some()))
            .collect();
        assert_eq!(trace, [(1, false), (2, false), (3, true)]);
    }

    /// `added_clauses` is a sum like every other event counter: a live
    /// rung reports the clauses *it* added (its load plus any cuts), like
    /// a one-shot attempt of the same rung — not the running total since
    /// the ladder opened.
    #[test]
    fn a_live_rung_reports_its_own_added_clauses() {
        let kernel = satmapit_kernels::by_name("sha").unwrap();
        let cgra = Cgra::square(2);
        let prepared = Mapper::new(&kernel.dfg, &cgra).prepare().unwrap();
        let mut ladder = prepared.ladder().unwrap();
        let opened = ladder.solver.stats().added_clauses;
        let mut per_rung = Vec::new();
        for ii in prepared.start_ii().. {
            let before = ladder.solver.stats().added_clauses;
            let report = ladder.attempt_ii(ii, &SolveLimits::none()).unwrap();
            let after = ladder.solver.stats().added_clauses;
            if let Some(stats) = &report.attempt.solver_stats {
                assert_eq!(stats.added_clauses, after - before, "ii={ii}");
                per_rung.push(stats.added_clauses);
            }
            if report.mapped.is_some() {
                break;
            }
        }
        assert!(per_rung.len() >= 2, "sha at 2x2 solves several rungs");
        let total = ladder.solver.stats().added_clauses - opened;
        assert_eq!(per_rung.iter().sum::<u64>(), total);
        assert!(*per_rung.last().unwrap() < total, "not a running total");
    }
}
