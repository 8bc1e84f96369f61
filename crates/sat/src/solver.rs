//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! Feature set: two-literal watching, VSIDS branching with phase saving,
//! first-UIP conflict analysis with self-subsumption minimization, Luby
//! restarts, activity/LBD-based learnt-clause database reduction,
//! solving under assumptions with final-conflict extraction, assumption-
//! gated clause groups for incremental solving, and a wall-clock deadline
//! that makes the solver interruptible (required by the mapping timeout
//! semantics of the experiments).
//!
//! # Clause groups and the activation-literal lifecycle
//!
//! Incremental callers (the II ladder in `satmapit-core`) keep one solver
//! alive across a sequence of related solves so learned clauses carry
//! over. Clauses that are only valid for one solve in the sequence are
//! *gated* behind an activation literal:
//!
//! 1. [`Solver::new_group`] allocates a fresh activation literal `g`.
//! 2. [`Solver::add_clause_in_group`] (or [`Solver::add_formula`], for a
//!    whole formula at once) adds each group clause `C` as `C ∨ ¬g` —
//!    inert until `g` is assumed.
//! 3. [`Solver::solve_limited`] is called with `g` among the assumptions,
//!    which switches the group on for that call only.
//! 4. Once the group's question is answered, [`Solver::retire_group`]
//!    asserts `¬g` at the top level, permanently satisfying (and
//!    physically deleting, where safe) the group's clauses *and* every
//!    learnt clause that depended on them.
//!
//! The scheme is sound because conflict analysis only resolves on clauses:
//! any learnt clause whose derivation used a clause of group `g` must
//! itself contain `¬g` (the only way to eliminate `¬g` by resolution would
//! be a clause containing `g` positively, and none exists). Learnt clauses
//! *without* any activation literal are therefore implied by the permanent
//! clauses alone and remain valid for every future solve — that carry-over
//! is the entire point of keeping the solver alive.
//!
//! # The `final_conflict` contract
//!
//! After [`SolveResult::Unsat`] from an assumption-based solve,
//! [`Solver::final_conflict`] returns the *failed assumption core*: a
//! subset of the assumptions, negated, whose conjunction with the
//! permanent clauses is already contradictory. Two cases matter to
//! incremental callers:
//!
//! * the core **contains** `¬g` for an assumed activation literal `g` —
//!   the contradiction needs the group, i.e. only this solve's gated
//!   question was refuted;
//! * the core is **empty** (equivalently, [`Solver::is_ok`] may have
//!   become `false`) — the permanent clauses are contradictory on their
//!   own, so every future solve will be `Unsat` no matter which groups
//!   are activated. `satmapit-core` uses exactly this distinction to
//!   prove "no II can ever map" from a single rung of the ladder.

use crate::arena::{ClauseArena, ClauseRef};
use crate::cnf::CnfFormula;
use crate::heap::ActivityHeap;
use crate::luby::luby;
use crate::types::{LBool, Lit, Var};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

const VAR_ACT_DECAY: f64 = 1.0 / 0.95;
const CLA_ACT_DECAY: f64 = 1.0 / 0.999;
/// Base of the Luby restart sequence, in conflicts.
const RESTART_BASE: u64 = 100;

/// Arena garbage collection triggers once at least this fraction of the
/// arena (in words) is occupied by deleted records…
const GC_WASTE_DENOMINATOR: u64 = 5; // i.e. wasted ≥ 20 % of the arena
/// …and at least this many words are wasted (collecting a tiny arena is
/// pure overhead — 1024 words is 4 KiB, roughly one L1 load's worth of
/// compaction).
const GC_MIN_WASTE_WORDS: u64 = 1 << 10;

/// How many search steps (decisions + conflicts) pass between polls of the
/// wall-clock deadline. Decisions and conflicts both count: polling on
/// one of them alone (every 1024 *decisions*, or every 256 *conflicts*)
/// let propagation-heavy solves with few decisions overrun a deadline by
/// seconds.
pub const LIMIT_POLL_INTERVAL: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: ClauseRef,
    blocker: Lit,
}

crate::counters! {
    /// Counters describing solver effort; useful for the paper's runtime
    /// tables and the ablation benchmarks. Declared as a table (see
    /// [`mod@crate::counters`]): a new counter is appended here and incremented
    /// where it happens; deltas, folds, persistence and reporting follow
    /// from the declaration.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct SolverStats {}
    counters {
        /// Number of branching decisions.
        decisions: sum,
        /// Number of literals propagated.
        propagations: sum,
        /// Number of conflicts analyzed.
        conflicts: sum,
        /// Number of restarts performed.
        restarts: sum,
        /// Learnt clauses currently retained — a gauge.
        learnt_clauses: gauge,
        /// Learnt clauses removed by database reduction.
        removed_clauses: sum,
        /// Problem clauses added (after top-level simplification).
        added_clauses: sum,
        /// Clause-arena garbage collections performed (compaction runs).
        gc_runs: sum,
        /// Literal slots reclaimed by arena garbage collection.
        lits_reclaimed: sum,
        /// Arena words currently occupied by deleted, unswept clause
        /// records — a gauge, not a counter (0 right after a collection).
        arena_wasted: gauge,
        /// Total arena words currently allocated (live + wasted) — a gauge.
        arena_words: gauge,
        /// Retired with learnt-clause sharing (PR 24), always 0: the table
        /// is append-only and persisted by position, so the slot stays.
        shared_exported: sum,
        /// Retired likewise, always 0.
        shared_imported: sum,
        /// Retired likewise, always 0.
        shared_dropped: sum,
    }
}

/// Resource budget for a single [`Solver::solve_limited`] call: a
/// wall-clock deadline, the one limit a mapping rung runs under.
#[derive(Debug, Clone, Default)]
pub struct SolveLimits {
    /// Abort once `Instant::now()` passes this deadline. The solver polls
    /// it at every restart and on a uniform cadence of
    /// [`LIMIT_POLL_INTERVAL`] search steps — decisions *and* conflicts
    /// both count — so it is observed promptly even in propagation-heavy
    /// solves that rarely branch.
    pub deadline: Option<Instant>,
}

impl SolveLimits {
    /// No limits: run to completion.
    pub fn none() -> SolveLimits {
        SolveLimits::default()
    }

    /// Limits with a wall-clock timeout from now. A timeout too large to
    /// add to the clock sets no deadline.
    pub fn with_timeout(mut self, d: Duration) -> SolveLimits {
        self.deadline = Instant::now().checked_add(d);
        self
    }

    /// `true` once the deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|dl| Instant::now() >= dl)
    }
}

/// Why a budgeted rung was given up. Retired: no solve returns a reason
/// any more (the deadline is the one limit, so [`SolveResult::Unknown`]
/// says it all). The type stays because persisted rung outcomes name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The per-call conflict budget ran out.
    ConflictLimit,
    /// The wall-clock deadline passed.
    Timeout,
    /// The cooperative stop flag was raised.
    Cancelled,
}

/// Outcome of a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A model was found; retrieve it with [`Solver::model`].
    Sat,
    /// The formula is unsatisfiable (under the given assumptions, if any);
    /// see [`Solver::final_conflict`] for the failed assumption core.
    Unsat,
    /// The deadline passed before an answer was derived.
    Unknown,
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    Timeout,
}

/// Solver tunables: none are left. The type stays so that
/// [`Solver::from_cnf_with`] callers keep compiling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverOptions {}

/// The CDCL solver.
///
/// ```
/// use satmapit_sat::{Solver, SolveResult};
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause(&[a, b]);
/// s.add_clause(&[!a, b]);
/// s.add_clause(&[a, !b]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// let m = s.model().unwrap();
/// assert!(m[a.var().index()] && m[b.var().index()]);
/// ```
#[derive(Debug)]
pub struct Solver {
    /// Flat clause storage; every `ClauseRef` below points into it (see
    /// the `arena` module docs for the record layout and GC contract).
    ca: ClauseArena,
    learnt_idxs: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    decision: Vec<bool>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: ActivityHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    reason: Vec<ClauseRef>,
    level: Vec<u32>,
    seen: Vec<bool>,
    ok: bool,
    model: Option<Vec<bool>>,
    conflict_core: Vec<Lit>,
    stats: SolverStats,
    next_reduce: u64,
    reduce_count: u64,
    /// Live clause groups: activation variable index → member clause
    /// refs (see the module docs on the activation-literal lifecycle).
    groups: std::collections::HashMap<u32, Vec<ClauseRef>>,
    /// Scratch literal buffer of the clause-adding paths, kept so that no
    /// clause added or loaded pays for an allocation of its own.
    add_buf: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            ca: ClauseArena::new(),
            learnt_idxs: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            decision: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: ActivityHeap::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            seen: Vec::new(),
            ok: true,
            model: None,
            conflict_core: Vec::new(),
            stats: SolverStats::default(),
            next_reduce: 4000,
            reduce_count: 0,
            groups: std::collections::HashMap::new(),
            add_buf: Vec::new(),
        }
    }

    /// Creates a solver pre-loaded with `formula`.
    pub fn from_cnf(formula: &CnfFormula) -> Solver {
        let mut solver = Solver::new();
        solver.ensure_vars(formula.num_vars());
        solver.add_formula(formula, 0, None);
        solver
    }

    /// [`Solver::from_cnf`]; `SolverOptions` has no settings left.
    pub fn from_cnf_with(formula: &CnfFormula, _options: &SolverOptions) -> Solver {
        Solver::from_cnf(formula)
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assigns.len() as u32);
        self.ensure_vars(v.index() + 1);
        v
    }

    /// Grows the variable pool so that at least `n` variables exist. Every
    /// per-variable array grows in one step, whatever the count.
    pub fn ensure_vars(&mut self, n: usize) {
        let old = self.assigns.len();
        if n <= old {
            return;
        }
        // The watch lists first: at 48 bytes a variable they outweigh the
        // other arrays here together (20), so when growth has to move
        // them, the block they vacate takes the smaller arrays' new
        // blocks. Grown last, they landed on top of those and every
        // vacated block stayed a hole: a live ladder over `patricia` 4x4
        // peaked at 41–43 MiB resident instead of 40.
        self.watches.resize_with(2 * n, Vec::new);
        self.assigns.resize(n, LBool::Undef);
        self.decision.resize(n, true);
        self.polarity.resize(n, false);
        self.activity.resize(n, 0.0);
        self.reason.resize(n, ClauseRef::NONE);
        self.level.resize(n, 0);
        self.seen.resize(n, false);
        self.order.append_cold(old as u32..n as u32);
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// `false` once the clause set has been proven unsatisfiable at the top
    /// level (adding further clauses has no effect).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Effort counters accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Adds a clause. Must be called at decision level 0 (i.e. not from
    /// within a solve callback). Returns `false` if the formula became
    /// trivially unsatisfiable.
    ///
    /// Tautologies are dropped, duplicate literals merged, and literals
    /// already false at the top level removed.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.add_one(lits, None).0
    }

    /// Adds the single clause `lits ∨ gate`: the body of
    /// [`Solver::add_clause`] and [`Solver::add_clause_in_group`].
    fn add_one(&mut self, lits: &[Lit], gate: Option<Lit>) -> (bool, Option<ClauseRef>) {
        if !self.ok {
            return (false, None);
        }
        let mut buf = std::mem::take(&mut self.add_buf);
        buf.clear();
        buf.extend_from_slice(lits);
        buf.extend(gate);
        let added = self.add_lits(&mut buf, gate);
        self.add_buf = buf;
        added
    }

    /// Loads every clause of `formula`, in order, with its variables
    /// shifted up by `base` — into the clause group of activation literal
    /// `group` when one is given, as permanent clauses otherwise. The
    /// variables `base..base + formula.num_vars()` (and the group's) must
    /// exist already. Returns `false` if the formula became trivially
    /// unsatisfiable.
    ///
    /// Clause for clause this stores, enqueues and watches exactly what a
    /// loop over [`Solver::add_clause`] / [`Solver::add_clause_in_group`]
    /// with shifted literals would (`crates/sat/tests/load.rs` pins it);
    /// it only does the per-call work once: the group's member list is
    /// looked up once, the arena grows once, and one literal buffer serves
    /// every clause.
    ///
    /// # Panics
    ///
    /// Panics if the shifted variable block is not allocated.
    pub fn add_formula(&mut self, formula: &CnfFormula, base: u32, group: Option<Lit>) -> bool {
        assert!(
            base as usize + formula.num_vars() <= self.num_vars(),
            "formula of {} vars at base {base} out of range ({} vars)",
            formula.num_vars(),
            self.num_vars()
        );
        if !self.ok || formula.num_clauses() == 0 {
            return self.ok;
        }
        debug_assert!(
            group.is_none_or(Lit::is_positive),
            "activation literals are positive by convention"
        );
        let gate = group.map(|g| !g);
        // An upper bound (no clause simplified away): header + literals,
        // plus the gate literal of every group clause.
        let words_per_clause = 1 + usize::from(gate.is_some());
        self.ca
            .reserve(formula.num_literals() + words_per_clause * formula.num_clauses());
        let mut members = match group {
            Some(g) => self
                .groups
                .remove(&(g.var().index() as u32))
                .unwrap_or_default(),
            None => Vec::new(),
        };
        let mut buf = std::mem::take(&mut self.add_buf);
        for clause in formula.iter() {
            buf.clear();
            buf.extend(clause.iter().map(|l| l.shifted_by(base)));
            buf.extend(gate);
            let (ok, stored) = self.add_lits(&mut buf, gate);
            if group.is_some() {
                members.extend(stored);
            }
            if !ok {
                break; // nothing is added to a refuted solver
            }
        }
        self.add_buf = buf;
        if let Some(g) = group {
            self.groups.insert(g.var().index() as u32, members);
        }
        self.ok
    }

    /// Sorts `ls`, merges duplicate literals and drops the literals false
    /// at the top level, in place. Returns `false` when the clause is
    /// redundant — a tautology, or already satisfied at the top level.
    /// Must be called at decision level 0.
    fn simplify_at_top(&self, ls: &mut Vec<Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        ls.sort_unstable();
        ls.dedup();
        let mut kept = 0;
        for i in 0..ls.len() {
            let l = ls[i];
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return false; // tautology: l and ¬l adjacent after sort
            }
            match self.lit_value(l) {
                LBool::True => return false, // already satisfied
                LBool::False => {}           // drop falsified literal
                LBool::Undef => {
                    ls[kept] = l;
                    kept += 1;
                }
            }
        }
        ls.truncate(kept);
        true
    }

    /// The one way a problem clause enters the solver: `ls` holds the
    /// clause (including `gate`, the negated activation literal of its
    /// group, when it has one) and is simplified in place, then refutes
    /// the solver (empty), is enqueued and propagated (unit), or is stored
    /// and watched. Reports whether the solver is still consistent and the
    /// ref of the clause stored, if one was. The solver must be `ok`.
    fn add_lits(&mut self, ls: &mut Vec<Lit>, gate: Option<Lit>) -> (bool, Option<ClauseRef>) {
        for l in ls.iter() {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} out of range ({} vars)",
                self.num_vars()
            );
        }
        if !self.simplify_at_top(ls) {
            return (true, None);
        }
        match ls.len() {
            0 => {
                self.ok = false;
                (false, None)
            }
            1 => {
                self.unchecked_enqueue(ls[0], ClauseRef::NONE);
                self.ok = self.propagate().is_none();
                (self.ok, None)
            }
            len => {
                // Keep the gate out of the watched positions (0 and 1) when
                // the clause has enough other literals: every group clause
                // carries it, so watching it would pile the whole group
                // onto one watch list and make each rung's opening
                // `assume(group)` propagation visit every such clause just
                // to move its watch. Any two literals are a valid watch
                // pair at add time (all Undef), so demoting it is free.
                if len > 2 {
                    if let Some(at) = ls[..2].iter().position(|&l| Some(l) == gate) {
                        ls.swap(at, len - 1);
                    }
                }
                let ci = self.alloc_clause(ls, false, 0);
                self.attach_clause(ci);
                self.stats.added_clauses += 1;
                (true, Some(ci))
            }
        }
    }

    // ----------------------------------------------------------------- //
    // Clause groups (incremental solving)
    // ----------------------------------------------------------------- //

    /// Opens a clause group: allocates a fresh *activation literal* `g`.
    ///
    /// Clauses added to the group via [`Solver::add_clause_in_group`] are
    /// inert unless `g` is passed as an assumption to
    /// [`Solver::solve_limited`]. See the module docs for the full
    /// lifecycle and soundness argument.
    pub fn new_group(&mut self) -> Lit {
        self.new_var().positive()
    }

    /// Adds `lits` to the group of activation literal `group`: the stored
    /// clause is `lits ∨ ¬group`, so it only constrains solves that assume
    /// `group`. Returns `false` if the formula became trivially
    /// unsatisfiable (which can only happen through non-group clauses).
    pub fn add_clause_in_group(&mut self, group: Lit, lits: &[Lit]) -> bool {
        debug_assert!(
            group.is_positive(),
            "activation literals are positive by convention"
        );
        let (ok, stored) = self.add_one(lits, Some(!group));
        if let Some(ci) = stored {
            self.groups
                .entry(group.var().index() as u32)
                .or_default()
                .push(ci);
        }
        ok
    }

    /// Retires a clause group: asserts `¬group` at the top level, which
    /// permanently satisfies every clause of the group and every learnt
    /// clause derived from it, and physically deletes those that are safe
    /// to drop (clauses currently acting as the reason of a top-level
    /// implication are kept — they are satisfied and harmless).
    ///
    /// Must be called at decision level 0 (i.e. between solves). Returns
    /// `false` if the formula is (or became) unsatisfiable at the top
    /// level, mirroring [`Solver::add_clause`].
    pub fn retire_group(&mut self, group: Lit) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let members = self
            .groups
            .remove(&(group.var().index() as u32))
            .unwrap_or_default();
        let ok = self.add_clause(&[!group]);
        for ci in members {
            if self.ca.is_deleted(ci) || self.is_locked(ci) {
                continue;
            }
            // Deletion is a header-bit flip; the watchers pointing at the
            // record are dropped lazily by propagation (or at the next
            // collection, whichever dereferences them first).
            self.ca.delete(ci);
        }
        // Learnt clauses that depended on the group all contain ¬group
        // (see the module docs); they are satisfied now and can go.
        let gone = !group;
        let sweep: Vec<ClauseRef> = self
            .learnt_idxs
            .iter()
            .copied()
            .filter(|&ci| {
                !self.ca.is_deleted(ci) && self.ca.contains(ci, gone) && !self.is_locked(ci)
            })
            .collect();
        for ci in sweep {
            self.ca.delete(ci);
            self.stats.removed_clauses += 1;
            self.stats.learnt_clauses -= 1;
        }
        self.learnt_idxs.retain(|&ci| !self.ca.is_deleted(ci));
        self.sync_arena_gauges();
        self.maybe_collect();
        ok
    }

    /// Solves without assumptions or limits.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_limited(&[], &SolveLimits::none())
    }

    /// Solves under the given assumption literals.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, &SolveLimits::none())
    }

    /// Solves under assumptions with a resource budget.
    pub fn solve_limited(&mut self, assumptions: &[Lit], limits: &SolveLimits) -> SolveResult {
        self.model = None;
        self.conflict_core.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut restarts = 0u64;
        loop {
            if limits.expired() {
                self.cancel_until(0);
                return SolveResult::Unknown;
            }
            let budget = luby(restarts) * RESTART_BASE;
            let outcome = self.search(budget, assumptions, limits);
            match outcome {
                SearchOutcome::Sat => {
                    self.cancel_until(0);
                    return SolveResult::Sat;
                }
                SearchOutcome::Unsat => {
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                SearchOutcome::Timeout => {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                SearchOutcome::Restart => {
                    self.cancel_until(0);
                    restarts += 1;
                    self.stats.restarts += 1;
                }
            }
        }
    }

    /// The satisfying assignment found by the last successful solve, indexed
    /// by variable index.
    pub fn model(&self) -> Option<&[bool]> {
        self.model.as_deref()
    }

    /// Value of `lit` in the current model.
    pub fn model_value(&self, lit: Lit) -> Option<bool> {
        self.model
            .as_ref()
            .map(|m| m[lit.var().index()] == lit.is_positive())
    }

    /// After an assumption-based `Unsat`, the subset of assumptions that was
    /// proven contradictory (negated), MiniSat's "final conflict".
    ///
    /// Contract (see also the module docs):
    ///
    /// * only meaningful immediately after [`SolveResult::Unsat`]; the
    ///   buffer is cleared at the start of every solve call;
    /// * every element is the negation of one of the assumptions passed to
    ///   that solve call (a *core*, not necessarily minimal);
    /// * an **empty** slice means the permanent clause set is contradictory
    ///   without any assumptions — every future solve returns `Unsat`
    ///   regardless of assumptions or clause groups.
    pub fn final_conflict(&self) -> &[Lit] {
        &self.conflict_core
    }

    // ----------------------------------------------------------------- //
    // Internals
    // ----------------------------------------------------------------- //

    fn alloc_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        let ci = self.ca.alloc(lits, learnt, lbd);
        if learnt {
            self.learnt_idxs.push(ci);
            self.stats.learnt_clauses += 1;
        }
        self.sync_arena_gauges();
        ci
    }

    fn attach_clause(&mut self, ci: ClauseRef) {
        debug_assert!(self.ca.len(ci) >= 2);
        let l0 = self.ca.lit(ci, 0);
        let l1 = self.ca.lit(ci, 1);
        self.watches[(!l0).code()].push(Watcher {
            clause: ci,
            blocker: l1,
        });
        self.watches[(!l1).code()].push(Watcher {
            clause: ci,
            blocker: l0,
        });
    }

    fn lit_value(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn cancel_until(&mut self, target_level: usize) {
        if self.decision_level() <= target_level {
            return;
        }
        let bound = self.trail_lim[target_level];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.polarity[v] = self.assigns[v] == LBool::True;
            self.assigns[v] = LBool::Undef;
            self.reason[v] = ClauseRef::NONE;
            if self.decision[v] {
                self.order.insert(v as u32, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target_level);
        self.qhead = bound;
    }

    /// Unit propagation. Returns the ref of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let not_p = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let ci = w.clause;
                // Lazy watcher removal: a deleted clause's watcher is
                // dropped (not copied to `j`) the first time propagation
                // dereferences it — no eager O(watchlist) detach scans.
                if self.ca.is_deleted(ci) {
                    continue;
                }
                if self.ca.lit(ci, 0) == not_p {
                    self.ca.swap_lits(ci, 0, 1);
                }
                debug_assert_eq!(self.ca.lit(ci, 1), not_p);
                let first = self.ca.lit(ci, 0);
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[j] = Watcher {
                        clause: ci,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.ca.len(ci);
                for k in 2..len {
                    let lk = self.ca.lit(ci, k);
                    if self.lit_value(lk) != LBool::False {
                        self.ca.swap_lits(ci, 1, k);
                        let new_watch = self.ca.lit(ci, 1);
                        debug_assert_ne!((!new_watch).code(), p.code());
                        self.watches[(!new_watch).code()].push(Watcher {
                            clause: ci,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under the current assignment.
                ws[j] = Watcher {
                    clause: ci,
                    blocker: first,
                };
                j += 1;
                if self.lit_value(first) == LBool::False {
                    // Conflict: restore remaining watchers and bail out.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    ws.truncate(j);
                    self.watches[p.code()] = ws;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.unchecked_enqueue(first, ci);
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v.index() as u32, &self.activity);
    }

    fn bump_clause(&mut self, ci: ClauseRef) {
        let act = self.ca.activity(ci) + self.cla_inc as f32;
        self.ca.set_activity(ci, act);
        if act > 1e20 {
            for k in 0..self.learnt_idxs.len() {
                let idx = self.learnt_idxs[k];
                self.ca.set_activity(idx, self.ca.activity(idx) * 1e-20);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backtrack level, and the clause's LBD.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, usize, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)];
        let mut path_c: i32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            debug_assert_ne!(confl, ClauseRef::NONE);
            if self.ca.is_learnt(confl) {
                self.bump_clause(confl);
            }
            let start = usize::from(p.is_some());
            for k in start..self.ca.len(confl) {
                let q = self.ca.lit(confl, k);
                let vi = q.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.bump_var(q.var());
                    self.seen[vi] = true;
                    if self.level[vi] as usize >= self.decision_level() {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next trail literal participating in the conflict.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            confl = self.reason[pl.var().index()];
            self.seen[pl.var().index()] = false;
            path_c -= 1;
            p = Some(pl);
            if path_c <= 0 {
                break;
            }
        }
        learnt[0] = !p.expect("conflict analysis visited at least one literal");

        // Self-subsumption minimization: a literal is redundant if all
        // antecedents of its reason are already in the clause (or level 0).
        let original: Vec<Lit> = learnt[1..].to_vec();
        let mut kept: Vec<Lit> = Vec::with_capacity(learnt.len());
        kept.push(learnt[0]);
        'lits: for &q in &original {
            let r = self.reason[q.var().index()];
            if r == ClauseRef::NONE {
                kept.push(q);
                continue;
            }
            for k in 0..self.ca.len(r) {
                let a = self.ca.lit(r, k);
                if a.var() == q.var() {
                    continue;
                }
                let vi = a.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    kept.push(q);
                    continue 'lits;
                }
            }
            // redundant: dropped
        }
        for &q in &original {
            self.seen[q.var().index()] = false;
        }
        let mut learnt = kept;

        // Compute backtrack level; move the highest-level remaining literal
        // to position 1 so it can be watched.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };

        // LBD: number of distinct decision levels in the clause.
        let mut levels: Vec<u32> = learnt.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;

        (learnt, bt_level, lbd)
    }

    /// Computes the subset of assumptions responsible for forcing `p` false
    /// (called when an assumption literal is already falsified).
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        let bottom = self.trail_lim[0];
        for i in (bottom..self.trail.len()).rev() {
            let x = self.trail[i];
            let vi = x.var().index();
            if !self.seen[vi] {
                continue;
            }
            let r = self.reason[vi];
            if r == ClauseRef::NONE {
                if self.level[vi] > 0 {
                    self.conflict_core.push(!x);
                }
            } else {
                for k in 0..self.ca.len(r) {
                    let l = self.ca.lit(r, k);
                    if l.var() != x.var() && self.level[l.var().index()] > 0 {
                        self.seen[l.var().index()] = true;
                    }
                }
            }
            self.seen[vi] = false;
        }
        self.seen[p.var().index()] = false;
    }

    fn reduce_db(&mut self) {
        // Sort learnt clauses: glue clauses (lbd <= 3) and locked clauses are
        // kept; the least active half of the rest is removed.
        let mut candidates: Vec<ClauseRef> = Vec::new();
        for &ci in &self.learnt_idxs {
            if self.ca.is_deleted(ci) || self.ca.lbd(ci) <= 3 || self.ca.len(ci) <= 2 {
                continue;
            }
            if self.is_locked(ci) {
                continue;
            }
            candidates.push(ci);
        }
        candidates.sort_by(|&a, &b| {
            self.ca
                .activity(a)
                .partial_cmp(&self.ca.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let remove_n = candidates.len() / 2;
        for &ci in candidates.iter().take(remove_n) {
            self.ca.delete(ci);
            self.stats.removed_clauses += 1;
            self.stats.learnt_clauses -= 1;
        }
        self.learnt_idxs.retain(|&ci| !self.ca.is_deleted(ci));
        self.reduce_count += 1;
        self.next_reduce = self.stats.conflicts + 2000 + 500 * self.reduce_count;
        self.sync_arena_gauges();
        self.maybe_collect();
    }

    fn is_locked(&self, ci: ClauseRef) -> bool {
        let l0 = self.ca.lit(ci, 0);
        self.lit_value(l0) == LBool::True && self.reason[l0.var().index()] == ci
    }

    /// Keeps the arena occupancy gauges in [`SolverStats`] current.
    fn sync_arena_gauges(&mut self) {
        self.stats.arena_wasted = self.ca.wasted_words();
        self.stats.arena_words = self.ca.words();
    }

    /// Runs the mark-compact collector once the wasted fraction crossed
    /// the trigger (≥ 1/[`GC_WASTE_DENOMINATOR`] of the arena and at least
    /// [`GC_MIN_WASTE_WORDS`] words).
    fn maybe_collect(&mut self) {
        let wasted = self.ca.wasted_words();
        if wasted >= GC_MIN_WASTE_WORDS && wasted * GC_WASTE_DENOMINATOR >= self.ca.words() {
            self.collect_garbage();
        }
    }

    /// Forces a clause-arena garbage collection: compacts every live
    /// clause into a fresh contiguous buffer and remaps the watch lists, the
    /// `reason` pointers of the current trail, the learnt-clause index and
    /// the live group membership lists. Safe at any decision level (the
    /// solver invokes it automatically after [`Solver::retire_group`]
    /// sweeps and learnt-DB reductions once the waste trigger is crossed,
    /// regardless of search depth); watchers of deleted clauses — the
    /// lazy-removal leftovers — are dropped rather than remapped. Public
    /// so tests and benches can force collections at chosen points.
    pub fn collect_garbage(&mut self) {
        let sweep = self.ca.collect();
        let remap = &sweep.remap;
        for ws in &mut self.watches {
            ws.retain_mut(|w| match remap.remap(w.clause) {
                Some(nc) => {
                    w.clause = nc;
                    true
                }
                None => false,
            });
        }
        for t in 0..self.trail.len() {
            let v = self.trail[t].var().index();
            let r = self.reason[v];
            if r != ClauseRef::NONE {
                self.reason[v] = remap
                    .remap(r)
                    .expect("reason clauses are locked and never deleted");
            }
        }
        for ci in &mut self.learnt_idxs {
            *ci = remap
                .remap(*ci)
                .expect("deleted learnt refs are dropped before collection");
        }
        for members in self.groups.values_mut() {
            members.retain_mut(|ci| match remap.remap(*ci) {
                Some(nc) => {
                    *ci = nc;
                    true
                }
                None => false,
            });
        }
        self.stats.gc_runs += 1;
        self.stats.lits_reclaimed += sweep.lits_reclaimed;
        // Hand the spent forwarding table back so the next collection
        // reuses its allocation instead of mapping a fresh buffer.
        self.ca.recycle(sweep.remap);
        self.sync_arena_gauges();
    }

    /// Rung-aware heuristic hygiene for incremental sessions: when an II
    /// ladder advances to its next rung, the caller passes `(from, to)`
    /// variable pairs connecting semantically corresponding variables of
    /// the retired and the fresh rung (same node, same unfolded schedule
    /// slot, same PE — see `satmapit-core`'s ladder). For every pair the
    /// saved phase of `from` is copied to `to`, and — when
    /// `activity_scale > 0` — `to`'s VSIDS activity is seeded at
    /// `activity_scale` times `from`'s, so the new rung starts its search
    /// where the previous rung's heuristic state left off instead of from
    /// a cold, uniform zero. A scale of `0.0` transfers phases only.
    ///
    /// Sound by construction: phases and activities only steer the search
    /// order, never the verdict.
    pub fn on_rung_advance(&mut self, transfers: &[(Var, Var)], activity_scale: f64) {
        for &(from, to) in transfers {
            let f = from.index();
            let t = to.index();
            self.polarity[t] = self.polarity[f];
            if activity_scale > 0.0 {
                self.activity[t] = self.activity[f] * activity_scale;
            }
        }
        if activity_scale > 0.0 && !transfers.is_empty() {
            // Seeded activities may violate the heap order of queued
            // variables; one O(n) heapify restores it.
            self.order.rebuild(&self.activity);
        }
    }

    /// Excludes `var` from (or re-admits it to) branching decisions.
    ///
    /// A non-decision variable is still assigned by unit propagation, but
    /// the search never branches on it and a model may leave it
    /// unassigned (it reads as `false` in [`Solver::model`]). The caller
    /// must guarantee that every live clause mentioning the variable is
    /// satisfiable without deciding it — the intended use is variables of
    /// a retired clause group ([`Solver::retire_group`]), whose clauses
    /// are all permanently satisfied. Branching on thousands of such dead
    /// variables is pure waste; the incremental II ladder in
    /// `satmapit-core` masks each rung's variables out once the rung is
    /// settled.
    pub fn set_decision_var(&mut self, var: Var, decide: bool) {
        let i = var.index();
        let was = std::mem::replace(&mut self.decision[i], decide);
        if decide && !was && self.assigns[i] == LBool::Undef {
            self.order.insert(i as u32, &self.activity);
        }
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        loop {
            let v = self.order.pop_max(&self.activity)?;
            if self.assigns[v as usize] == LBool::Undef && self.decision[v as usize] {
                return Some(Lit::new(Var::new(v), self.polarity[v as usize]));
            }
        }
    }

    fn extract_model(&mut self) {
        self.model = Some(self.assigns.iter().map(|&a| a == LBool::True).collect());
    }

    fn search(
        &mut self,
        nof_conflicts: u64,
        assumptions: &[Lit],
        limits: &SolveLimits,
    ) -> SearchOutcome {
        let mut conflict_c: u64 = 0;
        let mut steps: u64 = 0;
        loop {
            // Uniform deadline polling: every LIMIT_POLL_INTERVAL search
            // steps (a step is a decision or a conflict). Decisions and
            // conflicts both advance the counter, so neither a
            // propagation-heavy solve (few decisions) nor a conflict-free
            // descent (few conflicts) can stretch the gap between polls.
            steps += 1;
            if steps.is_multiple_of(LIMIT_POLL_INTERVAL) && limits.expired() {
                return SearchOutcome::Timeout;
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflict_c += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                if self.decision_level() <= assumptions.len() {
                    // Conflict at or below the assumption levels: the
                    // assumptions themselves are inconsistent.
                    // Analyze to learn, but if the backjump target is within
                    // the assumptions we must re-establish them afterwards,
                    // which the outer loop handles via restart semantics.
                }
                let (learnt, bt_level, lbd) = self.analyze(confl);
                let bt_level = bt_level.min(self.decision_level() - 1);
                self.cancel_until(bt_level);
                if learnt.len() == 1 {
                    if self.lit_value(learnt[0]) == LBool::Undef {
                        self.unchecked_enqueue(learnt[0], ClauseRef::NONE);
                    } else if self.lit_value(learnt[0]) == LBool::False {
                        self.ok = false;
                        return SearchOutcome::Unsat;
                    }
                } else {
                    let ci = self.alloc_clause(&learnt, true, lbd);
                    self.attach_clause(ci);
                    let l0 = self.ca.lit(ci, 0);
                    debug_assert_eq!(self.lit_value(l0), LBool::Undef);
                    self.unchecked_enqueue(l0, ci);
                }
                self.var_inc *= VAR_ACT_DECAY;
                self.cla_inc *= CLA_ACT_DECAY;
            } else {
                // No conflict.
                if conflict_c >= nof_conflicts {
                    return SearchOutcome::Restart;
                }
                if self.stats.conflicts >= self.next_reduce {
                    self.reduce_db();
                }
                // Establish assumptions as pseudo-decisions.
                let mut next: Option<Lit> = None;
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.lit_value(p) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => {
                            self.analyze_final(!p);
                            return SearchOutcome::Unsat;
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(p) => p,
                    None => match self.pick_branch() {
                        Some(p) => p,
                        None => {
                            self.extract_model();
                            return SearchOutcome::Sat;
                        }
                    },
                };
                self.stats.decisions += 1;
                self.new_decision_level();
                self.unchecked_enqueue(decision, ClauseRef::NONE);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)] // pigeonhole matrices read best indexed

    use super::*;

    fn lit(s: &mut Solver) -> Lit {
        s.new_var().positive()
    }

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        s.add_clause(&[a]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(a), Some(true));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        s.add_clause(&[a]);
        assert!(!s.add_clause(&[!a]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn implication_chain_propagates() {
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..50).map(|_| lit(&mut s)).collect();
        s.add_clause(&[xs[0]]);
        for w in xs.windows(2) {
            s.add_clause(&[!w[0], w[1]]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for &x in &xs {
            assert_eq!(s.model_value(x), Some(true));
        }
    }

    /// Pigeonhole principle PHP(n+1, n): unsatisfiable, requires real search.
    fn pigeonhole(holes: usize) -> Solver {
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let mut var = vec![vec![Lit::from_code(0); holes]; pigeons];
        for p in 0..pigeons {
            for h in 0..holes {
                var[p][h] = s.new_var().positive();
            }
        }
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| var[p][h]).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[!var[p1][h], !var[p2][h]]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 2..=6 {
            let mut s = pigeonhole(holes);
            assert_eq!(
                s.solve(),
                SolveResult::Unsat,
                "PHP({},{})",
                holes + 1,
                holes
            );
        }
    }

    #[test]
    fn pigeonhole_exact_fit_sat() {
        // n pigeons, n holes: satisfiable.
        let holes = 5;
        let mut s = Solver::new();
        let mut var = vec![vec![Lit::from_code(0); holes]; holes];
        for p in 0..holes {
            for h in 0..holes {
                var[p][h] = s.new_var().positive();
            }
        }
        for p in 0..holes {
            let clause: Vec<Lit> = (0..holes).map(|h| var[p][h]).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..holes {
                for p2 in (p1 + 1)..holes {
                    s.add_clause(&[!var[p1][h], !var[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        // Verify it is a perfect matching.
        for h in 0..holes {
            let count = (0..holes)
                .filter(|&p| s.model_value(var[p][h]) == Some(true))
                .count();
            assert!(count <= 1);
        }
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        s.add_clause(&[a, b]);
        assert_eq!(s.solve_with_assumptions(&[!a]), SolveResult::Sat);
        assert_eq!(s.model_value(b), Some(true));
        assert_eq!(s.solve_with_assumptions(&[!a, !b]), SolveResult::Unsat);
        let core = s.final_conflict().to_vec();
        assert!(!core.is_empty());
        // Solver remains usable and consistent afterwards.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn timeout_deadline_in_past_stops() {
        let mut s = pigeonhole(9);
        let limits = SolveLimits {
            deadline: Some(Instant::now()),
        };
        // The deadline is polled before the first restart: no search.
        let r = s.solve_limited(&[], &limits);
        assert_eq!(r, SolveResult::Unknown);
        assert_eq!(s.stats().decisions, 0, "no search may happen");
        assert_eq!(s.stats().conflicts, 0);
    }

    /// The deadline is polled on the uniform step cadence, so it is
    /// observed promptly mid-search (polling only every 1024 decisions, or
    /// every 256 conflicts, let a solve overrun it by seconds).
    #[test]
    fn parked_solver_observes_deadline_promptly() {
        // PHP(12,11) takes far longer than the test budget; the deadline
        // must pull the solver out of the search mid-flight.
        let limits = SolveLimits::none().with_timeout(Duration::from_millis(50));
        let mut s = pigeonhole(11);
        let t0 = Instant::now();
        let r = s.solve_limited(&[], &limits);
        assert_eq!(r, SolveResult::Unknown);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "deadline overrun: {:?}",
            t0.elapsed()
        );
        assert!(s.stats().conflicts > 0, "the solver was mid-search");
    }

    #[test]
    fn solver_interrupted_by_the_deadline_stays_consistent() {
        // Stop mid-search, keep the learnt clauses, re-solve: the verdict
        // must match a fresh solver's (learnt clauses are sound, so state
        // carries over). A loaded machine may finish before the deadline.
        let mut s = pigeonhole(7);
        let limits = SolveLimits::none().with_timeout(Duration::from_millis(5));
        let r = s.solve_limited(&[], &limits);
        assert!(
            matches!(r, SolveResult::Unknown | SolveResult::Unsat),
            "{r:?}"
        );
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn an_unrepresentable_timeout_sets_no_deadline() {
        let limits = SolveLimits::none().with_timeout(Duration::MAX);
        assert_eq!(limits.deadline, None);
        let mut s = pigeonhole(4);
        assert_eq!(s.solve_limited(&[], &limits), SolveResult::Unsat);
    }

    #[test]
    fn growing_the_pool_in_one_step_matches_one_variable_at_a_time() {
        let mut bulk = Solver::new();
        let mut single = Solver::new();
        bulk.ensure_vars(3);
        bulk.ensure_vars(2); // never shrinks
        bulk.ensure_vars(40);
        for _ in 0..40 {
            let _ = single.new_var();
        }
        assert_eq!(bulk.num_vars(), 40);
        assert_eq!(bulk.polarity, single.polarity);
        assert_eq!(bulk.watches.len(), 80);
        // Same branching order: an unconstrained solve decides every
        // variable, in heap order, at its saved phase.
        assert_eq!(bulk.solve(), single.solve());
        assert_eq!(bulk.trail, single.trail);
    }

    #[test]
    fn the_gate_is_never_watched_in_a_clause_with_two_other_literals() {
        // The group opens before the variables, so ¬g sorts first in every
        // clause and would be watched without the demotion.
        for bulk in [false, true] {
            let mut s = Solver::new();
            let g = s.new_group();
            let base = s.num_vars() as u32;
            let mut f = crate::cnf::CnfFormula::with_vars(4);
            let x = |v: u32| Var::new(v).positive();
            f.add_clause(&[x(0)]); // stored as the binary x0 ∨ ¬g
            f.add_clause(&[x(1), x(2)]);
            f.add_clause(&[x(3), x(2), x(1), x(3)]);
            s.ensure_vars(base as usize + 4);
            if bulk {
                s.add_formula(&f, base, Some(g));
            } else {
                for clause in f.iter() {
                    let shifted: Vec<Lit> = clause.iter().map(|l| l.shifted_by(base)).collect();
                    s.add_clause_in_group(g, &shifted);
                }
            }
            assert_eq!(s.stats().added_clauses, 3);
            // Clauses watching ¬g sit on the list visited when g turns true.
            let watching: Vec<usize> = s.watches[g.code()]
                .iter()
                .map(|w| s.ca.len(w.clause))
                .collect();
            assert_eq!(watching, [2], "bulk={bulk}: only the binary has no choice");
            for members in s.groups.values() {
                for &ci in members {
                    assert!(s.ca.contains(ci, !g), "every member keeps its gate");
                }
            }
            assert_eq!(s.solve_with_assumptions(&[g]), SolveResult::Sat);
        }
    }

    #[test]
    fn group_clauses_only_bind_under_their_assumption() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let g = s.new_group();
        s.add_clause_in_group(g, &[a]);
        // Without the assumption the group is inert.
        assert_eq!(s.solve(), SolveResult::Sat);
        // Under the assumption it forces `a`.
        assert_eq!(s.solve_with_assumptions(&[g]), SolveResult::Sat);
        assert_eq!(s.model_value(a), Some(true));
    }

    #[test]
    fn contradictory_group_cores_name_the_group() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let g = s.new_group();
        s.add_clause_in_group(g, &[a]);
        s.add_clause_in_group(g, &[!a]);
        assert_eq!(s.solve_with_assumptions(&[g]), SolveResult::Unsat);
        assert!(
            s.final_conflict().contains(&!g),
            "core must name the contradictory group, got {:?}",
            s.final_conflict()
        );
        // The rest of the formula is untouched: retiring the group leaves a
        // satisfiable solver, and the activation literal is now pinned off.
        assert!(s.retire_group(g));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(g), Some(false));
    }

    #[test]
    fn permanent_unsat_yields_empty_core_under_assumptions() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let g = s.new_group();
        s.add_clause_in_group(g, &[a]);
        s.add_clause(&[a]);
        assert!(!s.add_clause(&[!a]), "permanent clauses contradict");
        assert_eq!(s.solve_with_assumptions(&[g]), SolveResult::Unsat);
        assert!(
            s.final_conflict().is_empty(),
            "UNSAT independent of assumptions must produce an empty core"
        );
    }

    #[test]
    fn retirement_sweeps_group_and_dependent_learnt_clauses() {
        // A gated pigeonhole: all problem clauses live in one group, so
        // every learnt clause depends on it and must vanish on retirement.
        let holes = 4;
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let mut var = vec![vec![Lit::from_code(0); holes]; pigeons];
        for p in 0..pigeons {
            for h in 0..holes {
                var[p][h] = s.new_var().positive();
            }
        }
        let g = s.new_group();
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| var[p][h]).collect();
            s.add_clause_in_group(g, &clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause_in_group(g, &[!var[p1][h], !var[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve_with_assumptions(&[g]), SolveResult::Unsat);
        assert!(s.final_conflict().contains(&!g));
        assert!(s.retire_group(g));
        assert_eq!(
            s.stats().learnt_clauses,
            0,
            "all learnt clauses depended on the retired group"
        );
        // The solver stays fully usable: a fresh group can pose a new
        // (satisfiable) question over the same variables.
        let g2 = s.new_group();
        s.add_clause_in_group(g2, &[var[0][0]]);
        assert_eq!(s.solve_with_assumptions(&[g2]), SolveResult::Sat);
        assert_eq!(s.model_value(var[0][0]), Some(true));
    }

    #[test]
    fn learnt_clauses_survive_across_group_generations() {
        // Permanent clauses encode an implication chain; a group adds a
        // contradiction at the end. The UNSAT proof learns chain facts that
        // outlive the group and speed up (or at least do not disturb) the
        // next generation.
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..30).map(|_| lit(&mut s)).collect();
        for w in xs.windows(2) {
            s.add_clause(&[!w[0], w[1]]);
        }
        let g1 = s.new_group();
        s.add_clause_in_group(g1, &[xs[0]]);
        s.add_clause_in_group(g1, &[!xs[29]]);
        assert_eq!(s.solve_with_assumptions(&[g1]), SolveResult::Unsat);
        assert!(s.retire_group(g1));
        let g2 = s.new_group();
        s.add_clause_in_group(g2, &[xs[0]]);
        assert_eq!(s.solve_with_assumptions(&[g2]), SolveResult::Sat);
        for &x in &xs {
            assert_eq!(s.model_value(x), Some(true));
        }
    }

    #[test]
    fn incremental_add_between_solves() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        let c = lit(&mut s);
        s.add_clause(&[a, b, c]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[!a]);
        s.add_clause(&[!b]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(c), Some(true));
        s.add_clause(&[!c]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        s.add_clause(&[a, a, b]);
        s.add_clause(&[a, !a]); // tautology, dropped
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn stats_are_populated() {
        let mut s = pigeonhole(5);
        s.solve();
        assert!(s.stats().conflicts > 0);
        assert!(s.stats().decisions > 0);
        assert!(s.stats().propagations > 0);
    }

    #[test]
    fn model_satisfies_formula() {
        // Random-ish 3-CNF that is satisfiable by construction: plant a
        // solution and only add clauses consistent with it.
        let n = 60;
        let mut s = Solver::new();
        let lits: Vec<Lit> = (0..n).map(|_| lit(&mut s)).collect();
        let planted: Vec<bool> = (0..n).map(|i| (i * 7 + 3) % 5 < 2).collect();
        let mut clauses = Vec::new();
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let mut clause = Vec::new();
            for _ in 0..3 {
                let v = (rng() % n as u64) as usize;
                let pol = rng() % 2 == 0;
                clause.push(if pol { lits[v] } else { !lits[v] });
            }
            // Ensure the planted assignment satisfies the clause.
            if !clause
                .iter()
                .any(|l| planted[l.var().index()] == l.is_positive())
            {
                let v = clause[0].var().index();
                clause[0] = if planted[v] { lits[v] } else { !lits[v] };
            }
            clauses.push(clause);
        }
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model().unwrap();
        for c in &clauses {
            assert!(c.iter().any(|l| model[l.var().index()] == l.is_positive()));
        }
    }
}
