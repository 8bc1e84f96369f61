//! The bulk clause loader is the clause-by-clause path, hoisted: loading
//! a formula through [`Solver::add_formula`] must leave a solver that is
//! indistinguishable — stored clauses, arena size, verdict, model, core
//! and search effort — from one fed the same clauses, shifted by hand,
//! through [`Solver::add_clause`] / [`Solver::add_clause_in_group`].
//!
//! The random formulas are small and dense on purpose, so that duplicate
//! literals, tautologies, unit and empty clauses and literals already
//! assigned at the top level all occur in most cases.

use proptest::prelude::*;
use satmapit_sat::{CnfFormula, Lit, SolveResult, Solver, Var};

const NUM_VARS: usize = 8;

type LitSpec = (usize, bool);

#[derive(Debug)]
struct Case {
    clauses: Vec<Vec<LitSpec>>,
    /// Literals asserted at the top level before the load.
    units: Vec<LitSpec>,
    /// Variables allocated ahead of the formula's block.
    pad: usize,
    /// Whether the activation variable precedes the formula's block (so
    /// that `¬g` sorts first in every clause) or follows it, as in the II
    /// ladder (`¬g` sorts last).
    gate_first: bool,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let lit = || (0..NUM_VARS, any::<bool>());
    (
        proptest::collection::vec(proptest::collection::vec(lit(), 0..=5), 0..24),
        proptest::collection::vec(lit(), 0..=2),
        0..4usize,
        any::<bool>(),
    )
        .prop_map(|(clauses, units, pad, gate_first)| Case {
            clauses,
            units,
            pad,
            gate_first,
        })
}

fn lit_at((var, positive): LitSpec, base: usize) -> Lit {
    Lit::new(Var::new((var + base) as u32), positive)
}

/// What a load leaves behind.
#[derive(Debug, PartialEq)]
struct Loaded {
    returned: bool,
    ok: bool,
    added_clauses: u64,
    arena_words: u64,
}

/// What a solve reports.
#[derive(Debug, PartialEq)]
struct Solved {
    verdict: SolveResult,
    model: Option<Vec<bool>>,
    core: Vec<Lit>,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
}

fn loaded(solver: &Solver, returned: bool) -> Loaded {
    Loaded {
        returned,
        ok: solver.is_ok(),
        added_clauses: solver.stats().added_clauses,
        arena_words: solver.stats().arena_words,
    }
}

fn solve(solver: &mut Solver, assumptions: &[Lit]) -> Solved {
    let verdict = solver.solve_with_assumptions(assumptions);
    Solved {
        verdict,
        model: solver.model().map(<[bool]>::to_vec),
        core: solver.final_conflict().to_vec(),
        conflicts: solver.stats().conflicts,
        decisions: solver.stats().decisions,
        propagations: solver.stats().propagations,
    }
}

/// A solver with the case's variables allocated and its top-level units
/// asserted, plus the formula block's base and (when `gated`) the group.
fn prepare(case: &Case, pad: usize, gated: bool) -> (Solver, usize, Option<Lit>) {
    let mut solver = Solver::new();
    solver.ensure_vars(pad);
    let gate_first = (gated && case.gate_first).then(|| solver.new_group());
    let base = solver.num_vars();
    solver.ensure_vars(base + NUM_VARS);
    let gate_last = (gated && !case.gate_first).then(|| solver.new_group());
    for &unit in &case.units {
        solver.add_clause(&[lit_at(unit, base)]);
    }
    (solver, base, gate_first.or(gate_last))
}

/// Clause by clause through the public adders, literals shifted by hand.
fn load_one_by_one(case: &Case, pad: usize, gated: bool) -> (Solver, Loaded, Option<Lit>) {
    let (mut solver, base, gate) = prepare(case, pad, gated);
    let mut returned = solver.is_ok();
    for clause in &case.clauses {
        let lits: Vec<Lit> = clause.iter().map(|&l| lit_at(l, base)).collect();
        returned = match gate {
            Some(g) => solver.add_clause_in_group(g, &lits),
            None => solver.add_clause(&lits),
        };
    }
    let state = loaded(&solver, returned);
    (solver, state, gate)
}

/// The same clauses as one formula over its own variables, bulk-loaded.
fn load_in_bulk(case: &Case, pad: usize, gated: bool) -> (Solver, Loaded, Option<Lit>) {
    let (mut solver, base, gate) = prepare(case, pad, gated);
    let mut formula = CnfFormula::with_vars(NUM_VARS);
    for clause in &case.clauses {
        let lits: Vec<Lit> = clause.iter().map(|&l| lit_at(l, 0)).collect();
        formula.add_clause(&lits);
    }
    let returned = solver.add_formula(&formula, base as u32, gate);
    let state = loaded(&solver, returned);
    (solver, state, gate)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bulk_load_matches_clause_by_clause_adds(case in case_strategy()) {
        // Ungated at any base, base 0 included.
        let (mut reference, ref_state, _) = load_one_by_one(&case, case.pad, false);
        let (mut subject, sub_state, _) = load_in_bulk(&case, case.pad, false);
        prop_assert_eq!(&sub_state, &ref_state, "ungated load of {:?}", case);
        prop_assert_eq!(
            solve(&mut subject, &[]),
            solve(&mut reference, &[]),
            "ungated solve of {:?}",
            case
        );

        // Gated, always at a non-zero base.
        let pad = case.pad + 1;
        let (mut reference, ref_state, gate) = load_one_by_one(&case, pad, true);
        let (mut subject, sub_state, _) = load_in_bulk(&case, pad, true);
        let gate = gate.expect("gated loads open a group");
        prop_assert_eq!(&sub_state, &ref_state, "gated load of {:?}", case);
        prop_assert_eq!(
            solve(&mut subject, &[gate]),
            solve(&mut reference, &[gate]),
            "gated solve of {:?}",
            case
        );
        // Both sides registered the same members: retirement deletes the
        // same records.
        prop_assert_eq!(subject.retire_group(gate), reference.retire_group(gate));
        prop_assert_eq!(
            subject.stats().arena_wasted,
            reference.stats().arena_wasted,
            "waste after retiring the group of {:?}",
            case
        );
        prop_assert_eq!(subject.stats().arena_words, reference.stats().arena_words);
        prop_assert_eq!(
            solve(&mut subject, &[]),
            solve(&mut reference, &[]),
            "solve after retiring the group of {:?}",
            case
        );
    }
}

/// `from_cnf` is the bulk loader at base 0: a formula that refutes itself
/// halfway stops the load there, as the clause-by-clause path does.
#[test]
fn a_refuted_load_stops_where_the_adds_would() {
    let mut formula = CnfFormula::with_vars(3);
    let lit = |v: u32, positive: bool| Lit::new(Var::new(v), positive);
    formula.add_clause(&[lit(0, true), lit(1, true)]);
    formula.add_clause(&[lit(2, true)]);
    formula.add_clause(&[lit(2, false)]);
    formula.add_clause(&[lit(0, false), lit(1, false)]);
    let mut solver = Solver::from_cnf(&formula);
    assert!(!solver.is_ok());
    assert_eq!(
        solver.stats().added_clauses,
        1,
        "nothing after the conflict"
    );
    assert_eq!(solver.solve(), SolveResult::Unsat);
    assert!(!solver.add_formula(&formula, 0, None), "and nothing later");
    assert_eq!(solver.stats().added_clauses, 1);
}

#[test]
#[should_panic(expected = "out of range")]
fn loading_past_the_allocated_variables_panics() {
    let mut formula = CnfFormula::with_vars(2);
    formula.add_clause(&[Var::new(1).positive()]);
    let mut solver = Solver::new();
    solver.ensure_vars(2);
    solver.add_formula(&formula, 1, None);
}
