//! Garbage-collection correctness: random interleavings of clause adds,
//! clause-group lifecycles, solves and *forced* arena collections must
//! leave every verdict exact — decided by exhaustive enumeration of an
//! externally maintained copy of the formula — and every artifact
//! (models, failed-assumption cores) must keep its documented contract.
//!
//! The solver runs with its automatic GC *and* gets `collect_garbage()`
//! forced at random script points (including mid-run positions where
//! watch lists are saturated with lazy-removal leftovers). Verdicts and
//! models are checked against the mirror, not against the solver's own
//! bookkeeping.

use proptest::prelude::*;
use satmapit_sat::{Lit, SolveResult, Solver, Var};

const NUM_VARS: usize = 10;

/// One step of a solver script; `clause` and `pick` are interpreted per
/// op kind (see `run_script`).
type ScriptOp = (usize, Vec<(usize, bool)>, usize);

fn op_strategy() -> impl Strategy<Value = ScriptOp> {
    (
        0..6usize,
        proptest::collection::vec((0..NUM_VARS, any::<bool>()), 1..=4),
        0..16usize,
    )
}

/// The externally tracked ground truth: every clause the solver holds
/// (group clauses stored in their gated `C ∨ ¬g` form, retirements as
/// `¬g` units), plus the live activation literals.
#[derive(Default)]
struct Mirror {
    clauses: Vec<Vec<Lit>>,
    live_gates: Vec<Lit>,
}

impl Mirror {
    fn eval(&self, model: &[bool]) -> bool {
        self.clauses.iter().all(|clause| {
            clause
                .iter()
                .any(|l| model[l.var().index()] == l.is_positive())
        })
    }

    /// Decides the formula under `assumptions` by trying all
    /// `2^NUM_VARS` assignments of the problem variables. Activation
    /// variables need no enumeration: each occurs in the formula only
    /// negated (`C ∨ ¬g`, `¬g`), so `false` is its best value unless it
    /// is assumed — and only activation literals are ever assumed.
    fn satisfiable(&self, num_vars: usize, assumptions: &[Lit]) -> bool {
        let mut model = vec![false; num_vars];
        for a in assumptions {
            model[a.var().index()] = a.is_positive();
        }
        (0..1u32 << NUM_VARS).any(|bits| {
            for (v, value) in model.iter_mut().enumerate().take(NUM_VARS) {
                *value = bits & (1 << v) != 0;
            }
            self.eval(&model)
        })
    }
}

fn lits_of(spec: &[(usize, bool)]) -> Vec<Lit> {
    spec.iter()
        .map(|&(v, pol)| Lit::new(Var::new(v as u32), pol))
        .collect()
}

/// Solves under `assumptions` and checks the verdict against the
/// mirror's enumeration, then the model / `final_conflict` contracts.
fn check_solve(solver: &mut Solver, mirror: &Mirror, assumptions: &[Lit]) -> Result<(), String> {
    let verdict = solver.solve_with_assumptions(assumptions);
    let expected = mirror.satisfiable(solver.num_vars(), assumptions);
    match verdict {
        SolveResult::Sat => {
            if !expected {
                return Err(format!(
                    "Sat under {assumptions:?}, but no assignment exists"
                ));
            }
            let model = solver.model().expect("SAT carries a model");
            if !mirror.eval(model) {
                return Err("model violates the formula".to_string());
            }
            for &a in assumptions {
                if model[a.var().index()] != a.is_positive() {
                    return Err(format!("model violates assumption {a:?}"));
                }
            }
        }
        SolveResult::Unsat => {
            if expected {
                return Err(format!(
                    "Unsat under {assumptions:?}, but an assignment exists"
                ));
            }
            // The final_conflict contract: every core element is the
            // negation of one of the assumptions.
            for &l in solver.final_conflict() {
                if !assumptions.contains(&!l) {
                    return Err(format!("core element {l:?} is not a negated assumption"));
                }
            }
        }
        SolveResult::Unknown => unreachable!("no limits were set"),
    }
    Ok(())
}

/// Replays `script`, checking every solve. Returns an error description
/// on the first wrong verdict or broken contract.
fn run_script(script: &[ScriptOp]) -> Result<(), String> {
    let mut solver = Solver::new();
    for _ in 0..NUM_VARS {
        let _ = solver.new_var();
    }
    let mut mirror = Mirror::default();

    for (kind, clause_spec, pick) in script {
        match kind {
            0 => {
                let lits = lits_of(clause_spec);
                solver.add_clause(&lits);
                mirror.clauses.push(lits);
            }
            1 if mirror.live_gates.len() < 4 => {
                mirror.live_gates.push(solver.new_group());
            }
            2 if !mirror.live_gates.is_empty() => {
                let g = mirror.live_gates[pick % mirror.live_gates.len()];
                let lits = lits_of(clause_spec);
                solver.add_clause_in_group(g, &lits);
                let mut gated = lits;
                gated.push(!g);
                mirror.clauses.push(gated);
            }
            3 => {
                // Assume a bitmask-chosen subset of the live gates.
                let assumptions: Vec<Lit> = mirror
                    .live_gates
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| pick & (1 << i) != 0)
                    .map(|(_, &g)| g)
                    .collect();
                check_solve(&mut solver, &mirror, &assumptions)?;
            }
            4 if !mirror.live_gates.is_empty() => {
                let g = mirror.live_gates.remove(pick % mirror.live_gates.len());
                solver.retire_group(g);
                mirror.clauses.push(vec![!g]);
            }
            5 => solver.collect_garbage(),
            _ => {}
        }
    }
    // Closing solves: all live gates on, then none.
    let gates = mirror.live_gates.clone();
    check_solve(&mut solver, &mirror, &gates)?;
    check_solve(&mut solver, &mirror, &[])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn gc_is_invisible_to_verdicts(script in proptest::collection::vec(op_strategy(), 1..40)) {
        if let Err(msg) = run_script(&script) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Deterministic end-to-end sweep: a long sequence of gated pigeonhole
/// generations (each retired after its verdict) must keep verdicts exact
/// while automatic GC actually fires and bounds the arena waste.
#[test]
#[allow(clippy::needless_range_loop)] // pigeonhole matrices read best indexed
fn retirement_heavy_ladder_triggers_gc_and_stays_sound() {
    let mut s = Solver::new();
    let holes = 5;
    let pigeons = holes + 1;
    let vars: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var().positive()).collect())
        .collect();
    for generation in 0..40 {
        let g = s.new_group();
        for p in 0..pigeons {
            s.add_clause_in_group(g, &vars[p].clone());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause_in_group(g, &[!vars[p1][h], !vars[p2][h]]);
                }
            }
        }
        assert_eq!(
            s.solve_with_assumptions(&[g]),
            SolveResult::Unsat,
            "generation {generation}"
        );
        assert!(
            s.final_conflict().contains(&!g),
            "the gated pigeonhole is what is contradictory"
        );
        assert!(s.retire_group(g));
    }
    let stats = s.stats();
    assert!(stats.gc_runs > 0, "40 retired generations must trigger GC");
    assert!(stats.lits_reclaimed > 0);
    assert!(
        stats.arena_wasted * 4 <= stats.arena_words.max(1),
        "post-sweep waste must stay bounded: {} of {} words dead",
        stats.arena_wasted,
        stats.arena_words
    );
    // And the solver is still fully functional.
    assert_eq!(s.solve(), SolveResult::Sat);
}
