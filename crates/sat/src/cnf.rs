//! Solver-independent CNF container and DIMACS serialization.

use crate::types::{Lit, Var};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{BufRead, Write};

/// A formula in conjunctive normal form: a variable pool plus a clause list.
///
/// `CnfFormula` is the hand-off type between constraint *generation* (see
/// `satmapit-core`) and constraint *solving* ([`crate::Solver`]). It imposes
/// no invariants beyond literals referring to allocated variables, which is
/// checked on insertion.
///
/// The store is flat: every clause's literals sit back to back in one
/// buffer and a second one holds each clause's end offset, so adding a
/// clause allocates nothing (amortised) and a formula of millions of
/// clauses is two allocations, not one per clause.
///
/// ```
/// use satmapit_sat::{CnfFormula, Solver, SolveResult};
/// let mut f = CnfFormula::new();
/// let a = f.new_var().positive();
/// let b = f.new_var().positive();
/// f.add_clause(&[a, b]);
/// f.add_clause(&[!a]);
/// let mut solver = Solver::from_cnf(&f);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// assert!(solver.model().unwrap()[b.var().index()]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CnfFormula {
    num_vars: usize,
    /// The literals of every clause, in insertion order, back to back.
    lits: Vec<Lit>,
    /// `ends[i]` is the offset in `lits` one past clause `i`'s last
    /// literal (clause `i` starts where clause `i - 1` ends, the first
    /// one at 0).
    ends: Vec<u32>,
}

impl CnfFormula {
    /// Creates an empty formula with no variables.
    pub fn new() -> CnfFormula {
        CnfFormula::default()
    }

    /// Creates an empty formula with `n` pre-allocated variables.
    pub fn with_vars(n: usize) -> CnfFormula {
        CnfFormula {
            num_vars: n,
            ..CnfFormula::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables and returns the first one.
    pub fn new_vars(&mut self, n: usize) -> Var {
        let first = Var::new(self.num_vars as u32);
        self.num_vars += n;
        first
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Total number of literal occurrences across all clauses.
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// The empty clause is representable and makes the formula unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that was never allocated,
    /// or if the formula would exceed 2^32 literal occurrences.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        for lit in lits {
            assert!(
                lit.var().index() < self.num_vars,
                "literal {lit} out of range: formula has {} vars",
                self.num_vars
            );
        }
        self.lits.extend_from_slice(lits);
        self.close_clause();
    }

    /// Ends the clause whose literals were just appended to `lits`.
    fn close_clause(&mut self) {
        // Clause ends are u32 offsets: past 2^32 literals a new end would
        // silently wrap into an earlier clause. Fail loudly instead — the
        // check is one compare per clause.
        assert!(
            self.lits.len() <= u32::MAX as usize,
            "formula exceeds the 2^32-literal clause offset space"
        );
        self.ends.push(self.lits.len() as u32);
    }

    /// Iterates over the clauses, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[Lit]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let clause = &self.lits[start..end as usize];
            start = end as usize;
            clause
        })
    }

    /// Evaluates the formula under a complete assignment
    /// (`assignment[v.index()]` is the value of variable `v`).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.num_vars()`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars);
        self.iter().all(|clause| {
            clause
                .iter()
                .any(|lit| assignment[lit.var().index()] == lit.is_positive())
        })
    }

    /// Serializes in DIMACS CNF format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_dimacs<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(writer, "p cnf {} {}", self.num_vars, self.num_clauses())?;
        for clause in self.iter() {
            for lit in clause {
                write!(writer, "{} ", lit.to_dimacs())?;
            }
            writeln!(writer, "0")?;
        }
        Ok(())
    }

    /// Parses a DIMACS CNF file. Comment lines (`c ...`) are skipped; the
    /// problem line is optional (variables are grown on demand).
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] on malformed input or I/O failure.
    pub fn parse_dimacs<R: BufRead>(reader: R) -> Result<CnfFormula, ParseDimacsError> {
        let mut formula = CnfFormula::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| ParseDimacsError {
                line: lineno + 1,
                kind: ParseDimacsErrorKind::Io(e.to_string()),
            })?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
                continue;
            }
            if trimmed.starts_with('p') {
                let mut parts = trimmed.split_whitespace().skip(2);
                if let Some(nv) = parts.next() {
                    let nv: usize = nv.parse().map_err(|_| ParseDimacsError {
                        line: lineno + 1,
                        kind: ParseDimacsErrorKind::BadHeader,
                    })?;
                    if nv > formula.num_vars {
                        formula.num_vars = nv;
                    }
                }
                continue;
            }
            for tok in trimmed.split_whitespace() {
                let value: i64 = tok.parse().map_err(|_| ParseDimacsError {
                    line: lineno + 1,
                    kind: ParseDimacsErrorKind::BadLiteral(tok.to_string()),
                })?;
                match Lit::from_dimacs(value) {
                    Some(lit) => {
                        if lit.var().index() >= formula.num_vars {
                            formula.num_vars = lit.var().index() + 1;
                        }
                        formula.lits.push(lit);
                    }
                    None => formula.close_clause(),
                }
            }
        }
        // A last clause without its terminating 0 still counts.
        if formula.lits.len() > formula.ends.last().map_or(0, |&end| end as usize) {
            formula.close_clause();
        }
        Ok(formula)
    }
}

/// Error produced by [`CnfFormula::parse_dimacs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line number of the offending input line.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseDimacsErrorKind,
}

/// Failure category for [`ParseDimacsError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDimacsErrorKind {
    /// Malformed `p cnf` header.
    BadHeader,
    /// Token was not a valid integer literal.
    BadLiteral(String),
    /// Underlying I/O failure.
    Io(String),
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseDimacsErrorKind::BadHeader => {
                write!(f, "malformed problem header on line {}", self.line)
            }
            ParseDimacsErrorKind::BadLiteral(tok) => {
                write!(f, "invalid literal `{tok}` on line {}", self.line)
            }
            ParseDimacsErrorKind::Io(e) => write!(f, "i/o error on line {}: {e}", self.line),
        }
    }
}

impl std::error::Error for ParseDimacsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause(&[a.positive(), b.positive()]);
        f.add_clause(&[a.negative(), b.negative()]);
        assert_eq!(f.num_vars(), 2);
        assert_eq!(f.num_clauses(), 2);
        assert!(f.eval(&[true, false]));
        assert!(f.eval(&[false, true]));
        assert!(!f.eval(&[true, true]));
        assert!(!f.eval(&[false, false]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_literal_panics() {
        let mut f = CnfFormula::new();
        f.add_clause(&[Var::new(0).positive()]);
    }

    #[test]
    fn empty_clause_falsifies() {
        let mut f = CnfFormula::new();
        let _ = f.new_var();
        f.add_clause(&[]);
        assert!(!f.eval(&[true]));
    }

    #[test]
    fn dimacs_round_trip() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        let c = f.new_var();
        f.add_clause(&[a.positive(), b.negative()]);
        f.add_clause(&[c.positive()]);
        f.add_clause(&[a.negative(), b.positive(), c.negative()]);

        let mut buf = Vec::new();
        f.write_dimacs(&mut buf).unwrap();
        let parsed = CnfFormula::parse_dimacs(buf.as_slice()).unwrap();
        assert_eq!(parsed, f);
    }

    /// Duplicates, a tautology, a unit and an empty clause, in that mix.
    fn awkward() -> CnfFormula {
        let x = |v: u32, positive: bool| Lit::new(Var::new(v), positive);
        let mut f = CnfFormula::with_vars(5);
        f.add_clause(&[x(0, true), x(1, false)]);
        f.add_clause(&[]);
        f.add_clause(&[x(2, true)]);
        f.add_clause(&[x(0, false), x(1, true), x(4, false), x(4, true)]);
        f.add_clause(&[x(3, true), x(3, true)]);
        f
    }

    #[test]
    fn iter_yields_every_clause_as_a_slice_in_order() {
        assert_eq!(CnfFormula::with_vars(3).iter().count(), 0);
        let mut only_empty = CnfFormula::new();
        only_empty.add_clause(&[]);
        only_empty.add_clause(&[]);
        assert_eq!(only_empty.iter().collect::<Vec<_>>(), [&[][..], &[][..]]);

        let f = awkward();
        let lens: Vec<usize> = f.iter().map(<[Lit]>::len).collect();
        assert_eq!(lens, [2, 0, 1, 4, 2]);
        assert_eq!(f.num_clauses(), 5);
        assert_eq!(f.num_literals(), 9);
        assert_eq!(f.iter().nth(2).unwrap(), &[Var::new(2).positive()][..]);
        assert!(!f.eval(&[true; 5]), "the empty clause falsifies");
    }

    #[test]
    fn dimacs_round_trips_empty_clauses_and_an_unterminated_tail() {
        let f = awkward();
        let mut buf = Vec::new();
        f.write_dimacs(&mut buf).unwrap();
        assert_eq!(CnfFormula::parse_dimacs(buf.as_slice()).unwrap(), f);

        let tail = CnfFormula::parse_dimacs("1 -2 0\n0\n3 -1".as_bytes()).unwrap();
        let lens: Vec<usize> = tail.iter().map(<[Lit]>::len).collect();
        assert_eq!(lens, [2, 0, 2]);
    }

    #[test]
    fn dimacs_parses_comments_and_header() {
        let text = "c a comment\np cnf 3 2\n1 -2 0\n3 0\n";
        let f = CnfFormula::parse_dimacs(text.as_bytes()).unwrap();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
    }

    #[test]
    fn dimacs_rejects_garbage() {
        let text = "1 x 0\n";
        let err = CnfFormula::parse_dimacs(text.as_bytes()).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, ParseDimacsErrorKind::BadLiteral(_)));
    }

    #[test]
    fn new_vars_bulk_allocation() {
        let mut f = CnfFormula::new();
        let first = f.new_vars(5);
        assert_eq!(first.index(), 0);
        assert_eq!(f.num_vars(), 5);
        let next = f.new_var();
        assert_eq!(next.index(), 5);
    }
}
