//! # satmapit-sat
//!
//! A from-scratch conflict-driven clause-learning (CDCL) SAT solver, built
//! as the decision engine for the SAT-MapIt CGRA mapper (DATE 2023). The
//! paper delegates its CNF formulation to Z3; this crate provides an
//! equivalent complete SAT back-end so that the whole toolchain is
//! self-contained.
//!
//! The crate is usable as a general-purpose SAT library:
//!
//! * [`CnfFormula`] — a solver-independent clause container with DIMACS
//!   import/export,
//! * [`Solver`] — the CDCL engine (watched literals, VSIDS + phase saving,
//!   1-UIP learning with minimization, Luby restarts, clause-DB reduction,
//!   assumptions, a wall-clock deadline, and assumption-gated clause
//!   groups for incremental solving — see the [`solver`](Solver) module
//!   docs for the activation-literal lifecycle and the
//!   [`Solver::final_conflict`] failed-assumption-core contract),
//! * [`encode`] — cardinality encodings (pairwise / sequential
//!   at-most-one, sequential-counter at-most-k) used by the mapper's C1/C2
//!   constraint families,
//! * [`mod@counters`] — the declare-once table behind [`SolverStats`] (and the
//!   engine's solve and cache statistics): deltas, folds, persistence and
//!   reporting all walk it,
//! * [`brute`] — an exhaustive oracle used by the property-test suite.
//!
//! ## Example
//!
//! ```
//! use satmapit_sat::{CnfFormula, Solver, SolveResult, encode};
//!
//! let mut f = CnfFormula::new();
//! let lits: Vec<_> = (0..4).map(|_| f.new_var().positive()).collect();
//! encode::exactly_one(&mut f, &lits, encode::AmoEncoding::Auto);
//!
//! let mut solver = Solver::from_cnf(&f);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! let model = solver.model().unwrap();
//! let true_count = lits
//!     .iter()
//!     .filter(|l| model[l.var().index()])
//!     .count();
//! assert_eq!(true_count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod brute;
mod cnf;
pub mod counters;
pub mod encode;
mod heap;
mod luby;
mod solver;
mod types;

pub use cnf::{CnfFormula, ParseDimacsError, ParseDimacsErrorKind};
pub use counters::{CounterKind, Counters};
pub use luby::luby;
pub use solver::{
    SolveLimits, SolveResult, Solver, SolverOptions, SolverStats, StopReason, LIMIT_POLL_INTERVAL,
};
pub use types::{LBool, Lit, Var};
