//! Fundamental SAT types: variables, literals and the three-valued
//! assignment domain.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Not;

/// A propositional variable, identified by a dense zero-based index.
///
/// Variables are created through [`crate::CnfFormula::new_var`] or
/// [`crate::Solver::new_var`]; their index is stable for the lifetime of the
/// formula/solver.
///
/// ```
/// use satmapit_sat::Var;
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from its dense index.
    pub fn new(index: u32) -> Var {
        Var(index)
    }

    /// The dense index of this variable, suitable for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Internally encoded as `2 * var + (negated as u32)` so that literals can
/// index arrays of size `2 * num_vars` via [`Lit::code`], and negation is a
/// single XOR.
///
/// ```
/// use satmapit_sat::{Lit, Var};
/// let v = Var::new(7);
/// let p = Lit::new(v, true);
/// assert!(p.is_positive());
/// assert_eq!((!p).var(), v);
/// assert!(!(!p).is_positive());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal over `var`; `positive` selects the polarity.
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// The variable underlying this literal.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is the positive (non-negated) literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The same literal over the variable `vars` indices further up — how
    /// a formula over its own variables `0..n` is placed at a base offset
    /// inside a longer-lived solver.
    pub fn shifted_by(self, vars: u32) -> Lit {
        Lit(self.0 + (vars << 1))
    }

    /// Dense code in `0..2*num_vars`, suitable for watch-list indexing.
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its [`Lit::code`].
    ///
    /// # Panics
    ///
    /// Never panics, but passing a code not produced by [`Lit::code`] yields
    /// an unrelated literal.
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Converts from a DIMACS-style non-zero integer (`-3` is `¬v2`).
    ///
    /// Returns `None` for `0`.
    pub fn from_dimacs(value: i64) -> Option<Lit> {
        if value == 0 {
            return None;
        }
        let var = Var::new((value.unsigned_abs() - 1) as u32);
        Some(Lit::new(var, value > 0))
    }

    /// Converts to the DIMACS representation (1-based, sign = polarity).
    pub fn to_dimacs(self) -> i64 {
        let v = i64::from(self.0 >> 1) + 1;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.0 >> 1)
        } else {
            write!(f, "!v{}", self.0 >> 1)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Three-valued assignment domain used during search.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned false.
    False,
    /// Assigned true.
    True,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Lifts a concrete boolean.
    pub fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// `true` iff assigned (either polarity).
    pub fn is_assigned(self) -> bool {
        self != LBool::Undef
    }

    /// Logical negation; `Undef` stays `Undef`.
    pub fn negate(self) -> LBool {
        match self {
            LBool::False => LBool::True,
            LBool::True => LBool::False,
            LBool::Undef => LBool::Undef,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_encoding_round_trips() {
        for idx in [0u32, 1, 2, 17, 1000] {
            let v = Var::new(idx);
            let p = v.positive();
            let n = v.negative();
            assert_eq!(p.var(), v);
            assert_eq!(n.var(), v);
            assert!(p.is_positive());
            assert!(!n.is_positive());
            assert_eq!(!p, n);
            assert_eq!(!n, p);
            assert_eq!(Lit::from_code(p.code()), p);
        }
    }

    #[test]
    fn dimacs_round_trips() {
        for value in [-5i64, -1, 1, 2, 42] {
            let lit = Lit::from_dimacs(value).unwrap();
            assert_eq!(lit.to_dimacs(), value);
        }
        assert!(Lit::from_dimacs(0).is_none());
    }

    #[test]
    fn lbool_negation() {
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::False.negate(), LBool::True);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert!(LBool::True.is_assigned());
        assert!(!LBool::Undef.is_assigned());
    }

    #[test]
    fn adjacent_lit_codes_share_var() {
        let v = Var::new(9);
        assert_eq!(v.positive().code() / 2, v.index());
        assert_eq!(v.negative().code() / 2, v.index());
        assert_ne!(v.positive().code(), v.negative().code());
    }
}
