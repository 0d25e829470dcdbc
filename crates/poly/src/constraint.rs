//! Linear constraints `expr >= 0` and `expr == 0`.

use crate::expr::{LinExpr, Var};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Kind of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ConstraintKind {
    /// `expr >= 0`
    GeqZero,
    /// `expr == 0`
    EqZero,
}

/// A single linear constraint over integer-valued variables.
///
/// Constraints are normalized on construction (coefficients divided by their
/// gcd with integer tightening, equalities sign-canonicalized) and carry
/// precomputed fingerprints of the normal form, so equality tests and dedup
/// scans cost O(1) per constraint instead of walking the term lists.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// The affine expression constrained against zero.
    pub expr: LinExpr,
    /// Whether this is an inequality or an equality.
    pub kind: ConstraintKind,
    /// FNV fingerprint of `(kind, terms, constant)` of the normal form.
    hash: u64,
    /// Fingerprint of the variable part (terms only, no constant/kind).
    vhash: u64,
    /// Fingerprint of the *negated* variable part: `a.nvhash() == b.vhash()`
    /// pre-filters "variable parts are exact negatives" pair checks.
    nvhash: u64,
}

impl PartialEq for Constraint {
    fn eq(&self, other: &Constraint) -> bool {
        self.hash == other.hash && self.kind == other.kind && self.expr == other.expr
    }
}

impl Eq for Constraint {}

impl PartialOrd for Constraint {
    fn partial_cmp(&self, other: &Constraint) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Constraint {
    fn cmp(&self, other: &Constraint) -> Ordering {
        self.expr.cmp(&other.expr).then(self.kind.cmp(&other.kind))
    }
}

impl Hash for Constraint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
pub(crate) fn fnv(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(FNV_PRIME)
}

#[inline]
fn var_word(v: Var) -> u64 {
    match v {
        Var::Dim(k) => u64::from(k),
        Var::Sym(id) => (1u64 << 40) | u64::from(id),
    }
}

impl Constraint {
    /// Seal a normalized `(expr, kind)` pair, computing the fingerprints.
    /// Every constructor funnels through here.
    fn finish(expr: LinExpr, kind: ConstraintKind) -> Constraint {
        let mut vh = FNV_OFFSET;
        let mut nvh = FNV_OFFSET;
        for (v, c) in expr.terms() {
            let w = var_word(v);
            vh = fnv(fnv(vh, w), c as u64);
            nvh = fnv(fnv(nvh, w), c.wrapping_neg() as u64);
        }
        let hash = fnv(fnv(vh, expr.constant_part() as u64), kind as u64);
        Constraint {
            expr,
            kind,
            hash,
            vhash: vh,
            nvhash: nvh,
        }
    }

    /// `expr >= 0`.
    pub fn geq0(expr: LinExpr) -> Self {
        Self::normalized(expr, ConstraintKind::GeqZero)
    }

    /// `expr == 0`.
    pub fn eq0(expr: LinExpr) -> Self {
        Self::normalized(expr, ConstraintKind::EqZero)
    }

    /// `lhs >= rhs`.
    pub fn geq(lhs: &LinExpr, rhs: &LinExpr) -> Self {
        Self::geq0(lhs.sub(rhs))
    }

    /// `lhs <= rhs`.
    pub fn leq(lhs: &LinExpr, rhs: &LinExpr) -> Self {
        Self::geq0(rhs.sub(lhs))
    }

    /// `lhs == rhs`.
    pub fn eq(lhs: &LinExpr, rhs: &LinExpr) -> Self {
        Self::eq0(lhs.sub(rhs))
    }

    /// `lhs < rhs` over the integers, i.e. `rhs - lhs - 1 >= 0`.
    pub fn lt(lhs: &LinExpr, rhs: &LinExpr) -> Self {
        Self::geq0(rhs.sub(lhs).offset(-1))
    }

    /// The precomputed fingerprint of the whole normal form.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.hash
    }

    /// The precomputed fingerprint of the variable part.
    pub(crate) fn vhash(&self) -> u64 {
        self.vhash
    }

    /// The precomputed fingerprint of the negated variable part.
    pub(crate) fn nvhash(&self) -> u64 {
        self.nvhash
    }

    /// Integer negation of this constraint.
    ///
    /// `¬(e >= 0)` is `-e - 1 >= 0`.  Equalities negate into a *disjunction*
    /// (`e >= 1 ∨ e <= -1`), so both branches are returned.
    pub fn negate(&self) -> Vec<Constraint> {
        match self.kind {
            ConstraintKind::GeqZero => vec![Constraint::geq0(self.expr.scale(-1).offset(-1))],
            ConstraintKind::EqZero => vec![
                Constraint::geq0(self.expr.clone().offset(-1)),
                Constraint::geq0(self.expr.scale(-1).offset(-1)),
            ],
        }
    }

    /// Normalize to canonical form: divide by the gcd of the variable
    /// coefficients, tightening the constant with floor division (valid over
    /// the integers), and orient equalities so their leading coefficient is
    /// positive (`x - y == 0` and `y - x == 0` become one form, so dedup
    /// unifies them).
    fn normalized(mut expr: LinExpr, kind: ConstraintKind) -> Self {
        let g = expr.coef_gcd();
        if g > 1 {
            match kind {
                ConstraintKind::GeqZero => {
                    // g | all coefs: (g·e' + c >= 0)  <=>  (e' + floor(c/g) >= 0)
                    let c = expr.constant_part();
                    expr = expr
                        .sub(&LinExpr::constant(c))
                        .scale_div(g)
                        .offset(c.div_euclid(g));
                }
                ConstraintKind::EqZero => {
                    let c = expr.constant_part();
                    if c % g == 0 {
                        expr = expr.sub(&LinExpr::constant(c)).scale_div(g).offset(c / g);
                    }
                    // If g does not divide c the equality is unsatisfiable;
                    // keep it as-is — emptiness detection will notice.
                }
            }
        }
        if kind == ConstraintKind::EqZero {
            let lead = expr.terms().next().map(|(_, c)| c);
            if lead.is_some_and(|c| c < 0) {
                expr = expr.scale(-1);
            }
        }
        Self::finish(expr, kind)
    }

    /// True when the constraint is trivially satisfied for any assignment.
    pub fn is_trivially_true(&self) -> bool {
        self.expr.is_constant()
            && match self.kind {
                ConstraintKind::GeqZero => self.expr.constant_part() >= 0,
                ConstraintKind::EqZero => self.expr.constant_part() == 0,
            }
    }

    /// True when the constraint can be proven unsatisfiable on its own.
    pub fn is_trivially_false(&self) -> bool {
        if self.expr.is_constant() {
            return match self.kind {
                ConstraintKind::GeqZero => self.expr.constant_part() < 0,
                ConstraintKind::EqZero => self.expr.constant_part() != 0,
            };
        }
        if self.kind == ConstraintKind::EqZero {
            let g = self.expr.coef_gcd();
            if g > 1 && self.expr.constant_part() % g != 0 {
                return true;
            }
        }
        false
    }

    /// Substitute `v := repl`.
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> Constraint {
        Self::normalized(self.expr.substitute(v, repl), self.kind)
    }

    /// Rename `from` to `to`.
    pub fn rename(&self, from: Var, to: Var) -> Constraint {
        Self::finish(self.expr.rename(from, to), self.kind)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ConstraintKind::GeqZero => write!(f, "{} >= 0", self.expr),
            ConstraintKind::EqZero => write!(f, "{} == 0", self.expr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32) -> Var {
        Var::Sym(id)
    }

    #[test]
    fn normalization_tightens_integer_bounds() {
        // 2x + 3 >= 0  =>  x >= -3/2  =>  x >= -1  =>  x + 1 >= 0
        let c = Constraint::geq0(LinExpr::term(s(0), 2).offset(3));
        assert_eq!(c.expr, LinExpr::var(s(0)).offset(1));
    }

    #[test]
    fn negate_geq() {
        // ¬(x - 1 >= 0) = (-x >= 0)  i.e.  x <= 0
        let c = Constraint::geq0(LinExpr::var(s(0)).offset(-1));
        let n = c.negate();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].expr, LinExpr::term(s(0), -1));
    }

    #[test]
    fn negate_eq_gives_two_branches() {
        let c = Constraint::eq0(LinExpr::var(s(0)));
        let n = c.negate();
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn trivial_detection() {
        assert!(Constraint::geq0(LinExpr::constant(0)).is_trivially_true());
        assert!(Constraint::geq0(LinExpr::constant(-1)).is_trivially_false());
        assert!(Constraint::eq0(LinExpr::constant(2)).is_trivially_false());
        // 2x + 1 == 0 has no integer solution.
        assert!(Constraint::eq0(LinExpr::term(s(0), 2).offset(1)).is_trivially_false());
    }

    #[test]
    fn geq_leq_lt_build_correct_exprs() {
        let x = LinExpr::var(s(0));
        let y = LinExpr::var(s(1));
        // x < y  ==>  y - x - 1 >= 0
        let c = Constraint::lt(&x, &y);
        assert_eq!(c.expr, y.sub(&x).offset(-1));
        let c2 = Constraint::leq(&x, &y);
        assert_eq!(c2.expr, y.sub(&x));
    }

    #[test]
    fn equalities_are_sign_canonical() {
        let x = LinExpr::var(s(0));
        let y = LinExpr::var(s(1));
        // x - y == 0 and y - x == 0 normalize to the same constraint.
        let a = Constraint::eq(&x, &y);
        let b = Constraint::eq(&y, &x);
        assert_eq!(a, b);
        assert!(a.expr.coef(s(0)) > 0);
    }

    #[test]
    fn fingerprints_track_equality() {
        let x = LinExpr::var(s(0));
        let y = LinExpr::var(s(1));
        let a = Constraint::geq(&x, &y.offset(1));
        let b = Constraint::geq0(x.sub(&y).offset(-1));
        assert_eq!(a, b);
        assert_eq!(a.hash, b.hash);
        // Same variable part, different constant: vhash matches, hash not.
        let c = Constraint::geq(&x, &y.offset(5));
        assert_eq!(a.vhash(), c.vhash());
        assert_ne!(a.hash, c.hash);
        // Opposite variable parts link through nvhash.
        let d = Constraint::geq(&y, &x);
        assert_eq!(a.nvhash(), d.vhash());
    }
}
