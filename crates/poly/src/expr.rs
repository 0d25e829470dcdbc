//! Affine (linear + constant) integer expressions over symbolic variables.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A variable appearing in a linear expression.
///
/// Two name spaces exist:
/// * `Dim(k)` — the `k`-th dimension variable of an array section (the
///   paper's `d0..dn`), always bound by the section itself;
/// * `Sym(id)` — a free symbolic variable: a loop index, a formal parameter,
///   or a symbolic constant of the surrounding program.  The meaning of `id`
///   is owned by the client (the analysis crate maps IR variable ids here).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Var {
    /// Array dimension variable `d<k>`.
    Dim(u8),
    /// Free symbolic variable with a client-defined identity.
    Sym(u32),
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Var::Dim(k) => write!(f, "d{k}"),
            Var::Sym(s) => write!(f, "s{s}"),
        }
    }
}

/// Inline capacity of a [`LinExpr`]'s term list.  Dependence systems are
/// dominated by 1–3 term expressions (`d0 - i1 + c` and friends), so four
/// inline slots cover almost every expression without touching the heap.
const INLINE_TERMS: usize = 4;

/// Sorted `(var, coefficient)` list: inline up to [`INLINE_TERMS`] entries,
/// spilling to the heap beyond.  Terms are kept sorted by [`Var`] with no
/// zero coefficients, so slice comparison is semantic comparison.
#[derive(Clone)]
enum Terms {
    Inline {
        len: u8,
        buf: [(Var, i64); INLINE_TERMS],
    },
    Heap(Vec<(Var, i64)>),
}

impl Terms {
    const EMPTY_SLOT: (Var, i64) = (Var::Dim(0), 0);

    fn new() -> Terms {
        Terms::Inline {
            len: 0,
            buf: [Self::EMPTY_SLOT; INLINE_TERMS],
        }
    }

    fn as_slice(&self) -> &[(Var, i64)] {
        match self {
            Terms::Inline { len, buf } => &buf[..*len as usize],
            Terms::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(Var, i64)] {
        match self {
            Terms::Inline { len, buf } => &mut buf[..*len as usize],
            Terms::Heap(v) => v,
        }
    }

    /// Append a term; `v` must sort after every stored var and `c` must be
    /// non-zero (the merge loops below guarantee both).
    fn push(&mut self, v: Var, c: i64) {
        debug_assert!(c != 0);
        debug_assert!(self.as_slice().last().is_none_or(|&(lv, _)| lv < v));
        match self {
            Terms::Inline { len, buf } => {
                if (*len as usize) < INLINE_TERMS {
                    buf[*len as usize] = (v, c);
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(INLINE_TERMS * 2);
                    heap.extend_from_slice(buf);
                    heap.push((v, c));
                    *self = Terms::Heap(heap);
                }
            }
            Terms::Heap(h) => h.push((v, c)),
        }
    }
}

impl Default for Terms {
    fn default() -> Terms {
        Terms::new()
    }
}

impl fmt::Debug for Terms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.as_slice().iter().map(|&(v, c)| (v, c)))
            .finish()
    }
}

/// An affine expression `c + Σ a_i · v_i` with `i64` coefficients.
///
/// Coefficients of value zero are never stored and terms are kept sorted by
/// variable, so structural equality is semantic equality.
#[derive(Clone, Debug, Default)]
pub struct LinExpr {
    terms: Terms,
    constant: i64,
}

impl PartialEq for LinExpr {
    fn eq(&self, other: &LinExpr) -> bool {
        self.constant == other.constant && self.terms.as_slice() == other.terms.as_slice()
    }
}

impl Eq for LinExpr {}

impl PartialOrd for LinExpr {
    fn partial_cmp(&self, other: &LinExpr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LinExpr {
    fn cmp(&self, other: &LinExpr) -> Ordering {
        self.terms
            .as_slice()
            .cmp(other.terms.as_slice())
            .then(self.constant.cmp(&other.constant))
    }
}

impl Hash for LinExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.terms.as_slice().hash(state);
        self.constant.hash(state);
    }
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        Self {
            terms: Terms::new(),
            constant: c,
        }
    }

    /// The expression `1 · v`.
    pub fn var(v: Var) -> Self {
        Self::term(v, 1)
    }

    /// The expression `coef · v`.
    pub fn term(v: Var, coef: i64) -> Self {
        let mut terms = Terms::new();
        if coef != 0 {
            terms.push(v, coef);
        }
        Self { terms, constant: 0 }
    }

    /// The expression `constant + Σ coef · v` built in one pass from terms
    /// already in canonical form: strictly ascending variables, no zero
    /// coefficient.  `None` if the terms are in any other form.
    pub fn from_sorted_terms(
        constant: i64,
        terms: impl IntoIterator<Item = (Var, i64)>,
    ) -> Option<LinExpr> {
        let mut out = Terms::new();
        for (v, c) in terms {
            if c == 0 || out.as_slice().last().is_some_and(|&(last, _)| last >= v) {
                return None;
            }
            out.push(v, c);
        }
        Some(LinExpr {
            terms: out,
            constant,
        })
    }

    /// The constant part.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coef(&self, v: Var) -> i64 {
        let s = self.terms.as_slice();
        if s.len() <= 8 {
            s.iter()
                .find(|&&(w, _)| w == v)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        } else {
            match s.binary_search_by(|&(w, _)| w.cmp(&v)) {
                Ok(i) => s[i].1,
                Err(_) => 0,
            }
        }
    }

    /// Iterate over the `(var, coef)` terms with non-zero coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (Var, i64)> + '_ {
        self.terms.as_slice().iter().copied()
    }

    /// True if the expression is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.as_slice().is_empty()
    }

    /// True if the expression is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.is_constant() && self.constant == 0
    }

    /// Number of variables with non-zero coefficients.
    pub fn num_vars(&self) -> usize {
        self.terms.as_slice().len()
    }

    /// True if `v` occurs with a non-zero coefficient.
    pub fn mentions(&self, v: Var) -> bool {
        self.coef(v) != 0
    }

    /// All variables occurring in the expression.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.as_slice().iter().map(|&(v, _)| v)
    }

    /// Add two expressions (sorted-merge of the term lists).
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let constant = self.constant.saturating_add(other.constant);
        let a = self.terms.as_slice();
        let b = other.terms.as_slice();
        if b.is_empty() {
            return LinExpr {
                terms: self.terms.clone(),
                constant,
            };
        }
        if a.is_empty() {
            return LinExpr {
                terms: other.terms.clone(),
                constant,
            };
        }
        let mut terms = Terms::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (va, ca) = a[i];
            let (vb, cb) = b[j];
            match va.cmp(&vb) {
                Ordering::Less => {
                    terms.push(va, ca);
                    i += 1;
                }
                Ordering::Greater => {
                    terms.push(vb, cb);
                    j += 1;
                }
                Ordering::Equal => {
                    let c = ca.saturating_add(cb);
                    if c != 0 {
                        terms.push(va, c);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        for &(v, c) in &a[i..] {
            terms.push(v, c);
        }
        for &(v, c) in &b[j..] {
            terms.push(v, c);
        }
        LinExpr { terms, constant }
    }

    /// Subtract `other` from `self`.
    ///
    /// A direct sorted-merge with saturating negation — bit-identical to
    /// `add(&other.scale(-1))` (`saturating_neg` and `saturating_mul(-1)`
    /// agree on every `i64`) without materializing the negated temporary.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        let constant = self
            .constant
            .saturating_add(other.constant.saturating_neg());
        let b = other.terms.as_slice();
        if b.is_empty() {
            return LinExpr {
                terms: self.terms.clone(),
                constant,
            };
        }
        let a = self.terms.as_slice();
        let mut terms = Terms::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (va, ca) = a[i];
            let (vb, cb) = b[j];
            match va.cmp(&vb) {
                Ordering::Less => {
                    terms.push(va, ca);
                    i += 1;
                }
                Ordering::Greater => {
                    terms.push(vb, cb.saturating_neg());
                    j += 1;
                }
                Ordering::Equal => {
                    let c = ca.saturating_add(cb.saturating_neg());
                    if c != 0 {
                        terms.push(va, c);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        for &(v, c) in &a[i..] {
            terms.push(v, c);
        }
        for &(v, c) in &b[j..] {
            terms.push(v, c.saturating_neg());
        }
        LinExpr { terms, constant }
    }

    /// Multiply by a constant.
    pub fn scale(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        let mut out = self.clone();
        for t in out.terms.as_mut_slice() {
            t.1 = t.1.saturating_mul(k);
        }
        out.constant = self.constant.saturating_mul(k);
        out
    }

    /// Add a constant offset.
    pub fn offset(&self, k: i64) -> LinExpr {
        let mut out = self.clone();
        out.constant = out.constant.saturating_add(k);
        out
    }

    /// Remove the `v` term, leaving everything else untouched.
    fn without(&self, v: Var) -> LinExpr {
        let mut terms = Terms::new();
        for &(w, c) in self.terms.as_slice() {
            if w != v {
                terms.push(w, c);
            }
        }
        LinExpr {
            terms,
            constant: self.constant,
        }
    }

    /// Substitute `v := repl` throughout.
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> LinExpr {
        let c = self.coef(v);
        if c == 0 {
            return self.clone();
        }
        self.without(v).add(&repl.scale(c))
    }

    /// Rename variable `from` to `to`.  `to` must not already occur.
    pub fn rename(&self, from: Var, to: Var) -> LinExpr {
        self.substitute(from, &LinExpr::var(to))
    }

    /// Greatest common divisor of all variable coefficients (0 if constant).
    pub fn coef_gcd(&self) -> i64 {
        self.terms
            .as_slice()
            .iter()
            .fold(0i64, |g, &(_, c)| gcd(g, c.abs()))
    }

    /// Divide every coefficient (not the constant) by `g`; caller guarantees
    /// divisibility of the coefficients.
    pub(crate) fn scale_div(&self, g: i64) -> LinExpr {
        debug_assert!(g > 0);
        let mut out = self.clone();
        for t in out.terms.as_mut_slice() {
            debug_assert_eq!(t.1 % g, 0);
            t.1 /= g;
        }
        out.constant = self.constant / g;
        out
    }

    /// Evaluate under a full assignment; `None` if some variable is unbound.
    pub fn eval(&self, env: &dyn Fn(Var) -> Option<i64>) -> Option<i64> {
        let mut acc = self.constant;
        for (v, c) in self.terms() {
            acc = acc.checked_add(c.checked_mul(env(v)?)?)?;
        }
        Some(acc)
    }
}

/// gcd with `gcd(0, x) = x`.
pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else if c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}{v}")?;
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32) -> Var {
        Var::Sym(id)
    }

    #[test]
    fn zero_coefficients_are_not_stored() {
        let e = LinExpr::term(s(1), 2).add(&LinExpr::term(s(1), -2));
        assert!(e.is_zero());
        assert_eq!(e.num_vars(), 0);
    }

    #[test]
    fn add_sub_scale() {
        let e = LinExpr::var(s(0)).add(&LinExpr::constant(3));
        let f = e.scale(2); // 2*s0 + 6
        assert_eq!(f.coef(s(0)), 2);
        assert_eq!(f.constant_part(), 6);
        let g = f.sub(&e); // s0 + 3
        assert_eq!(g, e);
    }

    #[test]
    fn substitute_replaces_all_occurrences() {
        // 3*s0 + s1 + 1 with s0 := s2 - 2  =>  3*s2 + s1 - 5
        let e = LinExpr::term(s(0), 3).add(&LinExpr::var(s(1))).offset(1);
        let repl = LinExpr::var(s(2)).offset(-2);
        let out = e.substitute(s(0), &repl);
        assert_eq!(out.coef(s(2)), 3);
        assert_eq!(out.coef(s(1)), 1);
        assert_eq!(out.coef(s(0)), 0);
        assert_eq!(out.constant_part(), -5);
    }

    #[test]
    fn eval_respects_env() {
        let e = LinExpr::term(s(0), 2)
            .add(&LinExpr::term(s(1), -1))
            .offset(7);
        let v = e.eval(&|v| match v {
            Var::Sym(0) => Some(5),
            Var::Sym(1) => Some(3),
            _ => None,
        });
        assert_eq!(v, Some(2 * 5 - 3 + 7));
        let unbound = e.eval(&|_| None);
        assert_eq!(unbound, None);
    }

    #[test]
    fn display_is_readable() {
        let e = LinExpr::term(s(0), 2)
            .add(&LinExpr::term(Var::Dim(0), -1))
            .offset(-4);
        assert_eq!(format!("{e}"), "-d0 + 2s0 - 4");
    }

    #[test]
    fn gcd_of_coefs() {
        let e = LinExpr::term(s(0), 6).add(&LinExpr::term(s(1), -9));
        assert_eq!(e.coef_gcd(), 3);
        assert_eq!(LinExpr::constant(5).coef_gcd(), 0);
    }

    #[test]
    fn heap_spill_preserves_order_and_equality() {
        // Five terms spill past the inline capacity of four.
        let mut e = LinExpr::zero();
        for id in (0..5u32).rev() {
            e = e.add(&LinExpr::term(s(id), id as i64 + 1));
        }
        assert_eq!(e.num_vars(), 5);
        let got: Vec<Var> = e.vars().collect();
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted);
        // Building in ascending order yields the identical expression.
        let mut f = LinExpr::zero();
        for id in 0..5u32 {
            f = f.add(&LinExpr::term(s(id), id as i64 + 1));
        }
        assert_eq!(e, f);
        // Cancelling one spilled term drops back to four live terms.
        let g = e.add(&LinExpr::term(s(4), -5));
        assert_eq!(g.num_vars(), 4);
        assert!(!g.mentions(s(4)));
    }

    #[test]
    fn from_sorted_terms_accepts_only_the_canonical_form() {
        let e = LinExpr::from_sorted_terms(3, (0..6u32).map(|id| (s(id), id as i64 + 1)));
        let mut want = LinExpr::constant(3);
        for id in 0..6u32 {
            want = want.add(&LinExpr::term(s(id), id as i64 + 1));
        }
        assert_eq!(e, Some(want));
        assert_eq!(LinExpr::from_sorted_terms(0, []), Some(LinExpr::zero()));
        // Out of order, repeated, or a zero coefficient: not canonical.
        assert_eq!(LinExpr::from_sorted_terms(0, [(s(2), 1), (s(1), 1)]), None);
        assert_eq!(LinExpr::from_sorted_terms(0, [(s(1), 1), (s(1), 2)]), None);
        assert_eq!(LinExpr::from_sorted_terms(0, [(s(1), 0)]), None);
    }
}
