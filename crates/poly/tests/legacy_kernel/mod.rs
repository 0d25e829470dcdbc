//! The pre-overhaul polyhedral kernel, kept as an executable reference.
//!
//! This module preserves the kernel the overhaul replaced — `BTreeMap`-backed
//! expressions, no precomputed fingerprints, O(n²) subtraction-driven
//! simplification, fewest-occurrences Fourier–Motzkin elimination order, no
//! staged emptiness ladder and no memo — ported verbatim from the
//! pre-overhaul sources.
//!
//! It is a test oracle, not a mode of the library: both kernels answer the
//! same question ("provably empty over ℤ?"), so `prop_linexpr.rs` compares
//! their verdicts on random systems by calling [`prove_empty_of`] directly;
//! divergence is only legal where the staged ladder is strictly more
//! precise.  It reads the library's kernel only through `Polyhedron`'s
//! public accessors.

use std::collections::{BTreeMap, BTreeSet};
use suif_poly::{ConstraintKind, Var, MAX_CONSTRAINTS};

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The pre-overhaul affine expression: a `BTreeMap` of terms, heap-allocated
/// per expression, with no inline storage and no fingerprints.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct LinExpr {
    terms: BTreeMap<Var, i64>,
    constant: i64,
}

impl LinExpr {
    fn constant(c: i64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    fn var(v: Var) -> Self {
        Self::term(v, 1)
    }

    fn term(v: Var, coef: i64) -> Self {
        let mut terms = BTreeMap::new();
        if coef != 0 {
            terms.insert(v, coef);
        }
        LinExpr { terms, constant: 0 }
    }

    fn constant_part(&self) -> i64 {
        self.constant
    }

    fn coef(&self, v: Var) -> i64 {
        self.terms.get(&v).copied().unwrap_or(0)
    }

    fn terms(&self) -> impl Iterator<Item = (Var, i64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    fn num_vars(&self) -> usize {
        self.terms.len()
    }

    fn mentions(&self, v: Var) -> bool {
        self.terms.contains_key(&v)
    }

    fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.keys().copied()
    }

    fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.constant = out.constant.saturating_add(other.constant);
        for (v, c) in other.terms() {
            let e = out.terms.entry(v).or_insert(0);
            *e = e.saturating_add(c);
            if *e == 0 {
                out.terms.remove(&v);
            }
        }
        out
    }

    fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(-1))
    }

    fn scale(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::default();
        }
        LinExpr {
            terms: self
                .terms
                .iter()
                .map(|(&v, &c)| (v, c.saturating_mul(k)))
                .collect(),
            constant: self.constant.saturating_mul(k),
        }
    }

    fn substitute(&self, v: Var, repl: &LinExpr) -> LinExpr {
        let c = self.coef(v);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(&v);
        out.add(&repl.scale(c))
    }

    fn coef_gcd(&self) -> i64 {
        self.terms.values().fold(0i64, |g, &c| gcd(g, c.abs()))
    }

    /// Divide every coefficient by `g`; caller guarantees divisibility.
    fn scale_div(&self, g: i64) -> LinExpr {
        debug_assert!(g > 0);
        let mut out = LinExpr::constant(self.constant_part() / g);
        for (v, c) in self.terms() {
            debug_assert_eq!(c % g, 0);
            out = out.add(&LinExpr::term(v, c / g));
        }
        out
    }

    fn offset(&self, k: i64) -> LinExpr {
        let mut out = self.clone();
        out.constant = out.constant.saturating_add(k);
        out
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
struct Constraint {
    expr: LinExpr,
    kind: ConstraintKind,
}

impl Constraint {
    fn geq0(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::GeqZero,
        }
        .normalized()
    }

    fn eq(lhs: &LinExpr, rhs: &LinExpr) -> Self {
        Constraint {
            expr: lhs.sub(rhs),
            kind: ConstraintKind::EqZero,
        }
        .normalized()
    }

    /// Normalize: divide by the gcd of the variable coefficients, tightening
    /// the constant with floor division (valid over the integers).
    fn normalized(mut self) -> Self {
        let g = self.expr.coef_gcd();
        if g > 1 {
            match self.kind {
                ConstraintKind::GeqZero => {
                    let c = self.expr.constant_part();
                    let mut e = self.expr.sub(&LinExpr::constant(c)).scale_div(g);
                    e = e.offset(c.div_euclid(g));
                    self.expr = e;
                }
                ConstraintKind::EqZero => {
                    let c = self.expr.constant_part();
                    if c % g == 0 {
                        self.expr = self
                            .expr
                            .sub(&LinExpr::constant(c))
                            .scale_div(g)
                            .offset(c / g);
                    }
                    // g ∤ c: unsatisfiable; kept as-is for the emptiness
                    // machinery to notice.
                }
            }
        }
        self
    }

    fn is_trivially_true(&self) -> bool {
        self.expr.is_constant()
            && match self.kind {
                ConstraintKind::GeqZero => self.expr.constant_part() >= 0,
                ConstraintKind::EqZero => self.expr.constant_part() == 0,
            }
    }

    fn is_trivially_false(&self) -> bool {
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

    fn substitute(&self, v: Var, repl: &LinExpr) -> Constraint {
        Constraint {
            expr: self.expr.substitute(v, repl),
            kind: self.kind,
        }
        .normalized()
    }
}

fn neg_var_parts(a: &LinExpr, b: &LinExpr) -> bool {
    a.num_vars() == b.num_vars()
        && a.terms()
            .zip(b.terms())
            .all(|((va, ca), (vb, cb))| va == vb && ca == cb.saturating_neg())
}

#[derive(Clone, Debug)]
struct Polyhedron {
    constraints: Vec<Constraint>,
    empty: bool,
    approximate: bool,
}

impl Polyhedron {
    fn universe() -> Self {
        Polyhedron {
            constraints: Vec::new(),
            empty: false,
            approximate: false,
        }
    }

    fn bottom() -> Self {
        Polyhedron {
            constraints: Vec::new(),
            empty: true,
            approximate: false,
        }
    }

    fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    fn mentions(&self, v: Var) -> bool {
        self.constraints.iter().any(|c| c.expr.mentions(v))
    }

    fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        for c in &self.constraints {
            out.extend(c.expr.vars());
        }
        out
    }

    fn add_constraint(&mut self, c: Constraint) {
        if self.empty || c.is_trivially_true() {
            return;
        }
        if c.is_trivially_false() {
            *self = Polyhedron::bottom();
            return;
        }
        if self.constraints.contains(&c) {
            return;
        }
        if self.constraints.len() >= MAX_CONSTRAINTS {
            // Sound for may-sets: dropping a constraint only enlarges.
            self.approximate = true;
            return;
        }
        self.constraints.push(c);
    }

    fn substitute(&self, v: Var, repl: &LinExpr) -> Polyhedron {
        if self.empty {
            return Polyhedron::bottom();
        }
        let mut out = Polyhedron {
            constraints: Vec::with_capacity(self.constraints.len()),
            empty: false,
            approximate: self.approximate,
        };
        for c in &self.constraints {
            out.add_constraint(c.substitute(v, repl));
        }
        out
    }

    fn find_eq_with(&self, v: Var) -> Option<(usize, i64)> {
        self.constraints.iter().enumerate().find_map(|(i, c)| {
            if c.kind == ConstraintKind::EqZero {
                let a = c.expr.coef(v);
                if a != 0 {
                    return Some((i, a));
                }
            }
            None
        })
    }

    /// Fourier–Motzkin elimination of `v` (rational shadow).
    fn project_out(&self, v: Var) -> Polyhedron {
        if self.empty {
            return Polyhedron::bottom();
        }
        if !self.mentions(v) {
            return self.clone();
        }
        // Equality substitution first: a·v + e == 0 with a = ±1.
        if let Some((idx, a)) = self.find_eq_with(v) {
            let eq = &self.constraints[idx];
            if a.abs() == 1 {
                let repl = eq.expr.sub(&LinExpr::term(v, a)).scale(-a);
                let mut rest = self.clone();
                rest.constraints.remove(idx);
                return rest.substitute(v, &repl).project_out(v);
            }
        }
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        let mut rest = Vec::new();
        for c in &self.constraints {
            let split: Vec<Constraint> = match c.kind {
                ConstraintKind::EqZero if c.expr.mentions(v) => vec![
                    Constraint::geq0(c.expr.clone()),
                    Constraint::geq0(c.expr.scale(-1)),
                ],
                _ => vec![c.clone()],
            };
            for c in split {
                let a = c.expr.coef(v);
                if a > 0 {
                    lower.push(c);
                } else if a < 0 {
                    upper.push(c);
                } else {
                    rest.push(c);
                }
            }
        }
        let mut out = Polyhedron {
            constraints: Vec::new(),
            empty: false,
            approximate: self.approximate,
        };
        for c in rest {
            out.add_constraint(c);
        }
        if lower.len() * upper.len() > MAX_CONSTRAINTS {
            out.approximate = true;
            out.local_simplify();
            return out;
        }
        for l in &lower {
            let a = l.expr.coef(v);
            for u in &upper {
                let b = -u.expr.coef(v);
                debug_assert!(a > 0 && b > 0);
                let g = gcd(a, b);
                let combined = l.expr.scale(b / g).add(&u.expr.scale(a / g));
                out.add_constraint(Constraint::geq0(combined));
                if out.empty {
                    return Polyhedron::bottom();
                }
            }
        }
        out.local_simplify();
        out
    }

    fn project_out_all(&self, pred: impl Fn(Var) -> bool) -> Polyhedron {
        let mut p = self.clone();
        loop {
            let Some(v) = p.vars().into_iter().find(|&v| pred(v)) else {
                return p;
            };
            p = p.project_out(v);
        }
    }

    /// Dedup plus O(n²) same-part dominance and contradiction scans, each
    /// driven by full expression subtraction.
    fn local_simplify(&mut self) {
        if self.empty {
            return;
        }
        self.constraints
            .sort_unstable_by(|a, b| a.expr.terms.cmp(&b.expr.terms).then(a.kind.cmp(&b.kind)));
        self.constraints.dedup();
        let mut keep: Vec<Constraint> = Vec::with_capacity(self.constraints.len());
        'outer: for c in std::mem::take(&mut self.constraints) {
            if c.kind == ConstraintKind::GeqZero {
                for k in &mut keep {
                    if k.kind == ConstraintKind::GeqZero {
                        let d = c.expr.sub(&k.expr);
                        if d.is_constant() {
                            if d.constant_part() >= 0 {
                                continue 'outer; // c is weaker; drop it
                            }
                            *k = c.clone(); // c is stronger; replace k
                            continue 'outer;
                        }
                    }
                }
            }
            keep.push(c);
        }
        self.constraints = keep;
        for (i, a) in self.constraints.iter().enumerate() {
            for b in &self.constraints[i + 1..] {
                if a.kind == ConstraintKind::GeqZero
                    && b.kind == ConstraintKind::GeqZero
                    && neg_var_parts(&a.expr, &b.expr)
                    && a.expr
                        .constant_part()
                        .saturating_add(b.expr.constant_part())
                        < 0
                {
                    *self = Polyhedron::bottom();
                    return;
                }
            }
        }
    }

    /// The pre-overhaul emptiness proof: pairwise contradictions, then the
    /// Fourier–Motzkin loop with the modular test re-run every iteration and
    /// the fewest-occurrences elimination order.
    fn prove_empty(&self) -> bool {
        for (i, a) in self.constraints.iter().enumerate() {
            for b in &self.constraints[i + 1..] {
                if a.kind == ConstraintKind::GeqZero
                    && b.kind == ConstraintKind::GeqZero
                    && neg_var_parts(&a.expr, &b.expr)
                    && a.expr
                        .constant_part()
                        .saturating_add(b.expr.constant_part())
                        < 0
                {
                    return true;
                }
            }
        }
        let mut p = self.clone();
        let mut fuel = 32usize;
        loop {
            if p.empty {
                return true;
            }
            if p.num_constraints() <= 32 && p.modular_contradiction() {
                return true;
            }
            let vars = p.vars();
            let Some(&v) = vars.iter().next() else {
                return p.empty;
            };
            if fuel == 0 || p.approximate || p.num_constraints() > 48 {
                // Budget exhausted: conservatively assume non-empty.
                return false;
            }
            fuel -= 1;
            let v = vars
                .iter()
                .copied()
                .min_by_key(|&w| p.constraints.iter().filter(|c| c.expr.mentions(w)).count())
                .unwrap_or(v);
            p = p.project_out(v);
        }
    }

    /// Modular-interval test: for an equality `Σ aᵢvᵢ + c == 0` and a
    /// modulus `g > 1` dividing some coefficients, the residual must be a
    /// multiple of `g`; an interval for the residual containing no such
    /// multiple proves integer emptiness.
    fn modular_contradiction(&self) -> bool {
        let eqs: Vec<&Constraint> = self
            .constraints
            .iter()
            .filter(|c| c.kind == ConstraintKind::EqZero)
            .collect();
        for eq in eqs {
            let mut moduli: Vec<i64> = eq
                .expr
                .terms()
                .map(|(_, a)| a.abs())
                .filter(|&a| a > 1)
                .collect();
            moduli.sort_unstable();
            moduli.dedup();
            for g in moduli {
                let mut r = LinExpr::constant(eq.expr.constant_part());
                let mut has_divisible = false;
                for (v, a) in eq.expr.terms() {
                    if a % g == 0 {
                        has_divisible = true;
                    } else {
                        r = r.add(&LinExpr::term(v, a));
                    }
                }
                if !has_divisible {
                    continue;
                }
                if r.is_constant() {
                    if r.constant_part().rem_euclid(g) != 0 {
                        return true;
                    }
                    continue;
                }
                let bounds = self
                    .bound_residual_cheap(&r, eq)
                    .or_else(|| self.bound_residual_fm(&r, eq));
                if let Some((lo, hi)) = bounds {
                    if lo > hi {
                        return true;
                    }
                    let first = lo.div_euclid(g) + if lo.rem_euclid(g) != 0 { 1 } else { 0 };
                    if first * g > hi {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Cheap residual bounding: unit constant bounds per variable, plus
    /// difference bounds for two-variable ±k residuals.
    fn bound_residual_cheap(&self, r: &LinExpr, skip: &Constraint) -> Option<(i64, i64)> {
        let terms: Vec<(Var, i64)> = r.terms().collect();
        let c0 = r.constant_part();
        let var_bounds = |v: Var| -> (Option<i64>, Option<i64>) {
            let mut lo = None;
            let mut hi = None;
            for c in &self.constraints {
                if std::ptr::eq(c, skip) {
                    continue;
                }
                let a = c.expr.coef(v);
                if a == 0 || c.expr.num_vars() != 1 {
                    continue;
                }
                let k = c.expr.constant_part();
                match (c.kind, a) {
                    (ConstraintKind::GeqZero, 1) => {
                        lo = Some(lo.map_or(-k, |x: i64| x.max(-k)));
                    }
                    (ConstraintKind::GeqZero, -1) => {
                        hi = Some(hi.map_or(k, |x: i64| x.min(k)));
                    }
                    (ConstraintKind::EqZero, 1) => {
                        lo = Some(-k);
                        hi = Some(-k);
                    }
                    _ => {}
                }
            }
            (lo, hi)
        };
        match terms.as_slice() {
            [(v, a)] => {
                let (lo, hi) = var_bounds(*v);
                let (lo, hi) = (lo?, hi?);
                let (x, y) = (a * lo, a * hi);
                Some((c0 + x.min(y), c0 + x.max(y)))
            }
            [(x, ax), (y, ay)] if *ax == -*ay => {
                let k = *ax;
                let (lox, hix) = var_bounds(*x);
                let (loy, hiy) = var_bounds(*y);
                let mut dlo = match (lox, hiy) {
                    (Some(a), Some(b)) => Some(a - b),
                    _ => None,
                };
                let mut dhi = match (hix, loy) {
                    (Some(a), Some(b)) => Some(a - b),
                    _ => None,
                };
                for c in &self.constraints {
                    if std::ptr::eq(c, skip) || c.expr.num_vars() != 2 {
                        continue;
                    }
                    let cx = c.expr.coef(*x);
                    let cy = c.expr.coef(*y);
                    let cc = c.expr.constant_part();
                    if cx == 1 && cy == -1 && c.kind == ConstraintKind::GeqZero {
                        dlo = Some(dlo.map_or(-cc, |v: i64| v.max(-cc)));
                    } else if cx == -1 && cy == 1 && c.kind == ConstraintKind::GeqZero {
                        dhi = Some(dhi.map_or(cc, |v: i64| v.min(cc)));
                    }
                }
                let (dlo, dhi) = (dlo?, dhi?);
                let (a, b) = (k * dlo, k * dhi);
                Some((c0 + a.min(b), c0 + a.max(b)))
            }
            _ => None,
        }
    }

    /// Fallback residual bounding via a mini Fourier–Motzkin projection over
    /// the residual's support.
    fn bound_residual_fm(&self, r: &LinExpr, skip: &Constraint) -> Option<(i64, i64)> {
        let t = Var::Sym(u32::MAX);
        if self.mentions(t) {
            return None;
        }
        let support: BTreeSet<Var> = r.vars().collect();
        let mut q = Polyhedron::universe();
        for c in &self.constraints {
            if std::ptr::eq(c, skip) {
                continue;
            }
            if c.expr.vars().all(|v| support.contains(&v)) {
                q.add_constraint(c.clone());
            }
        }
        q.add_constraint(Constraint::eq(&LinExpr::var(t), r));
        let proj = q.project_out_all(|v| v != t);
        if proj.approximate {
            return None;
        }
        let mut lo: Option<i64> = None;
        let mut hi: Option<i64> = None;
        for c in &proj.constraints {
            let a = c.expr.coef(t);
            if a == 0 || !c.expr.sub(&LinExpr::term(t, a)).is_constant() {
                continue;
            }
            let k = c.expr.constant_part();
            match c.kind {
                ConstraintKind::GeqZero if a > 0 => {
                    let b = (-k).div_euclid(a) + if (-k).rem_euclid(a) != 0 { 1 } else { 0 };
                    lo = Some(lo.map_or(b, |x: i64| x.max(b)));
                }
                ConstraintKind::GeqZero => {
                    let b = k.div_euclid(-a);
                    hi = Some(hi.map_or(b, |x: i64| x.min(b)));
                }
                ConstraintKind::EqZero if a.abs() == 1 => {
                    let v = -k / a;
                    lo = Some(lo.map_or(v, |x: i64| x.max(v)));
                    hi = Some(hi.map_or(v, |x: i64| x.min(v)));
                }
                _ => {}
            }
        }
        match (lo, hi) {
            (Some(l), Some(h)) => Some((l, h)),
            _ => None,
        }
    }
}

/// Prove emptiness of an overhauled-kernel polyhedron with the pre-overhaul
/// kernel: convert the (already normalized) constraints into the `BTreeMap`
/// representation and run the old pipeline end to end.
pub fn prove_empty_of(p: &suif_poly::Polyhedron) -> bool {
    if p.is_proven_empty() {
        return true;
    }
    let mut q = Polyhedron {
        constraints: Vec::with_capacity(p.num_constraints()),
        empty: false,
        approximate: p.is_approximate(),
    };
    for c in p.constraints() {
        q.add_constraint(Constraint {
            expr: LinExpr {
                terms: c.expr.terms().collect(),
                constant: c.expr.constant_part(),
            },
            kind: c.kind,
        });
        if q.empty {
            return true;
        }
    }
    q.prove_empty()
}
