//! Conjunctions of linear constraints with Fourier–Motzkin elimination.

use crate::constraint::{Constraint, ConstraintKind};
use crate::expr::{gcd, LinExpr, Var};
use crate::MAX_CONSTRAINTS;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A (possibly unbounded) convex integer polyhedron: the conjunction of a
/// set of linear constraints.
///
/// The empty conjunction is the *universe* (all assignments satisfy it).
/// A polyhedron whose constraint system is detected contradictory is kept in
/// a canonical `bottom` form.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Polyhedron {
    constraints: Vec<Constraint>,
    /// Set when the system has been *proven* unsatisfiable.
    empty: bool,
    /// Set when operations had to give up (too many constraints); the
    /// polyhedron then denotes "unknown ⊇ true set" and must be treated as
    /// the universe by may-analyses.
    approximate: bool,
}

impl Polyhedron {
    /// The universe polyhedron (no constraints).
    pub fn universe() -> Self {
        Self::default()
    }

    /// The canonical empty polyhedron.
    pub fn bottom() -> Self {
        Polyhedron {
            constraints: Vec::new(),
            empty: true,
            approximate: false,
        }
    }

    /// Build from constraints.
    pub fn from_constraints(cs: impl IntoIterator<Item = Constraint>) -> Self {
        let mut p = Polyhedron::universe();
        for c in cs {
            p.add_constraint(c);
        }
        p
    }

    /// Rebuild from previously observed parts, verbatim.
    ///
    /// Unlike [`Polyhedron::from_constraints`] this performs no
    /// normalization, deduplication, or contradiction detection — the parts
    /// must come from an earlier polyhedron (e.g. a decoded snapshot), so
    /// re-running them through `add_constraint` could only change the
    /// representation, not the denoted set.
    pub fn from_parts(constraints: Vec<Constraint>, empty: bool, approximate: bool) -> Self {
        Polyhedron {
            constraints,
            empty,
            approximate,
        }
    }

    /// True if this polyhedron has been proven empty.
    pub fn is_proven_empty(&self) -> bool {
        self.empty
    }

    /// True if operations lost precision on this polyhedron (it then
    /// over-approximates the intended set).
    pub fn is_approximate(&self) -> bool {
        self.approximate
    }

    /// Mark as approximate (over-approximating).
    pub fn mark_approximate(&mut self) {
        self.approximate = true;
    }

    /// The constraints (empty slice for the universe or bottom).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// True if there are no constraints and the polyhedron is not bottom.
    pub fn is_universe(&self) -> bool {
        !self.empty && self.constraints.is_empty()
    }

    /// Whether any constraint mentions `v`.
    pub fn mentions(&self, v: Var) -> bool {
        self.constraints.iter().any(|c| c.expr.mentions(v))
    }

    /// All variables mentioned by any constraint, sorted and deduplicated.
    ///
    /// Returns a flat vector rather than a tree set: the Fourier–Motzkin
    /// loops rebuild this after every elimination step, and for the handful
    /// of variables a dependence system carries, a linear scan plus one
    /// small sort is far cheaper than B-tree node churn.
    pub fn vars(&self) -> Vec<Var> {
        let mut out: Vec<Var> = Vec::new();
        for c in &self.constraints {
            for v in c.expr.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Add one constraint, folding trivial cases.
    pub fn add_constraint(&mut self, c: Constraint) {
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
            // Give simplification a chance to shrink the system before
            // approximating the new constraint away.
            self.local_simplify();
            if self.empty || self.constraints.contains(&c) {
                return;
            }
            if self.constraints.len() >= MAX_CONSTRAINTS {
                // Sound for may-sets: dropping a constraint only enlarges.
                self.approximate = true;
                APPROXIMATIONS.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.constraints.push(c);
    }

    /// Conjunction of two polyhedra.
    pub fn intersect(&self, other: &Polyhedron) -> Polyhedron {
        if self.empty || other.empty {
            return Polyhedron::bottom();
        }
        let mut out = self.clone();
        out.approximate |= other.approximate;
        for c in &other.constraints {
            out.add_constraint(c.clone());
        }
        out.local_simplify();
        out
    }

    /// Substitute `v := repl` in every constraint.
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> Polyhedron {
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

    /// Rename a variable (the target must be fresh).
    pub fn rename(&self, from: Var, to: Var) -> Polyhedron {
        debug_assert!(!self.mentions(to));
        self.substitute(from, &LinExpr::var(to))
    }

    /// Fourier–Motzkin elimination of `v`, over-approximating the integer
    /// projection (rational shadow).  Always sound for may-sets.
    pub fn project_out(&self, v: Var) -> Polyhedron {
        if self.empty {
            return Polyhedron::bottom();
        }
        if !self.mentions(v) {
            return self.clone();
        }
        // Equality substitution first: a·v + e == 0.
        if let Some((idx, a)) = self.find_eq_with(v) {
            let eq = &self.constraints[idx];
            if a.abs() == 1 {
                // v = -e / a exactly.
                let repl = eq.expr.sub(&LinExpr::term(v, a)).scale(-a);
                let mut rest = self.clone();
                rest.constraints.remove(idx);
                return rest.substitute(v, &repl).project_out(v);
            }
        }
        let mut lower = Vec::new(); // a·v + e >= 0 with a > 0  =>  v >= -e/a
        let mut upper = Vec::new(); // -b·v + f >= 0 with b > 0 =>  v <= f/b
        let mut rest = Vec::new();
        for c in &self.constraints {
            // Expand equalities mentioning v into two inequalities.
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
                // b·(a·v + e) + a·(−b·v + f) = b·e + a·f >= 0
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

    /// Exact integer projection of `v`.  Returns `None` when exactness
    /// cannot be guaranteed — required for must-write sections, which may
    /// only shrink.
    ///
    /// Exactness cases:
    /// * every bound on `v` has a ±1 coefficient (rational shadow = integer
    ///   shadow);
    /// * an equality with unit coefficient allows exact substitution;
    /// * a lower/upper pair `a·v >= -e`, `a·v <= f` with *equal* coefficients
    ///   whose combined slack `e + f` is a constant `>= a - 1`: any `a`
    ///   consecutive integers contain a multiple of `a`, so every rational
    ///   shadow point has an integer witness.  (This covers linearized
    ///   rectangular loop nests like `d0 = i + m·j`.)
    pub fn project_exact(&self, v: Var) -> Option<Polyhedron> {
        if self.empty {
            return Some(Polyhedron::bottom());
        }
        if !self.mentions(v) {
            return Some(self.clone());
        }
        if let Some((_, a)) = self.find_eq_with(v) {
            if a.abs() == 1 {
                return Some(self.project_out(v));
            }
        }
        // Partition the bounds (equalities with |coef| != 1 are inexact).
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        for c in &self.constraints {
            let a = c.expr.coef(v);
            if a == 0 {
                continue;
            }
            if c.kind == ConstraintKind::EqZero {
                return None; // non-unit equality: gcd reasoning needed
            }
            if a > 0 {
                lower.push(c);
            } else {
                upper.push(c);
            }
        }
        let all_lower_unit = lower.iter().all(|c| c.expr.coef(v) == 1);
        let all_upper_unit = upper.iter().all(|c| c.expr.coef(v) == -1);
        if all_lower_unit || all_upper_unit {
            // A binding unit bound provides an integer witness that the
            // cross-multiplied shadow constraints validate directly.
            return Some(self.project_out(v));
        }
        // Discard unit bounds that are *integer-implied* by a non-unit bound
        // of the same direction (ceil/floor tightening): e.g. `j >= 1` is
        // implied by `6j >= d0 ∧ d0 >= 1` over the integers.  The exactness
        // decision may then ignore them: rational-shadow(full) sits between
        // integer-shadow(full) and rational-shadow(subsystem); when the
        // subsystem is exact all three coincide.
        let implied_lower = |unit: &Constraint| -> bool {
            // unit: v + e1 >= 0, i.e. v >= -e1.
            let e1 = unit.expr.sub(&LinExpr::var(v));
            lower.iter().any(|c| {
                let a = c.expr.coef(v);
                if a <= 1 {
                    return false;
                }
                // c: a·v + e >= 0 → v >= ceil(-e/a); implied when
                // a·e1 - e + a - 1 >= 0 holds throughout.
                let e = c.expr.sub(&LinExpr::term(v, a));
                let need = e1.scale(a).sub(&e).offset(a - 1);
                let mut test = self.clone();
                for neg in Constraint::geq0(need).negate() {
                    test.add_constraint(neg);
                }
                test.prove_empty()
            })
        };
        let implied_upper = |unit: &Constraint| -> bool {
            // unit: -v + f1 >= 0, i.e. v <= f1.
            let f1 = unit.expr.add(&LinExpr::var(v));
            upper.iter().any(|c| {
                let b = -c.expr.coef(v);
                if b <= 1 {
                    return false;
                }
                // c: -b·v + f >= 0 → v <= floor(f/b); implied when
                // b·f1 - f + b - 1 >= 0 holds throughout.
                let f = c.expr.add(&LinExpr::term(v, b));
                let need = f1.scale(b).sub(&f).offset(b - 1);
                let mut test = self.clone();
                for neg in Constraint::geq0(need).negate() {
                    test.add_constraint(neg);
                }
                test.prove_empty()
            })
        };
        let lower2: Vec<_> = lower
            .iter()
            .filter(|c| c.expr.coef(v) != 1 || !implied_lower(c))
            .collect();
        let upper2: Vec<_> = upper
            .iter()
            .filter(|c| c.expr.coef(v) != -1 || !implied_upper(c))
            .collect();
        // Single shared coefficient g with enough slack in every pair: any
        // g consecutive integers contain a multiple of g.
        let g = lower2.first().map(|c| c.expr.coef(v))?;
        let uniform = lower2.iter().all(|c| c.expr.coef(v) == g)
            && upper2.iter().all(|c| c.expr.coef(v) == -g);
        if !uniform {
            return None;
        }
        for l in &lower2 {
            for u in &upper2 {
                let slack = l.expr.add(&u.expr);
                if !(slack.is_constant() && slack.constant_part() >= g - 1) {
                    return None;
                }
            }
        }
        Some(self.project_out(v))
    }

    /// Eliminate every variable satisfying `pred` (over-approximating).
    ///
    /// The elimination order is chosen by the min `lower×upper` product
    /// heuristic ([`Self::elim_cost`]): each step eliminates the candidate
    /// generating the fewest Fourier–Motzkin cross products, which delays
    /// constraint blow-up far better than an arbitrary variable order.
    pub fn project_out_all(&self, pred: impl Fn(Var) -> bool) -> Polyhedron {
        let mut p = self.clone();
        loop {
            let candidates = p.vars().into_iter().filter(|&v| pred(v));
            let Some(v) = candidates.min_by_key(|&v| p.elim_cost(v)) else {
                return p;
            };
            p = p.project_out(v);
        }
    }

    /// Cost of eliminating `v` by Fourier–Motzkin: the `lower×upper` product
    /// of its bound counts — the number of cross-product constraints one
    /// elimination step would generate.  A unit-coefficient equality
    /// substitutes `v` away exactly, so it costs nothing.
    fn elim_cost(&self, v: Var) -> usize {
        let mut lower = 0usize;
        let mut upper = 0usize;
        for c in &self.constraints {
            let a = c.expr.coef(v);
            if a == 0 {
                continue;
            }
            match c.kind {
                ConstraintKind::EqZero => {
                    if a.abs() == 1 {
                        return 0;
                    }
                    lower += 1;
                    upper += 1;
                }
                ConstraintKind::GeqZero => {
                    if a > 0 {
                        lower += 1;
                    } else {
                        upper += 1;
                    }
                }
            }
        }
        lower * upper
    }

    /// Attempt to *prove* the polyhedron empty over the **integers** by
    /// Fourier–Motzkin elimination plus a modular-interval test on
    /// equalities.  `true` means definitely empty; `false` means "could not
    /// prove" (possibly non-empty).
    ///
    /// A pure function of the constraint system: nothing is remembered
    /// between calls.  Reuse across threads, sessions and restarts happens
    /// one level up, on finished facts in the `FactStore`.
    ///
    /// The proof is a staged ladder: cheap tests that never eliminate a
    /// variable run first, and full Fourier–Motzkin elimination only when
    /// they are inconclusive.  Every stage is sound, and the non-emptiness
    /// fast paths only fire on systems full FM could never prove empty
    /// either (rationally satisfiable by dissolution, or holding a verified
    /// integer point), so the ladder computes the same answers as
    /// always-full-FM (pinned by the `prop_linexpr.rs` property suite).
    pub fn prove_empty(&self) -> bool {
        if self.empty {
            return true;
        }
        if self.constraints.is_empty() {
            return false;
        }
        // Stage 0: pairwise contradictions — e + c1 >= 0 ∧ -e + c2 >= 0 with
        // c1 + c2 < 0 — pre-filtered by the negated-part fingerprint.
        if self.pairwise_contradiction() {
            INTERVAL_REJECTS.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // Stage 1: GCD / modular-interval integer-solvability test on
        // the equalities.
        if self.num_constraints() <= 32 && self.modular_contradiction() {
            GCD_REJECTS.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // Stage 2: Banerjee-style interval evaluation of every
        // constraint over the box of unit bounds, then one-sided
        // dissolution and the integer-witness search.
        if let Some(empty) = self.interval_stage().settle() {
            return empty;
        }
        // Stage 3: equalities block the dissolution test; substitute
        // the unit-coefficient ones away (an exact transformation over
        // both the rationals and the integers) and re-run the modular
        // and interval tests on the residual system.
        if self.num_constraints() <= 32
            && self
                .constraints
                .iter()
                .any(|c| c.kind == ConstraintKind::EqZero)
        {
            if let Some(empty) = self.substituted_interval_stage().settle() {
                return empty;
            }
        }
        FM_RUNS.fetch_add(1, Ordering::Relaxed);
        self.prove_empty_fm()
    }

    /// Stage 3 of the emptiness ladder: eliminate equalities by exact
    /// unit-coefficient substitution, then retry the cheap tests.
    ///
    /// Substituting `v := e` out of `±v + e == 0` is a bijection on the
    /// solution set (over ℚ *and* ℤ), so any verdict on the residual system
    /// transfers to the original: a modular/interval emptiness proof is
    /// sound, a dissolution satisfiability proof means the original is
    /// rationally satisfiable — which full FM can never refute either — and
    /// an integer witness of the residual extends to one of the original.
    fn substituted_interval_stage(&self) -> IntervalVerdict {
        // Work on a bare constraint vector: the cheap re-tests below need no
        // polyhedron bookkeeping (dedup, emptiness folding), so skip it.
        let mut cs = self.constraints.clone();
        for _ in 0..8 {
            let Some((i, v, a)) = cs.iter().enumerate().find_map(|(i, c)| {
                if c.kind != ConstraintKind::EqZero {
                    return None;
                }
                c.expr
                    .terms()
                    .find(|&(_, a)| a.abs() == 1)
                    .map(|(v, a)| (i, v, a))
            }) else {
                break;
            };
            let eq = cs.swap_remove(i);
            // a·v + rest == 0  =>  v == rest·(-a)  (a is ±1).
            let repl = eq.expr.sub(&LinExpr::term(v, a)).scale(-a);
            let mut any_eq = false;
            for c in &mut cs {
                if c.expr.mentions(v) {
                    *c = c.substitute(v, &repl);
                    if c.is_trivially_false() {
                        return IntervalVerdict::Empty;
                    }
                }
                any_eq |= c.kind == ConstraintKind::EqZero;
            }
            if !any_eq {
                break;
            }
        }
        cs.retain(|c| !c.is_trivially_true());
        let q = Polyhedron {
            constraints: cs,
            empty: false,
            approximate: false,
        };
        if q.pairwise_contradiction() || q.modular_contradiction() {
            return IntervalVerdict::Empty;
        }
        q.interval_stage()
    }

    /// Stage 0 of the emptiness ladder: is some inequality pair mutually
    /// contradictory (`e >= -c1` and `e <= c2` with `c2 < -c1`)?
    fn pairwise_contradiction(&self) -> bool {
        for (i, a) in self.constraints.iter().enumerate() {
            for b in &self.constraints[i + 1..] {
                if a.kind == ConstraintKind::GeqZero
                    && b.kind == ConstraintKind::GeqZero
                    && a.nvhash() == b.vhash()
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
        false
    }

    /// Full Fourier–Motzkin emptiness proof (the ladder's last stage),
    /// eliminating in min `lower×upper` cross-product order.
    fn prove_empty_fm(&self) -> bool {
        let mut p = self.clone();
        let mut fuel = 32usize;
        let mut first = true;
        loop {
            if p.empty {
                return true;
            }
            // Stage 1 already ran the modular test on the original system;
            // re-run it only after eliminations have rewritten it.
            if !first && p.num_constraints() <= 32 && p.modular_contradiction() {
                return true;
            }
            first = false;
            let vars = p.vars();
            let Some(&v0) = vars.first() else {
                // Only constant constraints remain; add_constraint already
                // folded falsities into `empty`.
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
                .min_by_key(|&w| p.elim_cost(w))
                .unwrap_or(v0);
            p = p.project_out(v);
        }
    }

    /// Stage 2 of the emptiness ladder, in both directions:
    ///
    /// * **Empty** — some constraint's expression, evaluated over the box of
    ///   unit constant bounds contributed by the single-variable constraints,
    ///   cannot reach satisfaction (a Banerjee-style bound check).  The box
    ///   over-approximates the solution set, so this is a sound emptiness
    ///   proof.
    /// * **Satisfiable** — the system has no equalities and dissolves by
    ///   repeatedly discarding a variable bounded on one side only (its
    ///   constraints are satisfied by pushing it to ±∞).  Such a system is
    ///   rationally satisfiable, which no sound prover — full FM included —
    ///   can ever report empty, so answering "not provably empty" here agrees
    ///   with the full pipeline while skipping every elimination.
    /// * **Witness** — the dissolution stalls, but [`integer_witness`] finds
    ///   an integer point of the constraints it left alive.  Pushing each
    ///   dissolved variable far enough out, last dissolved first, extends
    ///   that point to an integer point of the whole system.
    fn interval_stage(&self) -> IntervalVerdict {
        let box_bounds = self.unit_box();
        // Without any unit bounds every interval is (-∞, ∞) and the Empty
        // scan can never fire; skip straight to the dissolution test.
        for c in &self.constraints {
            if box_bounds.is_empty() {
                break;
            }
            if c.expr.is_constant() {
                continue;
            }
            // Interval of the expression over the box, in i128 to dodge
            // overflow; None = unbounded in that direction (or past i128).
            let mut lo: Option<i128> = Some(c.expr.constant_part() as i128);
            let mut hi: Option<i128> = Some(c.expr.constant_part() as i128);
            for (v, a) in c.expr.terms() {
                let (vlo, vhi) = box_of(&box_bounds, v);
                let (tlo, thi) = if a > 0 { (vlo, vhi) } else { (vhi, vlo) };
                let add = |acc: Option<i128>, b: Option<i64>| {
                    acc?.checked_add(i128::from(a) * i128::from(b?))
                };
                lo = add(lo, tlo);
                hi = add(hi, thi);
            }
            let empty = match c.kind {
                ConstraintKind::GeqZero => hi.is_some_and(|h| h < 0),
                ConstraintKind::EqZero => hi.is_some_and(|h| h < 0) || lo.is_some_and(|l| l > 0),
            };
            if empty {
                return IntervalVerdict::Empty;
            }
        }
        // Non-emptiness by one-sided dissolution (inequality-only systems).
        if self
            .constraints
            .iter()
            .any(|c| c.kind == ConstraintKind::EqZero)
        {
            return IntervalVerdict::Unknown;
        }
        let mut alive: Vec<bool> = vec![true; self.constraints.len()];
        let mut remaining = alive.len();
        let vars = self.vars();
        loop {
            if remaining == 0 {
                return IntervalVerdict::Satisfiable;
            }
            let mut progressed = false;
            // The full variable list is a superset of the live one; vars
            // whose constraints have all died kill nothing below (the
            // `killed` guard), so iterating the superset each pass is
            // equivalent to recomputing the live set — without rebuilding
            // a var collection per pass.
            for &v in &vars {
                let mut pos = false;
                let mut neg = false;
                for (c, &a) in self.constraints.iter().zip(&alive) {
                    if !a {
                        continue;
                    }
                    match c.expr.coef(v) {
                        0 => {}
                        x if x > 0 => pos = true,
                        _ => neg = true,
                    }
                }
                if pos && neg {
                    continue;
                }
                let mut killed = false;
                for (c, a) in self.constraints.iter().zip(&mut alive) {
                    if *a && c.expr.mentions(v) {
                        *a = false;
                        remaining -= 1;
                        killed = true;
                    }
                }
                progressed |= killed;
            }
            if !progressed {
                let live: Vec<&Constraint> = self
                    .constraints
                    .iter()
                    .zip(&alive)
                    .filter_map(|(c, &a)| a.then_some(c))
                    .collect();
                return if integer_witness(&live, &box_bounds) {
                    IntervalVerdict::Witness
                } else {
                    IntervalVerdict::Unknown
                };
            }
        }
    }

    /// Unit constant bounds per variable (post-normalization, every
    /// single-variable constraint has a ±1 coefficient).
    fn unit_box(&self) -> UnitBox {
        let mut box_bounds: UnitBox = Vec::new();
        for c in &self.constraints {
            if c.expr.num_vars() != 1 {
                continue;
            }
            let (v, a) = c.expr.terms().next().expect("one term");
            let k = c.expr.constant_part();
            let i = match box_bounds.iter().position(|&(w, _, _)| w == v) {
                Some(i) => i,
                None => {
                    box_bounds.push((v, None, None));
                    box_bounds.len() - 1
                }
            };
            let (_, lo, hi) = &mut box_bounds[i];
            match (c.kind, a) {
                (ConstraintKind::GeqZero, 1) => *lo = Some(lo.map_or(-k, |x: i64| x.max(-k))),
                (ConstraintKind::GeqZero, -1) => *hi = Some(hi.map_or(k, |x: i64| x.min(k))),
                (ConstraintKind::EqZero, 1) => {
                    *lo = Some(lo.map_or(-k, |x: i64| x.max(-k)));
                    *hi = Some(hi.map_or(-k, |x: i64| x.min(-k)));
                }
                _ => {}
            }
        }
        box_bounds
    }

    /// Modular-interval test (a GCD/Banerjee-style integer refinement):
    /// for an equality `Σ aᵢvᵢ + c == 0` and a modulus `g > 1` dividing
    /// some coefficients, the residual `R = Σ_{g∤aᵢ} aᵢvᵢ + c` must be a
    /// multiple of `g`.  If the polyhedron bounds `R` into an interval
    /// containing no multiple of `g`, the system has no integer solution.
    /// (This is what separates `i1 + 64·j1 == i2 + 64·j2` accesses of
    /// column-major 2-D arrays, which rational FM cannot.)
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
                // Residual terms not divisible by g.
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
                // Bound R cheaply: direct interval reasoning for 1- and
                // 2-variable residuals (the overwhelmingly common case:
                // `i1 - i2 + c` difference patterns from dependence tests),
                // falling back to a mini Fourier–Motzkin projection over R's
                // support otherwise.
                let bounds = self
                    .bound_residual_cheap(&r, eq)
                    .or_else(|| self.bound_residual_fm(&r, eq));
                if let Some((lo, hi)) = bounds {
                    if lo > hi {
                        return true;
                    }
                    // Any multiple of g in [lo, hi]?
                    let first = lo.div_euclid(g) + if lo.rem_euclid(g) != 0 { 1 } else { 0 };
                    if first * g > hi {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Containment test: does `self ⊆ other` *provably* hold?
    ///
    /// `self ⊆ other` iff for every constraint `c` of `other`,
    /// `self ∧ ¬c` is empty.  Negating equalities yields a disjunction, both
    /// branches of which must be empty.
    pub fn provably_subset_of(&self, other: &Polyhedron) -> bool {
        if self.empty {
            return true;
        }
        if other.empty {
            return self.prove_empty();
        }
        if self.approximate {
            // We only know an over-approximation of self.
            return other.is_universe();
        }
        for c in &other.constraints {
            for neg in c.negate() {
                let mut test = self.clone();
                test.add_constraint(neg);
                if !test.prove_empty() {
                    return false;
                }
            }
        }
        true
    }

    /// Pairwise redundancy elimination on normalized forms: dedup, reduce
    /// constraints sharing a variable part to the dominant one (stronger
    /// inequality wins; an equality subsumes consistent inequalities), and
    /// fold contradictory or interval-incompatible pairs to bottom.  Runs
    /// after every Fourier–Motzkin elimination step, so redundant cross
    /// products die before they can push the system toward
    /// `MAX_CONSTRAINTS` approximation.  Pair discovery is driven by the
    /// precomputed variable-part fingerprints — expected O(n), not O(n²)
    /// expression subtractions.
    pub fn local_simplify(&mut self) {
        if self.empty || self.constraints.len() <= 1 {
            return;
        }
        // Sort by fingerprint prefix rather than full `Ord`: the grouping
        // pass below only needs (a) equal constraints adjacent for `dedup`
        // and (b) constants ascending within a variable-part group, both of
        // which the `(vhash, constant, kind)` key provides without walking
        // term lists on every comparison.  The full comparison only breaks
        // the (rare) remaining ties, keeping the order deterministic.
        self.constraints.sort_unstable_by(|a, b| {
            a.vhash()
                .cmp(&b.vhash())
                .then(a.expr.constant_part().cmp(&b.expr.constant_part()))
                .then(a.kind.cmp(&b.kind))
                .then_with(|| a.expr.cmp(&b.expr))
        });
        self.constraints.dedup();
        use std::collections::HashMap;
        let cs = std::mem::take(&mut self.constraints);
        let mut kept: Vec<Option<Constraint>> = Vec::with_capacity(cs.len());
        // Variable-part fingerprint → indices into `kept`.
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::with_capacity(cs.len() * 2);
        'outer: for c in cs {
            // Same-variable-part interactions.  Sort order guarantees that
            // within a group, constants arrive ascending — the first
            // inequality kept is already the strongest.
            if let Some(idxs) = groups.get(&c.vhash()) {
                for &i in idxs {
                    let Some(k) = kept[i].as_ref() else { continue };
                    if !same_var_parts(&k.expr, &c.expr) {
                        continue;
                    }
                    let dk = k.expr.constant_part();
                    let dc = c.expr.constant_part();
                    match (k.kind, c.kind) {
                        (ConstraintKind::GeqZero, ConstraintKind::GeqZero) => {
                            debug_assert!(dk <= dc);
                            continue 'outer; // c is weaker; drop it
                        }
                        (ConstraintKind::EqZero, ConstraintKind::GeqZero) => {
                            // e == -dk forces e + dc = dc - dk.
                            if dc >= dk {
                                continue 'outer;
                            }
                            *self = Polyhedron::bottom();
                            return;
                        }
                        (ConstraintKind::GeqZero, ConstraintKind::EqZero) => {
                            if dk >= dc {
                                kept[i] = None; // equality subsumes k
                            } else {
                                *self = Polyhedron::bottom();
                                return;
                            }
                        }
                        (ConstraintKind::EqZero, ConstraintKind::EqZero) => {
                            // Identical equalities were removed by dedup;
                            // same part, different constant: contradiction.
                            *self = Polyhedron::bottom();
                            return;
                        }
                    }
                }
            }
            // Opposite-variable-part interactions (`e …` vs `-e …`).
            if let Some(idxs) = groups.get(&c.nvhash()) {
                for &i in idxs {
                    let Some(k) = kept[i].as_ref() else { continue };
                    if !neg_var_parts(&k.expr, &c.expr) {
                        continue;
                    }
                    let s = k
                        .expr
                        .constant_part()
                        .saturating_add(c.expr.constant_part());
                    match (k.kind, c.kind) {
                        (ConstraintKind::GeqZero, ConstraintKind::GeqZero) => {
                            if s < 0 {
                                *self = Polyhedron::bottom();
                                return;
                            }
                        }
                        (ConstraintKind::EqZero, ConstraintKind::GeqZero) => {
                            if s < 0 {
                                *self = Polyhedron::bottom();
                                return;
                            }
                            continue 'outer; // implied by the equality
                        }
                        (ConstraintKind::GeqZero, ConstraintKind::EqZero) => {
                            if s < 0 {
                                *self = Polyhedron::bottom();
                                return;
                            }
                            kept[i] = None;
                        }
                        (ConstraintKind::EqZero, ConstraintKind::EqZero) => {
                            if s != 0 {
                                *self = Polyhedron::bottom();
                                return;
                            }
                            continue 'outer; // same equality, negated
                        }
                    }
                }
            }
            let idx = kept.len();
            groups.entry(c.vhash()).or_default().push(idx);
            kept.push(Some(c));
        }
        self.constraints = kept.into_iter().flatten().collect();
    }

    /// Check membership of a concrete point.
    pub fn contains_point(&self, env: &dyn Fn(Var) -> Option<i64>) -> Option<bool> {
        if self.empty {
            return Some(false);
        }
        for c in &self.constraints {
            let v = c.expr.eval(env)?;
            let ok = match c.kind {
                ConstraintKind::GeqZero => v >= 0,
                ConstraintKind::EqZero => v == 0,
            };
            if !ok {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Cheap residual bounding: unit constant bounds per variable, plus
    /// difference bounds for two-variable ±k residuals (covers the
    /// `i1 - i2 + c` dependence-test pattern).  Sound over-approximation.
    fn bound_residual_cheap(&self, r: &LinExpr, skip: &Constraint) -> Option<(i64, i64)> {
        let terms: Vec<(Var, i64)> = r.terms().collect();
        let c0 = r.constant_part();
        // Constant unit bounds per variable.
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
                // r = k·(x − y) + c0: bound d = x − y from difference
                // constraints and the interval product.
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
                // Difference constraints ±(x − y) + c >= 0.
                for c in &self.constraints {
                    if std::ptr::eq(c, skip) || c.expr.num_vars() != 2 {
                        continue;
                    }
                    let cx = c.expr.coef(*x);
                    let cy = c.expr.coef(*y);
                    let cc = c.expr.constant_part();
                    if cx == 1 && cy == -1 && c.kind == ConstraintKind::GeqZero {
                        // x − y + cc >= 0 → d >= −cc
                        dlo = Some(dlo.map_or(-cc, |v: i64| v.max(-cc)));
                    } else if cx == -1 && cy == 1 && c.kind == ConstraintKind::GeqZero {
                        // −x + y + cc >= 0 → d <= cc
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
        if proj.is_approximate() {
            return None;
        }
        let mut lo: Option<i64> = None;
        let mut hi: Option<i64> = None;
        for c in proj.constraints() {
            let a = c.expr.coef(t);
            if a == 0 || !c.expr.sub(&LinExpr::term(t, a)).is_constant() {
                continue;
            }
            let k = c.expr.constant_part();
            match c.kind {
                ConstraintKind::GeqZero if a > 0 => {
                    // a·t + k >= 0 → t >= ceil(-k/a)
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

    /// If some equality constrains `v` with a unit coefficient
    /// (`±v + e == 0`), return the expression `v` equals.  Subscript-level
    /// quick tests use this to recover `d_k == f(i)` access functions from a
    /// section disjunct without running elimination.
    pub fn solve_unit_eq(&self, v: Var) -> Option<LinExpr> {
        self.constraints.iter().find_map(|c| {
            if c.kind != ConstraintKind::EqZero {
                return None;
            }
            let a = c.expr.coef(v);
            if a.abs() != 1 {
                return None;
            }
            // a·v + rest == 0  =>  v == -rest/a == rest·(-a)  (a is ±1).
            Some(c.expr.sub(&LinExpr::term(v, a)).scale(-a))
        })
    }
}

/// True when the variable parts of `a` and `b` are exact negatives of each
/// other (so `a + b` is a constant), checked without allocating.
fn neg_var_parts(a: &LinExpr, b: &LinExpr) -> bool {
    a.num_vars() == b.num_vars()
        && a.terms()
            .zip(b.terms())
            .all(|((va, ca), (vb, cb))| va == vb && ca == -cb)
}

/// True when `a` and `b` share the exact same variable part (they differ at
/// most in the constant), checked without allocating.
fn same_var_parts(a: &LinExpr, b: &LinExpr) -> bool {
    a.num_vars() == b.num_vars()
        && a.terms()
            .zip(b.terms())
            .all(|((va, ca), (vb, cb))| va == vb && ca == cb)
}

/// The unit constant bounds `(var, low, high)` of a system's variables.
type UnitBox = Vec<(Var, Option<i64>, Option<i64>)>;

/// `v`'s `(low, high)` unit bounds in `box_bounds`.
fn box_of(box_bounds: &UnitBox, v: Var) -> (Option<i64>, Option<i64>) {
    box_bounds
        .iter()
        .find(|&&(w, _, _)| w == v)
        .map_or((None, None), |&(_, lo, hi)| (lo, hi))
}

/// Outcome of the interval stage of the emptiness ladder.
enum IntervalVerdict {
    /// Some constraint cannot be satisfied anywhere in the bounding box.
    Empty,
    /// The system provably has (rational, hence conservative) solutions.
    Satisfiable,
    /// A verified integer point satisfies the system.
    Witness,
    /// Inconclusive — fall through to Fourier–Motzkin.
    Unknown,
}

impl IntervalVerdict {
    /// Count a conclusive verdict and return the `prove_empty` answer it
    /// settles; `None` when the ladder must go on.
    fn settle(self) -> Option<bool> {
        let counter = match self {
            IntervalVerdict::Empty => &INTERVAL_REJECTS,
            IntervalVerdict::Satisfiable => &QUICK_SATS,
            IntervalVerdict::Witness => {
                WITNESS_SATS.fetch_add(1, Ordering::Relaxed);
                &QUICK_SATS
            }
            IntervalVerdict::Unknown => return None,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(matches!(self, IntervalVerdict::Empty))
    }
}

/// Arithmetic overflow in the witness search: no witness.
struct Overflow;

/// Which corner of the unit-bound box a witness search starts from.
#[derive(Clone, Copy)]
enum Corner {
    /// Each variable at the bound its coefficients pull toward.
    Pulled,
    /// Each variable at its low bound.
    Low,
    /// Each variable at its high bound.
    High,
}

/// One variable of the witness search.
struct WitnessVar {
    var: Var,
    lo: Option<i64>,
    hi: Option<i64>,
    /// Sum of the signs of the variable's coefficients in the live
    /// multi-variable constraints: positive means a larger value helps.
    pull: i64,
}

impl WitnessVar {
    /// The variable's value at `corner`, or `None` when it has no unit
    /// bound and must be solved for.
    fn start(&self, corner: Corner) -> Option<i128> {
        let high = match corner {
            Corner::Pulled => self.pull > 0,
            Corner::Low => false,
            Corner::High => true,
        };
        let (first, second) = if high {
            (self.hi, self.lo)
        } else {
            (self.lo, self.hi)
        };
        first.or(second).map(i128::from)
    }
}

/// The integer-witness rung of the emptiness ladder: does some integer
/// point provably satisfy every constraint of `live`?
///
/// Only a point checked against every constraint answers `true`, and a
/// system with an integer point is one no sound stage — full FM included —
/// can prove empty, so the rung moves no `prove_empty` answer; it only
/// spares the elimination.  Each variable with a unit bound (`box_bounds`)
/// starts at a corner of the box: first the corner its coefficients pull
/// toward, then all-low, then all-high.  [`witness_from`] solves the rest.
/// Arithmetic is checked `i128`; an overflow abandons the search.
fn integer_witness(live: &[&Constraint], box_bounds: &UnitBox) -> bool {
    let vars = witness_vars(live, box_bounds);
    let mut tried: Vec<Vec<Option<i128>>> = Vec::new();
    for corner in [Corner::Pulled, Corner::Low, Corner::High] {
        let start: Vec<Option<i128>> = vars.iter().map(|w| w.start(corner)).collect();
        if tried.contains(&start) {
            continue;
        }
        match witness_from(live, &vars, start.clone()) {
            Ok(true) => return true,
            Ok(false) => tried.push(start),
            Err(Overflow) => return false,
        }
    }
    false
}

/// The variables of `live`, in order of first mention, with their unit
/// bounds and pulls.
fn witness_vars(live: &[&Constraint], box_bounds: &UnitBox) -> Vec<WitnessVar> {
    let mut vars: Vec<WitnessVar> = Vec::new();
    for c in live {
        let multi = c.expr.num_vars() > 1;
        for (v, a) in c.expr.terms() {
            let i = match vars.iter().position(|w| w.var == v) {
                Some(i) => i,
                None => {
                    let (lo, hi) = box_of(box_bounds, v);
                    vars.push(WitnessVar {
                        var: v,
                        lo,
                        hi,
                        pull: 0,
                    });
                    vars.len() - 1
                }
            };
            if multi {
                vars[i].pull += a.signum();
            }
        }
    }
    vars
}

/// Complete `point` (indexed like `vars`; the variables without a unit
/// bound unset) and check it against every constraint of `live`.
///
/// Each unset variable is solved in turn: the ceiling of its tightest lower
/// bound among the constraints whose other variables are already set, else
/// the floor of its tightest upper bound.  When no unset variable has such
/// a constraint, the first one is set to 0.
fn witness_from(
    live: &[&Constraint],
    vars: &[WitnessVar],
    mut point: Vec<Option<i128>>,
) -> Result<bool, Overflow> {
    while let Some(first) = point.iter().position(Option::is_none) {
        let mut progressed = false;
        for i in first..point.len() {
            if point[i].is_some() {
                continue;
            }
            let v = vars[i].var;
            let mut lower: Option<i128> = None;
            let mut upper: Option<i128> = None;
            for c in live {
                let a = i128::from(c.expr.coef(v));
                if a == 0 {
                    continue;
                }
                let Some(rest) = eval_point(c, Some(v), vars, &point)? else {
                    continue;
                };
                // a·v + rest >= 0 (or == 0) reads |a|·v >= n when a > 0,
                // |a|·v <= n when a < 0 (both for an equality).
                let n = if a > 0 {
                    rest.checked_neg()
                } else {
                    Some(rest)
                };
                let n = n.ok_or(Overflow)?;
                let d = a.abs();
                let floor = n.div_euclid(d);
                let eq = c.kind == ConstraintKind::EqZero;
                if a > 0 || eq {
                    let ceil = floor + i128::from(n.rem_euclid(d) != 0);
                    lower = Some(lower.map_or(ceil, |x| x.max(ceil)));
                }
                if a < 0 || eq {
                    upper = Some(upper.map_or(floor, |x| x.min(floor)));
                }
            }
            if let Some(x) = lower.or(upper) {
                point[i] = Some(x);
                progressed = true;
            }
        }
        if !progressed {
            point[first] = Some(0);
        }
    }
    for c in live {
        let value = eval_point(c, None, vars, &point)?.expect("every variable is set");
        let holds = match c.kind {
            ConstraintKind::GeqZero => value >= 0,
            ConstraintKind::EqZero => value == 0,
        };
        if !holds {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The value of `c`'s expression at `point`, leaving out the `skip` term;
/// `Ok(None)` when another of its variables is unset.
fn eval_point(
    c: &Constraint,
    skip: Option<Var>,
    vars: &[WitnessVar],
    point: &[Option<i128>],
) -> Result<Option<i128>, Overflow> {
    let mut acc = i128::from(c.expr.constant_part());
    for (v, a) in c.expr.terms() {
        if Some(v) == skip {
            continue;
        }
        let i = vars
            .iter()
            .position(|w| w.var == v)
            .expect("every variable of a live constraint is indexed");
        let Some(x) = point[i] else {
            return Ok(None);
        };
        let term = i128::from(a).checked_mul(x).ok_or(Overflow)?;
        acc = acc.checked_add(term).ok_or(Overflow)?;
    }
    Ok(Some(acc))
}

static GCD_REJECTS: AtomicU64 = AtomicU64::new(0);
static INTERVAL_REJECTS: AtomicU64 = AtomicU64::new(0);
static QUICK_SATS: AtomicU64 = AtomicU64::new(0);
static WITNESS_SATS: AtomicU64 = AtomicU64::new(0);
static FM_RUNS: AtomicU64 = AtomicU64::new(0);
static APPROXIMATIONS: AtomicU64 = AtomicU64::new(0);
static SUBSCRIPT_REJECTS: AtomicU64 = AtomicU64::new(0);
pub(crate) static DISJUNCT_WIDENINGS: AtomicU64 = AtomicU64::new(0);
pub(crate) static SUBTRACT_GIVEUPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide kernel counters: how each `prove_empty` query was resolved,
/// plus how often a budget forced an approximation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolyStats {
    /// Queries resolved empty by the GCD/modular-interval stage, without
    /// eliminating a single variable.
    pub gcd_rejects: u64,
    /// Queries resolved empty by the pairwise-contradiction or the
    /// Banerjee-style interval stage.
    pub interval_rejects: u64,
    /// Queries resolved definitely-satisfiable without elimination, by
    /// one-sided dissolution or a verified integer witness.
    pub quick_sats: u64,
    /// The part of `quick_sats` settled by a verified integer witness.
    pub witness_sats: u64,
    /// Queries that fell through to full Fourier–Motzkin elimination.
    pub fm_runs: u64,
    /// Constraints dropped because a system stayed over `MAX_CONSTRAINTS`
    /// even after simplification (the polyhedron became approximate).
    pub approximations: u64,
    /// Sets collapsed to an approximate universe because they would have
    /// held more than `MAX_DISJUNCTS` disjuncts.
    pub disjunct_widenings: u64,
    /// Minuend disjuncts `PolySet::subtract` kept unchanged because a test
    /// budget, the work budget or the piece count ran out.
    pub subtract_giveups: u64,
    /// Dependence pair tests resolved disjoint by the subscript-level
    /// GCD/Banerjee quick test, before any joint system was even built.
    pub subscript_rejects: u64,
}

impl PolyStats {
    /// Counter-wise difference against an earlier snapshot (for per-run
    /// deltas in pass metrics).
    pub fn since(&self, earlier: &PolyStats) -> PolyStats {
        PolyStats {
            gcd_rejects: self.gcd_rejects.wrapping_sub(earlier.gcd_rejects),
            interval_rejects: self.interval_rejects.wrapping_sub(earlier.interval_rejects),
            quick_sats: self.quick_sats.wrapping_sub(earlier.quick_sats),
            witness_sats: self.witness_sats.wrapping_sub(earlier.witness_sats),
            fm_runs: self.fm_runs.wrapping_sub(earlier.fm_runs),
            approximations: self.approximations.wrapping_sub(earlier.approximations),
            disjunct_widenings: self
                .disjunct_widenings
                .wrapping_sub(earlier.disjunct_widenings),
            subtract_giveups: self.subtract_giveups.wrapping_sub(earlier.subtract_giveups),
            subscript_rejects: self
                .subscript_rejects
                .wrapping_sub(earlier.subscript_rejects),
        }
    }
}

/// Snapshot the process-wide kernel counters.
pub fn poly_stats() -> PolyStats {
    PolyStats {
        gcd_rejects: GCD_REJECTS.load(Ordering::Relaxed),
        interval_rejects: INTERVAL_REJECTS.load(Ordering::Relaxed),
        quick_sats: QUICK_SATS.load(Ordering::Relaxed),
        witness_sats: WITNESS_SATS.load(Ordering::Relaxed),
        fm_runs: FM_RUNS.load(Ordering::Relaxed),
        approximations: APPROXIMATIONS.load(Ordering::Relaxed),
        disjunct_widenings: DISJUNCT_WIDENINGS.load(Ordering::Relaxed),
        subtract_giveups: SUBTRACT_GIVEUPS.load(Ordering::Relaxed),
        subscript_rejects: SUBSCRIPT_REJECTS.load(Ordering::Relaxed),
    }
}

/// Classic subscript-level dependence quick test: can `e1` (a subscript in
/// terms of iteration variable `i1`) and `e2` (in terms of `i2`) be equal
/// for integer `i1`, `i2` with `i1 < i2` (and both within `bounds` when the
/// loop bounds are known constants)?  Returns `true` only when equality is
/// *provably impossible* — a sound "no dependence in this direction" for the
/// dimension the two expressions subscript.
///
/// The test handles the difference `e1 - e2` only when its variables are a
/// subset of `{i1, i2}`; anything else (other symbols, other dimensions) is
/// inconclusive and returns `false`.  Three rungs, cheapest first:
/// constant difference, GCD integer-solvability, and a Banerjee-style box
/// bound (with the `i2 - i1 >= 1` distance refinement when the coefficients
/// are opposite).
pub fn subscript_pair_disjoint(
    e1: &LinExpr,
    e2: &LinExpr,
    i1: Var,
    i2: Var,
    bounds: Option<(i64, i64)>,
) -> bool {
    let diff = e1.sub(e2);
    if diff.vars().any(|v| v != i1 && v != i2) {
        return false;
    }
    let a = diff.coef(i1);
    let b = diff.coef(i2);
    let c = diff.constant_part();
    // Constant difference: the subscripts differ by a fixed nonzero amount.
    if a == 0 && b == 0 {
        if c != 0 {
            SUBSCRIPT_REJECTS.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        return false;
    }
    // GCD test: a·i1 + b·i2 = -c needs gcd(a, b) | c.
    let g = gcd(a, b);
    if g > 1 && c % g != 0 {
        SUBSCRIPT_REJECTS.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    // Opposite coefficients: a·(i1 - i2) + c == 0 pins the iteration
    // distance to t = i2 - i1 = c / a, which must be >= 1 (strictly later
    // iteration) and at most the trip span when the bounds are constant.
    if a == -b && a != 0 && c % a == 0 {
        let t = c / a;
        let max_span = bounds.map_or(i64::MAX, |(lo, hi)| (hi - lo).max(0));
        if t < 1 || t > max_span {
            SUBSCRIPT_REJECTS.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        return false;
    }
    // Banerjee box test: bound a·i1 + b·i2 + c over lo <= i1, i2 <= hi.
    if let Some((lo, hi)) = bounds {
        if lo <= hi {
            let (lo, hi, a, b, c) = (
                i128::from(lo),
                i128::from(hi),
                i128::from(a),
                i128::from(b),
                i128::from(c),
            );
            let mn = c + (a * lo).min(a * hi) + (b * lo).min(b * hi);
            let mx = c + (a * lo).max(a * hi) + (b * lo).max(b * hi);
            if mn > 0 || mx < 0 {
                SUBSCRIPT_REJECTS.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
    }
    false
}

/// Does nothing: `prove_empty` keeps no state to clear.  Kept only because
/// the frozen `perfbench/` harness links it by name (`perfbench/src/layers.rs`);
/// the next `benchmark` PR drops those calls and this function with them.
pub fn clear_prove_empty_cache() {}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.empty {
            return write!(f, "{{⊥}}");
        }
        if self.constraints.is_empty() {
            return write!(f, "{{⊤}}");
        }
        write!(f, "{{ ")?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32) -> Var {
        Var::Sym(id)
    }
    fn x() -> LinExpr {
        LinExpr::var(s(0))
    }
    fn y() -> LinExpr {
        LinExpr::var(s(1))
    }

    /// 1 <= x <= 10
    fn range_1_10() -> Polyhedron {
        Polyhedron::from_constraints([
            Constraint::geq(&x(), &LinExpr::constant(1)),
            Constraint::leq(&x(), &LinExpr::constant(10)),
        ])
    }

    #[test]
    fn universe_and_bottom() {
        assert!(Polyhedron::universe().is_universe());
        assert!(Polyhedron::bottom().is_proven_empty());
        assert!(Polyhedron::bottom().prove_empty());
        assert!(!Polyhedron::universe().prove_empty());
    }

    #[test]
    fn contradiction_is_detected_on_add() {
        let p = Polyhedron::from_constraints([
            Constraint::geq(&x(), &LinExpr::constant(5)),
            Constraint::leq(&x(), &LinExpr::constant(2)),
        ]);
        assert!(p.prove_empty());
    }

    #[test]
    fn projection_keeps_transitive_bounds() {
        // 1 <= x <= 10, y = x + 2  ==> after eliminating x: 3 <= y <= 12
        let mut p = range_1_10();
        p.add_constraint(Constraint::eq(&y(), &x().offset(2)));
        let q = p.project_out(s(0));
        assert!(!q.mentions(s(0)));
        let in_range = |v: i64| {
            q.contains_point(&|var| if var == s(1) { Some(v) } else { None })
                .unwrap()
        };
        assert!(in_range(3));
        assert!(in_range(12));
        assert!(!in_range(2));
        assert!(!in_range(13));
    }

    #[test]
    fn projection_of_unconstrained_var_is_identity() {
        let p = range_1_10();
        assert_eq!(p.project_out(s(7)), p);
    }

    #[test]
    fn subset_tests() {
        // [2,5] ⊆ [1,10]
        let small = Polyhedron::from_constraints([
            Constraint::geq(&x(), &LinExpr::constant(2)),
            Constraint::leq(&x(), &LinExpr::constant(5)),
        ]);
        let big = range_1_10();
        assert!(small.provably_subset_of(&big));
        assert!(!big.provably_subset_of(&small));
        assert!(Polyhedron::bottom().provably_subset_of(&small));
        assert!(small.provably_subset_of(&Polyhedron::universe()));
    }

    #[test]
    fn symbolic_subset() {
        // {d0 == s0} ⊆ {s0 <= d0 <= s0 + 1}
        let d = LinExpr::var(Var::Dim(0));
        let n = LinExpr::var(s(0));
        let point = Polyhedron::from_constraints([Constraint::eq(&d, &n)]);
        let seg = Polyhedron::from_constraints([
            Constraint::geq(&d, &n),
            Constraint::leq(&d, &n.offset(1)),
        ]);
        assert!(point.provably_subset_of(&seg));
        assert!(!seg.provably_subset_of(&point));
    }

    #[test]
    fn exact_projection_rules() {
        // Unbounded above: always exact (any shadow point extends upward).
        let p = Polyhedron::from_constraints([Constraint::geq(&x().scale(2), &y())]);
        assert!(p.project_exact(s(0)).is_some());
        // Unit bounds: exact.
        let q = range_1_10();
        assert!(q.project_exact(s(0)).is_some());
        // 2x == y as inequalities: slack 0 < 1 → NOT exact (only even y).
        let tight = Polyhedron::from_constraints([
            Constraint::geq(&x().scale(2), &y()),
            Constraint::leq(&x().scale(2), &y()),
        ]);
        assert!(tight.project_exact(s(0)).is_none());
        // y <= 6x <= y+5: any 6 consecutive integers contain a multiple of
        // 6 → exact (the linearized rectangular-nest pattern).
        let nest = Polyhedron::from_constraints([
            Constraint::geq(&x().scale(6), &y()),
            Constraint::leq(&x().scale(6), &y().offset(5)),
        ]);
        assert!(nest.project_exact(s(0)).is_some());
        // Width 4 < 5 → may miss a multiple of 6 → not exact.
        let thin = Polyhedron::from_constraints([
            Constraint::geq(&x().scale(6), &y()),
            Constraint::leq(&x().scale(6), &y().offset(4)),
        ]);
        assert!(thin.project_exact(s(0)).is_none());
        // Redundant unit bound is discarded: add x >= 1 implied by
        // 6x >= y ∧ y >= 1; exactness survives.
        let with_unit = Polyhedron::from_constraints([
            Constraint::geq(&x().scale(6), &y()),
            Constraint::leq(&x().scale(6), &y().offset(5)),
            Constraint::geq(&x(), &LinExpr::constant(1)),
            Constraint::geq(&y(), &LinExpr::constant(1)),
        ]);
        assert!(with_unit.project_exact(s(0)).is_some());
    }

    #[test]
    fn membership() {
        let p = range_1_10();
        let at = |v: i64| {
            p.contains_point(&|var| if var == s(0) { Some(v) } else { None })
                .unwrap()
        };
        assert!(at(1) && at(10) && !at(0) && !at(11));
    }

    #[test]
    fn eq_substitution_path() {
        // x == 3, x >= y  -> after projecting x: 3 >= y
        let p = Polyhedron::from_constraints([
            Constraint::eq(&x(), &LinExpr::constant(3)),
            Constraint::geq(&x(), &y()),
        ]);
        let q = p.project_out(s(0));
        let at = |v: i64| {
            q.contains_point(&|var| if var == s(1) { Some(v) } else { None })
                .unwrap()
        };
        assert!(at(3) && !at(4));
    }

    #[test]
    fn dependence_style_emptiness() {
        // Two iterations i1 != i2 writing a(i): {d0 == i1, d0 == i2, i1 < i2}
        // must be provably empty (no cross-iteration overlap).
        let d = LinExpr::var(Var::Dim(0));
        let i1 = LinExpr::var(s(10));
        let i2 = LinExpr::var(s(11));
        let p = Polyhedron::from_constraints([
            Constraint::eq(&d, &i1),
            Constraint::eq(&d, &i2),
            Constraint::lt(&i1, &i2),
        ]);
        assert!(p.prove_empty());

        // Writing a(i) and reading a(i-1) across iterations overlaps:
        // {d0 == i1, d0 == i2 - 1, i1 < i2} is satisfiable.
        let q = Polyhedron::from_constraints([
            Constraint::eq(&d, &i1),
            Constraint::eq(&d, &i2.offset(-1)),
            Constraint::lt(&i1, &i2),
        ]);
        assert!(!q.prove_empty());
    }

    /// `lo <= e <= hi`.
    fn between(e: &LinExpr, lo: i64, hi: i64) -> [Constraint; 2] {
        [
            Constraint::geq(e, &LinExpr::constant(lo)),
            Constraint::leq(e, &LinExpr::constant(hi)),
        ]
    }

    /// The witness search's answer from one corner of `p`'s box.
    fn witness_at(p: &Polyhedron, corner: Corner) -> Option<bool> {
        let live: Vec<&Constraint> = p.constraints().iter().collect();
        let vars = witness_vars(&live, &p.unit_box());
        let start = vars.iter().map(|w| w.start(corner)).collect();
        witness_from(&live, &vars, start).ok()
    }

    #[test]
    fn witness_follows_the_pull_when_both_uniform_corners_fail() {
        // 1 <= a, b <= 12, b - a - 1 >= 0: a is pulled low, b high.
        let p = Polyhedron::from_constraints(
            between(&x(), 1, 12)
                .into_iter()
                .chain(between(&y(), 1, 12))
                .chain([Constraint::geq0(y().sub(&x()).offset(-1))]),
        );
        assert_eq!(witness_at(&p, Corner::Low), Some(false));
        assert_eq!(witness_at(&p, Corner::High), Some(false));
        assert_eq!(witness_at(&p, Corner::Pulled), Some(true));
        assert!(matches!(p.interval_stage(), IntervalVerdict::Witness));
        assert!(!p.prove_empty());
    }

    #[test]
    fn witness_solves_a_variable_without_unit_bounds() {
        // 13s - 12 <= d <= 13s, 1 <= s <= 10: the band of a linearized
        // 2-D subscript; d has no unit bound and is solved from s.
        let d = LinExpr::var(Var::Dim(0));
        let s13 = x().scale(13);
        let p = Polyhedron::from_constraints(between(&x(), 1, 10).into_iter().chain([
            Constraint::geq(&d, &s13.offset(-12)),
            Constraint::leq(&d, &s13),
        ]));
        assert_eq!(witness_at(&p, Corner::Pulled), Some(true));
        assert!(matches!(p.interval_stage(), IntervalVerdict::Witness));
        assert!(!p.prove_empty());
    }

    #[test]
    fn witness_gives_up_on_overflow_without_panicking() {
        // At the pulled (high) corner M·x + M·y + (M-1)·z overflows i128.
        let m = i64::MAX;
        let z = LinExpr::var(s(2));
        let sum = x().scale(m).add(&y().scale(m)).add(&z.scale(m - 1));
        let p = Polyhedron::from_constraints(
            between(&x(), 1, m)
                .into_iter()
                .chain(between(&y(), 1, m))
                .chain(between(&z, 1, m))
                .chain([Constraint::geq0(sum.offset(-1))]),
        );
        assert_eq!(witness_at(&p, Corner::Pulled), None);
        let live: Vec<&Constraint> = p.constraints().iter().collect();
        assert!(!integer_witness(&live, &p.unit_box()));
        assert!(!matches!(p.interval_stage(), IntervalVerdict::Witness));
        p.prove_empty();
    }

    #[test]
    fn integrally_empty_systems_get_no_witness() {
        // 3x + 5y == 4 (as two inequalities) over 0 <= x, y <= 1: the
        // rational solution x = 1, y = 1/5 has no integer neighbour.
        let e = x().scale(3).add(&y().scale(5));
        let p = Polyhedron::from_constraints(
            between(&x(), 0, 1)
                .into_iter()
                .chain(between(&y(), 0, 1))
                .chain(between(&e, 4, 4)),
        );
        assert!(!p.is_proven_empty());
        for corner in [Corner::Pulled, Corner::Low, Corner::High] {
            assert_eq!(witness_at(&p, corner), Some(false));
        }
        assert!(matches!(p.interval_stage(), IntervalVerdict::Unknown));
    }
}
