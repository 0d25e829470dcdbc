//! Finite unions of polyhedra — the paper's "sets of systems of linear
//! inequalities" (§5.2.1).

use crate::constraint::{fnv, Constraint, FNV_OFFSET};
use crate::expr::{LinExpr, Var};
use crate::polyhedron::{Polyhedron, DISJUNCT_WIDENINGS, SUBTRACT_GIVEUPS};
use crate::{subtract_test_budget, MAX_DISJUNCTS, SUBTRACT_WORK_BUDGET};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A union (disjunction) of convex polyhedra.
///
/// The empty union denotes the empty set.  A `PolySet` may carry an
/// `approximate` flag meaning it over-approximates the intended set (sound
/// for may-information).
///
/// The disjuncts are immutable shared storage: cloning a set copies a
/// pointer, every operation builds its result's disjuncts in a private
/// vector and freezes them once, and the empty set allocates nothing
/// (`None`; never an empty slice, so derived equality is content equality).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct PolySet {
    disjuncts: Option<Arc<[Polyhedron]>>,
    approximate: bool,
}

impl PolySet {
    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The universe.
    pub fn universe() -> Self {
        PolySet::from_parts(vec![Polyhedron::universe()], false)
    }

    /// A single-polyhedron set.
    pub fn from_poly(p: Polyhedron) -> Self {
        PolySet::collect([p], false)
    }

    /// [`PolySet::push`] each of `parts` in turn into the empty set flagged
    /// `approximate`, freezing the disjuncts once at the end.
    pub(crate) fn collect(parts: impl IntoIterator<Item = Polyhedron>, approximate: bool) -> Self {
        let mut disjuncts = Vec::new();
        let mut approximate = approximate;
        for p in parts {
            push_disjunct(&mut disjuncts, &mut approximate, p);
        }
        PolySet::from_parts(disjuncts, approximate)
    }

    /// The same disjuncts (shared, not copied) under another set-level flag.
    fn with_flag(&self, approximate: bool) -> Self {
        PolySet {
            disjuncts: self.disjuncts.clone(),
            approximate,
        }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[Polyhedron] {
        self.disjuncts.as_deref().unwrap_or_default()
    }

    /// Address of the shared disjunct storage (`None` for the empty set):
    /// two sets report the same address exactly when they share one
    /// allocation.
    pub fn storage_addr(&self) -> Option<usize> {
        self.disjuncts
            .as_ref()
            .map(|d| Arc::as_ptr(d) as *const Polyhedron as usize)
    }

    /// Rebuild from previously observed parts, verbatim.
    ///
    /// Unlike [`PolySet::push`] this performs no subsumption or widening —
    /// the parts must come from an earlier set (e.g. a decoded snapshot),
    /// where those reductions already ran; re-running them would change the
    /// representation and break bit-identical round-trips.
    pub fn from_parts(disjuncts: Vec<Polyhedron>, approximate: bool) -> Self {
        PolySet {
            disjuncts: (!disjuncts.is_empty()).then(|| disjuncts.into()),
            approximate,
        }
    }

    /// The set-level `approximate` flag alone, *without* folding in the
    /// per-disjunct flags the way [`PolySet::is_approximate`] does.  This is
    /// the raw field a faithful serialization must capture.
    pub fn set_approximate(&self) -> bool {
        self.approximate
    }

    /// True when the set is syntactically empty (no satisfiable disjunct kept).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_none()
    }

    /// True when any disjunct is the universe.
    pub fn is_universe(&self) -> bool {
        self.disjuncts().iter().any(|p| p.is_universe())
    }

    /// True if precision was lost building this set.
    pub fn is_approximate(&self) -> bool {
        self.approximate || self.disjuncts().iter().any(|p| p.is_approximate())
    }

    /// Mark as over-approximate.
    pub fn mark_approximate(&mut self) {
        self.approximate = true;
    }

    /// Add one disjunct, dropping proven-empty ones and merging duplicates.
    ///
    /// Subsumption uses a *cheap syntactic* test (a disjunct with a
    /// constraint superset is contained in one with a subset) — running the
    /// full Fourier–Motzkin containment here would dominate every analysis
    /// (unions happen on every meet/transfer).  Copies the shared disjuncts
    /// on write; the set operations build theirs in one private vector
    /// instead.
    pub fn push(&mut self, p: Polyhedron) {
        let mut disjuncts = self.disjuncts().to_vec();
        push_disjunct(&mut disjuncts, &mut self.approximate, p);
        *self = PolySet::from_parts(disjuncts, self.approximate);
    }

    /// Union of two sets.
    ///
    /// Every set's disjuncts are an antichain under [`PolySet::push`]'s
    /// subsumption test (nothing else builds them), so pushing them into an
    /// empty set — or into a set with the same disjuncts — reproduces them:
    /// those cases share the storage instead of re-pushing.
    pub fn union(&self, other: &PolySet) -> PolySet {
        let approximate = self.approximate | other.approximate;
        if self.is_empty() {
            return other.with_flag(approximate);
        }
        if other.is_empty() || self.disjuncts == other.disjuncts {
            return self.with_flag(approximate);
        }
        let mut disjuncts = self.disjuncts().to_vec();
        let mut approximate = approximate;
        for p in other.disjuncts() {
            push_disjunct(&mut disjuncts, &mut approximate, p.clone());
        }
        PolySet::from_parts(disjuncts, approximate)
    }

    /// Pairwise intersection.
    pub fn intersect(&self, other: &PolySet) -> PolySet {
        let pairs = self
            .disjuncts()
            .iter()
            .flat_map(|a| other.disjuncts().iter().map(move |b| a.intersect(b)))
            .filter(|p| !p.prove_empty());
        PolySet::collect(pairs, self.approximate || other.approximate)
    }

    /// Set difference `self \ other`, over-approximated (sound for
    /// may-information: the result is a superset of the true difference and a
    /// subset of `self`).
    ///
    /// For each disjunct of `self` we subtract each disjunct of `other` by
    /// distributing its negated constraints; if the blow-up exceeds the
    /// budget we fall back to returning the minuend disjunct unchanged.
    pub fn subtract(&self, other: &PolySet) -> PolySet {
        if other.is_empty() {
            return self.clone();
        }
        let mut current: Vec<Polyhedron> = self.disjuncts().to_vec();
        let mut approx = self.approximate;
        // Total emptiness-test budget for this call.  Subtracting a
        // many-disjunct subtrahend from a many-disjunct minuend is
        // quadratic in pieces, each piece needing a Fourier-Motzkin
        // emptiness proof; past this budget remaining minuend disjuncts are
        // kept unchanged (sound over-approximation).
        let mut tests_left: isize = subtract_test_budget();
        for sub in other.disjuncts() {
            if sub.is_universe() && !sub.is_approximate() {
                return PolySet::empty();
            }
            if sub.is_approximate() || other.approximate {
                // Subtrahend is over-approximate: subtracting it could remove
                // points that are actually in the true difference — skip it
                // (keeping the minuend is the sound over-approximation).
                approx = true;
                continue;
            }
            let mut next: Vec<Polyhedron> = Vec::new();
            for p in &current {
                // No subset pre-check: `p ⊆ sub` iff every piece below is
                // empty, so the distribution itself detects full removal and
                // a pre-check would compute the exact same emptiness queries
                // twice.
                // Each piece below costs an emptiness proof over roughly
                // `p`'s system; on large systems the distribution is the
                // single most expensive operation of the whole analysis.
                // Past this budget, keep the minuend unchanged (a sound
                // over-approximation of the difference).
                if tests_left <= 0
                    || p.num_constraints() * sub.num_constraints() > SUBTRACT_WORK_BUDGET
                {
                    SUBTRACT_GIVEUPS.fetch_add(1, Ordering::Relaxed);
                    approx = true;
                    next.push(p.clone());
                    continue;
                }
                // p \ sub = ⋃_{c ∈ sub} (p ∧ ¬c)
                let mut pieces: Vec<Polyhedron> = Vec::new();
                let mut blown = false;
                for c in sub.constraints() {
                    for neg in c.negate() {
                        let mut piece = p.clone();
                        piece.add_constraint(neg);
                        tests_left -= 1;
                        if !piece.prove_empty() {
                            pieces.push(piece);
                        }
                        if pieces.len() > MAX_DISJUNCTS {
                            blown = true;
                            break;
                        }
                    }
                    if blown {
                        break;
                    }
                }
                if blown {
                    SUBTRACT_GIVEUPS.fetch_add(1, Ordering::Relaxed);
                    approx = true;
                    next.push(p.clone()); // sound over-approximation
                } else {
                    next.extend(pieces);
                }
            }
            current = next;
        }
        PolySet::collect(current, approx)
    }

    /// Project a variable out of every disjunct (over-approximate / "closure").
    pub fn project_out(&self, v: Var) -> PolySet {
        self.map_disjuncts(|p| p.project_out(v))
    }

    /// Exact integer projection of a variable from every disjunct; `None` if
    /// any disjunct cannot be projected exactly.
    pub fn project_exact(&self, v: Var) -> Option<PolySet> {
        let parts: Option<Vec<Polyhedron>> = self
            .disjuncts()
            .iter()
            .map(|p| p.project_exact(v))
            .collect();
        Some(PolySet::collect(parts?, self.approximate))
    }

    /// Substitute a variable by an expression in every disjunct.
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> PolySet {
        self.map_disjuncts(|p| p.substitute(v, repl))
    }

    /// Rename a variable in every disjunct.
    pub fn rename(&self, from: Var, to: Var) -> PolySet {
        self.map_disjuncts(|p| p.rename(from, to))
    }

    /// The set of `f` applied to every disjunct, under this set's flag.
    fn map_disjuncts(&self, f: impl FnMut(&Polyhedron) -> Polyhedron) -> PolySet {
        PolySet::collect(self.disjuncts().iter().map(f), self.approximate)
    }

    /// Add one constraint to every disjunct.
    pub fn constrain(&self, c: &Constraint) -> PolySet {
        let parts = self.disjuncts().iter().filter_map(|p| {
            let mut q = p.clone();
            q.add_constraint(c.clone());
            (!q.prove_empty()).then_some(q)
        });
        PolySet::collect(parts, self.approximate)
    }

    /// Can the set be proven empty?
    pub fn prove_empty(&self) -> bool {
        self.disjuncts().iter().all(|p| p.prove_empty())
    }

    /// Does `self ∩ other` provably equal the empty set?
    pub fn provably_disjoint(&self, other: &PolySet) -> bool {
        for a in self.disjuncts() {
            for b in other.disjuncts() {
                if !a.intersect(b).prove_empty() {
                    return false;
                }
            }
        }
        true
    }

    /// Does `self ⊆ other` provably hold?
    pub fn provably_subset_of(&self, other: &PolySet) -> bool {
        if self.is_approximate() && !other.is_universe() {
            return false;
        }
        self.disjuncts()
            .iter()
            .all(|a| other.disjuncts().iter().any(|b| a.provably_subset_of(b)))
            || self.subtract(other).prove_empty()
    }

    /// Membership of a concrete point.
    pub fn contains_point(&self, env: &dyn Fn(Var) -> Option<i64>) -> Option<bool> {
        for p in self.disjuncts() {
            if p.contains_point(env)? {
                return Some(true);
            }
        }
        Some(false)
    }

    /// All variables mentioned.
    pub fn vars(&self) -> std::collections::BTreeSet<Var> {
        let mut out = std::collections::BTreeSet::new();
        for p in self.disjuncts() {
            out.extend(p.vars());
        }
        out
    }
}

/// [`PolySet::push`] on a set under construction.  What it leaves is an
/// antichain under the syntactic subsumption test, of at most
/// [`MAX_DISJUNCTS`] disjuncts.
fn push_disjunct(disjuncts: &mut Vec<Polyhedron>, approximate: &mut bool, p: Polyhedron) {
    if p.is_proven_empty() {
        return;
    }
    if disjuncts.iter().any(|q| q == &p) {
        return;
    }
    let subset_syntactic = |a: &Polyhedron, b: &Polyhedron| {
        // a ⊆ b when every constraint of b also appears in a.
        b.constraints().iter().all(|c| a.constraints().contains(c))
    };
    if disjuncts.iter().any(|q| subset_syntactic(&p, q)) {
        return;
    }
    disjuncts.retain(|q| !subset_syntactic(q, &p));
    if disjuncts.len() >= MAX_DISJUNCTS {
        // Sound widening for may-sets: collapse to the universe over the
        // same variables (keep a single approximate universe disjunct).
        DISJUNCT_WIDENINGS.fetch_add(1, Ordering::Relaxed);
        disjuncts.clear();
        let mut top = Polyhedron::universe();
        top.mark_approximate();
        disjuncts.push(top);
        *approximate = true;
        return;
    }
    disjuncts.push(p);
}

/// Hash-consing pool for [`PolySet`] disjunct storage: every set interned
/// through one pool shares a single allocation with each earlier interned
/// set of equal content.
///
/// Keyed by a fold of the constraints' precomputed fingerprints; a key hit
/// is shared only after a full equality check.  A pool is meant to live as
/// long as one compaction of one value — nothing here is global, locked, or
/// kept once the value is finished.
#[derive(Default)]
pub struct PolySetPool {
    by_key: HashMap<u64, Vec<Arc<[Polyhedron]>>>,
}

impl PolySetPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Point `set` at the pool's storage for its content, first adding that
    /// content to the pool if it is new.  The empty set has no storage and
    /// is left alone.
    pub fn intern(&mut self, set: &mut PolySet) {
        let Some(d) = &set.disjuncts else { return };
        let bucket = self.by_key.entry(content_key(d)).or_default();
        match bucket.iter().find(|s| s[..] == d[..]) {
            Some(shared) => set.disjuncts = Some(shared.clone()),
            None => bucket.push(d.clone()),
        }
    }
}

/// FNV fold of every disjunct's flags and constraint fingerprints.
fn content_key(disjuncts: &[Polyhedron]) -> u64 {
    let mut h = FNV_OFFSET;
    for p in disjuncts {
        let flags = u64::from(p.is_proven_empty()) | u64::from(p.is_approximate()) << 1;
        h = fnv(h, flags | (p.num_constraints() as u64) << 2);
        for c in p.constraints() {
            h = fnv(h, c.fingerprint());
        }
    }
    h
}

impl fmt::Display for PolySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        for (i, p) in self.disjuncts().iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{p}")?;
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
    fn x() -> LinExpr {
        LinExpr::var(s(0))
    }

    fn interval(lo: i64, hi: i64) -> Polyhedron {
        Polyhedron::from_constraints([
            Constraint::geq(&x(), &LinExpr::constant(lo)),
            Constraint::leq(&x(), &LinExpr::constant(hi)),
        ])
    }

    #[test]
    fn union_subsumption() {
        // Subsumption is the cheap syntactic test: a disjunct whose
        // constraint set is a superset of another's is dropped.  An exact
        // duplicate is the simplest superset.
        let mut s1 = PolySet::from_poly(interval(1, 10));
        s1.push(interval(1, 10)); // identical — merged
        assert_eq!(s1.disjuncts().len(), 1);
        // [1,10] with the extra constraint x >= 2 is syntactically contained.
        let mut narrower = interval(1, 10);
        narrower.add_constraint(Constraint::geq0(x().offset(-2)));
        s1.push(narrower);
        assert_eq!(s1.disjuncts().len(), 1);
        // [2,5] is semantically inside [1,10] but shares no constraint with
        // it, so the cheap test keeps both (sound, just less compact).
        s1.push(interval(2, 5));
        assert_eq!(s1.disjuncts().len(), 2);
        s1.push(interval(20, 30));
        assert_eq!(s1.disjuncts().len(), 3);
    }

    #[test]
    fn subtract_interval() {
        // [1,10] \ [4,6] = [1,3] ∪ [7,10]
        let a = PolySet::from_poly(interval(1, 10));
        let b = PolySet::from_poly(interval(4, 6));
        let d = a.subtract(&b);
        let at = |v: i64| {
            d.contains_point(&|var| if var == s(0) { Some(v) } else { None })
                .unwrap()
        };
        assert!(at(3) && at(7) && at(1) && at(10));
        assert!(!at(4) && !at(5) && !at(6));
        assert!(!d.is_approximate());
    }

    #[test]
    fn subtract_covering_set_is_empty() {
        let a = PolySet::from_poly(interval(2, 5));
        let b = PolySet::from_poly(interval(1, 10));
        assert!(a.subtract(&b).prove_empty());
    }

    #[test]
    fn disjointness() {
        let a = PolySet::from_poly(interval(1, 5));
        let b = PolySet::from_poly(interval(6, 9));
        let c = PolySet::from_poly(interval(5, 6));
        assert!(a.provably_disjoint(&b));
        assert!(!a.provably_disjoint(&c));
    }

    #[test]
    fn subset_over_unions() {
        let mut a = PolySet::from_poly(interval(1, 3));
        a.push(interval(7, 9));
        let big = PolySet::from_poly(interval(0, 10));
        assert!(a.provably_subset_of(&big));
        assert!(!big.provably_subset_of(&a));
    }

    #[test]
    fn widening_to_universe_is_flagged() {
        let mut s1 = PolySet::empty();
        for i in 0..(MAX_DISJUNCTS as i64 + 4) {
            s1.push(interval(10 * i, 10 * i + 1));
        }
        assert!(s1.is_approximate());
        assert!(s1.is_universe());
    }

    #[test]
    fn approximate_subtrahend_is_skipped() {
        let a = PolySet::from_poly(interval(1, 10));
        let mut b = PolySet::from_poly(interval(1, 10));
        b.mark_approximate();
        let d = a.subtract(&b);
        // Sound behaviour: keep the minuend, flag approximation.
        assert!(!d.prove_empty());
        assert!(d.is_approximate());
    }

    #[test]
    fn closure_projects_loop_index() {
        // d0 == i, 1 <= i <= n  --closure over i-->  1 <= d0 <= n
        let d = LinExpr::var(Var::Dim(0));
        let i = LinExpr::var(s(1));
        let n = LinExpr::var(s(2));
        let p = Polyhedron::from_constraints([
            Constraint::eq(&d, &i),
            Constraint::geq(&i, &LinExpr::constant(1)),
            Constraint::leq(&i, &n),
        ]);
        let set = PolySet::from_poly(p).project_out(s(1));
        let at = |dv: i64, nv: i64| {
            set.contains_point(&|var| match var {
                Var::Dim(0) => Some(dv),
                Var::Sym(2) => Some(nv),
                _ => None,
            })
            .unwrap()
        };
        assert!(at(1, 5) && at(5, 5));
        assert!(!at(0, 5) && !at(6, 5));
    }
    #[test]
    fn subtract_budget_zero_keeps_minuend_approximately() {
        // With a zero budget the subtraction is skipped entirely: the
        // minuend comes back unchanged and flagged approximate (the sound
        // over-approximation the liveness transfer relies on).
        crate::set_subtract_test_budget(Some(0));
        let a = PolySet::from_poly(interval(1, 10));
        let b = PolySet::from_poly(interval(4, 6));
        let d = a.subtract(&b);
        crate::set_subtract_test_budget(None);
        assert!(d.is_approximate());
        for v in [1, 5, 10] {
            assert_eq!(
                d.contains_point(&|var| if var == s(0) { Some(v) } else { None }),
                Some(true),
                "budget-skipped subtract must keep {v}"
            );
        }
        // Default budget restored: the same subtraction is exact again.
        let d2 = a.subtract(&b);
        assert!(!d2.is_approximate());
        assert_eq!(
            d2.contains_point(&|var| if var == s(0) { Some(5) } else { None }),
            Some(false)
        );
    }
}
