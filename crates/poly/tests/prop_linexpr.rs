//! Property tests for the inline small-vector `LinExpr` and the staged
//! emptiness ladder.
//!
//! The small-vector representation must be *bit-identical* to the old
//! `BTreeMap<Var, i64>` model — same terms, same order, same saturating
//! arithmetic, same zero-elision — so every structure keyed or sorted on
//! expressions (constraint dedup, snapshot codec) is oblivious
//! to the change.  `RefExpr` below is that reference model; each arithmetic
//! op is checked against it on random inputs.
//!
//! The second group differentially tests the staged `prove_empty` ladder
//! (GCD / interval / quick-sat, then Fourier–Motzkin) against the executable
//! pre-overhaul kernel (`legacy_kernel`, a module of this test binary): on
//! random small polyhedra both kernels must return the same verdict, up to
//! provably-sound precision differences.

mod legacy_kernel;

use proptest::prelude::*;
use std::collections::BTreeMap;
use suif_poly::{Constraint, LinExpr, Polyhedron, Var};

const VARS: [Var; 5] = [
    Var::Dim(0),
    Var::Dim(1),
    Var::Sym(0),
    Var::Sym(7),
    Var::Sym(900),
];

/// The pre-overhaul `LinExpr` representation, reimplemented as the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RefExpr {
    terms: BTreeMap<Var, i64>,
    constant: i64,
}

impl RefExpr {
    fn zero() -> RefExpr {
        RefExpr {
            terms: BTreeMap::new(),
            constant: 0,
        }
    }

    fn from_parts(coefs: &[(Var, i64)], constant: i64) -> RefExpr {
        let mut e = RefExpr::zero();
        e.constant = constant;
        for &(v, c) in coefs {
            let n = e.terms.get(&v).copied().unwrap_or(0).saturating_add(c);
            if n == 0 {
                e.terms.remove(&v);
            } else {
                e.terms.insert(v, n);
            }
        }
        e
    }

    fn coef(&self, v: Var) -> i64 {
        self.terms.get(&v).copied().unwrap_or(0)
    }

    fn add(&self, other: &RefExpr) -> RefExpr {
        let mut out = self.clone();
        out.constant = out.constant.saturating_add(other.constant);
        for (&v, &c) in &other.terms {
            let n = out.coef(v).saturating_add(c);
            if n == 0 {
                out.terms.remove(&v);
            } else {
                out.terms.insert(v, n);
            }
        }
        out
    }

    fn scale(&self, k: i64) -> RefExpr {
        if k == 0 {
            return RefExpr::zero();
        }
        RefExpr {
            terms: self
                .terms
                .iter()
                .map(|(&v, &c)| (v, c.saturating_mul(k)))
                .collect(),
            constant: self.constant.saturating_mul(k),
        }
    }

    fn sub(&self, other: &RefExpr) -> RefExpr {
        self.add(&other.scale(-1))
    }

    fn substitute(&self, v: Var, repl: &RefExpr) -> RefExpr {
        let c = self.coef(v);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(&v);
        out.add(&repl.scale(c))
    }
}

/// Bit-identity: same terms in the same (sorted) order, same constant.
fn assert_same(got: &LinExpr, want: &RefExpr) -> Result<(), TestCaseError> {
    let g: Vec<(Var, i64)> = got.terms().collect();
    let w: Vec<(Var, i64)> = want.terms.iter().map(|(&v, &c)| (v, c)).collect();
    prop_assert_eq!(&g, &w, "terms diverge: {:?} vs {:?}", got, want);
    prop_assert_eq!(got.constant_part(), want.constant);
    for &v in &VARS {
        prop_assert_eq!(got.coef(v), want.coef(v));
    }
    let gv: Vec<Var> = got.vars().collect();
    let wv: Vec<Var> = want.terms.keys().copied().collect();
    prop_assert_eq!(gv, wv);
    Ok(())
}

/// A random expression together with its reference model, built through the
/// same `term`-accumulation path on both sides (exercising spill past the
/// inline capacity when many distinct vars land).
fn pair() -> impl Strategy<Value = (LinExpr, RefExpr)> {
    (
        prop::collection::vec((0usize..VARS.len(), -9i64..=9), 0..8),
        -20i64..=20,
    )
        .prop_map(|(picks, k)| {
            let coefs: Vec<(Var, i64)> = picks.iter().map(|&(i, c)| (VARS[i], c)).collect();
            let mut e = LinExpr::constant(k);
            for &(v, c) in &coefs {
                e = e.add(&LinExpr::term(v, c));
            }
            (e, RefExpr::from_parts(&coefs, k))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn construction_matches_reference(p in pair()) {
        assert_same(&p.0, &p.1)?;
    }

    #[test]
    fn add_matches_reference(a in pair(), b in pair()) {
        assert_same(&a.0.add(&b.0), &a.1.add(&b.1))?;
    }

    #[test]
    fn sub_matches_reference(a in pair(), b in pair()) {
        assert_same(&a.0.sub(&b.0), &a.1.sub(&b.1))?;
    }

    #[test]
    fn scale_matches_reference(a in pair(), k in -5i64..=5) {
        assert_same(&a.0.scale(k), &a.1.scale(k))?;
    }

    #[test]
    fn substitute_matches_reference(a in pair(), r in pair(), vi in 0usize..VARS.len()) {
        let v = VARS[vi];
        // The replacement must not mention the substituted variable.
        let repl = r.0.sub(&LinExpr::term(v, r.0.coef(v)));
        let repl_ref = r.1.sub(&RefExpr::from_parts(&[(v, r.1.coef(v))], 0));
        assert_same(&a.0.substitute(v, &repl), &a.1.substitute(v, &repl_ref))?;
    }

    #[test]
    fn eq_ord_hash_follow_reference_equality(a in pair(), b in pair()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let same = a.1 == b.1;
        prop_assert_eq!(a.0 == b.0, same);
        prop_assert_eq!(a.0.cmp(&b.0) == std::cmp::Ordering::Equal, same);
        if same {
            let h = |e: &LinExpr| {
                let mut s = DefaultHasher::new();
                e.hash(&mut s);
                s.finish()
            };
            prop_assert_eq!(h(&a.0), h(&b.0));
        }
    }
}

// ---------------------------------------------------------------------------
// Staged ladder vs. pre-overhaul kernel agreement.
// ---------------------------------------------------------------------------

fn lin_expr() -> impl Strategy<Value = LinExpr> {
    (prop::collection::vec(-3i64..=3, 3), -6i64..=6).prop_map(|(coefs, c)| {
        let mut e = LinExpr::constant(c);
        for (i, &k) in coefs.iter().enumerate() {
            e = e.add(&LinExpr::term(VARS[i], k));
        }
        e
    })
}

fn constraint() -> impl Strategy<Value = Constraint> {
    (lin_expr(), prop::bool::ANY).prop_map(|(e, eq)| {
        if eq {
            Constraint::eq0(e)
        } else {
            Constraint::geq0(e)
        }
    })
}

/// No integer point of the bounded grid satisfies `p` — the witness check
/// backing any "proven empty" claim at the coefficient/constant scales the
/// strategies generate.
fn grid_clean(p: &Polyhedron) -> bool {
    let grid = -8i64..=8;
    for a in grid.clone() {
        for b in grid.clone() {
            for c in grid.clone() {
                let inside = p
                    .contains_point(&|v| match v {
                        Var::Dim(0) => Some(a),
                        Var::Dim(1) => Some(b),
                        Var::Sym(0) => Some(c),
                        _ => None,
                    })
                    .unwrap_or(false);
                if inside {
                    return false;
                }
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The staged ladder and the pre-overhaul kernel (`legacy_kernel`,
    /// called directly) reach the same `prove_empty` verdict on random
    /// polyhedra — except where integrality makes them legitimately differ
    /// in *precision*: the two kernels run different elimination orders and
    /// modular tests (rational FM is blind to integrality), so one may prove
    /// an integrally-empty system that the other only fails to refute.  A
    /// diverging "empty" claim must then be demonstrably sound: no integer
    /// grid point may satisfy the system.
    #[test]
    fn staged_prove_empty_agrees_with_legacy_kernel(
        cs in prop::collection::vec(constraint(), 0..6),
    ) {
        agrees_with_legacy_kernel(cs)?;
    }
}

/// The agreement rule of `staged_prove_empty_agrees_with_legacy_kernel`.
fn agrees_with_legacy_kernel(cs: Vec<Constraint>) -> Result<(), TestCaseError> {
    let p = Polyhedron::from_constraints(cs);
    let legacy = legacy_kernel::prove_empty_of(&p);
    let staged = p.prove_empty();
    if staged != legacy {
        prop_assert!(
            grid_clean(&p),
            "kernels diverge (staged={}, legacy={}) on a non-empty system {}",
            staged,
            legacy,
            p
        );
    }
    Ok(())
}

// The three shapes the integer-witness rung meets in real dependence
// systems, over the grid's variables: unit bounds, differences, and the
// `d - c·s` bands of linearized multi-dimensional subscripts.

/// `lo <= v` and `v <= hi` for each grid variable, either side sometimes
/// missing.
fn unit_bounds() -> impl Strategy<Value = Vec<Constraint>> {
    prop::collection::vec((0i64..3, -8i64..=8, -8i64..=8), 3).prop_map(|bounds| {
        let mut cs = Vec::new();
        for (i, &(sides, lo, hi)) in bounds.iter().enumerate() {
            let v = LinExpr::var(VARS[i]);
            if sides != 1 {
                cs.push(Constraint::geq(&v, &LinExpr::constant(lo)));
            }
            if sides != 2 {
                cs.push(Constraint::leq(&v, &LinExpr::constant(hi)));
            }
        }
        cs
    })
}

/// `x - y + k >= 0`.
fn difference() -> impl Strategy<Value = Vec<Constraint>> {
    (0usize..3, 0usize..3, -8i64..=8).prop_map(|(x, y, k)| {
        let e = LinExpr::var(VARS[x]).sub(&LinExpr::var(VARS[y]));
        vec![Constraint::geq0(e.offset(k))]
    })
}

/// `d - c·s + k >= 0` and `-d + c·s + k' >= 0`.
fn band() -> impl Strategy<Value = Vec<Constraint>> {
    (0usize..3, 0usize..3, 2i64..16, -16i64..=16, -16i64..=16).prop_map(|(d, s, c, k, k2)| {
        let e = LinExpr::var(VARS[d]).sub(&LinExpr::term(VARS[s], c));
        vec![
            Constraint::geq0(e.offset(k)),
            Constraint::geq0(e.scale(-1).offset(k2)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The agreement rule on box-bounded systems of difference and band
    /// constraints, where the witness rung does most of its work.
    #[test]
    fn staged_prove_empty_agrees_with_legacy_kernel_on_witness_shapes(
        bounds in unit_bounds(),
        shapes in prop::collection::vec(prop_oneof![difference(), band()], 1..4),
    ) {
        agrees_with_legacy_kernel(bounds.into_iter().chain(shapes.into_iter().flatten()).collect())?;
    }
}
