//! Array-section descriptors (§5.2.1).

use crate::expr::{LinExpr, Var};
use crate::polyhedron::Polyhedron;
use crate::polyset::PolySet;
use std::fmt;

/// Opaque identity of an array variable; the meaning of the id is owned by
/// the client (the analysis crate maps IR variables here).  Two arrays that
/// may overlap in storage (common-block aliases) must be mapped to the same
/// `ArrayId` by the client, per §3.4.2.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArrayId(pub u32);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// An array section: the set of index tuples `(d0, .., d{ndims-1})` of one
/// array touched by some code region, described by a union of systems of
/// linear inequalities over the dimension variables and free program symbols.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Section {
    /// The array this section belongs to.
    pub array: ArrayId,
    /// Number of dimensions of the (declared) array.
    pub ndims: u8,
    /// The index set.
    pub set: PolySet,
}

impl Section {
    /// The empty section of an array.
    pub fn empty(array: ArrayId, ndims: u8) -> Self {
        Section {
            array,
            ndims,
            set: PolySet::empty(),
        }
    }

    /// The whole-array section (every index tuple) — the conservative
    /// approximation used for non-affine subscripts (§5.2.1: "a non-affine
    /// index in a dimension is replaced by: the entire dimension may be
    /// accessed").
    pub fn whole(array: ArrayId, ndims: u8) -> Self {
        let mut s = Section {
            array,
            ndims,
            set: PolySet::universe(),
        };
        s.set.mark_approximate();
        s
    }

    /// A section for a single access `a(e0, .., ek)`: `{ d_i == e_i }`.
    pub fn point(array: ArrayId, subscripts: &[LinExpr]) -> Self {
        let mut p = Polyhedron::universe();
        for (i, e) in subscripts.iter().enumerate() {
            p.add_constraint(crate::Constraint::eq(&LinExpr::var(Var::Dim(i as u8)), e));
        }
        Section {
            array,
            ndims: subscripts.len() as u8,
            set: PolySet::from_poly(p),
        }
    }

    /// True when the section denotes no elements.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Union with another section of the same array.
    pub fn union(&self, other: &Section) -> Section {
        debug_assert_eq!(self.array, other.array);
        Section {
            array: self.array,
            ndims: self.ndims.max(other.ndims),
            set: self.set.union(&other.set),
        }
    }

    /// Intersection.
    pub fn intersect(&self, other: &Section) -> Section {
        debug_assert_eq!(self.array, other.array);
        Section {
            array: self.array,
            ndims: self.ndims.max(other.ndims),
            set: self.set.intersect(&other.set),
        }
    }

    /// Difference (over-approximate; see [`PolySet::subtract`]).
    pub fn subtract(&self, other: &Section) -> Section {
        debug_assert_eq!(self.array, other.array);
        Section {
            array: self.array,
            ndims: self.ndims,
            set: self.set.subtract(&other.set),
        }
    }

    /// The closure operator of §5.2.2.1: project away a loop-index symbol.
    pub fn closure(&self, loop_index: Var) -> Section {
        Section {
            array: self.array,
            ndims: self.ndims,
            set: self.set.project_out(loop_index),
        }
    }

    /// Closure that preserves integer structure: project the loop index
    /// when the projection is integer-exact, otherwise *keep* it as an
    /// existentially quantified variable renamed to a fresh symbol (so that
    /// distinct sections never correlate through it).  This is how strided
    /// accesses like `d0 == i + 64·j` keep their modular structure, which
    /// the multi-dimensional sections of the paper preserve natively.
    pub fn closure_keep(&self, loop_index: Var, fresh: &mut dyn FnMut() -> Var) -> Section {
        let mut renamed: Option<Var> = None;
        let parts = self.set.disjuncts().iter().map(|p| {
            p.project_exact(loop_index).unwrap_or_else(|| {
                let r = *renamed.get_or_insert_with(&mut *fresh);
                p.rename(loop_index, r)
            })
        });
        Section {
            array: self.array,
            ndims: self.ndims,
            set: PolySet::collect(parts, self.set.is_approximate()),
        }
    }

    /// Like [`Section::closure_keep`] for a set of symbols selected by
    /// `pred` (used to eliminate loop-varying symbols without losing
    /// strides).
    pub fn project_symbols_keep(
        &self,
        pred: &dyn Fn(Var) -> bool,
        fresh: &mut dyn FnMut() -> Var,
    ) -> Section {
        let mut cur = self.clone();
        loop {
            let Some(v) = cur
                .set
                .vars()
                .into_iter()
                .find(|&v| matches!(v, Var::Sym(_)) && pred(v))
            else {
                return cur;
            };
            cur = cur.closure_keep(v, fresh);
            // closure_keep renames to fresh symbols outside pred's range,
            // so the loop terminates.
        }
    }

    /// Exact closure, `None` when exactness cannot be guaranteed (used for
    /// must-write sections).
    pub fn closure_exact(&self, loop_index: Var) -> Option<Section> {
        Some(Section {
            array: self.array,
            ndims: self.ndims,
            set: self.set.project_exact(loop_index)?,
        })
    }

    /// Substitute a symbol (e.g. actual-for-formal parameter mapping).
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> Section {
        Section {
            array: self.array,
            ndims: self.ndims,
            set: self.set.substitute(v, repl),
        }
    }

    /// Eliminate all symbols selected by `pred` (over-approximating), e.g.
    /// local variables of a callee when mapping a summary to the caller.
    pub fn project_symbols(&self, pred: impl Fn(Var) -> bool) -> Section {
        let parts = self
            .set
            .disjuncts()
            .iter()
            .map(|p| p.project_out_all(|v| matches!(v, Var::Sym(_)) && pred(v)));
        Section {
            array: self.array,
            ndims: self.ndims,
            set: PolySet::collect(parts, self.set.is_approximate()),
        }
    }

    /// Shift every dimension-0 index by `offset` (sub-array argument passing
    /// `a(k)`: callee index `d0` maps to caller index `d0 + k - 1`).
    pub fn shift_dim0(&self, offset: &LinExpr) -> Section {
        // d0_caller = d0_callee + offset - 1  (both 1-based)
        // We rewrite the set over a fresh var then rename back.
        let tmp = Var::Sym(u32::MAX);
        let repl = LinExpr::var(tmp).sub(offset).offset(1);
        // substitute d0 := tmp - offset + 1, then rename tmp -> d0
        let parts = self
            .set
            .disjuncts()
            .iter()
            .map(|p| p.substitute(Var::Dim(0), &repl).rename(tmp, Var::Dim(0)));
        Section {
            array: self.array,
            ndims: self.ndims,
            set: PolySet::collect(parts, self.set.is_approximate()),
        }
    }

    /// Retarget this section at a different array id (parameter mapping).
    pub fn retarget(&self, array: ArrayId, ndims: u8) -> Section {
        Section {
            array,
            ndims,
            set: self.set.clone(),
        }
    }

    /// Do the two sections provably not overlap?
    pub fn provably_disjoint(&self, other: &Section) -> bool {
        debug_assert_eq!(self.array, other.array);
        self.set.provably_disjoint(&other.set)
    }

    /// Is `self ⊆ other` provable?
    pub fn provably_subset_of(&self, other: &Section) -> bool {
        self.set.provably_subset_of(&other.set)
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}d]: {}", self.array, self.ndims, self.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Constraint;

    fn a() -> ArrayId {
        ArrayId(0)
    }

    fn range_section(lo: i64, hi: i64) -> Section {
        let d = LinExpr::var(Var::Dim(0));
        Section {
            array: a(),
            ndims: 1,
            set: PolySet::from_poly(Polyhedron::from_constraints([
                Constraint::geq(&d, &LinExpr::constant(lo)),
                Constraint::leq(&d, &LinExpr::constant(hi)),
            ])),
        }
    }

    #[test]
    fn point_section_contains_only_that_index() {
        let s = Section::point(a(), &[LinExpr::constant(5)]);
        let at = |v: i64| {
            s.set
                .contains_point(&|var| if var == Var::Dim(0) { Some(v) } else { None })
                .unwrap()
        };
        assert!(at(5) && !at(4));
    }

    #[test]
    fn closure_over_loop_index() {
        // a(i) for i in 1..=n  ==> a(1:n)
        let i = Var::Sym(1);
        let mut sec = Section::point(a(), &[LinExpr::var(i)]);
        let ip = LinExpr::var(i);
        sec.set = sec
            .set
            .constrain(&Constraint::geq(&ip, &LinExpr::constant(1)))
            .constrain(&Constraint::leq(&ip, &LinExpr::constant(8)));
        let closed = sec.closure(i);
        assert!(closed.provably_subset_of(&range_section(1, 8)));
        assert!(range_section(1, 8).provably_subset_of(&closed));
    }

    #[test]
    fn shift_dim0_models_subarray_argument() {
        // Callee touches d0 in [1, n]; passed base a(k) means caller elements
        // [k, k+n-1].
        let k = Var::Sym(3);
        let callee = range_section(1, 4);
        let caller = callee.shift_dim0(&LinExpr::var(k));
        // With k = 10 the section is [10, 13].
        let at = |d: i64| {
            caller
                .set
                .contains_point(&|var| match var {
                    Var::Dim(0) => Some(d),
                    v if v == k => Some(10),
                    _ => None,
                })
                .unwrap()
        };
        assert!(at(10) && at(13));
        assert!(!at(9) && !at(14));
    }

    #[test]
    fn whole_is_approximate_universe() {
        let w = Section::whole(a(), 2);
        assert!(w.set.is_universe());
        assert!(w.set.is_approximate());
    }

    #[test]
    fn disjoint_ranges() {
        assert!(range_section(1, 5).provably_disjoint(&range_section(6, 10)));
        assert!(!range_section(1, 6).provably_disjoint(&range_section(6, 10)));
    }
}
