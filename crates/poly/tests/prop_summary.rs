//! Property tests for the sorted-vector `AccessSummary`.
//!
//! `AccessSummary` was a `BTreeMap<ArrayId, SectionSummary>` plus a `dims`
//! map; it is now one vector sorted by array id, with merge-joins for the
//! pointwise operators.  Every consumer — the snapshot codec above all —
//! walks it in array order, so the vector must be *bit-identical* to the
//! map: same entries, same order, after any sequence of operations.
//! `RefSummary` below is the map representation kept as the oracle; random
//! operation sequences over at most six arrays run on both.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use suif_poly::{
    AccessSummary, ArrayId, Constraint, LinExpr, PolySet, Polyhedron, Section, SectionSummary, Var,
};

const ARRAYS: u32 = 6;
const VARS: [Var; 4] = [Var::Dim(0), Var::Dim(1), Var::Sym(1), Var::Sym(2)];

/// The pre-change `AccessSummary`, reimplemented over the public
/// `SectionSummary` operators.
#[derive(Clone, Debug, Default)]
struct RefSummary {
    per_array: BTreeMap<ArrayId, SectionSummary>,
    dims: BTreeMap<ArrayId, u8>,
}

impl RefSummary {
    fn of(sum: SectionSummary) -> Self {
        let mut s = Self::default();
        s.insert(sum);
        s
    }

    fn insert(&mut self, sum: SectionSummary) {
        let id = sum.read.array;
        self.dims.insert(id, sum.read.ndims);
        self.per_array.insert(id, sum);
    }

    fn ensure(&mut self, array: ArrayId, ndims: u8) -> &mut SectionSummary {
        self.dims.entry(array).or_insert(ndims);
        self.per_array
            .entry(array)
            .or_insert_with(|| SectionSummary::empty(array, ndims))
    }

    fn pointwise(
        &self,
        other: &RefSummary,
        f: impl Fn(&SectionSummary, &SectionSummary) -> SectionSummary,
    ) -> RefSummary {
        let mut out = RefSummary::default();
        let keys: BTreeSet<ArrayId> = self
            .per_array
            .keys()
            .chain(other.per_array.keys())
            .copied()
            .collect();
        for a in keys {
            let nd = *self
                .dims
                .get(&a)
                .or_else(|| other.dims.get(&a))
                .unwrap_or(&1);
            let ea = SectionSummary::empty(a, nd);
            let x = self.per_array.get(&a).unwrap_or(&ea);
            let y = other.per_array.get(&a).unwrap_or(&ea);
            out.insert(f(x, y));
        }
        out
    }

    fn meet(&self, other: &RefSummary) -> RefSummary {
        self.pointwise(other, SectionSummary::meet)
    }

    fn transfer_before(&self, node: &RefSummary) -> RefSummary {
        self.pointwise(node, SectionSummary::transfer_before)
    }

    fn map(&self, f: impl Fn(&SectionSummary) -> SectionSummary) -> RefSummary {
        let mut out = RefSummary::default();
        for s in self.per_array.values() {
            out.insert(f(s));
        }
        out
    }

    fn add_read(&mut self, sec: Section) {
        let mut s = self.ensure(sec.array, sec.ndims).clone();
        s.read = s.read.union(&sec);
        s.exposed = s.exposed.union(&sec);
        self.insert(s);
    }

    fn add_write(&mut self, sec: Section, must: bool) {
        let mut s = self.ensure(sec.array, sec.ndims).clone();
        s.write = s.write.union(&sec);
        if must {
            s.must_write = s.must_write.union(&sec);
        }
        self.insert(s);
    }
}

/// Same entries in the same order, and the same answer to every lookup.
fn assert_same(got: &AccessSummary, want: &RefSummary) -> Result<(), TestCaseError> {
    let g: Vec<(ArrayId, &SectionSummary)> = got.iter().collect();
    let w: Vec<(ArrayId, &SectionSummary)> = want.per_array.iter().map(|(&a, s)| (a, s)).collect();
    prop_assert_eq!(g, w);
    prop_assert_eq!(got.len(), want.per_array.len());
    prop_assert_eq!(got.is_empty(), want.per_array.is_empty());
    let arrays: Vec<ArrayId> = got.arrays().collect();
    prop_assert_eq!(arrays, want.per_array.keys().copied().collect::<Vec<_>>());
    for a in 0..=ARRAYS {
        prop_assert_eq!(got.get(ArrayId(a)), want.per_array.get(&ArrayId(a)));
    }
    Ok(())
}

fn polyhedron() -> impl Strategy<Value = Polyhedron> {
    let constraint = (
        prop::collection::vec(-2i64..=2, VARS.len()),
        -4i64..=4,
        prop::bool::ANY,
    )
        .prop_map(|(coefs, k, eq)| {
            let mut e = LinExpr::constant(k);
            for (&v, &c) in VARS.iter().zip(&coefs) {
                e = e.add(&LinExpr::term(v, c));
            }
            if eq {
                Constraint::eq0(e)
            } else {
                Constraint::geq0(e)
            }
        });
    prop::collection::vec(constraint, 0..3).prop_map(Polyhedron::from_constraints)
}

fn section() -> impl Strategy<Value = Section> {
    (
        0..ARRAYS,
        1u8..=2,
        prop::collection::vec(polyhedron(), 0..3),
        prop::bool::ANY,
    )
        .prop_map(|(a, ndims, parts, approx)| {
            let mut set = PolySet::empty();
            for p in parts {
                set.push(p);
            }
            if approx {
                set.mark_approximate();
            }
            Section {
                array: ArrayId(a),
                ndims,
                set,
            }
        })
}

fn section_summary() -> impl Strategy<Value = SectionSummary> {
    (section(), section(), section(), section()).prop_map(|(r, e, w, m)| {
        // Every component of one summary belongs to the read's array.
        let on = |s: Section| s.retarget(r.array, s.ndims);
        SectionSummary {
            exposed: on(e),
            write: on(w),
            must_write: on(m),
            read: r,
        }
    })
}

#[derive(Clone, Debug)]
enum Op {
    Of(bool, SectionSummary),
    Insert(bool, SectionSummary),
    AddRead(bool, Section),
    AddWrite(bool, Section, bool),
    Meet(bool),
    TransferBefore(bool),
    Closure(bool),
    Substitute(bool, i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (prop::bool::ANY, section_summary()).prop_map(|(s, x)| Op::Of(s, x)),
        2 => (prop::bool::ANY, section_summary()).prop_map(|(s, x)| Op::Insert(s, x)),
        3 => (prop::bool::ANY, section()).prop_map(|(s, x)| Op::AddRead(s, x)),
        3 => (prop::bool::ANY, section(), prop::bool::ANY)
            .prop_map(|(s, x, m)| Op::AddWrite(s, x, m)),
        2 => prop::bool::ANY.prop_map(Op::Meet),
        2 => prop::bool::ANY.prop_map(Op::TransferBefore),
        1 => prop::bool::ANY.prop_map(Op::Closure),
        1 => (prop::bool::ANY, -3i64..=3).prop_map(|(s, k)| Op::Substitute(s, k)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sorted_vector_matches_the_map_model(ops in prop::collection::vec(op(), 1..14)) {
        // Two summaries, so the binary operators see independent operands;
        // the bool of each op picks which one it writes.
        let mut got = [AccessSummary::empty(), AccessSummary::empty()];
        let mut want = [RefSummary::default(), RefSummary::default()];
        for op in ops {
            match op {
                Op::Of(s, x) => {
                    got[s as usize] = AccessSummary::of(x.clone());
                    want[s as usize] = RefSummary::of(x);
                }
                Op::Insert(s, x) => {
                    got[s as usize].insert(x.clone());
                    want[s as usize].insert(x);
                }
                Op::AddRead(s, x) => {
                    got[s as usize].add_read(x.clone());
                    want[s as usize].add_read(x);
                }
                Op::AddWrite(s, x, must) => {
                    got[s as usize].add_write(x.clone(), must);
                    want[s as usize].add_write(x, must);
                }
                Op::Meet(s) => {
                    let (i, j) = (s as usize, !s as usize);
                    got[i] = got[i].meet(&got[j]);
                    want[i] = want[i].meet(&want[j]);
                }
                Op::TransferBefore(s) => {
                    let (i, j) = (s as usize, !s as usize);
                    got[i] = got[i].transfer_before(&got[j]);
                    want[i] = want[i].transfer_before(&want[j]);
                }
                Op::Closure(s) => {
                    let i = Var::Sym(1);
                    got[s as usize] = got[s as usize].closure(i);
                    want[s as usize] = want[s as usize].map(|x| x.closure(i));
                }
                Op::Substitute(s, k) => {
                    let repl = LinExpr::var(Var::Sym(1)).offset(k);
                    got[s as usize] = got[s as usize].substitute(Var::Sym(2), &repl);
                    want[s as usize] = want[s as usize].map(|x| x.substitute(Var::Sym(2), &repl));
                }
            }
            assert_same(&got[0], &want[0])?;
            assert_same(&got[1], &want[1])?;
        }
    }
}
