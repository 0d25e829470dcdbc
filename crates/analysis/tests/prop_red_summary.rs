//! Property tests for the sorted-vector `RedSummary`.
//!
//! `RedSummary` was a `BTreeMap<ArrayId, RedEntry>`; it is now a vector of
//! `(ArrayId, RedEntry)` sorted by id.  The snapshot codec and every
//! consumer walk it in id order, so it must stay *bit-identical* to the map:
//! same entries, same order.  `RefRed` below is the map representation kept
//! as the oracle; random operation sequences over at most six objects run on
//! both.  (The `AccessSummary` half of this oracle is
//! `crates/poly/tests/prop_summary.rs`.)

use proptest::prelude::*;
use std::collections::BTreeMap;
use suif_analysis::reduction::{RedEntry, RedSummary};
use suif_analysis::RedOp;
use suif_poly::{ArrayId, LinExpr, Section, Var};

const OBJECTS: u32 = 6;
const OPS: [RedOp; 4] = [RedOp::Add, RedOp::Mul, RedOp::Min, RedOp::Max];

/// The pre-change `RedSummary`, verbatim over a `BTreeMap`.
#[derive(Clone, Debug, Default)]
struct RefRed {
    entries: BTreeMap<ArrayId, RedEntry>,
}

impl RefRed {
    fn entry(&mut self, id: ArrayId) -> &mut RedEntry {
        self.entries.entry(id).or_insert_with(|| RedEntry {
            op: None,
            red: Section::empty(id, 1),
            nonred: Section::empty(id, 1),
        })
    }

    fn add_update(&mut self, sec: Section, op: RedOp) {
        let e = self.entry(sec.array);
        match e.op {
            None => {
                e.op = Some(op);
                e.red = e.red.union(&sec);
            }
            Some(cur) if cur == op => e.red = e.red.union(&sec),
            Some(_) => e.nonred = e.nonred.union(&sec),
        }
    }

    fn add_plain(&mut self, sec: Section) {
        let e = self.entry(sec.array);
        e.nonred = e.nonred.union(&sec);
    }

    fn union(&self, other: &RefRed) -> RefRed {
        let mut out = self.clone();
        for (id, e) in &other.entries {
            let t = out.entry(*id);
            match (t.op, e.op) {
                (None, op) => {
                    t.op = op;
                    t.red = t.red.union(&e.red);
                }
                (Some(a), Some(b)) if a == b => t.red = t.red.union(&e.red),
                (Some(_), Some(_)) => t.nonred = t.nonred.union(&e.red),
                (Some(_), None) => {}
            }
            let nr = e.nonred.clone();
            let t = out.entry(*id);
            t.nonred = t.nonred.union(&nr);
        }
        out
    }

    fn map_sections(&self, mut f: impl FnMut(&Section) -> Option<Section>) -> RefRed {
        let mut out = RefRed::default();
        for e in self.entries.values() {
            let Some(red) = f(&e.red) else { continue };
            let Some(nonred) = f(&e.nonred) else { continue };
            let t = out.entry(red.array);
            t.op = e.op;
            t.red = t.red.union(&red);
            t.nonred = t.nonred.union(&nonred);
        }
        out
    }
}

fn assert_same(got: &RedSummary, want: &RefRed) -> Result<(), TestCaseError> {
    let flat = |id: ArrayId, e: &RedEntry| (id, e.op, e.red.clone(), e.nonred.clone());
    let g: Vec<_> = got.iter().map(|(id, e)| flat(id, e)).collect();
    let w: Vec<_> = want.entries.iter().map(|(&id, e)| flat(id, e)).collect();
    prop_assert_eq!(g, w);
    for id in (0..=OBJECTS).map(ArrayId) {
        let g = got.get(id).map(|e| flat(id, e));
        let w = want.entries.get(&id).map(|e| flat(id, e));
        prop_assert_eq!(g, w);
    }
    Ok(())
}

/// A point or a whole-array section of one of the objects, over `i`.
fn section() -> impl Strategy<Value = Section> {
    (0..OBJECTS, -2i64..=2, prop::bool::ANY).prop_map(|(a, k, whole)| {
        if whole {
            Section::whole(ArrayId(a), 1)
        } else {
            Section::point(ArrayId(a), &[LinExpr::var(Var::Sym(1)).offset(k)])
        }
    })
}

#[derive(Clone, Debug)]
enum Op {
    Update(bool, Section, usize),
    Plain(bool, Section),
    Union(bool),
    /// Retarget every object onto `id % n` (collisions merge entries, as
    /// call-site mapping does), dropping one object.
    Retarget(bool, u32, u32),
    Closure(bool),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (prop::bool::ANY, section(), 0..OPS.len()).prop_map(|(s, x, o)| Op::Update(s, x, o)),
        3 => (prop::bool::ANY, section()).prop_map(|(s, x)| Op::Plain(s, x)),
        2 => prop::bool::ANY.prop_map(Op::Union),
        1 => (prop::bool::ANY, 1..OBJECTS, 0..OBJECTS).prop_map(|(s, n, d)| Op::Retarget(s, n, d)),
        1 => prop::bool::ANY.prop_map(Op::Closure),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sorted_vector_matches_the_map_model(ops in prop::collection::vec(op(), 1..16)) {
        let mut got = [RedSummary::empty(), RedSummary::empty()];
        let mut want = [RefRed::default(), RefRed::default()];
        for op in ops {
            match op {
                Op::Update(s, x, o) => {
                    got[s as usize].add_update(x.clone(), OPS[o]);
                    want[s as usize].add_update(x, OPS[o]);
                }
                Op::Plain(s, x) => {
                    got[s as usize].add_plain(x.clone());
                    want[s as usize].add_plain(x);
                }
                Op::Union(s) => {
                    let (i, j) = (s as usize, !s as usize);
                    got[i] = got[i].union(&got[j]);
                    want[i] = want[i].union(&want[j]);
                }
                Op::Retarget(s, n, dropped) => {
                    let f = |sec: &Section| {
                        (sec.array.0 != dropped)
                            .then(|| sec.retarget(ArrayId(sec.array.0 % n), sec.ndims))
                    };
                    got[s as usize] = got[s as usize].map_sections(f);
                    want[s as usize] = want[s as usize].map_sections(f);
                }
                Op::Closure(s) => {
                    let f = |sec: &Section| Some(sec.closure(Var::Sym(1)));
                    got[s as usize] = got[s as usize].map_sections(f);
                    want[s as usize] = want[s as usize].map_sections(f);
                }
            }
            assert_same(&got[0], &want[0])?;
            assert_same(&got[1], &want[1])?;
        }
    }
}
