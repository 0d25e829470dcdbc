//! `<R, E, W, M>` array-access summaries and the data-flow operators of
//! Fig. 5-2 (meet `∧` and transfer `T`).

use crate::expr::{LinExpr, Var};
use crate::polyset::PolySetPool;
use crate::section::{ArrayId, Section};
use std::cmp::Ordering;
use std::fmt;

/// Per-array access summary: a four-tuple `<R, E, W, M>` where
/// * `R` — all array sections that **may** have been read,
/// * `E` — the **upwards-exposed** read sections (read before any write in
///   the region),
/// * `W` — the **may-write** sections,
/// * `M` — the **must-write** sections.
///
/// Invariants maintained by construction: `E ⊆ R`, and `M` under-approximates
/// while `R`, `E`, `W` over-approximate (the paper keeps `W` and `M`
/// disjoint; we instead keep `M ⊆ W` and treat `W` as the full may-write set,
/// which is equivalent information and simpler to maintain conservatively).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SectionSummary {
    /// May-read sections.
    pub read: Section,
    /// Upwards-exposed read sections.
    pub exposed: Section,
    /// May-write sections.
    pub write: Section,
    /// Must-write sections.
    pub must_write: Section,
}

impl SectionSummary {
    /// The all-empty summary for an array.
    pub fn empty(array: ArrayId, ndims: u8) -> Self {
        SectionSummary {
            read: Section::empty(array, ndims),
            exposed: Section::empty(array, ndims),
            write: Section::empty(array, ndims),
            must_write: Section::empty(array, ndims),
        }
    }

    /// Summary of a single read access.
    pub fn of_read(sec: Section) -> Self {
        SectionSummary {
            read: sec.clone(),
            exposed: sec.clone(),
            write: Section::empty(sec.array, sec.ndims),
            must_write: Section::empty(sec.array, sec.ndims),
        }
    }

    /// Summary of a single (unconditional) write access.
    pub fn of_write(sec: Section) -> Self {
        SectionSummary {
            read: Section::empty(sec.array, sec.ndims),
            exposed: Section::empty(sec.array, sec.ndims),
            write: sec.clone(),
            must_write: sec,
        }
    }

    /// The control-flow meet `∧` of Fig. 5-2:
    /// `<R1∪R2, E1∪E2, W1∪W2, M1∩M2>`.
    pub fn meet(&self, other: &SectionSummary) -> SectionSummary {
        SectionSummary {
            read: self.read.union(&other.read),
            exposed: self.exposed.union(&other.exposed),
            write: self.write.union(&other.write),
            must_write: self.must_write.intersect(&other.must_write),
        }
    }

    /// The transfer function `T` of Fig. 5-2 composing a node summary `n`
    /// (executed first) with the summary of the code after it:
    /// `T(<R,E,W,M>, <Rn,En,Wn,Mn>) = <Rn∪R, En∪(E−Mn), Wn∪W, Mn∪M>`.
    pub fn transfer_before(&self, node: &SectionSummary) -> SectionSummary {
        SectionSummary {
            read: node.read.union(&self.read),
            exposed: node.exposed.union(&self.exposed.subtract(&node.must_write)),
            write: node.write.union(&self.write),
            must_write: node.must_write.union(&self.must_write),
        }
    }

    /// The loop closure of §5.2.2.1: project the loop-index symbol out of
    /// every component.  The must-write component uses *exact* projection and
    /// drops to empty when exactness cannot be guaranteed (sound
    /// under-approximation).
    pub fn closure(&self, loop_index: Var) -> SectionSummary {
        let must = self
            .must_write
            .closure_exact(loop_index)
            .unwrap_or_else(|| Section::empty(self.must_write.array, self.must_write.ndims));
        SectionSummary {
            read: self.read.closure(loop_index),
            exposed: self.exposed.closure(loop_index),
            write: self.write.closure(loop_index),
            must_write: must,
        }
    }

    /// Substitute a symbol in every component (parameter mapping).
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> SectionSummary {
        SectionSummary {
            read: self.read.substitute(v, repl),
            exposed: self.exposed.substitute(v, repl),
            write: self.write.substitute(v, repl),
            must_write: self.must_write.substitute(v, repl),
        }
    }

    /// Project away symbols selected by `pred` (callee locals); must-writes
    /// become empty unless exact projection applies to all of them — we keep
    /// it simple and sound by projecting may-parts and keeping must only when
    /// it does not mention the symbols.
    pub fn project_symbols(&self, pred: impl Fn(Var) -> bool + Copy) -> SectionSummary {
        let must_ok = self
            .must_write
            .set
            .vars()
            .into_iter()
            .all(|v| !(matches!(v, Var::Sym(_)) && pred(v)));
        SectionSummary {
            read: self.read.project_symbols(pred),
            exposed: self.exposed.project_symbols(pred),
            write: self.write.project_symbols(pred),
            must_write: if must_ok {
                self.must_write.clone()
            } else {
                Section::empty(self.must_write.array, self.must_write.ndims)
            },
        }
    }

    /// True when every component is empty.
    pub fn is_empty(&self) -> bool {
        self.read.is_empty() && self.write.is_empty()
    }
}

impl fmt::Display for SectionSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<R: {}, E: {}, W: {}, M: {}>",
            self.read.set, self.exposed.set, self.write.set, self.must_write.set
        )
    }
}

/// A whole-region access summary: one [`SectionSummary`] per array touched.
///
/// A vector sorted by (and unique in) `read.array`, not a map: the average
/// summary holds three or four arrays, so a binary search beats a tree, and
/// the pointwise operators are merge-joins.  Iteration is ascending
/// [`ArrayId`], the order every consumer (snapshot codec included) relies on.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AccessSummary {
    per_array: Vec<SectionSummary>,
}

impl AccessSummary {
    /// The empty summary.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Summary of a single access.
    pub fn of(sum: SectionSummary) -> Self {
        AccessSummary {
            per_array: vec![sum],
        }
    }

    fn position(&self, array: ArrayId) -> Result<usize, usize> {
        self.per_array
            .binary_search_by_key(&array, |s| s.read.array)
    }

    /// The per-array summary of `array`, if it has one.
    pub fn get(&self, array: ArrayId) -> Option<&SectionSummary> {
        self.position(array).ok().map(|i| &self.per_array[i])
    }

    /// All arrays with a (possibly empty) summary.
    pub fn arrays(&self) -> impl Iterator<Item = ArrayId> + '_ {
        self.per_array.iter().map(|s| s.read.array)
    }

    /// Iterate over `(array, summary)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ArrayId, &SectionSummary)> {
        self.per_array.iter().map(|s| (s.read.array, s))
    }

    /// Number of arrays summarized.
    pub fn len(&self) -> usize {
        self.per_array.len()
    }

    /// True when no array is summarized.
    pub fn is_empty(&self) -> bool {
        self.per_array.is_empty()
    }

    /// Insert / replace a per-array summary.
    pub fn insert(&mut self, sum: SectionSummary) {
        match self.position(sum.read.array) {
            Ok(i) => self.per_array[i] = sum,
            Err(i) => self.per_array.insert(i, sum),
        }
    }

    fn entry(&mut self, array: ArrayId, ndims: u8) -> &mut SectionSummary {
        let i = self.position(array).unwrap_or_else(|i| {
            self.per_array
                .insert(i, SectionSummary::empty(array, ndims));
            i
        });
        &mut self.per_array[i]
    }

    /// Merge-join of two summaries: `f(x, y)` per array, where an array
    /// present on one side only meets the empty summary of its own
    /// dimensionality on the other.
    fn zip_with(
        &self,
        other: &AccessSummary,
        f: impl Fn(&SectionSummary, &SectionSummary) -> SectionSummary,
    ) -> AccessSummary {
        let empty = |s: &SectionSummary| SectionSummary::empty(s.read.array, s.read.ndims);
        let mut xs = self.per_array.iter().peekable();
        let mut ys = other.per_array.iter().peekable();
        let mut per_array = Vec::with_capacity(xs.len().max(ys.len()));
        loop {
            let order = match (xs.peek(), ys.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(x), Some(y)) => x.read.array.cmp(&y.read.array),
            };
            per_array.push(match order {
                Ordering::Less => {
                    let x = xs.next().expect("peeked");
                    f(x, &empty(x))
                }
                Ordering::Greater => {
                    let y = ys.next().expect("peeked");
                    f(&empty(y), y)
                }
                Ordering::Equal => f(xs.next().expect("peeked"), ys.next().expect("peeked")),
            });
        }
        AccessSummary { per_array }
    }

    /// Apply `f` to every per-array summary, in ascending array order; each
    /// result must keep its array.
    pub fn map(&self, f: impl FnMut(&SectionSummary) -> SectionSummary) -> AccessSummary {
        AccessSummary {
            per_array: self.per_array.iter().map(f).collect(),
        }
    }

    /// Pointwise meet `∧` across arrays.  Arrays present on one side only
    /// meet with the empty summary (whose `M` is empty, making the result's
    /// must-write empty — correct, since the other path writes nothing).
    pub fn meet(&self, other: &AccessSummary) -> AccessSummary {
        self.zip_with(other, SectionSummary::meet)
    }

    /// Pointwise transfer `T`: `node` executes before `self` (the summary of
    /// the code following the node).
    pub fn transfer_before(&self, node: &AccessSummary) -> AccessSummary {
        self.zip_with(node, SectionSummary::transfer_before)
    }

    /// Sequence two summaries: `first` then `second` (convenience wrapper
    /// around `transfer_before` with flipped argument order).
    pub fn then(&self, second: &AccessSummary) -> AccessSummary {
        second.transfer_before(self)
    }

    /// Apply the loop closure to every array summary.
    pub fn closure(&self, loop_index: Var) -> AccessSummary {
        self.map(|s| s.closure(loop_index))
    }

    /// Substitute a symbol everywhere.
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> AccessSummary {
        self.map(|s| s.substitute(v, repl))
    }

    /// Project away symbols everywhere.
    pub fn project_symbols(&self, pred: impl Fn(Var) -> bool + Copy) -> AccessSummary {
        self.map(|s| s.project_symbols(pred))
    }

    /// Record a read access.
    pub fn add_read(&mut self, sec: Section) {
        // Reads union into R and E: callers sequence statements via
        // transfer, so add_* is only used for atomic node construction.
        let s = self.entry(sec.array, sec.ndims);
        s.read = s.read.union(&sec);
        s.exposed = s.exposed.union(&sec);
    }

    /// Record a write access (conditionally executed writes should pass
    /// `must = false`).
    pub fn add_write(&mut self, sec: Section, must: bool) {
        let s = self.entry(sec.array, sec.ndims);
        s.write = s.write.union(&sec);
        if must {
            s.must_write = s.must_write.union(&sec);
        }
    }

    /// Share the storage of every section set through `pool` (see
    /// [`PolySetPool`]) and drop the vector's spare capacity: the value is
    /// finished and stays resident.
    pub fn intern_sets(&mut self, pool: &mut PolySetPool) {
        self.per_array.shrink_to_fit();
        for s in &mut self.per_array {
            for sec in [&mut s.read, &mut s.exposed, &mut s.write, &mut s.must_write] {
                pool.intern(&mut sec.set);
            }
        }
    }
}

impl fmt::Display for AccessSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.per_array.is_empty() {
            return write!(f, "<empty>");
        }
        for (a, s) in self.iter() {
            writeln!(f, "{a}: {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraint, PolySet, Polyhedron};

    fn aid() -> ArrayId {
        ArrayId(7)
    }

    fn point(i: i64) -> Section {
        Section::point(aid(), &[LinExpr::constant(i)])
    }

    fn range(lo: i64, hi: i64) -> Section {
        let d = LinExpr::var(Var::Dim(0));
        Section {
            array: aid(),
            ndims: 1,
            set: PolySet::from_poly(Polyhedron::from_constraints([
                Constraint::geq(&d, &LinExpr::constant(lo)),
                Constraint::leq(&d, &LinExpr::constant(hi)),
            ])),
        }
    }

    #[test]
    fn write_then_read_is_not_exposed() {
        // a(3) = ..; .. = a(3)  — the read is covered by the must-write.
        let w = AccessSummary::of(SectionSummary::of_write(point(3)));
        let r = AccessSummary::of(SectionSummary::of_read(point(3)));
        let seq = w.then(&r);
        let s = seq.get(aid()).unwrap();
        assert!(s.exposed.is_empty(), "exposed = {}", s.exposed.set);
        assert!(!s.read.is_empty());
        assert!(!s.must_write.is_empty());
    }

    #[test]
    fn read_then_write_is_exposed() {
        let w = AccessSummary::of(SectionSummary::of_write(point(3)));
        let r = AccessSummary::of(SectionSummary::of_read(point(3)));
        let seq = r.then(&w);
        let s = seq.get(aid()).unwrap();
        assert!(!s.exposed.is_empty());
    }

    #[test]
    fn meet_drops_one_sided_must_writes() {
        // if (..) a(1:5) = ..   — after the IF, nothing is must-written.
        let w = AccessSummary::of(SectionSummary::of_write(range(1, 5)));
        let nothing = AccessSummary::empty();
        let m = w.meet(&nothing);
        let s = m.get(aid()).unwrap();
        assert!(s.must_write.is_empty());
        assert!(!s.write.is_empty());
    }

    #[test]
    fn partial_kill_leaves_remainder_exposed() {
        // a(1:3) = ..; .. = a(1:5)  — exposed should be a subset of [4,5]-ish
        // (over-approximation may keep more, but must not contain [1,3] fully
        // covered points and must contain 4 and 5).
        let w = AccessSummary::of(SectionSummary::of_write(range(1, 3)));
        let r = AccessSummary::of(SectionSummary::of_read(range(1, 5)));
        let seq = w.then(&r);
        let s = seq.get(aid()).unwrap();
        let at = |v: i64| {
            s.exposed
                .set
                .contains_point(&|var| if var == Var::Dim(0) { Some(v) } else { None })
                .unwrap()
        };
        assert!(at(4) && at(5));
        assert!(!at(2));
    }

    #[test]
    fn loop_closure_summarizes_iteration_space() {
        // for i in 1..=n: a(i) = ..   ==> W = M = a(1:n)
        let i = Var::Sym(1);
        let mut body = SectionSummary::of_write(Section::point(aid(), &[LinExpr::var(i)]));
        let bound_lo = Constraint::geq(&LinExpr::var(i), &LinExpr::constant(1));
        let bound_hi = Constraint::leq(&LinExpr::var(i), &LinExpr::constant(9));
        body.write.set = body.write.set.constrain(&bound_lo).constrain(&bound_hi);
        body.must_write.set = body
            .must_write
            .set
            .constrain(&bound_lo)
            .constrain(&bound_hi);
        let closed = body.closure(i);
        assert!(closed.must_write.provably_subset_of(&range(1, 9)));
        assert!(range(1, 9).provably_subset_of(&closed.must_write));
    }

    #[test]
    fn closure_must_write_drops_when_inexact() {
        // Writes a(2*i): integer projection is NOT the rational shadow
        // (only even elements written), so must-write must drop to empty.
        let i = Var::Sym(1);
        let sec = Section::point(aid(), &[LinExpr::term(i, 2)]);
        let body = SectionSummary::of_write(sec);
        let closed = body.closure(i);
        assert!(closed.must_write.is_empty());
        assert!(!closed.write.is_empty());
    }
}
