//! Loop-carried dependence and privatization tests (§2.4).
//!
//! All tests operate on the *per-iteration* body summary of a loop: two
//! symbolic iterations `i1 ≠ i2` are materialized by renaming the induction
//! symbol (and every loop-varying symbol) separately in the two copies, the
//! loop bounds constrain both, and Fourier–Motzkin emptiness decides whether
//! the two iterations can touch a common element.  "Cannot prove empty"
//! conservatively means "dependence".

use crate::cache::{Fnv128, ProgramKeys};
use crate::context::AnalysisCtx;
use crate::parallelize::{FlowHandles, ProgramAnalysis};
use crate::pipeline::{FactKey, FactStore, Pass, PassId, Scope};
use crate::summarize::{ArrayDataFlow, LoopIterSummary};
use std::sync::Arc;
use suif_ir::{LoopInfo, StmtId};
use suif_poly::{ArrayId, Constraint, LinExpr, Section, Var};

/// Kinds of loop-carried conflicts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DepKind {
    /// Write in one iteration, read in another (flow/anti).
    WriteRead,
    /// Writes in two iterations to the same element (output).
    WriteWrite,
}

/// Rename a section into a specific symbolic iteration: the induction symbol
/// becomes `index`, and every other loop-varying symbol becomes a fresh
/// symbol private to this copy (its value may differ between iterations).
fn iteration_copy(
    ctx: &AnalysisCtx<'_>,
    iter: &LoopIterSummary,
    sec: &Section,
    index: Var,
) -> Section {
    let mut s = sec.substitute(iter.index_sym, &LinExpr::var(index));
    while let Some(v) = s
        .set
        .vars()
        .into_iter()
        .find(|&v| v != index && iter.is_varying(v))
    {
        s = s.substitute(v, &LinExpr::var(ctx.fresh_sym()));
    }
    s
}

fn bounds_constraints(iter: &LoopIterSummary, index: Var) -> Vec<Constraint> {
    let mut out = Vec::new();
    if let Some((first, last)) = &iter.bounds {
        let i = LinExpr::var(index);
        out.push(Constraint::geq(&i, first));
        out.push(Constraint::leq(&i, last));
    }
    out
}

/// Can `a` (in some iteration `i1`) overlap `b` (in a different iteration
/// `i2`)?  With `ordered` set, only `i1 < i2` is considered (anti-dependence
/// direction when `a` is the read set); otherwise both orders are tested.
///
/// Returns `true` when overlap **cannot be ruled out** (conservative).
pub fn cross_iteration_overlap(
    ctx: &AnalysisCtx<'_>,
    iter: &LoopIterSummary,
    a: &Section,
    b: &Section,
    ordered: bool,
) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    debug_assert_eq!(a.array, b.array);
    let i1 = ctx.fresh_sym();
    let i2 = ctx.fresh_sym();
    let ca = iteration_copy(ctx, iter, a, i1);
    let cb = iteration_copy(ctx, iter, b, i2);
    // A self-test (write vs. write of the same section) is symmetric: the
    // `i2 < i1` system is the `i1 < i2` system under the variable bijection
    // swapping the two iteration copies, so one direction decides both.
    let symmetric = !ordered && std::ptr::eq(a, b);
    // Subscript-level quick ladder (constant-difference / GCD / Banerjee):
    // when every pair of disjuncts provably accesses different elements in
    // some dimension, there is no overlap and no joint system needs to be
    // built — let alone eliminated.
    let lt_gone = quick_order_disjoint(&ca, &cb, i1, i2, iter);
    if lt_gone && (ordered || symmetric || quick_order_disjoint(&cb, &ca, i2, i1, iter)) {
        return false;
    }
    let mut joint = ca.set.intersect(&cb.set);
    for c in bounds_constraints(iter, i1) {
        joint = joint.constrain(&c);
    }
    for c in bounds_constraints(iter, i2) {
        joint = joint.constrain(&c);
    }
    let lt = joint.constrain(&Constraint::lt(&LinExpr::var(i1), &LinExpr::var(i2)));
    if !lt.prove_empty() {
        return true;
    }
    if !ordered && !symmetric {
        let gt = joint.constrain(&Constraint::lt(&LinExpr::var(i2), &LinExpr::var(i1)));
        if !gt.prove_empty() {
            return true;
        }
    }
    false
}

/// Do all disjunct pairs of `first` (iteration `fi`) and `second` (iteration
/// `si`) provably access different elements when `fi < si`?  Sound in one
/// direction only: `true` proves disjointness, `false` is inconclusive.
fn quick_order_disjoint(
    first: &Section,
    second: &Section,
    fi: Var,
    si: Var,
    iter: &LoopIterSummary,
) -> bool {
    let bounds = iter.bounds.as_ref().and_then(|(f, l)| {
        (f.is_constant() && l.is_constant()).then(|| (f.constant_part(), l.constant_part()))
    });
    first.set.disjuncts().iter().all(|pa| {
        second.set.disjuncts().iter().all(|pb| {
            if pa.is_proven_empty() || pb.is_proven_empty() {
                return true;
            }
            (0..first.ndims).any(|k| {
                let d = Var::Dim(k);
                match (pa.solve_unit_eq(d), pb.solve_unit_eq(d)) {
                    (Some(e1), Some(e2)) => {
                        suif_poly::subscript_pair_disjoint(&e1, &e2, fi, si, bounds)
                    }
                    _ => false,
                }
            })
        })
    })
}

/// Are the two sections *identical for every pair of iterations*?  Used for
/// the old-SUIF finalization rule ("every iteration must write to exactly
/// the same region", §5.1.1): then the last iteration's values are the
/// array's final values.
pub fn section_iteration_invariant(
    ctx: &AnalysisCtx<'_>,
    iter: &LoopIterSummary,
    sec: &Section,
) -> bool {
    if sec.is_empty() {
        return true;
    }
    if sec.set.is_approximate() {
        return false;
    }
    let i1 = ctx.fresh_sym();
    let i2 = ctx.fresh_sym();
    let ca = iteration_copy(ctx, iter, sec, i1);
    let cb = iteration_copy(ctx, iter, sec, i2);
    // If any loop-varying symbols other than the index remain, the regions
    // are symbol-dependent and we cannot prove invariance.
    let fresh_ok = |s: &Section, idx: Var| {
        s.set
            .vars()
            .into_iter()
            .all(|v| v == idx || !AnalysisCtx::is_fresh(v) || !in_range(v, iter))
    };
    fn in_range(v: Var, iter: &LoopIterSummary) -> bool {
        matches!(v, Var::Sym(n) if n >= iter.varying.0 && n < iter.varying.1)
    }
    if !fresh_ok(sec, iter.index_sym) {
        return false;
    }
    // ca \ cb must be empty under the bounds (and symmetrically); the index
    // symbols are distinct, so emptiness means the section does not depend
    // on the iteration.
    // `ca \ cb` must be empty for EVERY pair i1 ≠ i2 — both orderings
    // (a monotonically growing region like `[1..i]` differs in exactly one
    // direction, so a single ordering is not enough).
    let mut diff = ca.set.subtract(&cb.set);
    for c in bounds_constraints(iter, i1) {
        diff = diff.constrain(&c);
    }
    for c in bounds_constraints(iter, i2) {
        diff = diff.constrain(&c);
    }
    for order in [
        Constraint::lt(&LinExpr::var(i1), &LinExpr::var(i2)),
        Constraint::lt(&LinExpr::var(i2), &LinExpr::var(i1)),
    ] {
        if !diff.clone().constrain(&order).prove_empty() {
            return false;
        }
    }
    true
}

/// Dependence tester over a completed bottom-up data flow.
pub struct DepTest<'a, 'p> {
    /// The analysis context.
    pub ctx: &'a AnalysisCtx<'p>,
    /// The bottom-up data-flow result.
    pub df: &'a ArrayDataFlow,
}

impl<'a, 'p> DepTest<'a, 'p> {
    /// Does the loop carry a dependence on this storage object?
    /// (Write–read or write–write across iterations.)
    pub fn has_carried_dep(&self, loop_stmt: StmtId, id: ArrayId) -> Option<DepKind> {
        let iter = self.df.loop_iter.get(&loop_stmt)?;
        let s = iter.sum.acc.get(id)?;
        if cross_iteration_overlap(self.ctx, iter, &s.write, &s.read, false) {
            return Some(DepKind::WriteRead);
        }
        if cross_iteration_overlap(self.ctx, iter, &s.write, &s.write, false) {
            return Some(DepKind::WriteWrite);
        }
        None
    }

    /// Is the object privatizable in the loop: no iteration's writes feed
    /// another iteration's *upwards-exposed* reads (§2.4: "the value used in
    /// each iteration comes from \[no\] previous iteration")?
    pub fn is_privatizable(&self, loop_stmt: StmtId, id: ArrayId) -> bool {
        let Some(iter) = self.df.loop_iter.get(&loop_stmt) else {
            return false;
        };
        let Some(s) = iter.sum.acc.get(id) else {
            return false;
        };
        !cross_iteration_overlap(self.ctx, iter, &s.write, &s.exposed, false)
    }

    /// Old-SUIF finalization rule: every iteration must-writes exactly the
    /// same region (then only the last iteration's values survive, §5.1.1).
    pub fn writes_iteration_invariant(&self, loop_stmt: StmtId, id: ArrayId) -> bool {
        let Some(iter) = self.df.loop_iter.get(&loop_stmt) else {
            return false;
        };
        let Some(s) = iter.sum.acc.get(id) else {
            return true;
        };
        // All writes must be must-writes and the must region invariant.
        if !s.write.subtract(&s.must_write).set.prove_empty() {
            return false;
        }
        section_iteration_invariant(self.ctx, iter, &s.must_write)
    }

    /// Valid parallel reduction on this object in this loop?
    ///
    /// Beyond the region test of §6.2.2.4 (the reduction region must not
    /// overlap any plain access), the accesses *outside* the reduction
    /// region must themselves be dependence-free across iterations: the
    /// reduction runtime only combines the reduction region, so e.g. a
    /// plain must-write to some other cell in every iteration is an output
    /// dependence a reduction cannot repair.
    pub fn reduction_of(&self, loop_stmt: StmtId, id: ArrayId) -> Option<crate::RedOp> {
        let iter = self.df.loop_iter.get(&loop_stmt)?;
        let op = iter.sum.red.valid_reduction(id)?;
        let e = iter.sum.red.get(id)?;
        if let Some(s) = iter.sum.acc.get(id) {
            // The plain writes/reads are the parts of W/R falling in the
            // recorded plain-access region (update accesses live in `red`,
            // provably disjoint from `nonred` per `valid_reduction`, so the
            // intersection over-approximates exactly the plain accesses —
            // conservative for the dependence test).  Subtracting `red`
            // instead would leave spurious residue whenever W and `red`
            // describe the same region through different existential
            // symbols.
            let w = s.write.intersect(&e.nonred);
            let r = s.read.intersect(&e.nonred);
            if cross_iteration_overlap(self.ctx, iter, &w, &r, false)
                || cross_iteration_overlap(self.ctx, iter, &w, &w, false)
            {
                return None;
            }
        }
        Some(op)
    }
}

/// The carried-dependence fact of one loop: every storage object the loop
/// accesses, mapped to its carried conflict (if any).
pub type CarriedDeps = std::collections::BTreeMap<ArrayId, Option<DepKind>>;

/// Input hash of one loop's carried-dependence fact: the loop's region key
/// and the value hash of the owning procedure's `Summarize` fact (`summary`).
/// The table reads nothing but the loop's per-iteration summary, which is
/// part of that fact, so neither an assertion nor an edit to another
/// procedure that leaves this summary's value alone moves it.  The one
/// definition the pass and the warm-start validator share.
pub(crate) fn deps_hash(li: &LoopInfo, keys: &ProgramKeys, summary: u128) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(keys.loop_key(li));
    h.write_u128(summary);
    h.0
}

/// Builds one loop's [`CarriedDeps`]: demanded by the loop's `Classify` run
/// (which reads its verdicts) and by `slice` (which shows them).
pub(crate) struct DepsPass<'a, 'p> {
    pub(crate) ctx: &'a AnalysisCtx<'p>,
    /// Where the data flow is read, if the table runs.
    pub(crate) flows: &'a FlowHandles,
    pub(crate) keys: &'a ProgramKeys,
    pub(crate) li: &'a LoopInfo,
    /// The value hash of the loop's procedure's summary.
    pub(crate) summary: u128,
}

impl Pass for DepsPass<'_, '_> {
    type Output = CarriedDeps;
    fn key(&self) -> FactKey {
        FactKey::new(PassId::Deps, Scope::Loop(self.li.stmt))
    }
    fn input_hash(&self) -> u128 {
        deps_hash(self.li, self.keys, self.summary)
    }
    fn deps(&self) -> Vec<FactKey> {
        vec![crate::parallelize::summary_key(self.li.proc)]
    }
    fn run(&self) -> CarriedDeps {
        let df = self.flows.df(self.ctx);
        let dt = DepTest { ctx: self.ctx, df };
        let loop_stmt = self.li.stmt;
        let Some(iter) = df.loop_iter.get(&loop_stmt) else {
            return CarriedDeps::new();
        };
        iter.sum
            .acc
            .arrays()
            .map(|id| (id, dt.has_carried_dep(loop_stmt, id)))
            .collect()
    }
}

/// The carried-dependence table of one loop, through the fact store.  The
/// analysis that classified the loop already demanded it, so this is a
/// lookup unless the fact was evicted; a statement that is not a loop has
/// an empty table.
pub fn carried_deps_cached(
    pa: &ProgramAnalysis<'_>,
    store: &FactStore,
    loop_stmt: StmtId,
) -> Arc<CarriedDeps> {
    let Some(li) = pa.ctx.tree.loop_of(loop_stmt) else {
        return Arc::default();
    };
    store.demand(&DepsPass {
        ctx: &pa.ctx,
        flows: &pa.flows,
        keys: &pa.keys,
        li,
        summary: pa.summaries[&li.proc],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summarize::ArrayDataFlow;
    use suif_ir::parse_program;

    struct Setup {
        p: suif_ir::Program,
    }

    impl Setup {
        fn new(src: &str) -> Setup {
            Setup {
                p: parse_program(src).unwrap(),
            }
        }

        fn with<R>(
            &self,
            f: impl FnOnce(&AnalysisCtx<'_>, &ArrayDataFlow, &suif_ir::RegionTree) -> R,
        ) -> R {
            let ctx = AnalysisCtx::new(&self.p);
            let df = ArrayDataFlow::analyze(&ctx);
            let tree = suif_ir::RegionTree::build(&self.p);
            f(&ctx, &df, &tree)
        }
    }

    fn loop_named(tree: &suif_ir::RegionTree, name: &str) -> StmtId {
        tree.loops.iter().find(|l| l.name == name).unwrap().stmt
    }

    #[test]
    fn independent_writes_have_no_dep() {
        let s = Setup::new(
            "program t\nproc main() {\n real a[10]\n int i\n do 1 i = 1, 10 {\n a[i] = i\n }\n}",
        );
        s.with(|ctx, df, tree| {
            let dt = DepTest { ctx, df };
            let l = loop_named(tree, "main/1");
            let a = s.p.var_by_name("main", "a").unwrap();
            assert_eq!(dt.has_carried_dep(l, ctx.array_of(a)), None);
        });
    }

    #[test]
    fn recurrence_is_a_dep_and_not_privatizable() {
        let s = Setup::new(
            "program t\nproc main() {\n real a[11]\n int i\n do 1 i = 1, 10 {\n a[i] = a[i + 1] + a[i]\n }\n}",
        );
        s.with(|ctx, df, tree| {
            let dt = DepTest { ctx, df };
            let l = loop_named(tree, "main/1");
            let a = s.p.var_by_name("main", "a").unwrap();
            assert!(dt.has_carried_dep(l, ctx.array_of(a)).is_some());
            assert!(!dt.is_privatizable(l, ctx.array_of(a)));
        });
    }

    #[test]
    fn write_then_read_temp_is_privatizable() {
        // tmp fully written then read each iteration: cross-iteration W×E
        // is empty even though W×R overlaps.
        let s = Setup::new(
            "program t\nproc main() {\n real tmp[4], out[20]\n int i, j\n do 1 i = 1, 20 {\n do 2 j = 1, 4 {\n tmp[j] = i + j\n }\n do 3 j = 1, 4 {\n out[i] = out[i] + tmp[j]\n }\n }\n}",
        );
        s.with(|ctx, df, tree| {
            let dt = DepTest { ctx, df };
            let l = loop_named(tree, "main/1");
            let tmp = s.p.var_by_name("main", "tmp").unwrap();
            assert!(dt.has_carried_dep(l, ctx.array_of(tmp)).is_some());
            assert!(dt.is_privatizable(l, ctx.array_of(tmp)));
            assert!(dt.writes_iteration_invariant(l, ctx.array_of(tmp)));
        });
    }

    #[test]
    fn loop_varying_symbol_blocks_invariance() {
        // Writes a[k..k+1] where k varies per iteration (from an array):
        // regions differ per iteration → not invariant, and deps assumed.
        let s = Setup::new(
            "program t\nproc main() {\n real a[30]\n int idx[10]\n int i, k\n do 1 i = 1, 10 {\n k = idx[i]\n a[k] = 1\n a[k + 1] = 2\n }\n}",
        );
        s.with(|ctx, df, tree| {
            let dt = DepTest { ctx, df };
            let l = loop_named(tree, "main/1");
            let a = s.p.var_by_name("main", "a").unwrap();
            assert!(!dt.writes_iteration_invariant(l, ctx.array_of(a)));
            // k unknown → possible overlap → dep.
            assert!(dt.has_carried_dep(l, ctx.array_of(a)).is_some());
        });
    }

    #[test]
    fn disjoint_strided_halves_are_independent() {
        // Iteration i writes a[i] and a[i + 100]: never overlaps across
        // iterations.
        let s = Setup::new(
            "program t\nproc main() {\n real a[200]\n int i\n do 1 i = 1, 100 {\n a[i] = 0\n a[i + 100] = 1\n }\n}",
        );
        s.with(|ctx, df, tree| {
            let dt = DepTest { ctx, df };
            let l = loop_named(tree, "main/1");
            let a = s.p.var_by_name("main", "a").unwrap();
            assert_eq!(dt.has_carried_dep(l, ctx.array_of(a)), None);
        });
    }

    #[test]
    fn scalar_sum_is_dep_but_reduction() {
        let s = Setup::new(
            "program t\nproc main() {\n real s, a[10]\n int i\n do 1 i = 1, 10 {\n s = s + a[i]\n }\n print s\n}",
        );
        s.with(|ctx, df, tree| {
            let dt = DepTest { ctx, df };
            let l = loop_named(tree, "main/1");
            let sv = s.p.var_by_name("main", "s").unwrap();
            let id = ctx.array_of(sv);
            assert!(dt.has_carried_dep(l, id).is_some());
            assert!(!dt.is_privatizable(l, id));
            assert_eq!(dt.reduction_of(l, id), Some(crate::RedOp::Add));
        });
    }

    #[test]
    fn reduction_rejected_when_other_cell_carries_output_dep() {
        // a[1] is a sum reduction, but a[7] is plainly must-written by every
        // iteration — an output dependence the reduction runtime cannot
        // repair, so the object must NOT be classified as a reduction.
        let s = Setup::new(
            "program t\nproc main() {\n real a[10]\n int i\n do 1 i = 1, 10 {\n a[1] = a[1] + 1.0\n a[7] = 0.0\n }\n print a[1], a[7]\n}",
        );
        s.with(|ctx, df, tree| {
            let dt = DepTest { ctx, df };
            let l = loop_named(tree, "main/1");
            let a = s.p.var_by_name("main", "a").unwrap();
            let id = ctx.array_of(a);
            assert!(dt.has_carried_dep(l, id).is_some());
            assert_eq!(dt.reduction_of(l, id), None);
        });
    }

    #[test]
    fn reduction_allowed_when_other_cells_are_read_only() {
        // a[1] is a sum reduction and a[7] is only *read* — reads carry no
        // dependence among themselves, so the reduction classification must
        // survive the leftover-access check.
        let s = Setup::new(
            "program t\nproc main() {\n real a[10], x\n int i\n do 1 i = 1, 10 {\n a[1] = a[1] + 1.0\n x = a[7]\n }\n print a[1], x\n}",
        );
        s.with(|ctx, df, tree| {
            let dt = DepTest { ctx, df };
            let l = loop_named(tree, "main/1");
            let a = s.p.var_by_name("main", "a").unwrap();
            let id = ctx.array_of(a);
            assert_eq!(dt.reduction_of(l, id), Some(crate::RedOp::Add));
        });
    }

    #[test]
    fn histogram_indirect_reduction() {
        let s = Setup::new(
            "program t\nproc main() {\n real h[16]\n int idx[100]\n int i\n do 1 i = 1, 100 {\n h[idx[i]] = h[idx[i]] + 1\n }\n}",
        );
        s.with(|ctx, df, tree| {
            let dt = DepTest { ctx, df };
            let l = loop_named(tree, "main/1");
            let h = s.p.var_by_name("main", "h").unwrap();
            let id = ctx.array_of(h);
            // Unknown subscripts → dependence assumed …
            assert!(dt.has_carried_dep(l, id).is_some());
            // … but the updates form a valid whole-array reduction.
            assert_eq!(dt.reduction_of(l, id), Some(crate::RedOp::Add));
        });
    }
}
