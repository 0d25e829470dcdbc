//! Bottom-up region-based array data-flow analysis (§5.2.2.1, §2.4).
//!
//! Walks every procedure leaves-first, computing for each statement, loop,
//! and procedure a [`NodeSummary`]: the `<R, E, W, M>` access summary plus
//! the reduction bookkeeping of Ch. 6.  Loop summaries apply the *closure*
//! operator (projecting the induction symbol constrained by the loop
//! bounds), keep the un-closed per-iteration summary for the dependence
//! tests, and apply the §5.2.2.3 recurrence enhancement that subtracts
//! must-written sections from the upwards-exposed reads of call-free loops
//! without anti-dependences.
//!
//! Call sites map callee summaries into the caller: formal-array sections
//! are retargeted to the actuals (with sub-array base shifts), formal-scalar
//! symbols are substituted with the actuals' affine values, callee-local
//! objects are dropped (Fortran-77 locals are undefined on re-entry), and
//! remaining callee-origin symbols are projected away.
//!
//! A region's sections repeat: every scalar's cell `{d0 = 1}` shows up under
//! R, E, W, M and both reduction roles, and a loop body touches the same
//! element many times.  So each region transform — constraining by loop
//! bounds or a branch predicate, the closure's exact and structure-keeping
//! projections of the index, the projection of loop-varying symbols, and a
//! call site's mapping of callee sections — runs through a `Memo` keyed by
//! content that lives for that one call, and the walk's access sections go
//! through one that lives for the procedure.  A result that drew a fresh
//! symbol is never kept, so fresh numbering and every fact are bit-identical
//! to transforming each section afresh (`tests/summary_digest.rs`).

use crate::context::{AnalysisCtx, ArrayKey, FRESH_BASE};
use crate::reduction::{self, RedSummary};
use crate::symenv::SymEnv;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::Arc;
use suif_ir::ast::BinOp;
use suif_ir::{Arg, Expr, ProcId, Ref, Stmt, StmtId, VarId, VarKind};
use suif_poly::{
    AccessSummary, Constraint, LinExpr, PolySet, PolySetPool, Section, SectionSummary, Var,
};

/// Access + reduction summary of one node or region.
#[derive(Clone, Debug, Default)]
pub struct NodeSummary {
    /// `<R, E, W, M>` per storage object.
    pub acc: AccessSummary,
    /// Reduction regions per storage object.
    pub red: RedSummary,
}

impl NodeSummary {
    /// Empty summary.
    pub fn empty() -> NodeSummary {
        NodeSummary::default()
    }

    /// Sequence: `self` then `other`.
    pub fn then(&self, other: &NodeSummary) -> NodeSummary {
        NodeSummary {
            acc: self.acc.then(&other.acc),
            red: self.red.union(&other.red),
        }
    }

    /// Control-flow meet (branch join without path conditions).
    pub fn meet(&self, other: &NodeSummary) -> NodeSummary {
        NodeSummary {
            acc: self.acc.meet(&other.acc),
            red: self.red.union(&other.red),
        }
    }

    /// Share the storage of every section set through `pool`.
    pub fn intern_sets(&mut self, pool: &mut PolySetPool) {
        self.acc.intern_sets(pool);
        self.red.intern_sets(pool);
    }
}

/// The per-iteration summary of one loop, kept un-closed for dependence and
/// privatization testing.
#[derive(Clone, Debug)]
pub struct LoopIterSummary {
    /// Body summary with the induction symbol free.
    pub sum: NodeSummary,
    /// The induction symbol.
    pub index_sym: Var,
    /// Affine `(first, last)` bounds in loop-entry symbols, normalized so
    /// `first <= i <= last` holds for executed iterations, when derivable.
    pub bounds: Option<(LinExpr, LinExpr)>,
    /// Constant step, when known.
    pub step: Option<i64>,
    /// Fresh-symbol id range allocated while analyzing the body: symbols in
    /// this range vary from iteration to iteration.
    pub varying: (u32, u32),
    /// Does the body (syntactically) contain procedure calls?
    pub has_calls: bool,
}

impl LoopIterSummary {
    /// Is this symbol loop-varying (per-iteration)?
    pub fn is_varying(&self, sym: Var) -> bool {
        if sym == self.index_sym {
            return true;
        }
        matches!(sym, Var::Sym(n) if n >= self.varying.0 && n < self.varying.1)
    }
}

/// The complete bottom-up data-flow result: every procedure's [`ProcFlow`]
/// merged into program-wide maps.  The values are shared with the flows
/// they came from, so merging a flow served by the fact store copies
/// pointers, never summaries.
#[derive(Debug, Default)]
pub struct ArrayDataFlow {
    /// Whole-procedure summaries (in the procedure's own symbols).
    pub proc_summary: HashMap<ProcId, Arc<NodeSummary>>,
    /// Fresh-symbol range allocated while analyzing each procedure.
    pub proc_fresh: HashMap<ProcId, (u32, u32)>,
    /// Node summary per statement (loops appear in closed form, including
    /// their bound-expression reads).
    pub stmt_summary: HashMap<StmtId, Arc<NodeSummary>>,
    /// Per-iteration summaries per loop.
    pub loop_iter: HashMap<StmtId, Arc<LoopIterSummary>>,
    /// Plain (un-enhanced) closed access summaries per loop: exposure here
    /// includes reads fed by *earlier iterations of the same loop* — exactly
    /// what the Fig. 5-3 loop-body rule needs to model "the remaining
    /// iterations" (the §5.2.2.3 enhancement is only valid for the loop's
    /// exposure towards code *before* the loop).
    pub loop_closed_plain: HashMap<StmtId, Arc<AccessSummary>>,
}

/// The per-procedure slice of the bottom-up result: everything the analysis
/// of one procedure produces, and the value of one `Summarize` fact.  Given
/// the same procedure (and the same callee flows), [`summarize_proc`]
/// returns a bit-identical `ProcFlow` regardless of which program or thread
/// it is analyzed in, because each procedure draws fresh symbols from its
/// own [`AnalysisCtx::proc_block`].
#[derive(Clone, Debug, Default)]
pub struct ProcFlow {
    /// Whole-procedure summary (in the procedure's own symbols).
    pub summary: Arc<NodeSummary>,
    /// Fresh-symbol range used while analyzing the procedure.
    pub fresh: (u32, u32),
    /// Node summary per statement of this procedure.
    pub stmt_summary: HashMap<StmtId, Arc<NodeSummary>>,
    /// Per-iteration summaries per loop of this procedure.
    pub loop_iter: HashMap<StmtId, Arc<LoopIterSummary>>,
    /// Plain closed access summaries per loop of this procedure.
    pub loop_closed_plain: HashMap<StmtId, Arc<AccessSummary>>,
}

impl ProcFlow {
    /// Make the flow's resident form compact without changing its content:
    /// every section set — reduction regions included — shares one storage
    /// with each equal set elsewhere in this flow.  The pool lives for this
    /// call only, so nothing outlives the fact or is shared between facts.
    pub fn compact(&mut self) {
        let mut pool = PolySetPool::new();
        Arc::make_mut(&mut self.summary).intern_sets(&mut pool);
        for n in self.stmt_summary.values_mut() {
            Arc::make_mut(n).intern_sets(&mut pool);
        }
        for l in self.loop_iter.values_mut() {
            Arc::make_mut(l).sum.intern_sets(&mut pool);
        }
        for a in self.loop_closed_plain.values_mut() {
            Arc::make_mut(a).intern_sets(&mut pool);
        }
    }
}

/// Summarize one procedure given the flows of (at least) its callees.
///
/// Pure and deterministic: fresh symbols come from the procedure's own
/// block, modified-scalar kills happen in sorted order, and callee data is
/// read only through `callees`.
pub fn summarize_proc(
    ctx: &AnalysisCtx<'_>,
    pid: ProcId,
    callees: &HashMap<ProcId, Arc<ProcFlow>>,
) -> ProcFlow {
    ctx.with_fresh_block(pid, || {
        let start = ctx.fresh_watermark();
        let mut flow = ProcFlow::default();
        let mut env = SymEnv::proc_entry();
        let mut w = Walker {
            ctx,
            callees,
            flow: &mut flow,
            proc: pid,
            sections: Memo::new(),
        };
        let body = &ctx.program.proc(pid).body;
        let sum = w.walk_body(body, &mut env);
        let end = ctx.fresh_watermark();
        flow.summary = Arc::new(sum);
        flow.fresh = (start, end);
        flow.compact();
        flow
    })
}

impl ArrayDataFlow {
    /// Run the bottom-up analysis over the whole program.
    pub fn analyze(ctx: &AnalysisCtx<'_>) -> ArrayDataFlow {
        ArrayDataFlow::bottom_up(ctx, |pid, flows| Arc::new(summarize_proc(ctx, pid, flows)))
    }

    /// Walk the call graph leaves-first, obtaining each procedure's flow
    /// from `flow_of` (handed the flows of every procedure before it, its
    /// callees among them) and merging it into the program-wide maps.
    pub(crate) fn bottom_up(
        ctx: &AnalysisCtx<'_>,
        mut flow_of: impl FnMut(ProcId, &HashMap<ProcId, Arc<ProcFlow>>) -> Arc<ProcFlow>,
    ) -> ArrayDataFlow {
        let mut df = ArrayDataFlow::default();
        let mut flows: HashMap<ProcId, Arc<ProcFlow>> = HashMap::new();
        for &pid in ctx.cg.bottom_up() {
            let flow = flow_of(pid, &flows);
            df.merge_proc(pid, &flow);
            flows.insert(pid, flow);
        }
        df
    }

    /// Fold one procedure's flow into the program-wide maps.
    fn merge_proc(&mut self, pid: ProcId, flow: &ProcFlow) {
        self.proc_summary.insert(pid, flow.summary.clone());
        self.proc_fresh.insert(pid, flow.fresh);
        self.stmt_summary
            .extend(flow.stmt_summary.iter().map(|(k, v)| (*k, v.clone())));
        self.loop_iter
            .extend(flow.loop_iter.iter().map(|(k, v)| (*k, v.clone())));
        self.loop_closed_plain
            .extend(flow.loop_closed_plain.iter().map(|(k, v)| (*k, v.clone())));
    }
}

struct Walker<'a, 'p> {
    ctx: &'a AnalysisCtx<'p>,
    callees: &'a HashMap<ProcId, Arc<ProcFlow>>,
    flow: &'a mut ProcFlow,
    proc: ProcId,
    /// `ctx.access_section` per (variable, affine subscripts), for this walk.
    sections: Memo<(VarId, Option<Vec<LinExpr>>), Section>,
}

/// The results of one section transform within one region, keyed by the
/// input's content: each distinct input is transformed once.  A result
/// whose computation drew a fresh symbol is not kept, so an equal input
/// later draws its own symbols exactly as it would without the memo, and
/// every fact stays bit-identical.  A memo lives for one transform call
/// (the access sections' for one procedure walk) and is never shared, so
/// nothing outlives the region it serves.
struct Memo<K, V>(HashMap<K, V>);

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Memo(HashMap::new())
    }

    /// The kept result for `key`, or `f(&key)` (kept if it drew no fresh
    /// symbol).
    fn get_or(&mut self, ctx: &AnalysisCtx<'_>, key: K, f: impl FnOnce(&K) -> V) -> V {
        if let Some(v) = self.0.get(&key) {
            return v.clone();
        }
        let mark = ctx.fresh_watermark();
        let v = f(&key);
        if ctx.fresh_watermark() == mark {
            self.0.insert(key, v.clone());
        }
        v
    }
}

impl Memo<PolySet, PolySet> {
    /// `f(sec)`, for a transform that reads only `sec`'s set and keeps its
    /// array and dimensions.
    fn section(
        &mut self,
        ctx: &AnalysisCtx<'_>,
        sec: &Section,
        f: impl FnOnce(&Section) -> Section,
    ) -> Section {
        Section {
            set: self.get_or(ctx, sec.set.clone(), |_| f(sec).set),
            ..*sec
        }
    }
}

impl<'a, 'p> Walker<'a, 'p> {
    fn walk_body(&mut self, body: &[Stmt], env: &mut SymEnv) -> NodeSummary {
        let mut acc = NodeSummary::empty();
        for s in body {
            let ns = self.walk_stmt(s, env);
            acc = acc.then(&ns);
            self.flow.stmt_summary.insert(s.id(), Arc::new(ns));
        }
        acc
    }

    /// `ctx.access_section(v, subs)`, computed once per distinct argument
    /// in this walk.
    fn access_section(&mut self, v: VarId, subs: Option<Vec<LinExpr>>) -> Section {
        let ctx = self.ctx;
        self.sections.get_or(ctx, (v, subs), |(v, subs)| {
            ctx.access_section(*v, subs.as_deref())
        })
    }

    /// Reads performed by evaluating an expression: plain accesses.
    fn expr_reads(&mut self, e: &Expr, env: &SymEnv, out: &mut NodeSummary) {
        match e {
            Expr::Int(_) | Expr::Real(_) => {}
            Expr::Scalar(v) => {
                let sec = self.access_section(*v, None);
                out.acc.add_read(sec.clone());
                out.red.add_plain(sec);
            }
            Expr::Element(v, subs) => {
                for s in subs {
                    self.expr_reads(s, env, out);
                }
                let aff = self.affine_subs(subs, env);
                let sec = self.access_section(*v, aff);
                out.acc.add_read(sec.clone());
                out.red.add_plain(sec);
            }
            Expr::Unary(_, a) => self.expr_reads(a, env, out),
            Expr::Binary(_, a, b) => {
                self.expr_reads(a, env, out);
                self.expr_reads(b, env, out);
            }
            Expr::Intrinsic(_, args) => {
                for a in args {
                    self.expr_reads(a, env, out);
                }
            }
        }
    }

    fn affine_subs(&self, subs: &[Expr], env: &SymEnv) -> Option<Vec<LinExpr>> {
        subs.iter().map(|s| env.affine(s)).collect()
    }

    /// Section of a reference (write target).  Returns `(section, is_exact)`.
    fn ref_section(&mut self, r: &Ref, env: &SymEnv) -> (Section, bool) {
        match r {
            Ref::Scalar(v) => (self.access_section(*v, None), true),
            Ref::Element(v, subs) => {
                let aff = self.affine_subs(subs, env);
                let exact = aff.is_some();
                (self.access_section(*v, aff), exact)
            }
        }
    }

    fn walk_stmt(&mut self, s: &Stmt, env: &mut SymEnv) -> NodeSummary {
        match s {
            Stmt::Assign { lhs, rhs, .. } => self.walk_assign(lhs, rhs, env),
            Stmt::Read { lhs, .. } => {
                let mut ns = NodeSummary::empty();
                // Subscript reads, then the write.
                if let Ref::Element(_, subs) = lhs {
                    for e in subs {
                        self.expr_reads(e, env, &mut ns);
                    }
                }
                let (sec, exact) = self.ref_section(lhs, env);
                let mut w = NodeSummary::empty();
                w.acc.add_write(sec.clone(), exact);
                w.red.add_plain(sec);
                if let Ref::Scalar(v) = lhs {
                    env.kill(self.ctx, *v);
                }
                ns.then(&w)
            }
            Stmt::Print { args, .. } => {
                let mut ns = NodeSummary::empty();
                for a in args {
                    self.expr_reads(a, env, &mut ns);
                }
                ns
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => self.walk_if(cond, then_body, else_body, env),
            Stmt::Do { .. } => self.walk_do(s, env),
            Stmt::Call { callee, args, .. } => self.walk_call(*callee, args, env),
        }
    }

    fn walk_assign(&mut self, lhs: &Ref, rhs: &Expr, env: &mut SymEnv) -> NodeSummary {
        let mut reads = NodeSummary::empty();
        self.expr_reads(rhs, env, &mut reads);
        if let Ref::Element(_, subs) = lhs {
            for e in subs {
                self.expr_reads(e, env, &mut reads);
            }
        }
        let (sec, exact) = self.ref_section(lhs, env);
        let site = reduction::recognize_assign(lhs, rhs);
        let mut w = NodeSummary::empty();
        w.acc.add_write(sec.clone(), exact);
        match site {
            Some(site) => {
                // The self-read and the write form a commutative update; the
                // plain reads recorded above include the self-read, which is
                // fine for R/E soundness but must not poison the reduction
                // region — rebuild the red part of `reads` without it.
                let mut red = RedSummary::empty();
                for d in &site.data {
                    let mut tmp = NodeSummary::empty();
                    self.expr_reads(d, env, &mut tmp);
                    red = red.union(&tmp.red);
                }
                if let Ref::Element(_, subs) = lhs {
                    for e in subs {
                        let mut tmp = NodeSummary::empty();
                        self.expr_reads(e, env, &mut tmp);
                        red = red.union(&tmp.red);
                    }
                }
                red.add_update(sec, site.op);
                reads.red = red;
                w.red = RedSummary::empty();
            }
            None => {
                w.red.add_plain(sec);
            }
        }
        // Symbolic update.
        if let Ref::Scalar(v) = lhs {
            match env.affine(rhs) {
                Some(val) => env.assign(*v, val),
                None => {
                    env.kill(self.ctx, *v);
                }
            }
        }
        reads.then(&w)
    }

    fn walk_if(
        &mut self,
        cond: &Expr,
        then_body: &[Stmt],
        else_body: &[Stmt],
        env: &mut SymEnv,
    ) -> NodeSummary {
        // Conditional MIN/MAX reduction form (§6.2.2.1).
        if let Some(site) = reduction::recognize_if_minmax(cond, then_body, else_body) {
            let mut ns = NodeSummary::empty();
            // Data reads are plain; the target's self-read is reduction-role
            // but still recorded in R/E for soundness.
            for d in &site.data {
                self.expr_reads(d, env, &mut ns);
            }
            let target_sec = {
                let aff = self.affine_subs(site.subs, env);
                self.access_section(site.var, aff)
            };
            ns.acc.add_read(target_sec.clone());
            // Conditional write: may-write only.
            let mut w = NodeSummary::empty();
            w.acc.add_write(target_sec.clone(), false);
            ns.red.add_update(target_sec, site.op);
            // Record statement summaries for the inner assign too (liveness
            // walks statement lists by id).
            if let Some(inner) = then_body.first() {
                self.flow.stmt_summary.insert(inner.id(), Arc::default());
            }
            env.kill(self.ctx, site.var);
            return ns.then(&w);
        }

        let mut cond_reads = NodeSummary::empty();
        self.expr_reads(cond, env, &mut cond_reads);
        let cc = cond_constraints(env, cond);
        let mut then_env = env.clone();
        let then_sum = self.walk_body(then_body, &mut then_env);
        let mut else_env = env.clone();
        let else_sum = self.walk_body(else_body, &mut else_env);
        let combined = match cc {
            Some((pos, neg)) => {
                // Path-partition union: summaries constrained by the branch
                // predicate, then unioned (exact for must-writes because the
                // disjuncts partition the state space).
                let t = constrain_node(self.ctx, &then_sum, &pos);
                let e = constrain_node(self.ctx, &else_sum, &neg);
                partition_union(&t, &e)
            }
            None => then_sum.meet(&else_sum),
        };
        then_env.merge(self.ctx, &else_env);
        *env = then_env;
        cond_reads.then(&combined)
    }

    fn walk_do(&mut self, s: &Stmt, env: &mut SymEnv) -> NodeSummary {
        let Stmt::Do {
            id,
            var,
            lo,
            hi,
            step,
            body,
            ..
        } = s
        else {
            unreachable!()
        };
        let mut bound_reads = NodeSummary::empty();
        self.expr_reads(lo, env, &mut bound_reads);
        self.expr_reads(hi, env, &mut bound_reads);
        if let Some(st) = step {
            self.expr_reads(st, env, &mut bound_reads);
        }
        let lo_aff = env.affine(lo);
        let hi_aff = env.affine(hi);
        let step_val = match step {
            None => Some(1i64),
            Some(e) => match env.affine(e) {
                Some(l) if l.is_constant() => Some(l.constant_part()),
                _ => None,
            },
        };
        // Normalize bounds to (first, last) so first <= i <= last.
        let bounds = match (lo_aff, hi_aff, step_val) {
            (Some(l), Some(h), Some(st)) if st > 0 => Some((l, h)),
            (Some(l), Some(h), Some(st)) if st < 0 => Some((h, l)),
            _ => None,
        };

        let fresh_start = self.ctx.fresh_watermark();
        let mut body_env = env.clone();
        let modified = self.body_modified_scalars(body);
        for &v in &modified {
            body_env.kill(self.ctx, v);
        }
        let index_sym = body_env.kill(self.ctx, *var);
        let has_calls = body_has_calls(body);
        let body_sum = self.walk_body(body, &mut body_env);
        let fresh_end = self.ctx.fresh_watermark();

        let iter = LoopIterSummary {
            sum: body_sum.clone(),
            index_sym,
            bounds: bounds.clone(),
            step: step_val,
            varying: (fresh_start, fresh_end),
            has_calls,
        };

        // Closure: constrain the induction symbol by the bounds, project it
        // and all loop-varying symbols away.  Each phase transforms each
        // distinct set once (see `Memo`), in the order the sections come.
        let mut constrained = body_sum;
        if let Some((first, last)) = &bounds {
            let i = LinExpr::var(index_sym);
            let cs = vec![Constraint::geq(&i, first), Constraint::leq(&i, last)];
            constrained = constrain_node(self.ctx, &constrained, &[cs]);
        }
        let ctx = self.ctx;
        let (mut exact, mut keep, mut project) = (Memo::new(), Memo::new(), Memo::new());
        let mut close = |s: &Section| {
            keep.section(ctx, s, |s| {
                s.closure_keep(index_sym, &mut || ctx.fresh_sym())
            })
        };
        // May-sections keep an inexactly projectable index as a fresh
        // symbol; a must-write is projected exactly or dropped.
        let mut closed = NodeSummary {
            acc: constrained.acc.map(|s| SectionSummary {
                read: close(&s.read),
                exposed: close(&s.exposed),
                write: close(&s.write),
                must_write: exact.section(ctx, &s.must_write, |m| {
                    m.closure_exact(index_sym)
                        .unwrap_or_else(|| Section::empty(m.array, m.ndims))
                }),
            }),
            red: constrained.red.map_sections(|s| Some(close(s))),
        };
        let varying = |v: Var| matches!(v, Var::Sym(n) if n >= fresh_start && n < fresh_end);
        let mut unvary = |s: &Section| {
            project.section(ctx, s, |s| {
                s.project_symbols_keep(&varying, &mut || ctx.fresh_sym())
            })
        };
        closed.acc = closed.acc.map(|s| SectionSummary {
            read: unvary(&s.read),
            exposed: unvary(&s.exposed),
            write: unvary(&s.write),
            // A must-write mentioning a varying symbol is dropped.
            must_write: if s.must_write.set.vars().into_iter().any(varying) {
                Section::empty(s.must_write.array, s.must_write.ndims)
            } else {
                s.must_write.clone()
            },
        });
        closed.red = closed.red.map_sections(|s| Some(unvary(s)));
        // Unknown bounds ⇒ the loop may execute zero iterations (and the
        // iteration space is unconstrained): nothing is must-written.
        if bounds.is_none() {
            let arrays: Vec<_> = closed.acc.arrays().collect();
            for a in arrays {
                if let Some(cl) = closed.acc.get(a) {
                    let mut fixed = cl.clone();
                    fixed.must_write =
                        suif_poly::Section::empty(fixed.must_write.array, fixed.must_write.ndims);
                    closed.acc.insert(fixed);
                }
            }
        }

        self.flow
            .loop_closed_plain
            .insert(*id, Arc::new(closed.acc.clone()));

        // §5.2.2.3: sharpen upwards-exposed reads — an exposed read of
        // iteration i2 is not exposed at the loop level when the must-writes
        // of iterations executed before i2 cover it (admits the psmoo
        // recurrence, rejects read-modify-write updates).
        {
            let arrays: Vec<_> = closed.acc.arrays().collect();
            for a in arrays {
                let (Some(cl), Some(it)) = (closed.acc.get(a), iter.sum.acc.get(a)) else {
                    continue;
                };
                if cl.exposed.is_empty() {
                    continue;
                }
                if let Some(better) = crate::enhance::enhanced_exposed(self.ctx, &iter, it) {
                    // Intersect with the plainly-closed exposure (both are
                    // sound over-approximations).
                    let mut sharpened = cl.clone();
                    sharpened.exposed = sharpened.exposed.intersect(&better);
                    closed.acc.insert(sharpened);
                }
            }
        }

        self.flow.loop_iter.insert(*id, Arc::new(iter));

        // Post-loop environment: modified scalars and the index are unknown.
        for &v in &modified {
            env.kill(self.ctx, v);
        }
        env.kill(self.ctx, *var);
        bound_reads.then(&closed)
    }

    fn walk_call(&mut self, callee: ProcId, args: &[Arg], env: &mut SymEnv) -> NodeSummary {
        let mut arg_reads = NodeSummary::empty();
        let cproc = self.ctx.program.proc(callee);
        for a in args {
            match a {
                Arg::Value(e) => self.expr_reads(e, env, &mut arg_reads),
                Arg::ArrayPart { base, .. } => {
                    for e in base {
                        self.expr_reads(e, env, &mut arg_reads);
                    }
                }
                Arg::ScalarVar(v) => {
                    let sec = self.access_section(*v, None);
                    arg_reads.acc.add_read(sec.clone());
                    arg_reads.red.add_plain(sec);
                }
                Arg::ArrayWhole(_) => {}
            }
        }

        let callee_flow = self.callees.get(&callee);
        let callee_sum = callee_flow.map(|f| f.summary.clone()).unwrap_or_default();

        // Build formal-scalar symbol substitutions (caller values).
        let callee_range = callee_flow.map(|f| f.fresh).unwrap_or((u32::MAX, u32::MAX));
        let mut subs: Vec<(Var, LinExpr)> = Vec::new();
        for (k, &formal) in cproc.params.iter().enumerate() {
            if self.ctx.program.var(formal).is_array() {
                continue;
            }
            let val = match &args[k] {
                Arg::ScalarVar(v) => env.value_of(*v),
                Arg::Value(e) => env
                    .affine(e)
                    .unwrap_or_else(|| LinExpr::var(self.ctx.fresh_sym())),
                _ => LinExpr::var(self.ctx.fresh_sym()),
            };
            subs.push((AnalysisCtx::sym_of(formal), val));
        }

        let map_one = |sec: &Section| -> Option<Section> {
            // 1. Retarget the storage object.
            let retargeted: Section = match self.ctx.key_of_id(sec.array) {
                ArrayKey::Common(_) => sec.clone(),
                ArrayKey::Var(v) => {
                    let info = self.ctx.program.var(v);
                    if info.proc != callee {
                        // Object from a deeper context that already maps to a
                        // caller-visible thing — cannot happen (we retarget at
                        // each level), but keep it if it is caller-visible.
                        sec.clone()
                    } else {
                        match info.kind {
                            VarKind::Param { index } => {
                                if info.is_array() {
                                    match &args[index] {
                                        Arg::ArrayWhole(av) => {
                                            self.ctx.map_param_section(sec, *av, None)
                                        }
                                        Arg::ArrayPart { var: av, base } => {
                                            let aff = self.affine_subs(base, env);
                                            match aff.and_then(|a| self.ctx.linear_index(*av, &a)) {
                                                Some(b) => {
                                                    self.ctx.map_param_section(sec, *av, Some(b))
                                                }
                                                None => self.ctx.whole_section(*av),
                                            }
                                        }
                                        _ => return None,
                                    }
                                } else {
                                    // Scalar formal cell.
                                    match &args[index] {
                                        Arg::ScalarVar(av) => self.ctx.access_section(*av, None),
                                        _ => return None, // by-value: no caller storage
                                    }
                                }
                            }
                            _ => return None, // callee local: dropped
                        }
                    }
                }
            };
            // 2. Substitute formal-scalar symbols with caller values.
            let mut out = retargeted;
            for (sym, val) in &subs {
                out = out.substitute(*sym, val);
            }
            // 3. Project remaining callee-origin symbols: the callee's own
            // fresh range and the callee's variable symbols.  Caller symbols
            // (including the caller's loop indices) must survive.
            let program = self.ctx.program;
            let projected = out.project_symbols(|v| match v {
                Var::Sym(n) if n >= FRESH_BASE => n >= callee_range.0 && n < callee_range.1,
                _ => AnalysisCtx::var_of_sym(v)
                    .map(|vid| program.var(vid).proc == callee)
                    .unwrap_or(false),
            });
            Some(projected)
        };
        let ctx = self.ctx;
        let mut memo = Memo::new();
        let mut map_section = |sec: &Section| memo.get_or(ctx, sec.clone(), &map_one);

        // Map the access summary.
        let mut mapped = NodeSummary::empty();
        for (_, s) in callee_sum.acc.iter() {
            let (Some(read), Some(exposed), Some(write)) = (
                map_section(&s.read),
                map_section(&s.exposed),
                map_section(&s.write),
            ) else {
                continue;
            };
            if read.is_empty() && write.is_empty() {
                continue;
            }
            // Must-writes must stay under-approximate: the projection step
            // inside map_section over-approximates, so a mapped must-write
            // is only kept when no callee-origin symbol remained to project
            // (retarget + substitution are exact) and the mapping introduced
            // no approximation.
            let program = self.ctx.program;
            let must = map_section(&s.must_write)
                .filter(|m| !m.set.is_approximate())
                .filter(|m| {
                    m.set.vars().into_iter().all(|v| match v {
                        Var::Sym(n) if n >= FRESH_BASE => {
                            !(n >= callee_range.0 && n < callee_range.1)
                        }
                        _ => AnalysisCtx::var_of_sym(v)
                            .map(|vid| program.var(vid).proc != callee)
                            .unwrap_or(true),
                    })
                })
                .unwrap_or_else(|| Section::empty(write.array, write.ndims));
            let target = read.array;
            let merged = SectionSummary {
                read: read.clone(),
                exposed,
                write: write.clone(),
                must_write: must.retarget(target, 1),
            };
            // Union with anything already mapped onto this object.
            let combined = match mapped.acc.get(target) {
                Some(prev) => SectionSummary {
                    read: prev.read.union(&merged.read),
                    exposed: prev.exposed.union(&merged.exposed),
                    write: prev.write.union(&merged.write),
                    must_write: prev.must_write.union(&merged.must_write),
                },
                None => merged,
            };
            mapped.acc.insert(combined);
        }
        mapped.red = callee_sum.red.map_sections(|s| map_section(s));

        // Copy-out effects on scalar actuals the callee may modify.
        for (k, &formal) in cproc.params.iter().enumerate() {
            if self.ctx.program.var(formal).is_array() {
                continue;
            }
            if cproc.modified_params.get(k).copied().unwrap_or(false) {
                if let Arg::ScalarVar(v) = &args[k] {
                    let sec = self.ctx.access_section(*v, None);
                    mapped.acc.add_write(sec.clone(), true);
                    mapped.red.add_plain(sec);
                    env.kill(self.ctx, *v);
                }
            }
        }

        // Kill caller common scalars the callee may write.
        let caller = self.ctx.program.proc(self.proc);
        for &m in &caller.common_vars {
            if self.ctx.program.var(m).is_array() {
                continue;
            }
            let cell = self.ctx.access_section(m, None);
            if let Some(s) = callee_sum.acc.get(cell.array) {
                if !s.write.provably_disjoint(&cell) {
                    env.kill(self.ctx, m);
                }
            }
        }

        arg_reads.then(&mapped)
    }

    /// Scalars of the current procedure whose values may change while the
    /// body executes (assignment, read, loop index, call effects).
    /// The result is ordered (`BTreeSet`) because the caller kills these
    /// scalars in iteration order, and each kill allocates a fresh symbol —
    /// the order must be deterministic.
    fn body_modified_scalars(&self, body: &[Stmt]) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_modified(body, &mut out);
        out
    }

    fn collect_modified(&self, body: &[Stmt], out: &mut BTreeSet<VarId>) {
        for s in body {
            match s {
                Stmt::Assign { lhs, .. } | Stmt::Read { lhs, .. } => {
                    if let Ref::Scalar(v) = lhs {
                        out.insert(*v);
                    }
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.collect_modified(then_body, out);
                    self.collect_modified(else_body, out);
                }
                Stmt::Do { var, body, .. } => {
                    out.insert(*var);
                    self.collect_modified(body, out);
                }
                Stmt::Call { callee, args, .. } => {
                    let cproc = self.ctx.program.proc(*callee);
                    for (k, a) in args.iter().enumerate() {
                        if cproc.modified_params.get(k).copied().unwrap_or(false) {
                            if let Arg::ScalarVar(v) = a {
                                out.insert(*v);
                            }
                        }
                    }
                    // Common scalars the callee may write.
                    if let Some(csum) = self.callees.get(callee).map(|f| &f.summary) {
                        let caller = self.ctx.program.proc(self.proc);
                        for &m in &caller.common_vars {
                            if self.ctx.program.var(m).is_array() {
                                continue;
                            }
                            let cell = self.ctx.access_section(m, None);
                            if let Some(s) = csum.acc.get(cell.array) {
                                if !s.write.provably_disjoint(&cell) {
                                    out.insert(m);
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

fn body_has_calls(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Call { .. } => true,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => body_has_calls(then_body) || body_has_calls(else_body),
        Stmt::Do { body, .. } => body_has_calls(body),
        _ => false,
    })
}

/// Constrain every section of a summary by a disjunction of constraint
/// conjunctions (union over the disjuncts), each distinct set once.
fn constrain_node(
    ctx: &AnalysisCtx<'_>,
    ns: &NodeSummary,
    disjuncts: &[Vec<Constraint>],
) -> NodeSummary {
    let mut memo = Memo::new();
    let mut constrain_sec = |sec: &Section| {
        memo.section(ctx, sec, |sec| {
            let mut out = Section::empty(sec.array, sec.ndims);
            for conj in disjuncts {
                let mut s = sec.clone();
                for c in conj {
                    s.set = s.set.constrain(c);
                }
                out = out.union(&s);
            }
            out
        })
    };
    NodeSummary {
        acc: ns.acc.map(|s| SectionSummary {
            read: constrain_sec(&s.read),
            exposed: constrain_sec(&s.exposed),
            write: constrain_sec(&s.write),
            must_write: constrain_sec(&s.must_write),
        }),
        red: ns.red.map_sections(|s| Some(constrain_sec(s))),
    }
}

/// Union two summaries that describe *mutually exclusive* paths (both taken
/// under complementary predicates): all four components union, including
/// must-writes.
fn partition_union(a: &NodeSummary, b: &NodeSummary) -> NodeSummary {
    let mut acc = AccessSummary::empty();
    let arrays: std::collections::BTreeSet<_> = a.acc.arrays().chain(b.acc.arrays()).collect();
    for id in arrays {
        let merged = match (a.acc.get(id), b.acc.get(id)) {
            (Some(x), Some(y)) => SectionSummary {
                read: x.read.union(&y.read),
                exposed: x.exposed.union(&y.exposed),
                write: x.write.union(&y.write),
                must_write: x.must_write.union(&y.must_write),
            },
            (Some(x), None) => x.clone(),
            (None, Some(y)) => y.clone(),
            (None, None) => continue,
        };
        acc.insert(merged);
    }
    NodeSummary {
        acc,
        red: a.red.union(&b.red),
    }
}

/// Extract branch-predicate constraints from an affine comparison:
/// `(positive disjuncts, negative disjuncts)`.
#[allow(clippy::type_complexity)]
fn cond_constraints(
    env: &SymEnv,
    cond: &Expr,
) -> Option<(Vec<Vec<Constraint>>, Vec<Vec<Constraint>>)> {
    let Expr::Binary(op, a, b) = cond else {
        return None;
    };
    let la = env.affine(a)?;
    let lb = env.affine(b)?;
    let single = |c: Constraint| vec![vec![c]];
    Some(match op {
        BinOp::Lt => (
            single(Constraint::lt(&la, &lb)),
            single(Constraint::geq(&la, &lb)),
        ),
        BinOp::Le => (
            single(Constraint::leq(&la, &lb)),
            single(Constraint::lt(&lb, &la)),
        ),
        BinOp::Gt => (
            single(Constraint::lt(&lb, &la)),
            single(Constraint::geq(&lb, &la)),
        ),
        BinOp::Ge => (
            single(Constraint::geq(&la, &lb)),
            single(Constraint::lt(&la, &lb)),
        ),
        BinOp::Eq => (
            single(Constraint::eq(&la, &lb)),
            vec![
                vec![Constraint::lt(&la, &lb)],
                vec![Constraint::lt(&lb, &la)],
            ],
        ),
        BinOp::Ne => (
            vec![
                vec![Constraint::lt(&la, &lb)],
                vec![Constraint::lt(&lb, &la)],
            ],
            single(Constraint::eq(&la, &lb)),
        ),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    fn analyze(src: &str) -> (suif_ir::Program, ArrayDataFlow) {
        let p = parse_program(src).unwrap();
        let df = {
            let ctx = AnalysisCtx::new(&p);
            ArrayDataFlow::analyze(&ctx)
        };
        (p, df)
    }

    fn df_fingerprint(df: &ArrayDataFlow) -> String {
        use std::collections::BTreeMap;
        let procs: BTreeMap<_, _> = df
            .proc_summary
            .iter()
            .map(|(k, v)| (k.0, format!("{v:?}")))
            .collect();
        let stmts: BTreeMap<_, _> = df
            .stmt_summary
            .iter()
            .map(|(k, v)| (k.0, format!("{v:?}")))
            .collect();
        let iters: BTreeMap<_, _> = df
            .loop_iter
            .iter()
            .map(|(k, v)| (k.0, format!("{v:?}")))
            .collect();
        format!("{procs:?}|{stmts:?}|{iters:?}")
    }

    #[test]
    fn warm_cache_summarizes_nothing() {
        use crate::{FactStore, ParallelizeConfig, Parallelizer};
        let p = parse_program(
            "program t
proc leaf1(real q[*]) { q[1] = 0 }
proc leaf2(real q[*]) { q[2] = 0 }
proc mid(real q[*]) { call leaf1(q) call leaf2(q) }
proc main() {
 real b[8]
 int i
 do 1 i = 1, 4 {
  call mid(b)
 }
}",
        )
        .unwrap();
        let store = FactStore::new();
        let analyze = || {
            Parallelizer::analyze_in(
                &p,
                ParallelizeConfig::default(),
                &Default::default(),
                None,
                &store,
            )
        };
        let (cold, s1) = analyze();
        assert_eq!((s1.procs, s1.summarized(), s1.summary_hits()), (4, 4, 0));
        let (warm, s2) = analyze();
        assert_eq!(s2.summarized(), 0, "warm run must re-summarize nothing");
        assert_eq!(s2.summary_hits(), 4);
        assert_eq!(df_fingerprint(cold.df()), df_fingerprint(warm.df()));
        let plain = ArrayDataFlow::analyze(&cold.ctx);
        assert_eq!(df_fingerprint(cold.df()), df_fingerprint(&plain));
    }

    fn loop_id(p: &suif_ir::Program, name: &str) -> StmtId {
        let tree = suif_ir::RegionTree::build(p);
        tree.loops.iter().find(|l| l.name == name).unwrap().stmt
    }

    #[test]
    fn loop_summary_covers_iteration_space() {
        let (p, df) = analyze(
            "program t\nproc main() {\n real a[10]\n int i\n do 1 i = 1, 10 {\n a[i] = i\n }\n a[1] = a[2]\n}",
        );
        let ctx = AnalysisCtx::new(&p);
        let l = loop_id(&p, "main/1");
        let closed = &df.stmt_summary[&l];
        let a = p.var_by_name("main", "a").unwrap();
        let s = closed.acc.get(ctx.array_of(a)).unwrap();
        // Must-write covers a[1:10].
        let whole = ctx.whole_section(a);
        assert!(
            whole.provably_subset_of(&s.must_write),
            "M = {}",
            s.must_write.set
        );
        assert!(s.exposed.is_empty());
    }

    #[test]
    fn exposed_reads_survive_partial_writes() {
        let (p, df) = analyze(
            "program t\nproc main() {\n real a[10]\n real acc\n int i\n do 1 i = 1, 10 {\n a[i] = 0\n }\n do 2 i = 1, 10 {\n acc = acc + a[i]\n }\n}",
        );
        let ctx = AnalysisCtx::new(&p);
        let l2 = loop_id(&p, "main/2");
        let a = p.var_by_name("main", "a").unwrap();
        let s = df.stmt_summary[&l2].acc.get(ctx.array_of(a)).unwrap();
        assert!(
            !s.exposed.is_empty(),
            "reads of a are upwards-exposed in loop 2"
        );
    }

    #[test]
    fn recurrence_enhancement_clears_exposed() {
        // psmoo pattern (§5.2.2.3, Fig. 5-4): d(1) written, then the i-loop
        // writes d(i) reading d(i-1) — no upwards-exposed reads of d in the
        // loop body as a whole.
        let (p, df) = analyze(
            r#"program t
const il = 8
proc main() {
  real d[il], t[il]
  int i, k
  do 50 k = 2, 5 {
    d[1] = 0
    do 30 i = 2, il {
      t[i] = d[i - 1] * 0.5
      d[i] = t[i] * 2.0
    }
  }
  print d[1]
}
"#,
        );
        let ctx = AnalysisCtx::new(&p);
        let d = p.var_by_name("main", "d").unwrap();
        let outer = loop_id(&p, "main/50");
        let iter = &df.loop_iter[&outer];
        let s = iter.sum.acc.get(ctx.array_of(d)).unwrap();
        assert!(
            s.exposed.set.prove_empty(),
            "exposed(d) in psmoo body should be empty, got {}",
            s.exposed.set
        );
    }

    #[test]
    fn interprocedural_subarray_write_summary() {
        // Fig. 5-1: CALL init(aif3(k1), n) writes aif3[k1 : k1+n-1].
        let (p, df) = analyze(
            r#"program t
proc init(real q[*], int n) {
  int j
  do j = 1, n {
    q[j] = 0
  }
}
proc main() {
  real aif3[100]
  int k1
  k1 = 11
  call init(aif3[k1], 5)
  aif3[1] = aif3[12]
}
"#,
        );
        let ctx = AnalysisCtx::new(&p);
        let aif3 = p.var_by_name("main", "aif3").unwrap();
        let main = p.proc_by_name("main").unwrap();
        let call_id = main.body[1].id();
        let s = df.stmt_summary[&call_id]
            .acc
            .get(ctx.array_of(aif3))
            .unwrap();
        use suif_poly::Var;
        let at = |v: i64| {
            s.write
                .set
                .contains_point(&|var| if var == Var::Dim(0) { Some(v) } else { None })
                .unwrap()
        };
        // k1 = 11 propagated: writes aif3[11..15].
        assert!(at(11) && at(15), "W = {}", s.write.set);
        assert!(!at(10) && !at(16), "W = {}", s.write.set);
        // And the write is a must-write.
        assert!(!s.must_write.is_empty());
    }

    #[test]
    fn reduction_survives_summarization() {
        let (p, df) = analyze(
            "program t\nproc main() {\n real s, a[10]\n int i\n s = 0\n do 1 i = 1, 10 {\n s = s + a[i]\n }\n print s\n}",
        );
        let ctx = AnalysisCtx::new(&p);
        let l = loop_id(&p, "main/1");
        let s_var = p.var_by_name("main", "s").unwrap();
        let iter = &df.loop_iter[&l];
        assert_eq!(
            iter.sum.red.valid_reduction(ctx.array_of(s_var)),
            Some(crate::RedOp::Add)
        );
    }

    #[test]
    fn print_poisons_reduction_in_same_loop() {
        let (p, df) = analyze(
            "program t\nproc main() {\n real s, a[10]\n int i\n do 1 i = 1, 10 {\n s = s + a[i]\n print s\n }\n}",
        );
        let ctx = AnalysisCtx::new(&p);
        let l = loop_id(&p, "main/1");
        let s_var = p.var_by_name("main", "s").unwrap();
        let iter = &df.loop_iter[&l];
        assert_eq!(iter.sum.red.valid_reduction(ctx.array_of(s_var)), None);
    }

    #[test]
    fn interprocedural_reduction_region() {
        // §6.4: reductions spanning procedures.
        let (p, df) = analyze(
            r#"program t
proc addin(real fax[*], int k) {
  fax[k] = fax[k] + 1.0
}
proc main() {
  real fax[50]
  int i
  do 1 i = 1, 50 {
    call addin(fax, i)
  }
}
"#,
        );
        let ctx = AnalysisCtx::new(&p);
        let l = loop_id(&p, "main/1");
        let fax = p.var_by_name("main", "fax").unwrap();
        let iter = &df.loop_iter[&l];
        assert_eq!(
            iter.sum.red.valid_reduction(ctx.array_of(fax)),
            Some(crate::RedOp::Add),
            "interprocedural reduction must be recognized"
        );
    }

    #[test]
    fn conditional_writes_are_predicated_or_dropped() {
        let (p, df) = analyze(
            "program t\nproc main() {\n real a[10]\n real x\n int i\n read x\n do 1 i = 1, 10 {\n if x > 0 {\n a[i] = 1\n }\n }\n}",
        );
        let ctx = AnalysisCtx::new(&p);
        let l = loop_id(&p, "main/1");
        let a = p.var_by_name("main", "a").unwrap();
        let s = df.stmt_summary[&l].acc.get(ctx.array_of(a)).unwrap();
        // The must-write may be kept *predicated* on the affine condition
        // x > 0 (sound: the section is parameterized per valuation), but it
        // must NOT claim the whole array unconditionally.
        let whole = ctx.whole_section(a);
        assert!(
            !whole.provably_subset_of(&s.must_write),
            "unconditional must-write claimed: {}",
            s.must_write.set
        );
        assert!(!s.write.is_empty());
    }

    #[test]
    fn partitioned_if_writes_are_must() {
        // if i <= 5 writes a[i] else writes a[i] too — both branches write,
        // partition union keeps the must-write.
        let (p, df) = analyze(
            "program t\nproc main() {\n real a[10]\n int i\n do 1 i = 1, 10 {\n if i <= 5 {\n a[i] = 1\n } else {\n a[i] = 2\n }\n }\n}",
        );
        let ctx = AnalysisCtx::new(&p);
        let l = loop_id(&p, "main/1");
        let a = p.var_by_name("main", "a").unwrap();
        let s = df.stmt_summary[&l].acc.get(ctx.array_of(a)).unwrap();
        let whole = ctx.whole_section(a);
        assert!(
            whole.provably_subset_of(&s.must_write),
            "M = {}",
            s.must_write.set
        );
    }
}
