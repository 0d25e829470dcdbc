//! Analysis context: array identity (with common-block alias unification),
//! linearized array sections, and symbol management.
//!
//! Every storage object is given one [`ArrayKey`]:
//! * all members of a common block share the block's key (the §3.4.2 "alias
//!   variable" idea — overlapping storage is one analysis object), with
//!   accesses *linearized* to a 1-D element offset inside the block, so
//!   different-shape views (`vz(mp,np)` vs `vz1(0:mp,np)` in Fig. 5-9)
//!   analyze precisely against each other;
//! * every other variable (local, parameter — scalar or array) is its own
//!   key; scalars are single-cell sections.
//!
//! Linearization is exact whenever subscripts are affine and extents are
//! compile-time constants; otherwise the access falls back to the
//! whole-object section, which is the paper's own fallback for non-affine
//! subscripts (§5.2.1).

use crate::snapshot::IdBounds;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use suif_ir::parser::MAX_PROCS;
use suif_ir::{CallGraph, CommonId, Extent, Program, RegionTree, VarId, VarKind};
use suif_poly::{ArrayId, Constraint, LinExpr, PolySet, Polyhedron, Section, Var};

/// First analysis-allocated ("fresh") symbol id; ids below this are
/// variable-value symbols (`Var::Sym(VarId.0)`).
pub const FRESH_BASE: u32 = 0x4000_0000;

/// Width of one per-procedure fresh-symbol block.  Each procedure's
/// summarization draws fresh symbols exclusively from its own block, so the
/// ids a procedure's summary contains depend only on that procedure — not on
/// the order procedures are analyzed in.  That makes per-procedure results
/// cacheable across programs, sessions and threads.
pub const PROC_FRESH_BLOCK: u32 = 1 << 20;

/// First symbol id of the shared post-pass allocator used outside any
/// procedure block (dependence tests, liveness, closure projection on merged
/// summaries).
pub const POST_PASS_BASE: u32 = 0x8000_0000;

// The parser refuses a program with more procedures than there are blocks.
const _: () = assert!(MAX_PROCS as u32 <= (POST_PASS_BASE - FRESH_BASE) / PROC_FRESH_BLOCK);

std::thread_local! {
    /// The active per-procedure block on this thread: `(next, end)`.
    static FRESH_BLOCK: std::cell::Cell<Option<(u32, u32)>> =
        const { std::cell::Cell::new(None) };
}

/// Restores the previous thread-local block even on unwind.
struct BlockGuard(Option<(u32, u32)>);

impl Drop for BlockGuard {
    fn drop(&mut self) {
        FRESH_BLOCK.with(|b| b.set(self.0));
    }
}

/// Identity of one analysis storage object.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ArrayKey {
    /// A whole common block (all views unified, linearized).
    Common(CommonId),
    /// A non-common variable (scalar or array).
    Var(VarId),
}

/// Shared analysis context.
pub struct AnalysisCtx<'p> {
    /// The program under analysis.
    pub program: &'p Program,
    /// Its region tree.
    pub tree: RegionTree,
    /// Its call graph.
    pub cg: CallGraph,
    key_to_id: HashMap<ArrayKey, ArrayId>,
    id_to_key: Vec<ArrayKey>,
    /// Next post-pass fresh symbol id (fresh symbols live above any `VarId`).
    /// Per-procedure summarization does not touch this counter — it draws
    /// from the thread-local block installed by [`AnalysisCtx::with_fresh_block`].
    fresh_counter: AtomicU32,
}

impl<'p> AnalysisCtx<'p> {
    /// Build the context for a program.
    pub fn new(program: &'p Program) -> AnalysisCtx<'p> {
        let mut ctx = AnalysisCtx {
            program,
            tree: RegionTree::build(program),
            cg: CallGraph::build(program),
            key_to_id: HashMap::new(),
            id_to_key: Vec::new(),
            fresh_counter: AtomicU32::new(POST_PASS_BASE),
        };
        // Intern every storage object deterministically.
        for b in 0..program.commons.len() {
            ctx.intern(ArrayKey::Common(CommonId(b as u32)));
        }
        for v in 0..program.vars.len() {
            let key = ctx.key_of(VarId(v as u32));
            ctx.intern(key);
        }
        ctx
    }

    fn intern(&mut self, key: ArrayKey) -> ArrayId {
        if let Some(&id) = self.key_to_id.get(&key) {
            return id;
        }
        let id = ArrayId(self.id_to_key.len() as u32);
        self.id_to_key.push(key);
        self.key_to_id.insert(key, id);
        id
    }

    /// The storage key of a variable.
    pub fn key_of(&self, v: VarId) -> ArrayKey {
        match self.program.var(v).kind {
            VarKind::Common { block, .. } => ArrayKey::Common(block),
            _ => ArrayKey::Var(v),
        }
    }

    /// The interned id of a variable's storage object.
    pub fn array_of(&self, v: VarId) -> ArrayId {
        self.key_to_id[&self.key_of(v)]
    }

    /// How many of each id the program has: the bounds a persisted value
    /// read for it decodes within.
    pub(crate) fn id_bounds(&self) -> IdBounds {
        let count = |n: usize| n as u32;
        IdBounds {
            procs: count(self.program.procedures.len()),
            stmts: self.program.stmt_count,
            vars: count(self.program.vars.len()),
            commons: count(self.program.commons.len()),
            regions: count(self.tree.regions.len()),
            arrays: count(self.id_to_key.len()),
        }
    }

    /// Reverse lookup.
    pub fn key_of_id(&self, id: ArrayId) -> ArrayKey {
        self.id_to_key[id.0 as usize]
    }

    /// Display name of a storage object.
    pub fn array_name(&self, id: ArrayId) -> String {
        match self.key_of_id(id) {
            ArrayKey::Common(c) => format!("/{}/", self.program.commons[c.0 as usize].name),
            ArrayKey::Var(v) => self.program.var(v).name.clone(),
        }
    }

    /// Is this storage object an array (vs a single scalar cell)?
    pub fn is_array_object(&self, id: ArrayId) -> bool {
        match self.key_of_id(id) {
            ArrayKey::Common(_) => true,
            ArrayKey::Var(v) => self.program.var(v).is_array(),
        }
    }

    /// A fresh symbol (used to rename per-iteration-varying symbols in
    /// dependence tests).  Inside [`AnalysisCtx::with_fresh_block`] the
    /// symbol comes from the installed per-procedure block; outside, from
    /// the shared post-pass counter.
    pub fn fresh_sym(&self) -> Var {
        FRESH_BLOCK.with(|b| match b.get() {
            Some((next, end)) => {
                assert!(next < end, "per-procedure fresh-symbol block exhausted");
                b.set(Some((next + 1, end)));
                Var::Sym(next)
            }
            None => Var::Sym(self.fresh_counter.fetch_add(1, Ordering::Relaxed)),
        })
    }

    /// Current fresh-symbol watermark: all fresh symbols allocated from now
    /// on *in this allocation scope* have ids `>=` this value.  Symbol
    /// ranges delimit loop-variance and callee-origin classification.
    pub fn fresh_watermark(&self) -> u32 {
        FRESH_BLOCK.with(|b| match b.get() {
            Some((next, _)) => next,
            None => self.fresh_counter.load(Ordering::Relaxed),
        })
    }

    /// The fresh-symbol block of procedure `pid`: `[start, end)`.
    pub fn proc_block(pid: suif_ir::ProcId) -> (u32, u32) {
        assert!((pid.0 as usize) < MAX_PROCS, "procedure past MAX_PROCS");
        let start = FRESH_BASE + pid.0 * PROC_FRESH_BLOCK;
        (start, start + PROC_FRESH_BLOCK)
    }

    /// Run `f` with this thread's fresh-symbol allocations drawn from
    /// procedure `pid`'s block, starting at the block base.  Used by the
    /// bottom-up pass so each procedure's symbols are a pure function of the
    /// procedure, independent of analysis order and thread placement.
    pub fn with_fresh_block<R>(&self, pid: suif_ir::ProcId, f: impl FnOnce() -> R) -> R {
        let range = Self::proc_block(pid);
        let prev = FRESH_BLOCK.with(|b| b.replace(Some(range)));
        debug_assert!(prev.is_none(), "nested per-procedure fresh-symbol blocks");
        let _guard = BlockGuard(prev);
        f()
    }

    /// Is this a fresh (analysis-allocated) symbol?
    pub fn is_fresh(sym: Var) -> bool {
        matches!(sym, Var::Sym(n) if n >= FRESH_BASE)
    }

    /// The symbol standing for a scalar variable's value.
    pub fn sym_of(v: VarId) -> Var {
        Var::Sym(v.0)
    }

    /// The variable behind a symbol, if it is a variable symbol.
    pub fn var_of_sym(sym: Var) -> Option<VarId> {
        match sym {
            Var::Sym(n) if n < FRESH_BASE => Some(VarId(n)),
            _ => None,
        }
    }

    /// Constant extents of an array variable, if all extents are constant.
    pub fn const_extents(&self, v: VarId) -> Option<Vec<i64>> {
        self.program
            .var(v)
            .dims
            .iter()
            .map(|d| match d {
                Extent::Const(c) => Some(*c),
                _ => None,
            })
            .collect()
    }

    /// The whole-object section of a variable's storage: for a common
    /// member, the member's own element range inside the block (not the
    /// whole block); for an array, all its elements when the size is
    /// constant, else the unbounded positive range; for a scalar, its cell.
    pub fn whole_section(&self, v: VarId) -> Section {
        let id = self.array_of(v);
        let info = self.program.var(v);
        let d0 = LinExpr::var(Var::Dim(0));
        let (lo, hi) = match info.kind {
            VarKind::Common { offset, .. } => {
                let size = info.const_size().unwrap_or(1);
                (offset + 1, Some(offset + size))
            }
            _ => {
                if info.is_array() {
                    (1, info.const_size())
                } else {
                    (1, Some(1))
                }
            }
        };
        let mut cs = vec![Constraint::geq(&d0, &LinExpr::constant(lo))];
        if let Some(h) = hi {
            cs.push(Constraint::leq(&d0, &LinExpr::constant(h)));
        }
        let mut set = PolySet::from_poly(Polyhedron::from_constraints(cs));
        // Unknown-extent objects and non-affine fallbacks over-approximate.
        if hi.is_none() {
            set.mark_approximate();
        }
        Section {
            array: id,
            ndims: 1,
            set,
        }
    }

    /// The section of one element access `v[subs]` given *affine* subscript
    /// expressions; `None` subscripts (non-affine) widen to the whole
    /// object.  The result is linearized to the 1-D element offset.
    pub fn access_section(&self, v: VarId, subs: Option<&[LinExpr]>) -> Section {
        let id = self.array_of(v);
        let info = self.program.var(v);
        if !info.is_array() {
            // Scalar cell: offset inside common (1-based) or the single cell.
            let off = match info.kind {
                VarKind::Common { offset, .. } => offset + 1,
                _ => 1,
            };
            return Section::point(id, &[LinExpr::constant(off)]);
        }
        let Some(subs) = subs else {
            return self.whole_section(v);
        };
        // Linearize: 1-based element index = 1 + Σ (sub_k − 1) · Π_{j<k} ext_j,
        // requiring constant extents for every non-final dimension.
        let mut lin = LinExpr::constant(1);
        let mut mult: i64 = 1;
        for (k, sub) in subs.iter().enumerate() {
            lin = lin.add(&sub.offset(-1).scale(mult));
            match info.dims.get(k) {
                Some(Extent::Const(c)) => mult = mult.saturating_mul(*c),
                Some(Extent::Star) if k + 1 == subs.len() => {}
                Some(_) if k + 1 == subs.len() => {
                    // Symbolic final extent never multiplies anything.
                }
                _ => return self.whole_section(v),
            }
        }
        if let VarKind::Common { offset, .. } = info.kind {
            lin = lin.offset(offset);
        }
        let mut sec = Section::point(id, &[lin]);
        // Constrain subscripts to the declared ranges where constant — this
        // keeps sections inside the object and sharpens emptiness tests.
        for (k, sub) in subs.iter().enumerate() {
            if let Some(Extent::Const(c)) = info.dims.get(k) {
                sec.set = sec
                    .set
                    .constrain(&Constraint::geq(sub, &LinExpr::constant(1)))
                    .constrain(&Constraint::leq(sub, &LinExpr::constant(*c)));
            }
        }
        sec
    }

    /// Map a callee-side section of a formal array parameter into the
    /// caller: retarget to the actual's storage object, shifting by the
    /// sub-array base offset (`a[k]` bases) and the actual's common offset.
    ///
    /// `base_lin` is the caller-side linearized element index of the base
    /// element (1-based within the actual's storage object), or `None` for
    /// whole-array passing of an object whose storage starts at its own
    /// element 1.
    pub fn map_param_section(
        &self,
        callee_sec: &Section,
        actual: VarId,
        base_lin: Option<LinExpr>,
    ) -> Section {
        let target = self.array_of(actual);
        let info = self.program.var(actual);
        let base = match base_lin {
            Some(b) => b,
            None => {
                let off = match info.kind {
                    VarKind::Common { offset, .. } => offset,
                    _ => 0,
                };
                LinExpr::constant(off + 1)
            }
        };
        // callee element d0 (1-based) maps to caller element base + d0 - 1.
        callee_sec.shift_dim0(&base).retarget(target, 1)
    }

    /// Linearized element index of `v[subs]` within `v`'s storage object
    /// (1-based), if affine with constant extents.
    pub fn linear_index(&self, v: VarId, subs: &[LinExpr]) -> Option<LinExpr> {
        let info = self.program.var(v);
        let mut lin = LinExpr::constant(1);
        let mut mult: i64 = 1;
        for (k, sub) in subs.iter().enumerate() {
            lin = lin.add(&sub.offset(-1).scale(mult));
            match info.dims.get(k) {
                Some(Extent::Const(c)) => mult = mult.saturating_mul(*c),
                Some(_) if k + 1 == subs.len() => {}
                _ => return None,
            }
        }
        if let VarKind::Common { offset, .. } = info.kind {
            lin = lin.offset(offset);
        }
        Some(lin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    #[test]
    fn common_members_share_one_key() {
        let p = parse_program(
            "program t\nproc main() {\n common /c/ real a[4], real b[4]\n real x[2]\n a[1] = 0\n b[1] = x[1]\n}",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let a = p.var_by_name("main", "a").unwrap();
        let b = p.var_by_name("main", "b").unwrap();
        let x = p.var_by_name("main", "x").unwrap();
        assert_eq!(ctx.array_of(a), ctx.array_of(b));
        assert_ne!(ctx.array_of(a), ctx.array_of(x));
    }

    #[test]
    fn common_member_sections_are_offset() {
        let p = parse_program(
            "program t\nproc main() {\n common /c/ real a[4], real b[4]\n a[1] = 0\n b[1] = 0\n}",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let a = p.var_by_name("main", "a").unwrap();
        let b = p.var_by_name("main", "b").unwrap();
        let sa = ctx.access_section(a, Some(&[LinExpr::constant(1)]));
        let sb = ctx.access_section(b, Some(&[LinExpr::constant(1)]));
        // a[1] is block element 1; b[1] is block element 5: disjoint.
        assert!(sa.provably_disjoint(&sb));
        // Block element 5 (b[1]'s cell) built directly overlaps sb.
        let sb1 = Section::point(ctx.array_of(a), &[LinExpr::constant(5)]);
        assert!(!sb1.provably_disjoint(&sb));
    }

    #[test]
    fn column_major_linearization() {
        let p = parse_program("program t\nproc main() {\n real a[2, 3]\n a[2, 3] = 0\n}").unwrap();
        let ctx = AnalysisCtx::new(&p);
        let a = p.var_by_name("main", "a").unwrap();
        let lin = ctx
            .linear_index(a, &[LinExpr::constant(2), LinExpr::constant(3)])
            .unwrap();
        // (2-1) + 2*(3-1) + 1 = 6
        assert_eq!(lin, LinExpr::constant(6));
    }

    #[test]
    fn scalar_cells_are_points() {
        let p = parse_program(
            "program t\nproc main() {\n common /c/ real a[4], int n\n int m\n n = 1\n m = 2\n a[1] = 0\n}",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let n = p.var_by_name("main", "n").unwrap();
        let m = p.var_by_name("main", "m").unwrap();
        let a = p.var_by_name("main", "a").unwrap();
        // n is block cell 5 — distinct from a[1..4] but same object.
        let sn = ctx.access_section(n, None);
        assert_eq!(sn.array, ctx.array_of(a));
        let sa = ctx.whole_section(a);
        assert!(sn.provably_disjoint(&sa));
        // m is its own object.
        assert_ne!(ctx.array_of(m), ctx.array_of(n));
    }

    #[test]
    fn whole_section_of_star_array_is_approximate() {
        let p = parse_program(
            "program t\nproc f(real q[*]) { q[1] = 0 }\nproc main() {\n real b[4]\n call f(b)\n}",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let q = p.var_by_name("f", "q").unwrap();
        assert!(ctx.whole_section(q).set.is_approximate());
    }

    #[test]
    fn param_section_mapping_shifts_base() {
        let p = parse_program(
            "program t\nproc f(real q[*]) { q[2] = 0 }\nproc main() {\n real b[10]\n int k\n k = 4\n call f(b[k])\n}",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let q = p.var_by_name("f", "q").unwrap();
        let b = p.var_by_name("main", "b").unwrap();
        let k = p.var_by_name("main", "k").unwrap();
        // Callee writes q[2]; base is b[k] → caller element k + 1.
        let callee = ctx.access_section(q, Some(&[LinExpr::constant(2)]));
        let mapped = ctx.map_param_section(&callee, b, Some(LinExpr::var(AnalysisCtx::sym_of(k))));
        let expect = Section::point(
            ctx.array_of(b),
            &[LinExpr::var(AnalysisCtx::sym_of(k)).offset(1)],
        );
        assert!(
            mapped.provably_subset_of(&expect) && expect.provably_subset_of(&mapped),
            "mapped={} expect={}",
            mapped.set,
            expect.set
        );
    }
}
