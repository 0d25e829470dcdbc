//! Interprocedural SSA construction (§3.4).

use std::collections::{HashMap, HashSet};
use suif_ir::{Arg, CallGraph, CommonId, Expr, ProcId, Program, Ref, Stmt, StmtId, VarId, VarKind};

/// A slicing variable: the alias-equivalence-class representative (§3.4.1):
/// all members of one common block collapse into one variable; everything
/// else stands alone.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SliceVar {
    /// A whole common block.
    Common(CommonId),
    /// A local or parameter.
    Var(VarId),
}

impl SliceVar {
    /// Classify a program variable.
    pub fn of(program: &Program, v: VarId) -> SliceVar {
        match program.var(v).kind {
            VarKind::Common { block, .. } => SliceVar::Common(block),
            _ => SliceVar::Var(v),
        }
    }
}

/// An SSA value id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ValueId(pub u32);

/// An SSA definition.
#[derive(Clone, Debug)]
pub enum Def {
    /// Value of a variable at procedure entry (parameter-in node, §3.4.3).
    /// For formals it joins the actuals of every caller; for common blocks
    /// it joins the callers' block values; for locals it is undefined input.
    Param {
        /// The procedure.
        proc: ProcId,
        /// The variable.
        var: SliceVar,
    },
    /// A definition made by a statement; `ops` are the values used.
    /// `weak` marks array-element stores (the old value is among `ops`).
    Stmt {
        /// The defining statement.
        stmt: StmtId,
        /// Used values.
        ops: Vec<ValueId>,
        /// Weak (array) update?
        weak: bool,
    },
    /// A φ join (no source statement of its own).
    Phi {
        /// Joined values (patched in place for loop headers).
        ops: Vec<ValueId>,
    },
    /// Value of a variable after a call: the callee's exit value of the
    /// corresponding callee-side variable (the §3.4.3 return edge).
    CallReturn {
        /// The call statement.
        call: StmtId,
        /// The callee.
        callee: ProcId,
        /// The callee-side variable whose exit value flows back.
        callee_var: SliceVar,
    },
}

/// Per-procedure transitive effect sets used to wire call edges.
#[derive(Clone, Debug, Default)]
pub struct ProcEffects {
    /// Common blocks read or written (transitively).
    pub used_commons: HashSet<CommonId>,
    /// Common blocks written (transitively).
    pub mod_commons: HashSet<CommonId>,
    /// Formal parameters written (index-aligned with the procedure params —
    /// from `Procedure::modified_params`).
    pub modified_params: Vec<bool>,
}

/// The interprocedural SSA graph.
pub struct Issa {
    /// All values.
    pub defs: Vec<Def>,
    /// Owning procedure of each value.
    pub owner: Vec<ProcId>,
    /// Per statement: the reaching value of every variable it *reads*.
    pub use_map: HashMap<(StmtId, SliceVar), ValueId>,
    /// Per statement: its governing control parent
    /// `(structure stmt, condition/bound values)`, if any.
    pub control_parent: HashMap<StmtId, (StmtId, Vec<ValueId>)>,
    /// Parameter-in values per `(proc, var)`.
    pub params: HashMap<(ProcId, SliceVar), ValueId>,
    /// The value bound to `(call statement, callee-side var)` on entry.
    pub bindings: HashMap<(StmtId, SliceVar), ValueId>,
    /// Exit value of every variable a procedure may define.
    pub exit_values: HashMap<(ProcId, SliceVar), ValueId>,
    /// Per-procedure effects.
    pub effects: HashMap<ProcId, ProcEffects>,
    /// Source line of each defining statement (for display).
    pub stmt_lines: HashMap<StmtId, u32>,
    /// The call graph the build walked bottom-up; its call sites drive the
    /// slicer's formal expansion.
    pub cg: CallGraph,
}

impl Issa {
    /// Build the ISSA graph for a whole program.
    pub fn build(program: &Program) -> Issa {
        let effects = compute_effects(program);
        // Build callees before callers so exit values exist for CallReturn
        // wiring (the call graph is acyclic).
        let cg = CallGraph::build(program);
        let mut b = Builder {
            program,
            issa: Issa {
                defs: Vec::new(),
                owner: Vec::new(),
                use_map: HashMap::new(),
                control_parent: HashMap::new(),
                params: HashMap::new(),
                bindings: HashMap::new(),
                exit_values: HashMap::new(),
                effects,
                stmt_lines: HashMap::new(),
                cg,
            },
            cur_proc: program.main,
            ctrl: Vec::new(),
        };
        let order = b.issa.cg.bottom_up().to_vec();
        for p in order {
            b.build_proc(p);
        }
        b.issa
    }

    /// The definition of a value.
    pub fn def(&self, v: ValueId) -> &Def {
        &self.defs[v.0 as usize]
    }

    /// Owning procedure of a value.
    pub fn owner_of(&self, v: ValueId) -> ProcId {
        self.owner[v.0 as usize]
    }

    /// Iterate the chain of governing control structures of a statement,
    /// innermost first: `(structure stmt, condition values)`.
    pub fn control_chain(&self, stmt: StmtId) -> Vec<(StmtId, Vec<ValueId>)> {
        let mut out = Vec::new();
        let mut cur = stmt;
        while let Some((parent, vals)) = self.control_parent.get(&cur) {
            out.push((*parent, vals.clone()));
            cur = *parent;
        }
        out
    }
}

/// Transitive per-procedure effects (simple syntactic fixed point).
fn compute_effects(program: &Program) -> HashMap<ProcId, ProcEffects> {
    let mut out: HashMap<ProcId, ProcEffects> = program
        .procedures
        .iter()
        .map(|p| {
            (
                p.id,
                ProcEffects {
                    modified_params: p.modified_params.clone(),
                    ..Default::default()
                },
            )
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for proc in &program.procedures {
            let mut used = out[&proc.id].used_commons.clone();
            let mut modc = out[&proc.id].mod_commons.clone();
            let mut visit_var = |v: VarId,
                                 write: bool,
                                 used: &mut HashSet<CommonId>,
                                 modc: &mut HashSet<CommonId>| {
                if let VarKind::Common { block, .. } = program.var(v).kind {
                    used.insert(block);
                    if write {
                        modc.insert(block);
                    }
                }
            };
            #[allow(clippy::type_complexity)]
            fn walk(
                body: &[Stmt],
                out: &HashMap<ProcId, ProcEffects>,
                visit: &mut dyn FnMut(VarId, bool, &mut HashSet<CommonId>, &mut HashSet<CommonId>),
                used: &mut HashSet<CommonId>,
                modc: &mut HashSet<CommonId>,
            ) {
                let visit_expr = |e: &Expr,
                                  used: &mut HashSet<CommonId>,
                                  modc: &mut HashSet<CommonId>,
                                  visit: &mut dyn FnMut(
                    VarId,
                    bool,
                    &mut HashSet<CommonId>,
                    &mut HashSet<CommonId>,
                )| {
                    e.visit_scalar_reads(&mut |v| visit(v, false, used, modc));
                    e.visit_element_reads(&mut |v, _| visit(v, false, used, modc));
                };
                for s in body {
                    match s {
                        Stmt::Assign { lhs, rhs, .. } => {
                            visit_expr(rhs, used, modc, visit);
                            if let Ref::Element(_, subs) = lhs {
                                for e in subs {
                                    visit_expr(e, used, modc, visit);
                                }
                            }
                            visit(lhs.var(), true, used, modc);
                        }
                        Stmt::Read { lhs, .. } => visit(lhs.var(), true, used, modc),
                        Stmt::Print { args, .. } => {
                            for a in args {
                                visit_expr(a, used, modc, visit);
                            }
                        }
                        Stmt::If {
                            cond,
                            then_body,
                            else_body,
                            ..
                        } => {
                            visit_expr(cond, used, modc, visit);
                            walk(then_body, out, visit, used, modc);
                            walk(else_body, out, visit, used, modc);
                        }
                        Stmt::Do {
                            lo, hi, step, body, ..
                        } => {
                            visit_expr(lo, used, modc, visit);
                            visit_expr(hi, used, modc, visit);
                            if let Some(st) = step {
                                visit_expr(st, used, modc, visit);
                            }
                            walk(body, out, visit, used, modc);
                        }
                        Stmt::Call { callee, args, .. } => {
                            if let Some(eff) = out.get(callee) {
                                used.extend(eff.used_commons.iter().copied());
                                modc.extend(eff.mod_commons.iter().copied());
                                for (k, a) in args.iter().enumerate() {
                                    let w = eff.modified_params.get(k).copied().unwrap_or(false);
                                    match a {
                                        Arg::ScalarVar(v)
                                        | Arg::ArrayWhole(v)
                                        | Arg::ArrayPart { var: v, .. } => {
                                            visit(*v, w, used, modc);
                                        }
                                        Arg::Value(e) => visit_expr(e, used, modc, visit),
                                    }
                                }
                            }
                        }
                    }
                }
            }
            walk(&proc.body, &out, &mut visit_var, &mut used, &mut modc);
            let e = out.get_mut(&proc.id).unwrap();
            if used != e.used_commons || modc != e.mod_commons {
                e.used_commons = used;
                e.mod_commons = modc;
                changed = true;
            }
        }
    }
    out
}

struct Builder<'p> {
    program: &'p Program,
    issa: Issa,
    cur_proc: ProcId,
    /// Stack of governing structures: `(stmt, condition values)`.
    ctrl: Vec<(StmtId, Vec<ValueId>)>,
}

type Env = HashMap<SliceVar, ValueId>;

impl<'p> Builder<'p> {
    fn alloc(&mut self, d: Def) -> ValueId {
        let id = ValueId(self.issa.defs.len() as u32);
        self.issa.defs.push(d);
        self.issa.owner.push(self.cur_proc);
        id
    }

    fn param_value(&mut self, var: SliceVar) -> ValueId {
        let key = (self.cur_proc, var);
        if let Some(&v) = self.issa.params.get(&key) {
            return v;
        }
        let v = self.alloc(Def::Param {
            proc: self.cur_proc,
            var,
        });
        self.issa.params.insert(key, v);
        v
    }

    fn build_proc(&mut self, p: ProcId) {
        self.cur_proc = p;
        self.ctrl.clear();
        let proc = self.program.proc(p).clone();
        let mut env: Env = HashMap::new();
        // Every variable starts at its parameter-in / entry value.
        for v in proc.all_vars() {
            let sv = SliceVar::of(self.program, v);
            env.entry(sv).or_insert_with(|| self.param_value(sv));
        }
        self.build_body(&proc.body, &mut env);
        for (sv, val) in env {
            self.issa.exit_values.insert((p, sv), val);
        }
    }

    /// Values used by an expression (recording them in the use map of
    /// `stmt`).
    fn expr_uses(&mut self, e: &Expr, env: &Env, stmt: StmtId, out: &mut Vec<ValueId>) {
        e.visit_scalar_reads(&mut |v| {
            let sv = SliceVar::of(self.program, v);
            if let Some(&val) = env.get(&sv) {
                out.push(val);
                self.issa.use_map.insert((stmt, sv), val);
            }
        });
        e.visit_element_reads(&mut |v, _| {
            let sv = SliceVar::of(self.program, v);
            if let Some(&val) = env.get(&sv) {
                out.push(val);
                self.issa.use_map.insert((stmt, sv), val);
            }
        });
    }

    fn record_ctrl(&mut self, stmt: StmtId) {
        if let Some((parent, vals)) = self.ctrl.last() {
            self.issa
                .control_parent
                .insert(stmt, (*parent, vals.clone()));
        }
    }

    fn build_body(&mut self, body: &[Stmt], env: &mut Env) {
        for s in body {
            self.issa.stmt_lines.insert(s.id(), s.line());
            self.record_ctrl(s.id());
            match s {
                Stmt::Assign { id, lhs, rhs, .. } => {
                    let mut ops = Vec::new();
                    self.expr_uses(rhs, env, *id, &mut ops);
                    let sv = SliceVar::of(self.program, lhs.var());
                    let weak = match lhs {
                        Ref::Scalar(_) => {
                            // A direct scalar store to a common block is a
                            // weak update of the block alias variable unless
                            // it is the only member (§3.4.1 strong-update
                            // subclassing is approximated conservatively).
                            matches!(sv, SliceVar::Common(_))
                        }
                        Ref::Element(_, subs) => {
                            for e in subs {
                                self.expr_uses(e, env, *id, &mut ops);
                            }
                            true
                        }
                    };
                    if weak {
                        if let Some(&old) = env.get(&sv) {
                            ops.push(old);
                            self.issa.use_map.entry((*id, sv)).or_insert(old);
                        }
                    }
                    let val = self.alloc(Def::Stmt {
                        stmt: *id,
                        ops,
                        weak,
                    });
                    env.insert(sv, val);
                }
                Stmt::Read { id, lhs, .. } => {
                    let sv = SliceVar::of(self.program, lhs.var());
                    let mut ops = Vec::new();
                    if let Ref::Element(_, subs) = lhs {
                        for e in subs {
                            self.expr_uses(e, env, *id, &mut ops);
                        }
                        if let Some(&old) = env.get(&sv) {
                            ops.push(old);
                        }
                    }
                    let val = self.alloc(Def::Stmt {
                        stmt: *id,
                        ops,
                        weak: matches!(lhs, Ref::Element(..)),
                    });
                    env.insert(sv, val);
                }
                Stmt::Print { id, args, .. } => {
                    let mut ops = Vec::new();
                    for a in args {
                        self.expr_uses(a, env, *id, &mut ops);
                    }
                    // Prints define nothing.
                }
                Stmt::If {
                    id,
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    let mut cvals = Vec::new();
                    self.expr_uses(cond, env, *id, &mut cvals);
                    let mut env_then = env.clone();
                    let mut env_else = env.clone();
                    self.ctrl.push((*id, cvals));
                    self.build_body(then_body, &mut env_then);
                    self.build_body(else_body, &mut env_else);
                    self.ctrl.pop();
                    // Join.
                    let keys: HashSet<SliceVar> =
                        env_then.keys().chain(env_else.keys()).copied().collect();
                    for sv in keys {
                        let a = env_then.get(&sv).copied();
                        let b = env_else.get(&sv).copied();
                        match (a, b) {
                            (Some(x), Some(y)) if x == y => {
                                env.insert(sv, x);
                            }
                            (Some(x), Some(y)) => {
                                let phi = self.alloc(Def::Phi { ops: vec![x, y] });
                                env.insert(sv, phi);
                            }
                            (Some(x), None) | (None, Some(x)) => {
                                env.insert(sv, x);
                            }
                            (None, None) => {}
                        }
                    }
                }
                Stmt::Do {
                    id,
                    var,
                    lo,
                    hi,
                    step,
                    body,
                    ..
                } => {
                    let mut bvals = Vec::new();
                    self.expr_uses(lo, env, *id, &mut bvals);
                    self.expr_uses(hi, env, *id, &mut bvals);
                    if let Some(st) = step {
                        self.expr_uses(st, env, *id, &mut bvals);
                    }
                    // Loop-header φ for everything the body may modify.
                    let modified = self.body_defs(body);
                    let mut phis: Vec<(SliceVar, ValueId)> = Vec::new();
                    for sv in &modified {
                        let entry = match env.get(sv) {
                            Some(&v) => v,
                            None => self.param_value(*sv),
                        };
                        let phi = self.alloc(Def::Phi { ops: vec![entry] });
                        env.insert(*sv, phi);
                        phis.push((*sv, phi));
                    }
                    // Induction variable defined by the DO itself.
                    let ivar = SliceVar::of(self.program, *var);
                    let idef = self.alloc(Def::Stmt {
                        stmt: *id,
                        ops: bvals.clone(),
                        weak: false,
                    });
                    env.insert(ivar, idef);

                    self.ctrl.push((*id, bvals));
                    self.build_body(body, env);
                    self.ctrl.pop();

                    // Patch back-edges and restore φ as the post-loop value.
                    for (sv, phi) in phis {
                        let back = env.get(&sv).copied();
                        if let Some(back) = back {
                            if back != phi {
                                if let Def::Phi { ops } = &mut self.issa.defs[phi.0 as usize] {
                                    ops.push(back);
                                }
                            }
                        }
                        env.insert(sv, phi);
                    }
                    // Post-loop induction value still depends on bounds.
                    env.insert(ivar, idef);
                }
                Stmt::Call {
                    id, callee, args, ..
                } => {
                    let cproc = self.program.proc(*callee).clone();
                    let eff = self.issa.effects[callee].clone();
                    // Bind formals.
                    for (k, &formal) in cproc.params.iter().enumerate() {
                        let fsv = SliceVar::Var(formal);
                        let bound = match &args[k] {
                            Arg::ScalarVar(v) | Arg::ArrayWhole(v) => {
                                let sv = SliceVar::of(self.program, *v);
                                let val = match env.get(&sv) {
                                    Some(&v) => v,
                                    None => self.param_value(sv),
                                };
                                self.issa.use_map.insert((*id, sv), val);
                                val
                            }
                            Arg::ArrayPart { var, base } => {
                                let sv = SliceVar::of(self.program, *var);
                                let mut ops = Vec::new();
                                for e in base {
                                    self.expr_uses(e, env, *id, &mut ops);
                                }
                                let val = match env.get(&sv) {
                                    Some(&v) => v,
                                    None => self.param_value(sv),
                                };
                                self.issa.use_map.insert((*id, sv), val);
                                ops.push(val);
                                self.alloc(Def::Stmt {
                                    stmt: *id,
                                    ops,
                                    weak: false,
                                })
                            }
                            Arg::Value(e) => {
                                let mut ops = Vec::new();
                                self.expr_uses(e, env, *id, &mut ops);
                                self.alloc(Def::Stmt {
                                    stmt: *id,
                                    ops,
                                    weak: false,
                                })
                            }
                        };
                        self.issa.bindings.insert((*id, fsv), bound);
                    }
                    // Bind used common blocks.
                    for &blk in &eff.used_commons {
                        let sv = SliceVar::Common(blk);
                        let val = match env.get(&sv) {
                            Some(&v) => v,
                            None => self.param_value(sv),
                        };
                        self.issa.use_map.insert((*id, sv), val);
                        self.issa.bindings.insert((*id, sv), val);
                    }
                    // Return edges for everything the callee may modify.
                    for (k, &formal) in cproc.params.iter().enumerate() {
                        if !eff.modified_params.get(k).copied().unwrap_or(false) {
                            continue;
                        }
                        let target = match &args[k] {
                            Arg::ScalarVar(v)
                            | Arg::ArrayWhole(v)
                            | Arg::ArrayPart { var: v, .. } => SliceVar::of(self.program, *v),
                            Arg::Value(_) => continue,
                        };
                        let ret = self.alloc(Def::CallReturn {
                            call: *id,
                            callee: *callee,
                            callee_var: SliceVar::Var(formal),
                        });
                        env.insert(target, ret);
                    }
                    for &blk in &eff.mod_commons {
                        let sv = SliceVar::Common(blk);
                        let ret = self.alloc(Def::CallReturn {
                            call: *id,
                            callee: *callee,
                            callee_var: sv,
                        });
                        env.insert(sv, ret);
                    }
                }
            }
        }
    }

    /// Variables (alias classes) a body may define, including call effects.
    fn body_defs(&self, body: &[Stmt]) -> Vec<SliceVar> {
        let mut out: HashSet<SliceVar> = HashSet::new();
        fn walk(b: &Builder<'_>, body: &[Stmt], out: &mut HashSet<SliceVar>) {
            for s in body {
                match s {
                    Stmt::Assign { lhs, .. } | Stmt::Read { lhs, .. } => {
                        out.insert(SliceVar::of(b.program, lhs.var()));
                    }
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(b, then_body, out);
                        walk(b, else_body, out);
                    }
                    Stmt::Do { var, body, .. } => {
                        out.insert(SliceVar::of(b.program, *var));
                        walk(b, body, out);
                    }
                    Stmt::Call { callee, args, .. } => {
                        let eff = &b.issa.effects[callee];
                        for &blk in &eff.mod_commons {
                            out.insert(SliceVar::Common(blk));
                        }
                        for (k, a) in args.iter().enumerate() {
                            if eff.modified_params.get(k).copied().unwrap_or(false) {
                                match a {
                                    Arg::ScalarVar(v)
                                    | Arg::ArrayWhole(v)
                                    | Arg::ArrayPart { var: v, .. } => {
                                        out.insert(SliceVar::of(b.program, *v));
                                    }
                                    Arg::Value(_) => {}
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        walk(self, body, &mut out);
        let mut v: Vec<SliceVar> = out.into_iter().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    #[test]
    fn builds_defs_and_phis() {
        let p = parse_program(
            "program t\nproc main() {\n int a, b\n a = 1\n if a > 0 {\n b = 2\n } else {\n b = 3\n }\n a = b\n}",
        )
        .unwrap();
        let issa = Issa::build(&p);
        // The final `a = b` uses a φ of the two b-defs.
        let main = p.proc_by_name("main").unwrap();
        let last = main.body.last().unwrap().id();
        let b = p.var_by_name("main", "b").unwrap();
        let val = issa.use_map[&(last, SliceVar::Var(b))];
        assert!(matches!(issa.def(val), Def::Phi { ops } if ops.len() == 2));
    }

    #[test]
    fn loop_header_phis_close_the_cycle() {
        let p = parse_program(
            "program t\nproc main() {\n int i, s\n s = 0\n do i = 1, 3 {\n s = s + i\n }\n print s\n}",
        )
        .unwrap();
        let issa = Issa::build(&p);
        let main = p.proc_by_name("main").unwrap();
        let print_stmt = main.body.last().unwrap().id();
        let s = p.var_by_name("main", "s").unwrap();
        let val = issa.use_map[&(print_stmt, SliceVar::Var(s))];
        // Post-loop value is the header φ with entry + back-edge.
        match issa.def(val) {
            Def::Phi { ops } => assert_eq!(ops.len(), 2),
            other => panic!("expected φ, got {other:?}"),
        }
    }

    #[test]
    fn call_return_edges_are_created() {
        let p = parse_program(
            "program t\nproc bump(int k) { k = k + 1 }\nproc main() {\n int n\n n = 1\n call bump(n)\n print n\n}",
        )
        .unwrap();
        let issa = Issa::build(&p);
        let main = p.proc_by_name("main").unwrap();
        let print_stmt = main.body.last().unwrap().id();
        let n = p.var_by_name("main", "n").unwrap();
        let val = issa.use_map[&(print_stmt, SliceVar::Var(n))];
        assert!(matches!(issa.def(val), Def::CallReturn { .. }));
    }

    #[test]
    fn commons_are_one_alias_variable() {
        let p = parse_program(
            "program t\nproc main() {\n common /c/ real a[4], real b[4]\n a[1] = 1\n b[1] = a[2]\n}",
        )
        .unwrap();
        let issa = Issa::build(&p);
        let main = p.proc_by_name("main").unwrap();
        let s2 = main.body[1].id();
        let a = p.var_by_name("main", "a").unwrap();
        // b[1] = a[2] reads the block value defined by a[1] = 1 (weak).
        let blk = SliceVar::of(&p, a);
        let val = issa.use_map[&(s2, blk)];
        assert!(matches!(issa.def(val), Def::Stmt { weak: true, .. }));
    }

    #[test]
    fn control_chain_is_recorded() {
        let p = parse_program(
            "program t\nproc main() {\n int i, x\n x = 0\n do 5 i = 1, 3 {\n if i > 1 {\n x = 1\n }\n }\n}",
        )
        .unwrap();
        let issa = Issa::build(&p);
        // Find the x = 1 statement.
        let mut target = None;
        p.walk_stmts(p.main, &mut |s, _| {
            if s.line() == 7 {
                target = Some(s.id());
            }
        });
        let chain = issa.control_chain(target.unwrap());
        assert_eq!(chain.len(), 2, "if + do: {chain:?}");
    }

    #[test]
    fn effects_fixed_point() {
        let p = parse_program(
            "program t\nproc leaf() {\n common /c/ real x[2]\n x[1] = 1\n}\nproc mid() { call leaf() }\nproc main() { call mid() }",
        )
        .unwrap();
        let issa = Issa::build(&p);
        let mid = p.proc_by_name("mid").unwrap().id;
        assert_eq!(issa.effects[&mid].mod_commons.len(), 1);
        let main = p.proc_by_name("main").unwrap().id;
        assert_eq!(issa.effects[&main].mod_commons.len(), 1);
    }
}
