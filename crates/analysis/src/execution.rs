//! The instrumented run as a fact: what the two Execution Analyzers of
//! §2.5 observed in one sequential run of a program on one input.
//!
//! The *value*, its *key* and its *input hash* live here, beside the other
//! seven passes' — over `StmtId`/`VarId` only, so this crate needs no view
//! of the machine.  The *producer* (the pass whose `run` interprets the
//! program) lives in `suif-explorer`, where `suif-dynamic` is visible.

use crate::cache::Fnv128;
use crate::pipeline::{FactKey, PassId, Scope};
use std::collections::{BTreeMap, BTreeSet};
use suif_ir::ast::{BinOp, Intrinsic};
use suif_ir::{
    Arg, CommonBlock, CommonView, Expr, Extent, Procedure, Program, Ref, Stmt, StmtId, Type, VarId,
    VarInfo, VarKind,
};

/// Version of what a run *means*: the machine's operation costs and hook
/// order, and what either analyzer records.  Folded into every
/// [`execute_hash_of`], so bumping it makes the facts of older builds miss.
/// Version 2: `carried` holds every carried dependence the run saw; the
/// reductions are filtered out when the reports are built, not in the run.
pub const EXECUTE_VERSION: u32 = 2;

/// What the Loop Profile Analyzer saw of one loop (§2.5.1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopExecution {
    /// Times the loop was entered.
    pub invocations: u64,
    /// Iterations executed in total.
    pub iterations: u64,
    /// Inclusive virtual ops across invocations.
    pub total_ops: u64,
    /// Inclusive wall nanoseconds across invocations, of the producing run.
    pub total_nanos: u64,
    /// Loops observed dynamically enclosing this one at least once.
    pub dynamic_ancestors: BTreeSet<StmtId>,
}

/// One instrumented run: the plain data both analyzers produce.  The maps
/// are ordered, so the wire form ([`crate::snapshot`]) is canonical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutionFact {
    /// Virtual operations the machine executed.
    pub ops: u64,
    /// The profile's whole-run ops (the counter at the last loop exit).
    pub profiled_ops: u64,
    /// Whole-run wall nanoseconds of the producing run, both analyzers'
    /// bookkeeping included.
    pub nanos: u64,
    /// Per-loop profile, for every loop that executed.
    pub loops: BTreeMap<StmtId, LoopExecution>,
    /// Per loop, the variables seen carrying a flow dependence (§2.5.2),
    /// loop induction variables ignored but reductions not: which updates
    /// are reductions is the verdicts' business, not the run's.
    pub carried: BTreeMap<StmtId, BTreeSet<VarId>>,
}

/// Where the fact lives: one per program.
pub const EXECUTE_KEY: FactKey = FactKey {
    pass: PassId::Execute,
    scope: Scope::Program,
};

/// Input hash of the run's fact — the one definition the producing pass and
/// the warm-start validator ([`crate::Parallelizer::expected_fact_hashes`])
/// share: the program's control/address skeleton ([`skeleton_hash`]; an
/// analysis carries it, [`crate::cache::ProgramKeys::skeleton`]),
/// [`EXECUTE_VERSION`], and `input` — what `read` statements consume —
/// hashed by bit pattern.  An edit that changes only data-only literals
/// keeps the hash, and the run it keys observes exactly what it observed.
pub fn execute_hash_of(skeleton: u128, input: &[f64]) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(skeleton);
    h.write_u32(EXECUTE_VERSION);
    h.write(&(input.len() as u64).to_le_bytes());
    for x in input {
        h.write(&x.to_bits().to_le_bytes());
    }
    h.0
}

/// Content hash of `program` with the value of every *data-only* numeric
/// literal masked (its `Int`/`Real` kind kept).
///
/// The run records control flow, op counts and addresses, and fails on a
/// bad address, a zero divisor or a spent budget; so what it observes
/// depends only on the values that reach a *criterion position*: an `if`
/// condition, a `do` bound or step, a subscript (either side of an
/// assignment, a `read` target, an `ArrayPart` base), an operand of `and` /
/// `or` (they set op counts), the divisor of `/` and `%`, the second
/// argument of `mod`, and an adjustable extent.  Every variable read there
/// is *relevant*, and so, to a fixpoint, is every variable read by an
/// assignment or a value binding whose target is relevant; storage objects
/// aliased by reference are relevant together (`relevant_vars`).
/// A literal is masked outside criterion positions in three places: the
/// right-hand side of an assignment to an irrelevant object, a value
/// argument bound to an irrelevant formal, and a `print` argument.
/// Everything else — ids, lines, declarations, extents, constants, common
/// layouts, operators and shape — is hashed as it stands; the source text
/// is not.
pub fn skeleton_hash(program: &Program) -> u128 {
    let mut w = Skeleton {
        h: Fnv128::new(),
        program,
        relevant: Some(relevant_vars(program)),
    };
    w.program();
    w.h.0
}

/// Per variable: can its values reach a criterion position
/// ([`skeleton_hash`])?  Seeded with every variable a criterion position
/// reads, closed over the value flows into relevant objects.
fn relevant_vars(program: &Program) -> Vec<bool> {
    let mut objects = Objects::new(program);
    // Variables read in criterion positions, and value flows
    // `(target, expression)`: assignments and value bindings.
    let mut seeds: Vec<VarId> = Vec::new();
    let mut flows: Vec<(VarId, &Expr)> = Vec::new();
    for v in &program.vars {
        for d in &v.dims {
            if let Extent::Var(e) = d {
                seeds.push(*e);
            }
        }
    }
    for p in &program.procedures {
        program.walk_stmts(p.id, &mut |s, _| match s {
            Stmt::Assign {
                id: _,
                line: _,
                lhs,
                rhs,
            } => {
                criteria_of_ref(lhs, &mut seeds);
                criteria(rhs, &mut seeds);
                flows.push((lhs.var(), rhs));
            }
            // The bodies are walked by `walk_stmts`.
            Stmt::If {
                id: _,
                line: _,
                cond,
                then_body: _,
                else_body: _,
            } => reads(cond, &mut seeds),
            Stmt::Do {
                id: _,
                line: _,
                end_line: _,
                label: _,
                var: _,
                lo,
                hi,
                step,
                body: _,
            } => {
                for e in [Some(lo), Some(hi), step.as_ref()].into_iter().flatten() {
                    reads(e, &mut seeds);
                }
            }
            Stmt::Call {
                id: _,
                line: _,
                callee,
                args,
            } => {
                let formals = &program.proc(*callee).params;
                for (a, &f) in args.iter().zip(formals) {
                    match a {
                        Arg::ArrayWhole(v) | Arg::ScalarVar(v) => objects.union(*v, f),
                        Arg::ArrayPart { var, base } => {
                            objects.union(*var, f);
                            base.iter().for_each(|e| reads(e, &mut seeds));
                        }
                        Arg::Value(e) => {
                            criteria(e, &mut seeds);
                            flows.push((f, e));
                        }
                    }
                }
            }
            Stmt::Print {
                id: _,
                line: _,
                args,
            } => args.iter().for_each(|e| criteria(e, &mut seeds)),
            Stmt::Read {
                id: _,
                line: _,
                lhs,
            } => criteria_of_ref(lhs, &mut seeds),
        });
    }
    // Flow edges `target object -> read object`, sorted by target, then a
    // worklist from the seeds.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut read = Vec::new();
    for (target, e) in flows {
        let t = objects.root(target);
        reads(e, &mut read);
        edges.extend(read.drain(..).map(|v| (t, objects.root(v))));
    }
    edges.sort_unstable();
    edges.dedup();
    let mut relevant = vec![false; objects.parent.len()];
    let mut work: Vec<usize> = Vec::new();
    for v in seeds {
        let o = objects.root(v);
        if !std::mem::replace(&mut relevant[o], true) {
            work.push(o);
        }
    }
    while let Some(t) = work.pop() {
        let from = edges.partition_point(|&(x, _)| x < t);
        for &(_, o) in edges[from..].iter().take_while(|&&(x, _)| x == t) {
            if !std::mem::replace(&mut relevant[o], true) {
                work.push(o);
            }
        }
    }
    (0..program.vars.len() as u32)
        .map(|v| relevant[objects.root(VarId(v))])
        .collect()
}

/// Storage objects as a union-find: a whole common block (all its views) or
/// any other variable; objects bound to each other at a call site by
/// reference (`ArrayWhole`, `ArrayPart`, `ScalarVar`) are one object.
struct Objects<'p> {
    program: &'p Program,
    /// One slot per variable, then one per common block.
    parent: Vec<usize>,
}

impl<'p> Objects<'p> {
    fn new(program: &'p Program) -> Objects<'p> {
        let slots = program.vars.len() + program.commons.len();
        Objects {
            program,
            parent: (0..slots).collect(),
        }
    }

    fn root(&mut self, v: VarId) -> usize {
        let mut x = match self.program.var(v).kind {
            VarKind::Common { block, .. } => self.program.vars.len() + block.0 as usize,
            _ => v.0 as usize,
        };
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: VarId, b: VarId) {
        let (a, b) = (self.root(a), self.root(b));
        self.parent[a.max(b)] = a.min(b);
    }
}

/// Every variable `e` reads, subscripts included.
fn reads(e: &Expr, out: &mut Vec<VarId>) {
    match e {
        Expr::Int(_) | Expr::Real(_) => {}
        Expr::Scalar(v) => out.push(*v),
        Expr::Element(v, subs) => {
            out.push(*v);
            subs.iter().for_each(|s| reads(s, out));
        }
        Expr::Unary(_, a) => reads(a, out),
        Expr::Binary(_, a, b) => {
            reads(a, out);
            reads(b, out);
        }
        Expr::Intrinsic(_, args) => args.iter().for_each(|a| reads(a, out)),
    }
}

/// Every variable `e` reads in a criterion position inside it.
fn criteria(e: &Expr, out: &mut Vec<VarId>) {
    match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Scalar(_) => {}
        Expr::Element(_, subs) => subs.iter().for_each(|s| reads(s, out)),
        Expr::Unary(_, a) => criteria(a, out),
        Expr::Binary(op, a, b) => {
            match op {
                BinOp::And | BinOp::Or => reads(a, out),
                _ => criteria(a, out),
            }
            match op {
                BinOp::And | BinOp::Or | BinOp::Div | BinOp::Rem => reads(b, out),
                _ => criteria(b, out),
            }
        }
        Expr::Intrinsic(which, args) => {
            for (k, a) in args.iter().enumerate() {
                if divisor(*which, k) {
                    reads(a, out);
                } else {
                    criteria(a, out);
                }
            }
        }
    }
}

fn criteria_of_ref(r: &Ref, out: &mut Vec<VarId>) {
    if let Ref::Element(_, subs) = r {
        subs.iter().for_each(|s| reads(s, out));
    }
}

/// Is argument `k` of `which` a divisor (a criterion position)?
fn divisor(which: Intrinsic, k: usize) -> bool {
    which == Intrinsic::Mod && k == 1
}

/// The skeleton walk: every field of the program but its source text into
/// one hash, literals masked where [`skeleton_hash`] says — or, with no
/// `relevant` set, none masked: then the walk of a procedure is its exact
/// content ([`crate::cache::ProgramKeys`]).
pub(crate) struct Skeleton<'p> {
    pub(crate) h: Fnv128,
    program: &'p Program,
    /// [`relevant_vars`]; `None` masks nothing.
    relevant: Option<Vec<bool>>,
}

impl<'p> Skeleton<'p> {
    /// A walk that masks no literal.
    pub(crate) fn exact(program: &'p Program) -> Skeleton<'p> {
        Skeleton {
            h: Fnv128::new(),
            program,
            relevant: None,
        }
    }

    /// Are the literal values `v` is assigned or bound left out?
    fn masks(&self, v: VarId) -> bool {
        self.relevant.as_ref().is_some_and(|r| !r[v.0 as usize])
    }

    fn u8(&mut self, v: u8) {
        self.h.write(&[v]);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.h.write_u32(v);
    }

    fn u64(&mut self, v: u64) {
        self.h.write(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.h.write(s.as_bytes());
    }

    fn vars(&mut self, vs: &[VarId]) {
        self.len(vs.len());
        vs.iter().for_each(|v| self.u32(v.0));
    }

    /// Every field of every struct and variant is named, none skipped with
    /// `..`: a field added to the IR stops the build here until the key
    /// says how to hash it.
    fn program(&mut self) {
        let Program {
            name,
            source: _,
            procedures,
            vars,
            commons,
            consts,
            main,
            stmt_count,
        } = self.program;
        self.str(name);
        self.u32(main.0);
        self.u32(*stmt_count);
        let mut consts: Vec<(&String, &i64)> = consts.iter().collect();
        consts.sort_unstable();
        self.len(consts.len());
        for (name, &value) in consts {
            self.str(name);
            self.u64(value as u64);
        }
        self.len(vars.len());
        vars.iter().for_each(|v| self.var(v));
        self.len(commons.len());
        commons.iter().for_each(|c| self.common(c));
        self.len(procedures.len());
        procedures.iter().for_each(|p| self.procedure(p));
    }

    pub(crate) fn var(&mut self, v: &VarInfo) {
        let VarInfo {
            name,
            ty,
            dims,
            kind,
            proc,
            line,
        } = v;
        self.str(name);
        self.u8(matches!(ty, Type::Real) as u8);
        self.len(dims.len());
        for d in dims {
            match d {
                Extent::Const(c) => {
                    self.u8(0);
                    self.u64(*c as u64);
                }
                Extent::Var(e) => {
                    self.u8(1);
                    self.u32(e.0);
                }
                Extent::Star => self.u8(2),
            }
        }
        match *kind {
            VarKind::Local => self.u8(0),
            VarKind::Param { index } => {
                self.u8(1);
                self.len(index);
            }
            VarKind::Common { block, offset } => {
                self.u8(2);
                self.u32(block.0);
                self.u64(offset as u64);
            }
        }
        self.u32(proc.0);
        self.u32(*line);
    }

    pub(crate) fn common(&mut self, c: &CommonBlock) {
        let CommonBlock { name, size, views } = c;
        self.str(name);
        self.u64(*size as u64);
        self.len(views.len());
        for view in views {
            let CommonView { proc, members } = view;
            self.u32(proc.0);
            self.vars(members);
        }
    }

    pub(crate) fn procedure(&mut self, p: &Procedure) {
        let Procedure {
            id,
            name,
            params,
            locals,
            common_vars,
            body,
            line,
            end_line,
            modified_params,
        } = p;
        self.u32(id.0);
        self.str(name);
        self.vars(params);
        self.vars(locals);
        self.vars(common_vars);
        self.len(modified_params.len());
        modified_params.iter().for_each(|&m| self.u8(m as u8));
        self.u32(*line);
        self.u32(*end_line);
        self.body(body);
    }

    fn body(&mut self, body: &[Stmt]) {
        self.len(body.len());
        body.iter().for_each(|s| self.stmt(s));
    }

    /// The statement's id and line, then a tag for its kind.
    fn head(&mut self, id: StmtId, line: u32, tag: u8) {
        self.u32(id.0);
        self.u32(line);
        self.u8(tag);
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { id, line, lhs, rhs } => {
                self.head(*id, *line, 0);
                self.reference(lhs);
                let mask = self.masks(lhs.var());
                self.expr(rhs, mask);
            }
            Stmt::If {
                id,
                line,
                cond,
                then_body,
                else_body,
            } => {
                self.head(*id, *line, 1);
                self.expr(cond, false);
                self.body(then_body);
                self.body(else_body);
            }
            Stmt::Do {
                id,
                line,
                end_line,
                label,
                var,
                lo,
                hi,
                step,
                body,
            } => {
                self.head(*id, *line, 2);
                self.u32(*end_line);
                self.u64(label.map_or(u64::MAX, u64::from));
                self.u32(var.0);
                self.expr(lo, false);
                self.expr(hi, false);
                match step {
                    Some(e) => {
                        self.u8(1);
                        self.expr(e, false);
                    }
                    None => self.u8(0),
                }
                self.body(body);
            }
            Stmt::Call {
                id,
                line,
                callee,
                args,
            } => {
                self.head(*id, *line, 3);
                self.u32(callee.0);
                self.len(args.len());
                let formals = &self.program.proc(*callee).params;
                for (a, &f) in args.iter().zip(formals) {
                    match a {
                        Arg::ArrayWhole(v) => {
                            self.u8(0);
                            self.u32(v.0);
                        }
                        Arg::ArrayPart { var, base } => {
                            self.u8(1);
                            self.u32(var.0);
                            self.exprs(base, false);
                        }
                        Arg::ScalarVar(v) => {
                            self.u8(2);
                            self.u32(v.0);
                        }
                        Arg::Value(e) => {
                            self.u8(3);
                            let mask = self.masks(f);
                            self.expr(e, mask);
                        }
                    }
                }
            }
            Stmt::Print { id, line, args } => {
                self.head(*id, *line, 4);
                self.exprs(args, self.relevant.is_some());
            }
            Stmt::Read { id, line, lhs } => {
                self.head(*id, *line, 5);
                self.reference(lhs);
            }
        }
    }

    fn reference(&mut self, r: &Ref) {
        match r {
            Ref::Scalar(v) => {
                self.u8(0);
                self.u32(v.0);
            }
            Ref::Element(v, subs) => {
                self.u8(1);
                self.u32(v.0);
                self.exprs(subs, false);
            }
        }
    }

    fn exprs(&mut self, es: &[Expr], mask: bool) {
        self.len(es.len());
        es.iter().for_each(|e| self.expr(e, mask));
    }

    /// `e`, its literals' values left out when `mask` holds — except in
    /// the criterion positions inside it, which are hashed whole.
    fn expr(&mut self, e: &Expr, mask: bool) {
        match e {
            Expr::Int(_) if mask => self.u8(0),
            Expr::Real(_) if mask => self.u8(1),
            Expr::Int(v) => {
                self.u8(2);
                self.u64(*v as u64);
            }
            Expr::Real(v) => {
                self.u8(3);
                self.u64(v.to_bits());
            }
            Expr::Scalar(v) => {
                self.u8(4);
                self.u32(v.0);
            }
            Expr::Element(v, subs) => {
                self.u8(5);
                self.u32(v.0);
                self.exprs(subs, false);
            }
            Expr::Unary(op, a) => {
                self.u8(6);
                self.u8(*op as u8);
                self.expr(a, mask);
            }
            Expr::Binary(op, a, b) => {
                self.u8(7);
                self.u8(*op as u8);
                let short = matches!(op, BinOp::And | BinOp::Or);
                let divides = matches!(op, BinOp::Div | BinOp::Rem);
                self.expr(a, mask && !short);
                self.expr(b, mask && !short && !divides);
            }
            Expr::Intrinsic(which, args) => {
                self.u8(8);
                self.u8(*which as u8);
                self.len(args.len());
                for (k, a) in args.iter().enumerate() {
                    self.expr(a, mask && !divisor(*which, k));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One literal in each kind of position, each spelled uniquely so a
    /// mutant is one textual replacement.
    const BASE: &str = "program keys
proc leaf(int m, real s) {
  real t[8]
  int j
  do 1 j = 1, m {
    t[j] = s * 2.5
  }
}
proc bump(int k) {
  k = k + 1
}
proc side() {
  common /c/ int off, real u
  real q[8]
  q[off + 1] = u
}
proc part(real v[*]) {
  v[1] = 9.0
}
proc grid(real g[r, 2], int r) {
  g[1, 2] = 0.5
}
proc main() {
  common /c/ int base, real w
  real a[8], b[8, 8], d[8]
  real x, y, z, c
  int i, kk, n0, nn, dv
  base = 2
  w = 0.5
  kk = 1
  call bump(kk)
  x = 1.5
  y = 3.0
  c = 2.5
  n0 = 3
  nn = n0
  dv = 4
  do 2 i = 1, 8, 1 {
    a[i] = 0.75
    b[i, 2] = a[i] * x
  }
  if x > 0.25 { y = y / 2.0 }
  if kk > 1 { d[1] = 1.0 }
  d[5] = (x + 1.5) / 4.0 + mod(kk, 3)
  d[6] = x / dv
  z = (c > 1.25) || (y > 4.5)
  call leaf(nn + 1, x * 0.125)
  call side()
  call part(d[3])
  call grid(b, 8)
  print a[1] * 3.5, z
}
";

    fn key(src: &str) -> u128 {
        execute_hash_of(skeleton_hash(&suif_ir::parse_program(src).unwrap()), &[])
    }

    fn mutant(from: &str, to: &str) -> String {
        assert_eq!(BASE.matches(from).count(), 1, "{from}");
        BASE.replacen(from, to, 1)
    }

    #[test]
    fn a_literal_a_criterion_position_reads_moves_the_key() {
        let base = key(BASE);
        for (what, from, to) in [
            ("condition", "if x > 0.25", "if x > 0.35"),
            ("lower bound", "do 2 i = 1, 8, 1", "do 2 i = 2, 8, 1"),
            ("step", "do 2 i = 1, 8, 1", "do 2 i = 1, 8, 2"),
            ("left-hand subscript", "b[i, 2] =", "b[i, 3] ="),
            ("right-hand subscript", "print a[1]", "print a[2]"),
            ("ArrayPart base", "call part(d[3])", "call part(d[4])"),
            ("divisor", "/ 4.0", "/ 4.5"),
            ("second argument of mod", "mod(kk, 3)", "mod(kk, 0)"),
            ("or operand", "(c > 1.25)", "(c > 1.35)"),
            ("value reaching an or operand", "c = 2.5", "c = 0.5"),
            ("value argument reaching a bound", "nn + 1", "nn + 2"),
            ("value two flows from a bound", "n0 = 3", "n0 = 2"),
            ("value reaching a divisor", "dv = 4", "dv = 5"),
            ("copy-out reaching a condition", "k = k + 1", "k = k + 2"),
            ("common member in another subscript", "base = 2", "base = 3"),
            ("adjustable extent", "call grid(b, 8)", "call grid(b, 4)"),
        ] {
            assert_ne!(key(&mutant(from, to)), base, "{what}");
        }
    }

    #[test]
    fn a_data_only_literal_keeps_the_key() {
        let base = key(BASE);
        for (what, from, to) in [
            ("data array", "a[i] = 0.75", "a[i] = 0.85"),
            ("dividend", "(x + 1.5)", "(x + 2.5)"),
            ("printed", "* 3.5", "* 4.5"),
            ("value argument to a data formal", "x * 0.125", "x * 0.25"),
            ("callee's data", "s * 2.5", "s * 3.5"),
            ("through a by-reference array", "v[1] = 9.0", "v[1] = 8.0"),
        ] {
            assert_eq!(key(&mutant(from, to)), base, "{what}");
        }
        let several = mutant("a[i] = 0.75", "a[i] = 0.5").replacen("* 3.5", "* 1.0", 1);
        assert_eq!(key(&several), base, "several at once");
        // An `Int` where a `Real` stood is a change of kind, not of value.
        assert_ne!(key(&mutant("a[i] = 0.75", "a[i] = 7")), base);
    }

    #[test]
    fn the_input_is_part_of_the_key_bit_for_bit() {
        let p = suif_ir::parse_program(BASE).unwrap();
        assert_ne!(
            execute_hash_of(skeleton_hash(&p), &[]),
            execute_hash_of(skeleton_hash(&p), &[0.0])
        );
        assert_ne!(
            execute_hash_of(skeleton_hash(&p), &[0.0]),
            execute_hash_of(skeleton_hash(&p), &[-0.0])
        );
        assert_eq!(
            execute_hash_of(skeleton_hash(&p), &[1.5]),
            execute_hash_of(
                skeleton_hash(&suif_ir::parse_program(BASE).unwrap()),
                &[1.5]
            )
        );
    }
}
