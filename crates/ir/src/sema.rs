//! Semantic analysis: resolves the name-based AST into the checked
//! [`Program`] IR, enforcing MiniF's Fortran-like rules.
//!
//! It runs in three parts.  The program-wide interface (consts, and each
//! procedure's id and formals) is all that resolving one procedure reads
//! of the others; the resolver then takes the procedures one at a time in
//! source order, resolving each from its tree or, on a reload, adopting an
//! unchanged one from the previous program ([`crate::reparse()`]); last
//! come the whole-program checks.

use crate::ast::*;
use crate::program::*;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A semantic error.
#[derive(Debug, Clone)]
pub struct SemaError {
    /// Description.
    pub message: String,
    /// 1-based source line (0 when unknown).
    pub line: u32,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

fn err<T>(line: u32, msg: impl Into<String>) -> Result<T, SemaError> {
    Err(SemaError {
        message: msg.into(),
        line,
    })
}

/// Resolve an [`AstProgram`] into a [`Program`].
pub fn resolve(ast: &AstProgram<'_>, source: &str) -> Result<Program, SemaError> {
    let headers = ast.procs.iter().map(|p| (p.name, p.line, formals(p)));
    let iface = Interface::new(&ast.consts, headers)?;
    let mut rs = Resolver::new(&iface);
    let mut procedures = Vec::with_capacity(ast.procs.len());
    for (i, p) in ast.procs.iter().enumerate() {
        procedures.push(rs.resolve_proc(ProcId(i as u32), p)?);
    }
    rs.finish(ast.name, source, procedures)
}

/// A formal parameter as a call site sees it: its type, and whether it is
/// an array.
pub(crate) type Formal = (Type, bool);

/// The formals of a parsed procedure.
pub(crate) fn formals(p: &AstProc<'_>) -> Vec<Formal> {
    p.params
        .iter()
        .map(|par| (conv_ty(par.ty), !par.dims.is_empty()))
        .collect()
}

/// What resolving one procedure reads of the others: the program's consts
/// and its procedure table (each procedure's id and formals).
pub(crate) struct Interface<'a> {
    consts: BTreeMap<String, i64>,
    proc_ids: HashMap<&'a str, ProcId>,
    formals: Vec<Vec<Formal>>,
    main: ProcId,
}

impl<'a> Interface<'a> {
    /// The interface of `consts` and the procedures `(name, line, formals)`
    /// in source order; refuses duplicate names and a missing `main`.
    pub(crate) fn new(
        consts: &[AstConst<'_>],
        procs: impl Iterator<Item = (&'a str, u32, Vec<Formal>)>,
    ) -> Result<Self, SemaError> {
        let mut map = BTreeMap::new();
        for c in consts {
            if map.insert(c.name.to_string(), c.value).is_some() {
                return err(c.line, format!("duplicate const `{}`", c.name));
            }
        }
        let mut proc_ids = HashMap::new();
        let mut all_formals = Vec::new();
        for (i, (name, line, formals)) in procs.enumerate() {
            if proc_ids.insert(name, ProcId(i as u32)).is_some() {
                return err(line, format!("duplicate procedure `{name}`"));
            }
            if map.contains_key(name) {
                return err(line, format!("`{name}` is both a const and a procedure"));
            }
            all_formals.push(formals);
        }
        let Some(&main) = proc_ids.get("main") else {
            return err(0, "program has no `main` procedure");
        };
        Ok(Interface {
            consts: map,
            proc_ids,
            formals: all_formals,
            main,
        })
    }
}

/// Resolves procedures one at a time, in source order, into the program's
/// variable, common-block and statement numbering.
pub(crate) struct Resolver<'i, 'a> {
    iface: &'i Interface<'a>,
    vars: Vec<VarInfo>,
    commons: Vec<CommonBlock>,
    common_ids: HashMap<String, CommonId>,
    next_stmt: u32,
    /// Current procedure's name → VarId scope.
    scope: HashMap<&'a str, VarId>,
}

impl<'i, 'a> Resolver<'i, 'a> {
    pub(crate) fn new(iface: &'i Interface<'a>) -> Self {
        Resolver {
            iface,
            vars: Vec::new(),
            commons: Vec::new(),
            common_ids: HashMap::new(),
            next_stmt: 0,
            scope: HashMap::new(),
        }
    }

    /// The whole-program part: modified parameters over the call graph,
    /// and the recursion check.
    pub(crate) fn finish(
        self,
        name: &str,
        source: &str,
        mut procedures: Vec<Procedure>,
    ) -> Result<Program, SemaError> {
        compute_modified_params(&mut procedures, &self.vars);
        let program = Program {
            name: name.to_string(),
            source: source.to_string(),
            procedures,
            vars: self.vars,
            commons: self.commons,
            consts: self.iface.consts.clone(),
            main: self.iface.main,
            stmt_count: self.next_stmt,
        };
        check_no_recursion(&program)?;
        Ok(program)
    }

    fn fresh_stmt(&mut self) -> StmtId {
        let id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        id
    }

    fn add_var(&mut self, name: &'a str, info: VarInfo) -> Result<VarId, SemaError> {
        let id = VarId(self.vars.len() as u32);
        if self.scope.insert(name, id).is_some() {
            return err(info.line, format!("duplicate variable `{name}`"));
        }
        if self.iface.consts.contains_key(name) {
            return err(info.line, format!("`{name}` shadows a program const"));
        }
        self.vars.push(info);
        Ok(id)
    }

    /// The id of the common block `name`, numbered in order of first
    /// naming.
    fn common(&mut self, name: &str) -> CommonId {
        if let Some(&c) = self.common_ids.get(name) {
            return c;
        }
        let c = CommonId(self.commons.len() as u32);
        self.commons.push(CommonBlock {
            name: name.to_string(),
            size: 0,
            views: Vec::new(),
        });
        self.common_ids.insert(name.to_string(), c);
        c
    }

    /// Record procedure `proc`'s view of block `cid`, `end` elements long.
    fn add_view(&mut self, cid: CommonId, proc: ProcId, members: Vec<VarId>, end: i64) {
        let blk = &mut self.commons[cid.0 as usize];
        blk.size = blk.size.max(end);
        blk.views.push(CommonView { proc, members });
    }

    pub(crate) fn resolve_proc(
        &mut self,
        id: ProcId,
        p: &AstProc<'a>,
    ) -> Result<Procedure, SemaError> {
        self.scope.clear();

        // Parameters first (their names may appear in later extents).
        let mut params = Vec::new();
        for (idx, par) in p.params.iter().enumerate() {
            let vid = self.add_var(
                par.name,
                VarInfo {
                    name: par.name.to_string(),
                    ty: conv_ty(par.ty),
                    dims: Vec::new(), // patched below after all params exist
                    kind: VarKind::Param { index: idx },
                    proc: id,
                    line: par.line,
                },
            )?;
            params.push(vid);
        }
        // Patch parameter extents (may reference other integer params).
        for (idx, par) in p.params.iter().enumerate() {
            let mut dims = Vec::new();
            for (k, d) in par.dims.iter().enumerate() {
                match d {
                    None => {
                        if k + 1 != par.dims.len() {
                            return err(
                                par.line,
                                format!("`*` extent of `{}` must be last", par.name),
                            );
                        }
                        dims.push(Extent::Star);
                    }
                    Some(e) => dims.push(self.resolve_extent(e, par.line)?),
                }
            }
            self.vars[params[idx].0 as usize].dims = dims;
        }

        // Declarations.
        let mut locals = Vec::new();
        let mut common_vars = Vec::new();
        for d in &p.decls {
            match d {
                AstDecl::Local { ty, vars, line } => {
                    for (name, dims) in vars {
                        let mut exts = Vec::new();
                        for e in dims {
                            exts.push(self.resolve_extent(e, *line)?);
                        }
                        let vid = self.add_var(
                            name,
                            VarInfo {
                                name: name.to_string(),
                                ty: conv_ty(*ty),
                                dims: exts,
                                kind: VarKind::Local,
                                proc: id,
                                line: *line,
                            },
                        )?;
                        locals.push(vid);
                    }
                }
                AstDecl::Common { block, vars, line } => {
                    let cid = self.common(block);
                    let mut offset = 0i64;
                    let mut members = Vec::new();
                    for (vty, name, dims) in vars {
                        let mut exts = Vec::new();
                        for e in dims {
                            let ext = self.resolve_extent(e, *line)?;
                            if !matches!(ext, Extent::Const(_)) {
                                return err(
                                    *line,
                                    format!("common member `{name}` must have constant extents"),
                                );
                            }
                            exts.push(ext);
                        }
                        let size = common_size(&exts);
                        let vid = self.add_var(
                            name,
                            VarInfo {
                                name: name.to_string(),
                                ty: conv_ty(*vty),
                                dims: exts,
                                kind: VarKind::Common { block: cid, offset },
                                proc: id,
                                line: *line,
                            },
                        )?;
                        members.push(vid);
                        common_vars.push(vid);
                        offset = offset.saturating_add(size);
                    }
                    self.add_view(cid, id, members, offset);
                }
            }
        }

        let body = self.resolve_body(&p.body)?;
        let nparams = params.len();
        Ok(Procedure {
            id,
            name: p.name.to_string(),
            params,
            locals,
            common_vars,
            body,
            line: p.line,
            end_line: p.end_line,
            modified_params: vec![false; nparams],
        })
    }

    /// Take procedure `old` of the previous program as procedure `id`,
    /// whose `proc` line is now `line`, without parsing it: its text is
    /// unchanged and so is everything its resolution reads of the rest of
    /// the program (see [`crate::reparse()`]).  The copy is rebased onto this
    /// program's variable, statement, line, procedure and common-block
    /// numbering.  `None` when one of its callees is gone or changed its
    /// formals: then it must be resolved from its text.
    pub(crate) fn adopt(
        &mut self,
        id: ProcId,
        line: u32,
        prev: &Previous<'_>,
        old: ProcId,
    ) -> Option<Procedure> {
        let program = prev.program;
        let from = program.proc(old);
        // A procedure's variables and statement ids are contiguous ranges,
        // numbered in source order.
        let vars = program.vars.partition_point(|v| v.proc < old)
            ..program.vars.partition_point(|v| v.proc <= old);
        let stmts = prev.stmt_bases[old.0 as usize]..prev.stmt_bases[old.0 as usize + 1];
        let shift = Shift {
            vars: (self.vars.len() as u32).wrapping_sub(vars.start as u32),
            stmts: self.next_stmt.wrapping_sub(stmts.start),
            lines: line.wrapping_sub(from.line),
            callees: &prev.callees,
        };
        let mut proc = from.clone();
        proc.id = id;
        proc.modified_params.fill(false);
        if shift.vars != 0 || shift.stmts != 0 || shift.lines != 0 || prev.moved {
            shift.proc(&mut proc)?;
        }
        self.next_stmt += stmts.len() as u32;
        for info in &program.vars[vars] {
            let mut info = info.clone();
            info.proc = id;
            info.line = shift.line(info.line);
            for d in &mut info.dims {
                if let Extent::Var(v) = d {
                    *v = shift.var(*v);
                }
            }
            if let VarKind::Common { block, .. } = &mut info.kind {
                *block = self.common(&program.commons[block.0 as usize].name);
            }
            self.vars.push(info);
        }
        // Its views of common blocks, in declaration order.
        let mut views: Vec<(CommonId, &CommonView)> = program
            .commons
            .iter()
            .enumerate()
            .flat_map(|(b, blk)| blk.views.iter().map(move |v| (CommonId(b as u32), v)))
            .filter(|(_, v)| v.proc == old)
            .collect();
        views.sort_unstable_by_key(|(_, v)| v.members[0]);
        for (b, view) in views {
            let last = program.var(*view.members.last().expect("a view has members"));
            let VarKind::Common { offset, .. } = last.kind else {
                unreachable!("a view's members are common members")
            };
            let end = offset.saturating_add(common_size(&last.dims));
            let members = view.members.iter().map(|&m| shift.var(m)).collect();
            let cid = self.common(&program.commons[b.0 as usize].name);
            self.add_view(cid, id, members, end);
        }
        Some(proc)
    }

    fn resolve_extent(&self, e: &AstExpr, line: u32) -> Result<Extent, SemaError> {
        match e {
            AstExpr::Int(v) => Ok(Extent::Const(*v)),
            AstExpr::Ref(r) if r.subs.is_empty() => {
                if let Some(&c) = self.iface.consts.get(r.name) {
                    return Ok(Extent::Const(c));
                }
                let Some(&vid) = self.scope.get(&r.name) else {
                    return err(line, format!("unknown extent name `{}`", r.name));
                };
                let info = &self.vars[vid.0 as usize];
                if info.is_array() || info.ty != Type::Int {
                    return err(
                        line,
                        format!("extent `{}` must be an integer scalar", r.name),
                    );
                }
                Ok(Extent::Var(vid))
            }
            _ => err(line, "array extent must be a constant or an integer scalar"),
        }
    }

    fn lookup(&self, r: &AstRef) -> Result<VarId, SemaError> {
        match self.scope.get(&r.name) {
            Some(&v) => Ok(v),
            None => err(r.line, format!("unknown variable `{}`", r.name)),
        }
    }

    fn resolve_body(&mut self, body: &[AstStmt]) -> Result<Vec<Stmt>, SemaError> {
        body.iter().map(|s| self.resolve_stmt(s)).collect()
    }

    fn resolve_stmt(&mut self, s: &AstStmt) -> Result<Stmt, SemaError> {
        match s {
            AstStmt::Assign { lhs, rhs, line } => {
                let id = self.fresh_stmt();
                let lhs = self.resolve_ref(lhs)?;
                let rhs = self.resolve_expr(rhs, *line)?;
                Ok(Stmt::Assign {
                    id,
                    line: *line,
                    lhs,
                    rhs,
                })
            }
            AstStmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                let id = self.fresh_stmt();
                let cond = self.resolve_expr(cond, *line)?;
                let then_body = self.resolve_body(then_body)?;
                let else_body = self.resolve_body(else_body)?;
                Ok(Stmt::If {
                    id,
                    line: *line,
                    cond,
                    then_body,
                    else_body,
                })
            }
            AstStmt::Do {
                label,
                var,
                lo,
                hi,
                step,
                body,
                line,
                end_line,
            } => {
                let id = self.fresh_stmt();
                let Some(&vid) = self.scope.get(var) else {
                    return err(*line, format!("unknown loop variable `{var}`"));
                };
                let info = &self.vars[vid.0 as usize];
                if info.is_array() || info.ty != Type::Int {
                    return err(
                        *line,
                        format!("loop variable `{var}` must be an int scalar"),
                    );
                }
                let lo = self.resolve_expr(lo, *line)?;
                let hi = self.resolve_expr(hi, *line)?;
                let step = step
                    .as_ref()
                    .map(|e| self.resolve_expr(e, *line))
                    .transpose()?;
                let body = self.resolve_body(body)?;
                Ok(Stmt::Do {
                    id,
                    line: *line,
                    end_line: *end_line,
                    label: *label,
                    var: vid,
                    lo,
                    hi,
                    step,
                    body,
                })
            }
            AstStmt::Call { callee, args, line } => {
                let id = self.fresh_stmt();
                let Some(&pid) = self.iface.proc_ids.get(callee) else {
                    return err(*line, format!("unknown procedure `{callee}`"));
                };
                let formals = &self.iface.formals[pid.0 as usize];
                if formals.len() != args.len() {
                    return err(
                        *line,
                        format!(
                            "`{callee}` expects {} argument(s), got {}",
                            formals.len(),
                            args.len()
                        ),
                    );
                }
                let mut rargs = Vec::new();
                for (a, (fty, f_is_array)) in args.iter().zip(formals) {
                    rargs.push(self.resolve_arg(a, *fty, *f_is_array, *line)?);
                }
                Ok(Stmt::Call {
                    id,
                    line: *line,
                    callee: pid,
                    args: rargs,
                })
            }
            AstStmt::Print { args, line } => {
                let id = self.fresh_stmt();
                let args = args
                    .iter()
                    .map(|a| self.resolve_expr(a, *line))
                    .collect::<Result<_, _>>()?;
                Ok(Stmt::Print {
                    id,
                    line: *line,
                    args,
                })
            }
            AstStmt::Read { lhs, line } => {
                let id = self.fresh_stmt();
                let lhs = self.resolve_ref(lhs)?;
                Ok(Stmt::Read {
                    id,
                    line: *line,
                    lhs,
                })
            }
        }
    }

    fn resolve_ref(&mut self, r: &AstRef) -> Result<Ref, SemaError> {
        if self.iface.consts.contains_key(r.name) {
            return err(r.line, format!("cannot assign to const `{}`", r.name));
        }
        let vid = self.lookup(r)?;
        let info = &self.vars[vid.0 as usize];
        if r.subs.is_empty() {
            if info.is_array() {
                return err(r.line, format!("array `{}` needs subscripts here", r.name));
            }
            Ok(Ref::Scalar(vid))
        } else {
            if !info.is_array() {
                return err(r.line, format!("`{}` is not an array", r.name));
            }
            if info.dims.len() != r.subs.len() {
                return err(
                    r.line,
                    format!(
                        "`{}` has rank {}, subscripted with {}",
                        r.name,
                        info.dims.len(),
                        r.subs.len()
                    ),
                );
            }
            let subs = r
                .subs
                .iter()
                .map(|e| self.resolve_expr(e, r.line))
                .collect::<Result<_, _>>()?;
            Ok(Ref::Element(vid, subs))
        }
    }

    fn resolve_arg(
        &mut self,
        a: &AstExpr,
        _formal_ty: Type,
        formal_is_array: bool,
        line: u32,
    ) -> Result<Arg, SemaError> {
        if formal_is_array {
            let AstExpr::Ref(r) = a else {
                return err(line, "array argument must be an array name or element base");
            };
            let vid = self.lookup(r)?;
            let info = &self.vars[vid.0 as usize];
            if !info.is_array() {
                return err(line, format!("`{}` is not an array", r.name));
            }
            if r.subs.is_empty() {
                Ok(Arg::ArrayWhole(vid))
            } else {
                if info.dims.len() != r.subs.len() {
                    return err(
                        line,
                        format!(
                            "`{}` has rank {}, base-subscripted with {}",
                            r.name,
                            info.dims.len(),
                            r.subs.len()
                        ),
                    );
                }
                let base = r
                    .subs
                    .iter()
                    .map(|e| self.resolve_expr(e, line))
                    .collect::<Result<_, _>>()?;
                Ok(Arg::ArrayPart { var: vid, base })
            }
        } else {
            // Scalar formal: variable ⇒ copy-in/copy-out, else by value.
            if let AstExpr::Ref(r) = a {
                if r.subs.is_empty() && !self.iface.consts.contains_key(r.name) {
                    let vid = self.lookup(r)?;
                    if !self.vars[vid.0 as usize].is_array() {
                        return Ok(Arg::ScalarVar(vid));
                    }
                }
            }
            Ok(Arg::Value(self.resolve_expr(a, line)?))
        }
    }

    #[allow(clippy::only_used_in_recursion)]
    fn resolve_expr(&mut self, e: &AstExpr, line: u32) -> Result<Expr, SemaError> {
        Ok(match e {
            AstExpr::Int(v) => Expr::Int(*v),
            AstExpr::Real(v) => Expr::Real(*v),
            AstExpr::Ref(r) => {
                if r.subs.is_empty() {
                    if let Some(&c) = self.iface.consts.get(r.name) {
                        return Ok(Expr::Int(c));
                    }
                    let vid = self.lookup(r)?;
                    if self.vars[vid.0 as usize].is_array() {
                        return err(r.line, format!("array `{}` used as a scalar value", r.name));
                    }
                    Expr::Scalar(vid)
                } else {
                    let vid = self.lookup(r)?;
                    let info = &self.vars[vid.0 as usize];
                    if !info.is_array() {
                        return err(r.line, format!("`{}` is not an array", r.name));
                    }
                    if info.dims.len() != r.subs.len() {
                        return err(
                            r.line,
                            format!(
                                "`{}` has rank {}, subscripted with {}",
                                r.name,
                                info.dims.len(),
                                r.subs.len()
                            ),
                        );
                    }
                    let subs = r
                        .subs
                        .iter()
                        .map(|s| self.resolve_expr(s, r.line))
                        .collect::<Result<_, _>>()?;
                    Expr::Element(vid, subs)
                }
            }
            AstExpr::Unary { op, arg } => Expr::Unary(*op, Box::new(self.resolve_expr(arg, line)?)),
            AstExpr::Binary { op, lhs, rhs } => Expr::Binary(
                *op,
                Box::new(self.resolve_expr(lhs, line)?),
                Box::new(self.resolve_expr(rhs, line)?),
            ),
            AstExpr::Intrinsic { which, args } => Expr::Intrinsic(
                *which,
                args.iter()
                    .map(|a| self.resolve_expr(a, line))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }
}

/// Elements a common member of constant extents `dims` occupies.
fn common_size(dims: &[Extent]) -> i64 {
    dims.iter().fold(1i64, |size, d| match d {
        Extent::Const(c) => size.saturating_mul(*c),
        _ => size,
    })
}

/// The previous program, as [`Resolver::adopt`] reads it.
pub(crate) struct Previous<'p> {
    program: &'p Program,
    /// Each previous procedure's id in the new program, when a procedure of
    /// its name is there with its formals: what a call to it resolves to.
    callees: Vec<Option<ProcId>>,
    /// Some previous procedure is not where it was.
    moved: bool,
    /// The first statement id of each previous procedure, then the count.
    stmt_bases: Vec<u32>,
}

impl<'p> Previous<'p> {
    pub(crate) fn new(program: &'p Program, iface: &Interface<'_>) -> Self {
        let callees: Vec<Option<ProcId>> = program
            .procedures
            .iter()
            .map(|p| {
                let &id = iface.proc_ids.get(p.name.as_str())?;
                let formals = &iface.formals[id.0 as usize];
                let same = formals.len() == p.params.len()
                    && p.params.iter().zip(formals).all(|(&v, &(ty, array))| {
                        let v = program.var(v);
                        v.ty == ty && v.is_array() == array
                    });
                same.then_some(id)
            })
            .collect();
        let moved = (0..callees.len()).any(|k| callees[k] != Some(ProcId(k as u32)));
        let mut stmt_bases = vec![program.stmt_count; program.procedures.len() + 1];
        for (k, p) in program.procedures.iter().enumerate().rev() {
            stmt_bases[k] = p.body.first().map_or(stmt_bases[k + 1], |s| s.id().0);
        }
        Previous {
            program,
            callees,
            moved,
            stmt_bases,
        }
    }
}

/// How far a procedure's ids and lines move when [`Resolver::adopt`] takes
/// it into another program, and where its callees went.
struct Shift<'c> {
    vars: u32,
    stmts: u32,
    lines: u32,
    callees: &'c [Option<ProcId>],
}

impl Shift<'_> {
    fn var(&self, v: VarId) -> VarId {
        VarId(v.0.wrapping_add(self.vars))
    }

    fn line(&self, line: u32) -> u32 {
        line.wrapping_add(self.lines)
    }

    fn proc(&self, p: &mut Procedure) -> Option<()> {
        p.line = self.line(p.line);
        p.end_line = self.line(p.end_line);
        for v in p
            .params
            .iter_mut()
            .chain(&mut p.locals)
            .chain(&mut p.common_vars)
        {
            *v = self.var(*v);
        }
        self.body(&mut p.body)
    }

    fn body(&self, body: &mut [Stmt]) -> Option<()> {
        body.iter_mut().try_for_each(|s| self.stmt(s))
    }

    fn stmt(&self, s: &mut Stmt) -> Option<()> {
        match s {
            Stmt::Assign { id, line, lhs, rhs } => {
                self.at(id, line);
                self.reference(lhs);
                self.expr(rhs);
            }
            Stmt::If {
                id,
                line,
                cond,
                then_body,
                else_body,
            } => {
                self.at(id, line);
                self.expr(cond);
                self.body(then_body)?;
                self.body(else_body)?;
            }
            Stmt::Do {
                id,
                line,
                end_line,
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                self.at(id, line);
                *end_line = self.line(*end_line);
                *var = self.var(*var);
                self.expr(lo);
                self.expr(hi);
                if let Some(step) = step {
                    self.expr(step);
                }
                self.body(body)?;
            }
            Stmt::Call {
                id,
                line,
                callee,
                args,
            } => {
                self.at(id, line);
                *callee = self.callees[callee.0 as usize]?;
                for a in args {
                    match a {
                        Arg::ArrayWhole(v) | Arg::ScalarVar(v) => *v = self.var(*v),
                        Arg::ArrayPart { var, base } => {
                            *var = self.var(*var);
                            base.iter_mut().for_each(|e| self.expr(e));
                        }
                        Arg::Value(e) => self.expr(e),
                    }
                }
            }
            Stmt::Print { id, line, args } => {
                self.at(id, line);
                args.iter_mut().for_each(|e| self.expr(e));
            }
            Stmt::Read { id, line, lhs } => {
                self.at(id, line);
                self.reference(lhs);
            }
        }
        Some(())
    }

    fn at(&self, id: &mut StmtId, line: &mut u32) {
        *id = StmtId(id.0.wrapping_add(self.stmts));
        *line = self.line(*line);
    }

    fn reference(&self, r: &mut Ref) {
        match r {
            Ref::Scalar(v) => *v = self.var(*v),
            Ref::Element(v, subs) => {
                *v = self.var(*v);
                subs.iter_mut().for_each(|e| self.expr(e));
            }
        }
    }

    fn expr(&self, e: &mut Expr) {
        match e {
            Expr::Int(_) | Expr::Real(_) => {}
            Expr::Scalar(v) => *v = self.var(*v),
            Expr::Element(v, subs) => {
                *v = self.var(*v);
                subs.iter_mut().for_each(|e| self.expr(e));
            }
            Expr::Unary(_, a) => self.expr(a),
            Expr::Binary(_, a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Intrinsic(_, args) => args.iter_mut().for_each(|e| self.expr(e)),
        }
    }
}

fn conv_ty(t: AstType) -> Type {
    match t {
        AstType::Int => Type::Int,
        AstType::Real => Type::Real,
    }
}

/// Fixed point over the (acyclic) call graph: a parameter is modified when
/// the procedure assigns it, reads into it, or passes it to a modified
/// parameter position of a callee.  Array parameters are considered modified
/// when any element is stored through them (directly or via a callee).
fn compute_modified_params(procedures: &mut [Procedure], vars: &[VarInfo]) {
    fn param_index(vars: &[VarInfo], v: VarId) -> Option<usize> {
        match vars[v.0 as usize].kind {
            VarKind::Param { index } => Some(index),
            _ => None,
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        let snapshot: Vec<Vec<bool>> = procedures
            .iter()
            .map(|p| p.modified_params.clone())
            .collect();
        for proc in procedures.iter_mut() {
            let mut mods = proc.modified_params.clone();
            let cur_proc = proc.id;
            let mut mark = |v: VarId, mods: &mut Vec<bool>| {
                if vars[v.0 as usize].proc == cur_proc {
                    if let Some(k) = param_index(vars, v) {
                        mods[k] = true;
                    }
                }
            };
            fn walk(
                body: &[Stmt],
                snapshot: &[Vec<bool>],
                mark: &mut dyn FnMut(VarId, &mut Vec<bool>),
                mods: &mut Vec<bool>,
            ) {
                for s in body {
                    match s {
                        Stmt::Assign { lhs, .. } | Stmt::Read { lhs, .. } => mark(lhs.var(), mods),
                        Stmt::If {
                            then_body,
                            else_body,
                            ..
                        } => {
                            walk(then_body, snapshot, mark, mods);
                            walk(else_body, snapshot, mark, mods);
                        }
                        Stmt::Do { var, body, .. } => {
                            mark(*var, mods);
                            walk(body, snapshot, mark, mods);
                        }
                        Stmt::Call { callee, args, .. } => {
                            for (k, a) in args.iter().enumerate() {
                                let callee_mods = &snapshot[callee.0 as usize];
                                if callee_mods.get(k).copied().unwrap_or(false) {
                                    match a {
                                        Arg::ScalarVar(v)
                                        | Arg::ArrayWhole(v)
                                        | Arg::ArrayPart { var: v, .. } => mark(*v, mods),
                                        Arg::Value(_) => {}
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            let body = std::mem::take(&mut proc.body);
            walk(&body, &snapshot, &mut mark, &mut mods);
            proc.body = body;
            if mods != proc.modified_params {
                proc.modified_params = mods;
                changed = true;
            }
        }
    }
}

/// Reject recursive call chains (the paper's region-based analyses do not
/// handle recursion; §5.2: "Our algorithm currently does not handle
/// recursion").
fn check_no_recursion(program: &Program) -> Result<(), SemaError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    fn dfs(program: &Program, p: ProcId, marks: &mut Vec<Mark>) -> Result<(), SemaError> {
        marks[p.0 as usize] = Mark::Grey;
        let mut callees = Vec::new();
        program.walk_stmts(p, &mut |s, _| {
            if let Stmt::Call { callee, line, .. } = s {
                callees.push((*callee, *line));
            }
        });
        for (c, line) in callees {
            match marks[c.0 as usize] {
                Mark::Grey => {
                    return err(
                        line,
                        format!("recursive call chain involving `{}`", program.proc(c).name),
                    )
                }
                Mark::White => dfs(program, c, marks)?,
                Mark::Black => {}
            }
        }
        marks[p.0 as usize] = Mark::Black;
        Ok(())
    }
    let mut marks = vec![Mark::White; program.procedures.len()];
    for p in 0..program.procedures.len() {
        if marks[p] == Mark::White {
            dfs(program, ProcId(p as u32), &mut marks)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::parse_program;
    use crate::program::*;

    #[test]
    fn resolves_simple_program() {
        let p = parse_program(
            "program t\nconst n = 8\nproc main() {\n real a[n]\n int i\n do i = 1, n {\n a[i] = i\n }\n}",
        )
        .unwrap();
        assert_eq!(p.procedures.len(), 1);
        let a = p.var_by_name("main", "a").unwrap();
        assert_eq!(p.var(a).dims, vec![Extent::Const(8)]);
    }

    #[test]
    fn rejects_unknown_variable() {
        let e = parse_program("program t\nproc main() {\n x = 1\n}").unwrap_err();
        assert!(e.to_string().contains("unknown variable"));
    }

    #[test]
    fn rejects_recursion() {
        let e = parse_program(
            "program t\nproc main() { call f() }\nproc f() { call g() }\nproc g() { call f() }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("recursive"));
    }

    #[test]
    fn requires_main() {
        let e = parse_program("program t\nproc f() { }").unwrap_err();
        assert!(e.to_string().contains("main"));
    }

    #[test]
    fn common_block_layout_and_aliasing() {
        let p = parse_program(
            "program t\nproc main() {\n common /c/ real a[10], real b[5]\n a[1] = 0\n call f()\n}\nproc f() {\n common /c/ real z[12]\n z[1] = 1\n}",
        )
        .unwrap();
        let a = p.var_by_name("main", "a").unwrap();
        let b = p.var_by_name("main", "b").unwrap();
        let z = p.var_by_name("f", "z").unwrap();
        assert!(!p.storage_overlaps(a, b));
        assert!(p.storage_overlaps(a, z)); // z[1..12] overlaps a[1..10]
        assert!(p.storage_overlaps(b, z)); // and b (offsets 10..12)
        assert_eq!(p.commons[0].size, 15);
        assert_eq!(p.aliases_of(a), vec![z]);
    }

    #[test]
    fn scalar_args_resolve_to_copy_in_out() {
        let p = parse_program(
            "program t\nproc f(int k) { k = k + 1 }\nproc main() {\n int n\n n = 1\n call f(n)\n call f(n + 1)\n}",
        )
        .unwrap();
        let main = p.proc_by_name("main").unwrap();
        match &main.body[1] {
            Stmt::Call { args, .. } => assert!(matches!(args[0], Arg::ScalarVar(_))),
            _ => panic!(),
        }
        match &main.body[2] {
            Stmt::Call { args, .. } => assert!(matches!(args[0], Arg::Value(_))),
            _ => panic!(),
        }
    }

    #[test]
    fn array_args_whole_and_part() {
        let p = parse_program(
            "program t\nproc f(real a[*]) { a[1] = 0 }\nproc main() {\n real b[10]\n int k\n k = 3\n call f(b)\n call f(b[k])\n}",
        )
        .unwrap();
        let main = p.proc_by_name("main").unwrap();
        match (&main.body[1], &main.body[2]) {
            (Stmt::Call { args: a1, .. }, Stmt::Call { args: a2, .. }) => {
                assert!(matches!(a1[0], Arg::ArrayWhole(_)));
                assert!(matches!(a2[0], Arg::ArrayPart { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_rank_mismatch() {
        let e = parse_program("program t\nproc main() {\n real a[4, 4]\n a[1] = 0\n}").unwrap_err();
        assert!(e.to_string().contains("rank"));
    }

    #[test]
    fn rejects_symbolic_common_extent() {
        let e = parse_program("program t\nproc main() {\n int n\n common /c/ real a[n]\n n = 1\n}")
            .unwrap_err();
        assert!(e.to_string().contains("constant"));
    }

    #[test]
    fn adjustable_array_params() {
        let p = parse_program(
            "program t\nproc f(real a[n, m], int n, int m) { a[1, 1] = 0 }\nproc main() {\n real b[6]\n call f(b, 2, 3)\n}",
        )
        .unwrap();
        let a = p.var_by_name("f", "a").unwrap();
        match &p.var(a).dims[0] {
            Extent::Var(v) => assert_eq!(p.var(*v).name, "n"),
            other => panic!("expected Var extent, got {other:?}"),
        }
    }

    #[test]
    fn stmt_ids_are_unique_and_dense() {
        let p = parse_program(
            "program t\nproc main() {\n int i\n do i = 1, 3 {\n if i < 2 {\n i = i\n }\n }\n print i\n}",
        )
        .unwrap();
        let mut seen = Vec::new();
        p.walk_stmts(p.main, &mut |s, _| seen.push(s.id().0));
        seen.sort_unstable();
        assert_eq!(seen, (0..p.stmt_count).collect::<Vec<_>>());
    }
}
