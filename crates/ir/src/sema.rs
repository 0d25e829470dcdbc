//! Semantic analysis: resolves the name-based AST into the checked
//! [`Program`] IR, enforcing MiniF's Fortran-like rules.

use crate::ast::*;
use crate::program::*;
use std::collections::HashMap;
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
pub fn resolve(ast: &AstProgram, source: &str) -> Result<Program, SemaError> {
    let mut consts = HashMap::new();
    for c in &ast.consts {
        if consts.insert(c.name.clone(), c.value).is_some() {
            return err(c.line, format!("duplicate const `{}`", c.name));
        }
    }

    // Pass 1: register procedures.
    let mut proc_ids: HashMap<String, ProcId> = HashMap::new();
    for (i, p) in ast.procs.iter().enumerate() {
        if proc_ids.insert(p.name.clone(), ProcId(i as u32)).is_some() {
            return err(p.line, format!("duplicate procedure `{}`", p.name));
        }
        if consts.contains_key(&p.name) {
            return err(
                p.line,
                format!("`{}` is both a const and a procedure", p.name),
            );
        }
    }
    let Some(&main) = proc_ids.get("main") else {
        return err(0, "program has no `main` procedure");
    };

    let consts_ref = consts.clone();
    let mut rs = Resolver {
        consts: &consts_ref,
        proc_ids: &proc_ids,
        ast,
        vars: Vec::new(),
        commons: Vec::new(),
        common_ids: HashMap::new(),
        next_stmt: 0,
        scope: HashMap::new(),
        cur_proc: ProcId(0),
    };

    let mut procedures = Vec::new();
    for (i, p) in ast.procs.iter().enumerate() {
        procedures.push(rs.resolve_proc(ProcId(i as u32), p)?);
    }

    compute_modified_params(&mut procedures, &rs.vars);
    let program = Program {
        name: ast.name.clone(),
        source: source.to_string(),
        procedures,
        vars: rs.vars,
        commons: rs.commons,
        consts,
        main,
        stmt_count: rs.next_stmt,
    };

    check_no_recursion(&program)?;
    Ok(program)
}

struct Resolver<'a> {
    consts: &'a HashMap<String, i64>,
    proc_ids: &'a HashMap<String, ProcId>,
    ast: &'a AstProgram,
    vars: Vec<VarInfo>,
    commons: Vec<CommonBlock>,
    common_ids: HashMap<String, CommonId>,
    next_stmt: u32,
    /// Current procedure's name → VarId scope.
    scope: HashMap<String, VarId>,
    cur_proc: ProcId,
}

impl<'a> Resolver<'a> {
    fn fresh_stmt(&mut self) -> StmtId {
        let id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        id
    }

    fn add_var(&mut self, info: VarInfo) -> Result<VarId, SemaError> {
        let id = VarId(self.vars.len() as u32);
        if self.scope.insert(info.name.clone(), id).is_some() {
            return err(info.line, format!("duplicate variable `{}`", info.name));
        }
        if self.consts.contains_key(&info.name) {
            return err(
                info.line,
                format!("`{}` shadows a program const", info.name),
            );
        }
        self.vars.push(info);
        Ok(id)
    }

    fn resolve_proc(&mut self, id: ProcId, p: &AstProc) -> Result<Procedure, SemaError> {
        self.scope.clear();
        self.cur_proc = id;

        // Parameters first (their names may appear in later extents).
        let mut params = Vec::new();
        for (idx, par) in p.params.iter().enumerate() {
            let vid = self.add_var(VarInfo {
                name: par.name.clone(),
                ty: conv_ty(par.ty),
                dims: Vec::new(), // patched below after all params exist
                kind: VarKind::Param { index: idx },
                proc: id,
                line: par.line,
            })?;
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
                        let vid = self.add_var(VarInfo {
                            name: name.clone(),
                            ty: conv_ty(*ty),
                            dims: exts,
                            kind: VarKind::Local,
                            proc: id,
                            line: *line,
                        })?;
                        locals.push(vid);
                    }
                }
                AstDecl::Common { block, vars, line } => {
                    let cid = match self.common_ids.get(block) {
                        Some(&c) => c,
                        None => {
                            let c = CommonId(self.commons.len() as u32);
                            self.commons.push(CommonBlock {
                                name: block.clone(),
                                size: 0,
                                views: Vec::new(),
                            });
                            self.common_ids.insert(block.clone(), c);
                            c
                        }
                    };
                    let mut offset = 0i64;
                    let mut members = Vec::new();
                    for (vty, name, dims) in vars {
                        let mut exts = Vec::new();
                        let mut size = 1i64;
                        for e in dims {
                            let ext = self.resolve_extent(e, *line)?;
                            let Extent::Const(c) = ext else {
                                return err(
                                    *line,
                                    format!("common member `{name}` must have constant extents"),
                                );
                            };
                            size = size.saturating_mul(c);
                            exts.push(ext);
                        }
                        let vid = self.add_var(VarInfo {
                            name: name.clone(),
                            ty: conv_ty(*vty),
                            dims: exts,
                            kind: VarKind::Common { block: cid, offset },
                            proc: id,
                            line: *line,
                        })?;
                        members.push(vid);
                        common_vars.push(vid);
                        offset = offset.saturating_add(size);
                    }
                    let blk = &mut self.commons[cid.0 as usize];
                    blk.size = blk.size.max(offset);
                    blk.views.push(CommonView { proc: id, members });
                }
            }
        }

        let body = self.resolve_body(&p.body)?;
        let nparams = params.len();
        Ok(Procedure {
            id,
            name: p.name.clone(),
            params,
            locals,
            common_vars,
            body,
            line: p.line,
            end_line: p.end_line,
            modified_params: vec![false; nparams],
        })
    }

    fn resolve_extent(&self, e: &AstExpr, line: u32) -> Result<Extent, SemaError> {
        match e {
            AstExpr::Int(v) => Ok(Extent::Const(*v)),
            AstExpr::Ref(r) if r.subs.is_empty() => {
                if let Some(&c) = self.consts.get(&r.name) {
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
                let Some(&pid) = self.proc_ids.get(callee) else {
                    return err(*line, format!("unknown procedure `{callee}`"));
                };
                let formals: Vec<(Type, bool)> = self.ast.procs[pid.0 as usize]
                    .params
                    .iter()
                    .map(|p| (conv_ty(p.ty), !p.dims.is_empty()))
                    .collect();
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
                for (a, (fty, f_is_array)) in args.iter().zip(&formals) {
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
        if self.consts.contains_key(&r.name) {
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
                if r.subs.is_empty() && !self.consts.contains_key(&r.name) {
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
                    if let Some(&c) = self.consts.get(&r.name) {
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
