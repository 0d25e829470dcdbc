//! The resolved, checked program IR.
//!
//! Everything downstream (analyses, slicing, interpreter, parallel runtime)
//! operates on this representation.  All names are resolved to arena ids:
//! [`ProcId`] for procedures, [`VarId`] for variables (globally unique across
//! the program, so common-block views in different procedures get distinct
//! ids that are related through [`CommonBlock`] layout records), and
//! [`StmtId`] for statements.

use crate::ast::{BinOp, Intrinsic, UnaryOp};
use std::collections::BTreeMap;
use std::fmt;

/// Procedure id: index into [`Program::procedures`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub u32);

/// Variable id: index into [`Program::vars`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

/// Statement id: globally unique, depth-first pre-order within procedures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StmtId(pub u32);

/// Common-block id: index into [`Program::commons`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CommonId(pub u32);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}
impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}
impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Element type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Real,
}

/// One declared array extent.
#[derive(Clone, PartialEq, Debug)]
pub enum Extent {
    /// Compile-time constant extent.
    Const(i64),
    /// Adjustable extent given by an integer scalar (parameter) in scope.
    Var(VarId),
    /// Assumed size (`[*]`), allowed only in the last dimension of formals.
    Star,
}

/// How a variable is stored / bound.
#[derive(Clone, PartialEq, Debug)]
pub enum VarKind {
    /// Procedure-local variable.
    Local,
    /// The `index`-th formal parameter of its procedure.
    Param {
        /// Zero-based position in the parameter list.
        index: usize,
    },
    /// A member of a common block, at `offset` elements from block start.
    Common {
        /// Which block.
        block: CommonId,
        /// Element offset of this member within the block.
        offset: i64,
    },
}

/// Variable metadata.
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// Source name.
    pub name: String,
    /// Element type.
    pub ty: Type,
    /// Array extents; empty for scalars.
    pub dims: Vec<Extent>,
    /// Storage binding.
    pub kind: VarKind,
    /// Owning procedure.
    pub proc: ProcId,
    /// Declaration line.
    pub line: u32,
}

impl VarInfo {
    /// True for array variables.
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }

    /// Total constant size in elements, if all extents are constants.
    pub fn const_size(&self) -> Option<i64> {
        let mut n = 1i64;
        for d in &self.dims {
            match d {
                Extent::Const(c) => n = n.checked_mul(*c)?,
                _ => return None,
            }
        }
        Some(n)
    }
}

/// One procedure's view of a common block.
#[derive(Clone, Debug)]
pub struct CommonView {
    /// Declaring procedure.
    pub proc: ProcId,
    /// Members in layout order (their [`VarKind::Common`] offsets are
    /// consistent with this order).
    pub members: Vec<VarId>,
}

/// A common block with all its per-procedure views.
#[derive(Clone, Debug)]
pub struct CommonBlock {
    /// Block name.
    pub name: String,
    /// Total size in elements (max over views).
    pub size: i64,
    /// All views.
    pub views: Vec<CommonView>,
}

/// A reference (assignable location / argument base).
#[derive(Clone, Debug)]
pub enum Ref {
    /// Scalar variable.
    Scalar(VarId),
    /// Array element `a[e1, .., ek]`.
    Element(VarId, Vec<Expr>),
}

impl Ref {
    /// The referenced variable.
    pub fn var(&self) -> VarId {
        match self {
            Ref::Scalar(v) | Ref::Element(v, _) => *v,
        }
    }
}

/// A resolved actual argument.
#[derive(Clone, Debug)]
pub enum Arg {
    /// Whole array passed by reference.
    ArrayWhole(VarId),
    /// Sub-array base `a[e1, .., ek]` passed by reference (Fortran-style
    /// element address; the callee sees a 1-based array starting there).
    ArrayPart {
        /// The array variable.
        var: VarId,
        /// Base element subscripts.
        base: Vec<Expr>,
    },
    /// Scalar variable passed copy-in/copy-out.
    ScalarVar(VarId),
    /// Arbitrary expression passed copy-in only.
    Value(Expr),
}

/// A resolved expression.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Scalar variable read.
    Scalar(VarId),
    /// Array element read.
    Element(VarId, Vec<Expr>),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Intrinsic application.
    Intrinsic(Intrinsic, Vec<Expr>),
}

impl Expr {
    /// Visit every scalar-variable read (including inside subscripts).
    pub fn visit_scalar_reads(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Expr::Scalar(v) => f(*v),
            Expr::Element(_, subs) => {
                for s in subs {
                    s.visit_scalar_reads(f);
                }
            }
            Expr::Unary(_, a) => a.visit_scalar_reads(f),
            Expr::Binary(_, a, b) => {
                a.visit_scalar_reads(f);
                b.visit_scalar_reads(f);
            }
            Expr::Intrinsic(_, args) => {
                for a in args {
                    a.visit_scalar_reads(f);
                }
            }
            _ => {}
        }
    }

    /// Visit every array-element read `(array, subscripts)`.
    pub fn visit_element_reads<'a>(&'a self, f: &mut impl FnMut(VarId, &'a [Expr])) {
        match self {
            Expr::Element(v, subs) => {
                f(*v, subs);
                for s in subs {
                    s.visit_element_reads(f);
                }
            }
            Expr::Unary(_, a) => a.visit_element_reads(f),
            Expr::Binary(_, a, b) => {
                a.visit_element_reads(f);
                b.visit_element_reads(f);
            }
            Expr::Intrinsic(_, args) => {
                for a in args {
                    a.visit_element_reads(f);
                }
            }
            _ => {}
        }
    }
}

/// A resolved statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `lhs = rhs`.
    Assign {
        /// Unique id.
        id: StmtId,
        /// Source line.
        line: u32,
        /// Destination.
        lhs: Ref,
        /// Source expression.
        rhs: Expr,
    },
    /// `if cond { .. } else { .. }`.
    If {
        /// Unique id.
        id: StmtId,
        /// Source line.
        line: u32,
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch.
        else_body: Vec<Stmt>,
    },
    /// `do [label] v = lo, hi [, step] { .. }`.
    Do {
        /// Unique id.
        id: StmtId,
        /// Line of the `do`.
        line: u32,
        /// Line of the closing brace.
        end_line: u32,
        /// Optional numeric label.
        label: Option<u32>,
        /// Induction variable.
        var: VarId,
        /// Lower bound.
        lo: Expr,
        /// Upper bound (inclusive).
        hi: Expr,
        /// Step (`None` = 1).
        step: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Procedure call.
    Call {
        /// Unique id.
        id: StmtId,
        /// Source line.
        line: u32,
        /// Callee.
        callee: ProcId,
        /// Actual arguments.
        args: Vec<Arg>,
    },
    /// `print e1, ..` (I/O).
    Print {
        /// Unique id.
        id: StmtId,
        /// Source line.
        line: u32,
        /// Printed values.
        args: Vec<Expr>,
    },
    /// `read lhs` (I/O).
    Read {
        /// Unique id.
        id: StmtId,
        /// Source line.
        line: u32,
        /// Destination.
        lhs: Ref,
    },
}

impl Stmt {
    /// This statement's id.
    pub fn id(&self) -> StmtId {
        match self {
            Stmt::Assign { id, .. }
            | Stmt::If { id, .. }
            | Stmt::Do { id, .. }
            | Stmt::Call { id, .. }
            | Stmt::Print { id, .. }
            | Stmt::Read { id, .. } => *id,
        }
    }

    /// This statement's source line.
    pub fn line(&self) -> u32 {
        match self {
            Stmt::Assign { line, .. }
            | Stmt::If { line, .. }
            | Stmt::Do { line, .. }
            | Stmt::Call { line, .. }
            | Stmt::Print { line, .. }
            | Stmt::Read { line, .. } => *line,
        }
    }
}

/// A resolved procedure.
#[derive(Clone, Debug)]
pub struct Procedure {
    /// Id (index into [`Program::procedures`]).
    pub id: ProcId,
    /// Name.
    pub name: String,
    /// Formal parameters in order.
    pub params: Vec<VarId>,
    /// Local variables (excluding params and common members).
    pub locals: Vec<VarId>,
    /// Common-block members visible here.
    pub common_vars: Vec<VarId>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// `proc` keyword line.
    pub line: u32,
    /// Closing-brace line.
    pub end_line: u32,
    /// Per-parameter: may the procedure (transitively) modify it?  Drives
    /// copy-out for scalar arguments (Fortran by-reference semantics) and
    /// the analyses' mod/ref mapping at call sites.
    pub modified_params: Vec<bool>,
}

impl Procedure {
    /// All variables in scope in this procedure.
    pub fn all_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.params
            .iter()
            .chain(self.locals.iter())
            .chain(self.common_vars.iter())
            .copied()
    }
}

/// A fully resolved and checked program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Original source text (for the codeview and slicing display).
    pub source: String,
    /// Procedures; index = `ProcId.0`.
    pub procedures: Vec<Procedure>,
    /// Variable arena; index = `VarId.0`.
    pub vars: Vec<VarInfo>,
    /// Common blocks; index = `CommonId.0`.
    pub commons: Vec<CommonBlock>,
    /// Program-level integer constants, by name (so a program's `{:?}`
    /// is the same every time it is built).
    pub consts: BTreeMap<String, i64>,
    /// Entry procedure (`main`).
    pub main: ProcId,
    /// Number of statement ids allocated.
    pub stmt_count: u32,
}

impl Program {
    /// Variable metadata.
    pub fn var(&self, v: VarId) -> &VarInfo {
        &self.vars[v.0 as usize]
    }

    /// Procedure by id.
    pub fn proc(&self, p: ProcId) -> &Procedure {
        &self.procedures[p.0 as usize]
    }

    /// Procedure lookup by name.
    pub fn proc_by_name(&self, name: &str) -> Option<&Procedure> {
        self.procedures.iter().find(|p| p.name == name)
    }

    /// Variable lookup by `proc/name`.
    pub fn var_by_name(&self, proc: &str, name: &str) -> Option<VarId> {
        let p = self.proc_by_name(proc)?;
        p.all_vars().find(|&v| self.var(v).name == name)
    }

    /// Do two variables possibly denote overlapping storage?
    ///
    /// In MiniF (as in Fortran 77, §3.4.2) this happens only through common
    /// blocks: two members of the same block overlap when their element
    /// ranges intersect.  Identical ids trivially overlap.
    pub fn storage_overlaps(&self, a: VarId, b: VarId) -> bool {
        if a == b {
            return true;
        }
        let (va, vb) = (self.var(a), self.var(b));
        let (
            VarKind::Common {
                block: ba,
                offset: oa,
            },
            VarKind::Common {
                block: bb,
                offset: ob,
            },
        ) = (&va.kind, &vb.kind)
        else {
            return false;
        };
        if ba != bb {
            return false;
        }
        let sa = va.const_size().unwrap_or(i64::MAX - oa);
        let sb = vb.const_size().unwrap_or(i64::MAX - ob);
        oa < &(ob + sb) && ob < &(oa + sa)
    }

    /// The distinct common-block *aliases* of `v` in other procedures: all
    /// variables overlapping `v`'s storage, excluding `v` itself.
    pub fn aliases_of(&self, v: VarId) -> Vec<VarId> {
        let VarKind::Common { block, .. } = self.var(v).kind else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for view in &self.commons[block.0 as usize].views {
            for &m in &view.members {
                if m != v && self.storage_overlaps(v, m) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// Iterate over all statements of a procedure in pre-order, with nesting
    /// depth.
    pub fn walk_stmts<'a>(&'a self, proc: ProcId, f: &mut impl FnMut(&'a Stmt, usize)) {
        fn go<'a>(body: &'a [Stmt], depth: usize, f: &mut impl FnMut(&'a Stmt, usize)) {
            for s in body {
                f(s, depth);
                match s {
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        go(then_body, depth + 1, f);
                        go(else_body, depth + 1, f);
                    }
                    Stmt::Do { body, .. } => go(body, depth + 1, f),
                    _ => {}
                }
            }
        }
        go(&self.proc(proc).body, 0, f);
    }

    /// Find a statement by id anywhere in the program.
    pub fn find_stmt(&self, id: StmtId) -> Option<(&Stmt, ProcId)> {
        for p in &self.procedures {
            let mut found = None;
            self.walk_stmts(p.id, &mut |s, _| {
                if s.id() == id {
                    found = Some(s);
                }
            });
            if let Some(s) = found {
                return Some((s, p.id));
            }
        }
        None
    }

    /// Owning procedure of a statement.
    pub fn stmt_proc(&self, id: StmtId) -> Option<ProcId> {
        self.find_stmt(id).map(|(_, p)| p)
    }

    /// Human-readable name for a loop: `proc/label` or `proc/do@line`.
    pub fn loop_name(&self, proc: ProcId, label: Option<u32>, line: u32) -> String {
        match label {
            Some(l) => format!("{}/{}", self.proc(proc).name, l),
            None => format!("{}/do@{}", self.proc(proc).name, line),
        }
    }

    /// Total number of source lines.
    pub fn num_lines(&self) -> u32 {
        self.source.lines().count() as u32
    }
}
