//! Unresolved (name-based) abstract syntax tree produced by the parser.
//!
//! The [`crate::sema`] pass resolves names to ids and produces the checked
//! [`crate::program::Program`].  Every name borrows its text from the
//! source, so building and dropping a tree allocates no strings.

/// A whole source file.
#[derive(Debug, Clone)]
pub struct AstProgram<'a> {
    /// Program name (from `program <name>`).
    pub name: &'a str,
    /// Program-level named integer constants (`const n = 450`).
    pub consts: Vec<AstConst<'a>>,
    /// Procedures in source order.
    pub procs: Vec<AstProc<'a>>,
}

/// `const name = value`.
#[derive(Debug, Clone)]
pub struct AstConst<'a> {
    /// Constant name.
    pub name: &'a str,
    /// Constant value.
    pub value: i64,
    /// Source line.
    pub line: u32,
}

/// A procedure (Fortran SUBROUTINE analogue).
#[derive(Debug, Clone)]
pub struct AstProc<'a> {
    /// Procedure name.
    pub name: &'a str,
    /// Formal parameters.
    pub params: Vec<AstParam<'a>>,
    /// Local / common declarations.
    pub decls: Vec<AstDecl<'a>>,
    /// Body statements.
    pub body: Vec<AstStmt<'a>>,
    /// Line of the `proc` keyword.
    pub line: u32,
    /// Line of the closing brace.
    pub end_line: u32,
}

/// Scalar or array type of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Real,
}

/// A formal parameter: `real a[*]`, `real a[n, m]`, `int k`.
#[derive(Debug, Clone)]
pub struct AstParam<'a> {
    /// Parameter name.
    pub name: &'a str,
    /// Element type.
    pub ty: AstType,
    /// Array extents; empty for scalars.  `None` entries are `*` (assumed
    /// size, only allowed in the last dimension).
    pub dims: Vec<Option<AstExpr<'a>>>,
    /// Source line.
    pub line: u32,
}

/// A declaration inside a procedure.
#[derive(Debug, Clone)]
pub enum AstDecl<'a> {
    /// `real x`, `int a[10, n]` — local variable.
    Local {
        /// Element type.
        ty: AstType,
        /// Declared names with extents (empty extents = scalar).
        vars: Vec<(&'a str, Vec<AstExpr<'a>>)>,
        /// Source line.
        line: u32,
    },
    /// `common /blk/ real a[10], int k` — this procedure's view of a block.
    Common {
        /// Block name.
        block: &'a str,
        /// Member declarations in layout order.
        vars: Vec<(AstType, &'a str, Vec<AstExpr<'a>>)>,
        /// Source line.
        line: u32,
    },
}

/// A statement.
#[derive(Debug, Clone)]
pub enum AstStmt<'a> {
    /// `lhs = rhs`.
    Assign {
        /// Left-hand side reference.
        lhs: AstRef<'a>,
        /// Right-hand side expression.
        rhs: AstExpr<'a>,
        /// Source line.
        line: u32,
    },
    /// `if cond { .. } else { .. }`.
    If {
        /// Condition.
        cond: AstExpr<'a>,
        /// Then branch.
        then_body: Vec<AstStmt<'a>>,
        /// Else branch (possibly empty).
        else_body: Vec<AstStmt<'a>>,
        /// Source line.
        line: u32,
    },
    /// `do [label] v = lo, hi[, step] { .. }`.
    Do {
        /// Optional numeric label (`do 100 i = ..`).
        label: Option<u32>,
        /// Induction variable name.
        var: &'a str,
        /// Lower bound.
        lo: AstExpr<'a>,
        /// Upper bound (inclusive, Fortran style).
        hi: AstExpr<'a>,
        /// Optional step (default 1).
        step: Option<AstExpr<'a>>,
        /// Loop body.
        body: Vec<AstStmt<'a>>,
        /// Source line of the `do`.
        line: u32,
        /// Source line of the closing brace.
        end_line: u32,
    },
    /// `call p(a, b[k], x + 1)`.
    Call {
        /// Callee name.
        callee: &'a str,
        /// Actual arguments.
        args: Vec<AstExpr<'a>>,
        /// Source line.
        line: u32,
    },
    /// `print e1, e2` — I/O side effect.
    Print {
        /// Values to print.
        args: Vec<AstExpr<'a>>,
        /// Source line.
        line: u32,
    },
    /// `read lhs` — consume one input value.
    Read {
        /// Destination reference.
        lhs: AstRef<'a>,
        /// Source line.
        line: u32,
    },
}

/// A reference (assignable location).
#[derive(Debug, Clone)]
pub struct AstRef<'a> {
    /// Variable name.
    pub name: &'a str,
    /// Subscripts; empty for scalar references.
    pub subs: Vec<AstExpr<'a>>,
    /// Source line.
    pub line: u32,
}

/// An expression.
#[derive(Debug, Clone)]
pub enum AstExpr<'a> {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Variable or array reference (empty subs = scalar or whole array in
    /// call-argument position; sema decides).
    Ref(AstRef<'a>),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        arg: Box<AstExpr<'a>>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<AstExpr<'a>>,
        /// Right operand.
        rhs: Box<AstExpr<'a>>,
    },
    /// Intrinsic call: `min(a, b)`, `sqrt(x)`, …
    Intrinsic {
        /// Which intrinsic.
        which: Intrinsic,
        /// Arguments.
        args: Vec<AstExpr<'a>>,
    },
}

impl AstExpr<'_> {
    /// Source line of the leftmost token, if known.
    pub fn line(&self) -> Option<u32> {
        match self {
            AstExpr::Ref(r) => Some(r.line),
            AstExpr::Unary { arg, .. } => arg.line(),
            AstExpr::Binary { lhs, .. } => lhs.line(),
            AstExpr::Intrinsic { args, .. } => args.first().and_then(|a| a.line()),
            _ => None,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (Fortran `MOD` on integers)
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Intrinsic functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrinsic {
    /// 2-argument minimum.
    Min,
    /// 2-argument maximum.
    Max,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// `mod(a, b)`.
    Mod,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Truncate real to int.
    Ifix,
    /// Convert int to real.
    Float,
}

impl Intrinsic {
    /// Look up by name.
    pub fn from_name(s: &str) -> Option<Intrinsic> {
        Some(match s {
            "min" => Intrinsic::Min,
            "max" => Intrinsic::Max,
            "abs" => Intrinsic::Abs,
            "sqrt" => Intrinsic::Sqrt,
            "mod" => Intrinsic::Mod,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "ifix" => Intrinsic::Ifix,
            "float" => Intrinsic::Float,
            _ => return None,
        })
    }

    /// Expected argument count.
    pub fn arity(&self) -> usize {
        match self {
            Intrinsic::Min | Intrinsic::Max | Intrinsic::Mod => 2,
            _ => 1,
        }
    }
}
