//! Recursive-descent parser for MiniF.

use crate::ast::*;
use crate::token::{Keyword, Punct, Token, TokenKind};
use std::fmt;

/// A syntax error.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Description.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Deepest statement nesting the parser accepts, `if` and `do` combined
/// (an `else if` nests one more).  Every later layer recurses through the
/// statement tree, so this bounds their stack use.
pub const MAX_STMT_DEPTH: u32 = 64;

/// Highest expression the parser accepts, as the height of its tree.  A
/// bare operand is one level; each operator (unary or binary), parenthesis,
/// subscript and intrinsic argument list adds a level over its highest
/// operand.  So `1 + 1 + … + 1` is a left-deep tree as high as its operator
/// count with no parentheses at all, and `(x + 1 + 1) + 1` is as high as
/// its operators and parentheses together.
pub const MAX_EXPR_DEPTH: u32 = 128;

/// Most procedures a program may have.  The analysis gives each procedure
/// its own block of fresh symbols, and this many blocks fit its symbol
/// space (`suif_analysis::context` checks that at compile time).
pub const MAX_PROCS: usize = 1024;

/// Parse a token stream into an [`AstProgram`].
pub fn parse(tokens: &[Token]) -> Result<AstProgram, ParseError> {
    Parser {
        tokens,
        pos: 0,
        depth: [0; 2],
    }
    .program()
}

/// What a [`Parser::nested`] level counts.
#[derive(Clone, Copy)]
enum Nest {
    /// `if` and `do` statements.
    Stmt,
    /// Expressions the parser is inside of.
    Expr,
}

impl Nest {
    /// The deepest level allowed, and what the refusal calls the levels.
    fn limit(self) -> (u32, &'static str) {
        match self {
            Nest::Stmt => (MAX_STMT_DEPTH, "statements"),
            Nest::Expr => (MAX_EXPR_DEPTH, "expression"),
        }
    }

    fn too_deep<T>(self, line: u32) -> Result<T, ParseError> {
        let (limit, what) = self.limit();
        Err(ParseError {
            message: format!("{what} nested deeper than {limit} levels"),
            line,
        })
    }
}

/// An expression and the height of its tree (see [`MAX_EXPR_DEPTH`]).
type Tree = (AstExpr, u32);

/// Precedence of the comparisons, the one non-associative level.
const CMP_PREC: u8 = 2;

/// A binary operator token and its precedence, loosest first.
fn binop(t: &TokenKind) -> Option<(BinOp, u8)> {
    let TokenKind::Punct(p) = t else {
        return None;
    };
    Some(match p {
        Punct::OrOr => (BinOp::Or, 0),
        Punct::AndAnd => (BinOp::And, 1),
        Punct::Lt => (BinOp::Lt, CMP_PREC),
        Punct::Le => (BinOp::Le, CMP_PREC),
        Punct::Gt => (BinOp::Gt, CMP_PREC),
        Punct::Ge => (BinOp::Ge, CMP_PREC),
        Punct::EqEq => (BinOp::Eq, CMP_PREC),
        Punct::Ne => (BinOp::Ne, CMP_PREC),
        Punct::Plus => (BinOp::Add, 3),
        Punct::Minus => (BinOp::Sub, 3),
        Punct::Star => (BinOp::Mul, 4),
        Punct::Slash => (BinOp::Div, 4),
        Punct::Percent => (BinOp::Rem, 4),
        _ => return None,
    })
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Levels of each [`Nest`] enclosing the current token.
    depth: [u32; 2],
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn prev_line(&self) -> u32 {
        self.tokens[self.pos.saturating_sub(1)].line
    }

    fn bump(&mut self) -> &TokenKind {
        let t = &self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
        })
    }

    /// Run `f` one `nest` level deeper, refusing the level past the limit.
    /// This bounds the parser's own recursion; [`Parser::raise`] bounds the
    /// height of the expression trees it builds.
    fn nested<T>(
        &mut self,
        nest: Nest,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let level = &mut self.depth[nest as usize];
        if *level == nest.limit().0 {
            return nest.too_deep(self.line());
        }
        *level += 1;
        let out = f(self);
        self.depth[nest as usize] -= 1;
        out
    }

    /// The height of a node over operands at most `height` high, refused
    /// past [`MAX_EXPR_DEPTH`] on the line the operands end on.
    fn raise(&self, height: u32) -> Result<u32, ParseError> {
        if height >= MAX_EXPR_DEPTH {
            return Nest::Expr.too_deep(self.prev_line());
        }
        Ok(height + 1)
    }

    fn eat_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.peek() == &TokenKind::Punct(p) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{p:?}`, found {}", self.peek()))
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> Result<(), ParseError> {
        if self.peek() == &TokenKind::Kw(k) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{k:?}`, found {}", self.peek()))
        }
    }

    fn at_punct(&self, p: Punct) -> bool {
        self.peek() == &TokenKind::Punct(p)
    }

    fn eat_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn program(&mut self) -> Result<AstProgram, ParseError> {
        self.eat_kw(Keyword::Program)?;
        let name = self.eat_ident()?;
        let mut consts = Vec::new();
        let mut procs = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Kw(Keyword::Const) => {
                    let line = self.line();
                    self.bump();
                    let cname = self.eat_ident()?;
                    self.eat_punct(Punct::Assign)?;
                    let neg = if self.at_punct(Punct::Minus) {
                        self.bump();
                        true
                    } else {
                        false
                    };
                    let value = match self.peek().clone() {
                        TokenKind::Int(v) => {
                            self.bump();
                            if neg {
                                -v
                            } else {
                                v
                            }
                        }
                        other => return self.err(format!("expected integer, found {other}")),
                    };
                    consts.push(AstConst {
                        name: cname,
                        value,
                        line,
                    });
                }
                TokenKind::Kw(Keyword::Proc) => {
                    if procs.len() == MAX_PROCS {
                        return self.err(format!("more than {MAX_PROCS} procedures"));
                    }
                    procs.push(self.proc()?)
                }
                TokenKind::Eof => break,
                other => return self.err(format!("expected `proc` or `const`, found {other}")),
            }
        }
        Ok(AstProgram {
            name,
            consts,
            procs,
        })
    }

    fn ty(&mut self) -> Result<AstType, ParseError> {
        match self.peek() {
            TokenKind::Kw(Keyword::Real) => {
                self.bump();
                Ok(AstType::Real)
            }
            TokenKind::Kw(Keyword::Int) => {
                self.bump();
                Ok(AstType::Int)
            }
            other => self.err(format!("expected type, found {other}")),
        }
    }

    fn proc(&mut self) -> Result<AstProc, ParseError> {
        let line = self.line();
        self.eat_kw(Keyword::Proc)?;
        let name = self.eat_ident()?;
        self.eat_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.at_punct(Punct::RParen) {
            loop {
                let pline = self.line();
                let ty = self.ty()?;
                let pname = self.eat_ident()?;
                let mut dims = Vec::new();
                if self.at_punct(Punct::LBracket) {
                    self.bump();
                    loop {
                        if self.at_punct(Punct::Star) {
                            self.bump();
                            dims.push(None);
                        } else {
                            dims.push(Some(self.expr()?));
                        }
                        if self.at_punct(Punct::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.eat_punct(Punct::RBracket)?;
                }
                params.push(AstParam {
                    name: pname,
                    ty,
                    dims,
                    line: pline,
                });
                if self.at_punct(Punct::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat_punct(Punct::RParen)?;
        self.eat_punct(Punct::LBrace)?;
        let mut decls = Vec::new();
        // Declarations must precede statements (Fortran style).
        loop {
            match self.peek() {
                TokenKind::Kw(Keyword::Real) | TokenKind::Kw(Keyword::Int) => {
                    let dline = self.line();
                    let ty = self.ty()?;
                    let mut vars = Vec::new();
                    loop {
                        let vname = self.eat_ident()?;
                        let dims = self.opt_dims()?.0;
                        vars.push((vname, dims));
                        if self.at_punct(Punct::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    decls.push(AstDecl::Local {
                        ty,
                        vars,
                        line: dline,
                    });
                }
                TokenKind::Kw(Keyword::Common) => {
                    let dline = self.line();
                    self.bump();
                    self.eat_punct(Punct::Slash)?;
                    let block = self.eat_ident()?;
                    self.eat_punct(Punct::Slash)?;
                    let mut vars = Vec::new();
                    let mut prev_ty: Option<AstType> = None;
                    loop {
                        // Fortran-style type distribution: after a typed
                        // member, later members may omit the type
                        // (`common /c/ real a[3], b[3]`).
                        let vty = if matches!(
                            self.peek(),
                            TokenKind::Kw(Keyword::Real) | TokenKind::Kw(Keyword::Int)
                        ) {
                            self.ty()?
                        } else if let Some(t) = prev_ty {
                            t
                        } else {
                            self.ty()? // first member must be typed: error here
                        };
                        prev_ty = Some(vty);
                        let vname = self.eat_ident()?;
                        let dims = self.opt_dims()?.0;
                        vars.push((vty, vname, dims));
                        if self.at_punct(Punct::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    decls.push(AstDecl::Common {
                        block,
                        vars,
                        line: dline,
                    });
                }
                _ => break,
            }
        }
        let body = self.block_body()?;
        let end_line = self.prev_line();
        Ok(AstProc {
            name,
            params,
            decls,
            body,
            line,
            end_line,
        })
    }

    /// Optional `[…]` subscripts (or dimensions), and their height.
    fn opt_dims(&mut self) -> Result<(Vec<AstExpr>, u32), ParseError> {
        if !self.at_punct(Punct::LBracket) {
            return Ok((Vec::new(), 0));
        }
        self.bump();
        let dims = self.expr_list()?;
        self.eat_punct(Punct::RBracket)?;
        Ok(dims)
    }

    /// A parenthesized, possibly empty argument list, and its height.
    fn args(&mut self) -> Result<(Vec<AstExpr>, u32), ParseError> {
        self.eat_punct(Punct::LParen)?;
        let args = if self.at_punct(Punct::RParen) {
            (Vec::new(), 0)
        } else {
            self.expr_list()?
        };
        self.eat_punct(Punct::RParen)?;
        Ok(args)
    }

    /// Comma-separated expressions, and the height of the highest.
    fn expr_list(&mut self) -> Result<(Vec<AstExpr>, u32), ParseError> {
        let (mut list, mut height) = (Vec::new(), 0);
        loop {
            let (e, h) = self.expr_tree()?;
            list.push(e);
            height = height.max(h);
            if !self.at_punct(Punct::Comma) {
                return Ok((list, height));
            }
            self.bump();
        }
    }

    /// Parse statements up to (and consuming) a closing `}`.
    fn block_body(&mut self) -> Result<Vec<AstStmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            if self.at_punct(Punct::RBrace) {
                self.bump();
                return Ok(out);
            }
            if self.peek() == &TokenKind::Eof {
                return self.err("unexpected end of input inside block");
            }
            out.push(self.stmt()?);
        }
    }

    fn stmt(&mut self) -> Result<AstStmt, ParseError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Kw(Keyword::If) => self.nested(Nest::Stmt, |p| p.if_stmt(line)),
            TokenKind::Kw(Keyword::Do) => self.nested(Nest::Stmt, |p| p.do_stmt(line)),
            TokenKind::Kw(Keyword::Call) => {
                self.bump();
                let callee = self.eat_ident()?;
                let args = self.args()?.0;
                Ok(AstStmt::Call { callee, args, line })
            }
            TokenKind::Kw(Keyword::Print) => {
                self.bump();
                let args = self.expr_list()?.0;
                Ok(AstStmt::Print { args, line })
            }
            TokenKind::Kw(Keyword::Read) => {
                self.bump();
                let lhs = self.reference()?;
                Ok(AstStmt::Read { lhs, line })
            }
            TokenKind::Ident(_) => {
                let lhs = self.reference()?;
                self.eat_punct(Punct::Assign)?;
                let rhs = self.expr()?;
                Ok(AstStmt::Assign { lhs, rhs, line })
            }
            other => self.err(format!("expected statement, found {other}")),
        }
    }

    fn if_stmt(&mut self, line: u32) -> Result<AstStmt, ParseError> {
        self.bump();
        let cond = self.expr()?;
        self.eat_punct(Punct::LBrace)?;
        let then_body = self.block_body()?;
        let else_body = if self.peek() == &TokenKind::Kw(Keyword::Else) {
            self.bump();
            if self.peek() == &TokenKind::Kw(Keyword::If) {
                // else-if chains desugar to a single-statement else.
                vec![self.stmt()?]
            } else {
                self.eat_punct(Punct::LBrace)?;
                self.block_body()?
            }
        } else {
            Vec::new()
        };
        Ok(AstStmt::If {
            cond,
            then_body,
            else_body,
            line,
        })
    }

    fn do_stmt(&mut self, line: u32) -> Result<AstStmt, ParseError> {
        self.bump();
        let label = match self.peek() {
            TokenKind::Int(v) => {
                let v = *v;
                self.bump();
                Some(v as u32)
            }
            _ => None,
        };
        let var = self.eat_ident()?;
        self.eat_punct(Punct::Assign)?;
        let lo = self.expr()?;
        self.eat_punct(Punct::Comma)?;
        let hi = self.expr()?;
        let step = if self.at_punct(Punct::Comma) {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        self.eat_punct(Punct::LBrace)?;
        let body = self.block_body()?;
        let end_line = self.prev_line();
        Ok(AstStmt::Do {
            label,
            var,
            lo,
            hi,
            step,
            body,
            line,
            end_line,
        })
    }

    fn reference(&mut self) -> Result<AstRef, ParseError> {
        let line = self.line();
        let name = self.eat_ident()?;
        let subs = self.opt_dims()?.0;
        Ok(AstRef { name, subs, line })
    }

    fn expr(&mut self) -> Result<AstExpr, ParseError> {
        Ok(self.expr_tree()?.0)
    }

    /// A whole expression: one level over its operators.
    fn expr_tree(&mut self) -> Result<Tree, ParseError> {
        let (e, height) = self.nested(Nest::Expr, |p| p.binary(0))?;
        Ok((e, self.raise(height)?))
    }

    /// Operators binding at precedence `min` or tighter, by precedence
    /// climbing.  All are left-associative except the comparisons, which
    /// do not chain.  The loop builds the left-deep tree without recursing,
    /// so only its height, checked at every operator, bounds it.
    fn binary(&mut self, min: u8) -> Result<Tree, ParseError> {
        let (mut lhs, mut height) = self.unary_expr()?;
        let mut last = u8::MAX;
        while let Some((op, prec)) = binop(self.peek()) {
            // An operand stops only at a looser operator or at a second
            // comparison, so `prec > last` is a comparison chained behind
            // a looser one (`a && b < c < d`): left for the caller to refuse.
            if prec < min || prec > last || (prec == last && prec == CMP_PREC) {
                break;
            }
            self.bump();
            let (rhs, rhs_height) = self.binary(prec + 1)?;
            height = self.raise(height.max(rhs_height))?;
            lhs = AstExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            last = prec;
        }
        Ok((lhs, height))
    }

    fn unary_expr(&mut self) -> Result<Tree, ParseError> {
        let op = match self.peek() {
            TokenKind::Punct(Punct::Minus) => UnaryOp::Neg,
            TokenKind::Punct(Punct::Not) => UnaryOp::Not,
            _ => return self.primary_expr(),
        };
        self.bump();
        let (arg, height) = self.nested(Nest::Expr, Self::unary_expr)?;
        let arg = Box::new(arg);
        Ok((AstExpr::Unary { op, arg }, self.raise(height)?))
    }

    fn primary_expr(&mut self) -> Result<Tree, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok((AstExpr::Int(v), 0))
            }
            TokenKind::Real(v) => {
                self.bump();
                Ok((AstExpr::Real(v), 0))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expr_tree()?;
                self.eat_punct(Punct::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                let line = self.line();
                self.bump();
                // Intrinsic call?
                if self.at_punct(Punct::LParen) {
                    let Some(which) = Intrinsic::from_name(&name) else {
                        return self.err(format!(
                            "`{name}(` — only intrinsics may be called in expressions \
                             (procedures use `call`)"
                        ));
                    };
                    let (args, height) = self.args()?;
                    if args.len() != which.arity() {
                        return self.err(format!(
                            "intrinsic `{name}` expects {} argument(s), got {}",
                            which.arity(),
                            args.len()
                        ));
                    }
                    return Ok((AstExpr::Intrinsic { which, args }, height));
                }
                let (subs, height) = self.opt_dims()?;
                Ok((AstExpr::Ref(AstRef { name, subs, line }), height))
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_ok(src: &str) -> AstProgram {
        parse(&lex(src).unwrap()).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"))
    }

    #[test]
    fn parses_minimal_program() {
        let p = parse_ok("program t\nproc main() { }");
        assert_eq!(p.name, "t");
        assert_eq!(p.procs.len(), 1);
        assert!(p.procs[0].body.is_empty());
    }

    #[test]
    fn parses_decls_and_loop() {
        let p = parse_ok(
            "program t\nproc main() {\n real a[10], b\n int i\n do 100 i = 1, 10 {\n a[i] = b + 1\n }\n}",
        );
        let main = &p.procs[0];
        assert_eq!(main.decls.len(), 2);
        match &main.body[0] {
            AstStmt::Do {
                label, var, body, ..
            } => {
                assert_eq!(*label, Some(100));
                assert_eq!(var, "i");
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected do, got {other:?}"),
        }
    }

    #[test]
    fn common_type_distributes_over_members() {
        let p = parse_ok(
            "program t\nproc f() {\n common /blk/ real x[10], y[10], int n, m\n x[1] = y[2] + n + m\n}",
        );
        match &p.procs[0].decls[0] {
            AstDecl::Common { vars, .. } => {
                assert_eq!(vars.len(), 4);
                assert_eq!(vars[0].0, AstType::Real);
                assert_eq!(vars[1].0, AstType::Real);
                assert_eq!(vars[2].0, AstType::Int);
                assert_eq!(vars[3].0, AstType::Int);
            }
            other => panic!("expected common, got {other:?}"),
        }
    }

    #[test]
    fn parses_common_blocks() {
        let p = parse_ok("program t\nproc f() {\n common /blk/ real x[10], int n\n x[1] = n\n}");
        match &p.procs[0].decls[0] {
            AstDecl::Common { block, vars, .. } => {
                assert_eq!(block, "blk");
                assert_eq!(vars.len(), 2);
            }
            other => panic!("expected common, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chain() {
        let p = parse_ok(
            "program t\nproc f() {\n int n\n if n < 1 { n = 1 } else if n < 2 { n = 2 } else { n = 3 }\n}",
        );
        match &p.procs[0].body[0] {
            AstStmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], AstStmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_call_with_subarray_arg() {
        let p = parse_ok(
            "program t\nproc f(real a[*], int n) { }\nproc g() {\n real b[20]\n int k\n k = 5\n call f(b[k], 10)\n}",
        );
        match &p.procs[1].body[1] {
            AstStmt::Call { callee, args, .. } => {
                assert_eq!(callee, "f");
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_ok("program t\nproc f() {\n real x\n x = 1 + 2 * 3\n}");
        match &p.procs[0].body[0] {
            AstStmt::Assign { rhs, .. } => match rhs {
                AstExpr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(**rhs, AstExpr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("expected add at top, got {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    /// Fully parenthesized rendering of an expression's tree.
    fn shape(e: &AstExpr) -> String {
        match e {
            AstExpr::Binary { op, lhs, rhs } => format!("({} {op:?} {})", shape(lhs), shape(rhs)),
            AstExpr::Unary { op, arg } => format!("({op:?} {})", shape(arg)),
            AstExpr::Ref(r) => r.name.clone(),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn operators_bind_and_associate_by_precedence() {
        let p = parse_ok(
            "program t\nproc f() {\n int a, b, c, d\n a = a - b - c * d % a + -b\n \
             b = a < b + c && c >= d || !a == b && c != d\n}",
        );
        let rhs: Vec<String> = p.procs[0]
            .body
            .iter()
            .map(|s| match s {
                AstStmt::Assign { rhs, .. } => shape(rhs),
                other => panic!("expected assignment, got {other:?}"),
            })
            .collect();
        assert_eq!(
            rhs,
            [
                "(((a Sub b) Sub ((c Mul d) Rem a)) Add (Neg b))",
                "(((a Lt (b Add c)) And (c Ge d)) Or (((Not a) Eq b) And (c Ne d)))",
            ]
        );
        // Comparisons do not chain, not even behind a looser operator.
        for bad in ["a < b < c", "a && b < c < d"] {
            let src = format!("program t\nproc f() {{\n int a, b, c, d\n a = {bad}\n}}");
            assert!(parse(&lex(&src).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_refused_one_level_past_each_limit() {
        let at = |depth: u32| -> Vec<String> {
            let n = depth as usize - 1; // the right-hand side is level 1
            let (pairs, odd) = (n / 2, " + 1".repeat(n % 2));
            vec![
                format!("x = {}x{}", "(".repeat(n), ")".repeat(n)),
                format!("x = x{}", " + 1".repeat(n)),
                format!("x = {}x", "- ".repeat(n)),
                format!("x = {}x{}", "abs(".repeat(n), ")".repeat(n)),
                format!("x = {}k{}", "p[".repeat(n), "]".repeat(n)),
                // A parenthesis and an operator per pair: the operators
                // over each left operand count as much as those beside it.
                format!("x = {}x{}{odd}", "(".repeat(pairs), ") + 1".repeat(pairs)),
            ]
        };
        let program =
            |body: &str| format!("program t\nproc f() {{\n real x\n int k, p[4]\n{body}\n}}");
        for (ok, too_deep) in at(MAX_EXPR_DEPTH).iter().zip(at(MAX_EXPR_DEPTH + 1)) {
            parse_ok(&program(ok));
            let err = parse(&lex(&program(&too_deep)).unwrap()).unwrap_err();
            assert_eq!(err.line, 5, "{err}");
            assert!(err.message.contains("expression nested deeper"), "{err}");
        }
        for open in ["if k == 0 {\n", "do k = 1, 2 {\n"] {
            let nest = |n: usize| program(&format!("{}k = 1\n{}", open.repeat(n), "}\n".repeat(n)));
            parse_ok(&nest(MAX_STMT_DEPTH as usize));
            let err = parse(&lex(&nest(MAX_STMT_DEPTH as usize + 1)).unwrap()).unwrap_err();
            assert_eq!(err.line, 5 + MAX_STMT_DEPTH, "{err}");
            assert!(err.message.contains("statements nested deeper"), "{err}");
        }
    }

    #[test]
    fn procedures_are_refused_one_past_the_limit() {
        // `main` on line 2, then one procedure per line.
        let program = |n: usize| {
            let procs: String = (1..n).map(|k| format!("proc p{k}() {{ }}\n")).collect();
            format!("program t\nproc main() {{ }}\n{procs}")
        };
        assert_eq!(parse_ok(&program(MAX_PROCS)).procs.len(), MAX_PROCS);
        let err = parse(&lex(&program(MAX_PROCS + 1)).unwrap()).unwrap_err();
        assert_eq!(err.line, MAX_PROCS as u32 + 2, "{err}");
        assert_eq!(err.message, "more than 1024 procedures");
    }

    #[test]
    fn intrinsics_check_arity() {
        let toks = lex("program t\nproc f() {\n real x\n x = min(1)\n}").unwrap();
        assert!(parse(&toks).is_err());
    }

    #[test]
    fn non_intrinsic_call_in_expression_is_rejected() {
        let toks = lex("program t\nproc f() {\n real x\n x = foo(1)\n}").unwrap();
        assert!(parse(&toks).is_err());
    }

    #[test]
    fn parses_step_and_read_print() {
        let p = parse_ok(
            "program t\nproc main() {\n int i, n\n read n\n do i = n, 1, -1 {\n print i, n\n }\n}",
        );
        assert!(matches!(p.procs[0].body[0], AstStmt::Read { .. }));
        match &p.procs[0].body[1] {
            AstStmt::Do { step, label, .. } => {
                assert!(step.is_some());
                assert!(label.is_none());
            }
            other => panic!("expected do, got {other:?}"),
        }
    }
}
