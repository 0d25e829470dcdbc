//! Scalar symbolic analysis (§2.4: "finds loop invariants and induction
//! variables, determines affine relationships between variables, and
//! performs constant propagation").
//!
//! The environment maps every scalar variable to an affine value over
//! *value symbols*.  A value symbol is immutable (SSA-like): `Sym(v.0)`
//! denotes "the value `v` had on entry to the current procedure analysis",
//! and fresh symbols (allocated from [`crate::AnalysisCtx::fresh_sym`])
//! denote unknown values produced by assignments, joins, or calls.  Array
//! sections built from these symbols therefore never confuse two different
//! dynamic values of the same variable.
//!
//! Loop-variance falls out of symbol identity: every symbol allocated while
//! analyzing a loop body (iteration-entry values of modified scalars, the
//! induction symbol, join values) is *varying* with respect to that loop,
//! and the dependence tests rename such symbols per iteration copy.

use crate::context::AnalysisCtx;
use std::collections::HashMap;
use suif_ir::ast::{BinOp, UnaryOp};
use suif_ir::{Expr, VarId};
use suif_poly::{LinExpr, Var};

/// The affine environment.
#[derive(Clone, Debug, Default)]
pub struct SymEnv {
    vals: HashMap<VarId, LinExpr>,
}

impl SymEnv {
    /// Environment at procedure entry: every scalar maps to its own entry
    /// symbol.
    pub fn proc_entry() -> SymEnv {
        SymEnv::default()
    }

    /// Current affine value of a scalar.
    pub fn value_of(&self, v: VarId) -> LinExpr {
        self.vals
            .get(&v)
            .cloned()
            .unwrap_or_else(|| LinExpr::var(AnalysisCtx::sym_of(v)))
    }

    /// Record an assignment `v := val`.
    pub fn assign(&mut self, v: VarId, val: LinExpr) {
        self.vals.insert(v, val);
    }

    /// Forget `v`'s value (assigned something non-affine): bind a fresh
    /// symbol.
    pub fn kill(&mut self, ctx: &AnalysisCtx<'_>, v: VarId) -> Var {
        let s = ctx.fresh_sym();
        self.vals.insert(v, LinExpr::var(s));
        s
    }

    /// Merge two branch environments: variables with differing values get a
    /// fresh join symbol.  Keys are visited in sorted order so the fresh
    /// symbols a merge allocates are deterministic (summaries must be a pure
    /// function of the procedure for the scheduler and summary cache).
    pub fn merge(&mut self, ctx: &AnalysisCtx<'_>, other: &SymEnv) {
        let mut keys: Vec<VarId> = self.vals.keys().chain(other.vals.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        for v in keys {
            let a = self.value_of(v);
            let b = other.value_of(v);
            if a != b {
                self.kill(ctx, v);
            }
        }
    }

    /// Affine value of an expression, if it is affine over the current
    /// environment (constants, scalar reads, `+`, `-`, constant `*`).
    pub fn affine(&self, e: &Expr) -> Option<LinExpr> {
        match e {
            Expr::Int(c) => Some(LinExpr::constant(*c)),
            Expr::Real(_) => None,
            Expr::Scalar(v) => Some(self.value_of(*v)),
            Expr::Element(..) => None,
            Expr::Unary(UnaryOp::Neg, a) => Some(self.affine(a)?.scale(-1)),
            Expr::Unary(UnaryOp::Not, _) => None,
            Expr::Binary(op, a, b) => {
                let (la, lb) = (self.affine(a), self.affine(b));
                match op {
                    BinOp::Add => Some(la?.add(&lb?)),
                    BinOp::Sub => Some(la?.sub(&lb?)),
                    BinOp::Mul => {
                        let la = la?;
                        let lb = lb?;
                        if la.is_constant() {
                            Some(lb.scale(la.constant_part()))
                        } else if lb.is_constant() {
                            Some(la.scale(lb.constant_part()))
                        } else {
                            None
                        }
                    }
                    BinOp::Div => {
                        // Exact constant division only.
                        let la = la?;
                        let lb = lb?;
                        if lb.is_constant() && la.is_constant() {
                            let (x, y) = (la.constant_part(), lb.constant_part());
                            // `checked_*`: `i64::MIN / -1` overflows.
                            if x.checked_rem(y) == Some(0) {
                                return x.checked_div(y).map(LinExpr::constant);
                            }
                        }
                        None
                    }
                    _ => None,
                }
            }
            Expr::Intrinsic(..) => None,
        }
    }

    /// Substitute one symbol throughout every tracked value (parameter
    /// mapping at call sites).
    pub fn substitute_all(&mut self, sym: Var, repl: &LinExpr) {
        for val in self.vals.values_mut() {
            *val = val.substitute(sym, repl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    #[test]
    fn tracks_affine_chains() {
        // k1p1 = k1 + 1; k2p1 = k2 + 1 — the vsetuv/85 pattern (§4.2.3).
        let p = parse_program(
            "program t\nproc main() {\n int k1, k1p1\n k1p1 = k1 + 1\n k1p1 = k1p1 * 2\n}",
        )
        .unwrap();
        let ctx = AnalysisCtx::new(&p);
        let k1 = p.var_by_name("main", "k1").unwrap();
        let k1p1 = p.var_by_name("main", "k1p1").unwrap();
        let mut env = SymEnv::proc_entry();
        let main = p.proc_by_name("main").unwrap();
        for s in &main.body {
            if let suif_ir::Stmt::Assign { lhs, rhs, .. } = s {
                match env.affine(rhs) {
                    Some(val) => env.assign(lhs.var(), val),
                    None => {
                        env.kill(&ctx, lhs.var());
                    }
                }
            }
        }
        // k1p1 = 2*(k1 + 1) = 2*k1 + 2
        let expect = LinExpr::var(AnalysisCtx::sym_of(k1)).offset(1).scale(2);
        assert_eq!(env.value_of(k1p1), expect);
    }

    #[test]
    fn merge_kills_divergent_values() {
        let p = parse_program("program t\nproc main() {\n int a\n a = 1\n}").unwrap();
        let ctx = AnalysisCtx::new(&p);
        let a = p.var_by_name("main", "a").unwrap();
        let mut e1 = SymEnv::proc_entry();
        let mut e2 = SymEnv::proc_entry();
        e1.assign(a, LinExpr::constant(1));
        e2.assign(a, LinExpr::constant(2));
        e1.merge(&ctx, &e2);
        let v = e1.value_of(a);
        assert!(!v.is_constant(), "join must be a fresh symbol, got {v}");
        // Equal values survive merges.
        let mut e3 = SymEnv::proc_entry();
        let mut e4 = SymEnv::proc_entry();
        e3.assign(a, LinExpr::constant(7));
        e4.assign(a, LinExpr::constant(7));
        e3.merge(&ctx, &e4);
        assert_eq!(e3.value_of(a), LinExpr::constant(7));
    }

    #[test]
    fn nonaffine_expressions_are_rejected() {
        let p = parse_program(
            "program t\nproc main() {\n int a, b\n real x[3]\n a = 1\n b = 2\n x[1] = 0\n}",
        )
        .unwrap();
        let _ctx = AnalysisCtx::new(&p);
        let a = p.var_by_name("main", "a").unwrap();
        let b = p.var_by_name("main", "b").unwrap();
        let env = SymEnv::proc_entry();
        use suif_ir::Expr as E;
        // a * b is not affine
        let e = E::Binary(BinOp::Mul, Box::new(E::Scalar(a)), Box::new(E::Scalar(b)));
        assert!(env.affine(&e).is_none());
        // 3 * b is affine
        let e2 = E::Binary(BinOp::Mul, Box::new(E::Int(3)), Box::new(E::Scalar(b)));
        assert_eq!(
            env.affine(&e2).unwrap(),
            LinExpr::term(AnalysisCtx::sym_of(b), 3)
        );
    }
}
