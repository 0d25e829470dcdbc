//! Pretty printer: renders the resolved IR back to MiniF source.
//!
//! Used by the transformation passes (array contraction, common-block
//! splitting) to show before/after code, and by tests to round-trip programs.

use crate::ast::{BinOp, Intrinsic, UnaryOp};
use crate::program::*;
use std::fmt::Write;

/// Render a whole program.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", p.name);
    for (name, value) in &p.consts {
        let _ = writeln!(out, "const {name} = {value}");
    }
    for proc in &p.procedures {
        out.push_str(&proc_to_string(p, proc));
    }
    out
}

/// Render one procedure.
pub fn proc_to_string(p: &Program, proc: &Procedure) -> String {
    let mut out = String::new();
    let params: Vec<String> = proc
        .params
        .iter()
        .map(|&v| {
            let info = p.var(v);
            format!(
                "{} {}{}",
                ty_str(info.ty),
                info.name,
                dims_str(p, &info.dims)
            )
        })
        .collect();
    let _ = writeln!(out, "proc {}({}) {{", proc.name, params.join(", "));
    // Common declarations grouped by block, in declaration order.
    let mut by_block: Vec<(CommonId, Vec<VarId>)> = Vec::new();
    for &v in &proc.common_vars {
        if let VarKind::Common { block, .. } = p.var(v).kind {
            match by_block.iter_mut().find(|(b, _)| *b == block) {
                Some((_, vs)) => vs.push(v),
                None => by_block.push((block, vec![v])),
            }
        }
    }
    for (block, vs) in by_block {
        let members: Vec<String> = vs
            .iter()
            .map(|&v| {
                let info = p.var(v);
                format!(
                    "{} {}{}",
                    ty_str(info.ty),
                    info.name,
                    dims_str(p, &info.dims)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "  common /{}/ {}",
            p.commons[block.0 as usize].name,
            members.join(", ")
        );
    }
    for &v in &proc.locals {
        let info = p.var(v);
        let _ = writeln!(
            out,
            "  {} {}{}",
            ty_str(info.ty),
            info.name,
            dims_str(p, &info.dims)
        );
    }
    write_body(p, &proc.body, 1, &mut out);
    out.push_str("}\n");
    out
}

fn ty_str(t: Type) -> &'static str {
    match t {
        Type::Int => "int",
        Type::Real => "real",
    }
}

fn dims_str(p: &Program, dims: &[Extent]) -> String {
    if dims.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = dims
        .iter()
        .map(|d| match d {
            Extent::Const(c) => c.to_string(),
            Extent::Var(v) => p.var(*v).name.clone(),
            Extent::Star => "*".to_string(),
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

fn write_body(p: &Program, body: &[Stmt], depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    for s in body {
        match s {
            Stmt::Assign { lhs, rhs, .. } => {
                let _ = writeln!(out, "{pad}{} = {}", ref_str(p, lhs), expr_to_string(p, rhs));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let _ = writeln!(out, "{pad}if {} {{", expr_to_string(p, cond));
                write_body(p, then_body, depth + 1, out);
                if else_body.is_empty() {
                    let _ = writeln!(out, "{pad}}}");
                } else {
                    let _ = writeln!(out, "{pad}}} else {{");
                    write_body(p, else_body, depth + 1, out);
                    let _ = writeln!(out, "{pad}}}");
                }
            }
            Stmt::Do {
                label,
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                let lbl = label.map(|l| format!("{l} ")).unwrap_or_default();
                let stp = step
                    .as_ref()
                    .map(|e| format!(", {}", expr_to_string(p, e)))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{pad}do {lbl}{} = {}, {}{stp} {{",
                    p.var(*var).name,
                    expr_to_string(p, lo),
                    expr_to_string(p, hi)
                );
                write_body(p, body, depth + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::Call { callee, args, .. } => {
                let parts: Vec<String> = args.iter().map(|a| arg_str(p, a)).collect();
                let _ = writeln!(
                    out,
                    "{pad}call {}({})",
                    p.proc(*callee).name,
                    parts.join(", ")
                );
            }
            Stmt::Print { args, .. } => {
                let parts: Vec<String> = args.iter().map(|a| expr_to_string(p, a)).collect();
                let _ = writeln!(out, "{pad}print {}", parts.join(", "));
            }
            Stmt::Read { lhs, .. } => {
                let _ = writeln!(out, "{pad}read {}", ref_str(p, lhs));
            }
        }
    }
}

fn ref_str(p: &Program, r: &Ref) -> String {
    match r {
        Ref::Scalar(v) => p.var(*v).name.clone(),
        Ref::Element(v, subs) => {
            let parts: Vec<String> = subs.iter().map(|e| expr_to_string(p, e)).collect();
            format!("{}[{}]", p.var(*v).name, parts.join(", "))
        }
    }
}

fn arg_str(p: &Program, a: &Arg) -> String {
    match a {
        Arg::ArrayWhole(v) => p.var(*v).name.clone(),
        Arg::ArrayPart { var, base } => {
            let parts: Vec<String> = base.iter().map(|e| expr_to_string(p, e)).collect();
            format!("{}[{}]", p.var(*var).name, parts.join(", "))
        }
        Arg::ScalarVar(v) => p.var(*v).name.clone(),
        Arg::Value(e) => expr_to_string(p, e),
    }
}

/// Render one expression.
pub fn expr_to_string(p: &Program, e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Real(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                v.to_string()
            }
        }
        Expr::Scalar(v) => p.var(*v).name.clone(),
        Expr::Element(v, subs) => {
            let parts: Vec<String> = subs.iter().map(|s| expr_to_string(p, s)).collect();
            format!("{}[{}]", p.var(*v).name, parts.join(", "))
        }
        Expr::Unary(op, a) => {
            let o = match op {
                UnaryOp::Neg => "-",
                UnaryOp::Not => "!",
            };
            format!("{o}({})", expr_to_string(p, a))
        }
        Expr::Binary(op, a, b) => {
            let o = bin_str(*op);
            format!("({} {o} {})", expr_to_string(p, a), expr_to_string(p, b))
        }
        Expr::Intrinsic(which, args) => {
            let name = intrinsic_str(*which);
            let parts: Vec<String> = args.iter().map(|a| expr_to_string(p, a)).collect();
            format!("{name}({})", parts.join(", "))
        }
    }
}

fn bin_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

fn intrinsic_str(i: Intrinsic) -> &'static str {
    match i {
        Intrinsic::Min => "min",
        Intrinsic::Max => "max",
        Intrinsic::Abs => "abs",
        Intrinsic::Sqrt => "sqrt",
        Intrinsic::Mod => "mod",
        Intrinsic::Sin => "sin",
        Intrinsic::Cos => "cos",
        Intrinsic::Exp => "exp",
        Intrinsic::Log => "log",
        Intrinsic::Ifix => "ifix",
        Intrinsic::Float => "float",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn round_trips_through_parser() {
        let src = r#"program t
const n = 4
proc f(real a[*], int k) {
  int j
  do 10 j = 1, k {
    a[j] = a[j] * 2 + min(j, k)
  }
}
proc main() {
  common /c/ real x[4]
  real b[8]
  int i
  do i = 1, n, 2 {
    if i < 3 {
      call f(b[i], 2)
    } else {
      x[1] = 0.5
    }
  }
  print x[1], b[1]
}
"#;
        let p1 = parse_program(src).unwrap();
        let printed = program_to_string(&p1);
        let p2 =
            parse_program(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        // Round-trip fixed point: printing again yields identical text.
        assert_eq!(printed, program_to_string(&p2));
    }
}
