//! Reduction recognition (Ch. 6).
//!
//! A reduction is a series of *commutative updates* `A = A op …` with
//! `op ∈ {+, *, MIN, MAX}` (§6.2.2.1), including the conditional form
//! `if (e < t) t = e` for MIN/MAX, and updates through arbitrary (even
//! non-affine / indirect) subscripts — the section then widens to the whole
//! array, which is still a valid reduction region (§6.1.3's `HISTOGRAM`).
//!
//! Per storage object we accumulate the union of *reduction regions* and the
//! union of *plain-access regions*; a loop may execute the object's updates
//! in parallel when the two unions provably do not overlap and all updates
//! share one operator (§6.2.2.4).

use std::fmt;
use suif_ir::ast::{BinOp, Intrinsic};
use suif_ir::{Expr, Ref, Stmt, VarId};
use suif_poly::{ArrayId, PolySetPool, Section, Var};

/// Commutative/associative reduction operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum RedOp {
    /// Summation (`+`, and `-` of the running value).
    Add,
    /// Product.
    Mul,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl RedOp {
    /// Identity element for private-copy initialization (§6.3.1).
    pub fn identity(&self) -> f64 {
        match self {
            RedOp::Add => 0.0,
            RedOp::Mul => 1.0,
            RedOp::Min => f64::INFINITY,
            RedOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Apply the operator.
    pub fn apply(&self, a: f64, b: f64) -> f64 {
        match self {
            RedOp::Add => a + b,
            RedOp::Mul => a * b,
            RedOp::Min => a.min(b),
            RedOp::Max => a.max(b),
        }
    }
}

impl fmt::Display for RedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedOp::Add => write!(f, "sum"),
            RedOp::Mul => write!(f, "product"),
            RedOp::Min => write!(f, "min"),
            RedOp::Max => write!(f, "max"),
        }
    }
}

/// One recognized commutative update site.
#[derive(Clone, Debug)]
pub struct UpdateSite<'a> {
    /// Updated variable.
    pub var: VarId,
    /// Subscripts of the updated reference (empty = scalar).
    pub subs: &'a [Expr],
    /// Operator.
    pub op: RedOp,
    /// The non-self operands (data being combined in).
    pub data: Vec<&'a Expr>,
}

/// Structural expression equality (no renaming).
pub fn expr_eq(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Int(x), Expr::Int(y)) => x == y,
        (Expr::Real(x), Expr::Real(y)) => x == y,
        (Expr::Scalar(x), Expr::Scalar(y)) => x == y,
        (Expr::Element(x, xs), Expr::Element(y, ys)) => {
            x == y && xs.len() == ys.len() && xs.iter().zip(ys).all(|(p, q)| expr_eq(p, q))
        }
        (Expr::Unary(xo, xa), Expr::Unary(yo, ya)) => xo == yo && expr_eq(xa, ya),
        (Expr::Binary(xo, xa, xb), Expr::Binary(yo, ya, yb)) => {
            xo == yo && expr_eq(xa, ya) && expr_eq(xb, yb)
        }
        (Expr::Intrinsic(xi, xs), Expr::Intrinsic(yi, ys)) => {
            xi == yi && xs.len() == ys.len() && xs.iter().zip(ys).all(|(p, q)| expr_eq(p, q))
        }
        _ => false,
    }
}

fn ref_as_expr_eq(r: &Ref, e: &Expr) -> bool {
    match (r, e) {
        (Ref::Scalar(v), Expr::Scalar(w)) => v == w,
        (Ref::Element(v, subs), Expr::Element(w, wsubs)) => {
            v == w
                && subs.len() == wsubs.len()
                && subs.iter().zip(wsubs).all(|(p, q)| expr_eq(p, q))
        }
        _ => false,
    }
}

/// Recognize `lhs = lhs op …` / `lhs = lhs - …` / `lhs = min(lhs, …)` forms.
pub fn recognize_assign<'a>(lhs: &'a Ref, rhs: &'a Expr) -> Option<UpdateSite<'a>> {
    let (var, subs): (VarId, &[Expr]) = match lhs {
        Ref::Scalar(v) => (*v, &[]),
        Ref::Element(v, s) => (*v, s.as_slice()),
    };
    match rhs {
        Expr::Binary(BinOp::Add, a, b) => {
            if ref_as_expr_eq(lhs, a) {
                Some(UpdateSite {
                    var,
                    subs,
                    op: RedOp::Add,
                    data: vec![b],
                })
            } else if ref_as_expr_eq(lhs, b) {
                Some(UpdateSite {
                    var,
                    subs,
                    op: RedOp::Add,
                    data: vec![a],
                })
            } else {
                None
            }
        }
        // s = s - e  is a sum of negated values.
        Expr::Binary(BinOp::Sub, a, b) if ref_as_expr_eq(lhs, a) => Some(UpdateSite {
            var,
            subs,
            op: RedOp::Add,
            data: vec![b],
        }),
        Expr::Binary(BinOp::Mul, a, b) => {
            if ref_as_expr_eq(lhs, a) {
                Some(UpdateSite {
                    var,
                    subs,
                    op: RedOp::Mul,
                    data: vec![b],
                })
            } else if ref_as_expr_eq(lhs, b) {
                Some(UpdateSite {
                    var,
                    subs,
                    op: RedOp::Mul,
                    data: vec![a],
                })
            } else {
                None
            }
        }
        Expr::Intrinsic(which @ (Intrinsic::Min | Intrinsic::Max), args) => {
            let op = if *which == Intrinsic::Min {
                RedOp::Min
            } else {
                RedOp::Max
            };
            if ref_as_expr_eq(lhs, &args[0]) {
                Some(UpdateSite {
                    var,
                    subs,
                    op,
                    data: vec![&args[1]],
                })
            } else if ref_as_expr_eq(lhs, &args[1]) {
                Some(UpdateSite {
                    var,
                    subs,
                    op,
                    data: vec![&args[0]],
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Recognize the conditional MIN/MAX form `if (e < t) t = e` (§6.2.2.1:
/// "reductions of the form `if (a(i) < tmin) tmin = a(i)` are also
/// supported").  The then-branch must be exactly the assignment and the
/// else-branch empty.
pub fn recognize_if_minmax<'a>(
    cond: &'a Expr,
    then_body: &'a [Stmt],
    else_body: &'a [Stmt],
) -> Option<UpdateSite<'a>> {
    if !else_body.is_empty() || then_body.len() != 1 {
        return None;
    }
    let Stmt::Assign { lhs, rhs, .. } = &then_body[0] else {
        return None;
    };
    let Expr::Binary(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), a, b) = cond else {
        return None;
    };
    // `if (e < t) t = e` → MIN;  `if (e > t) t = e` → MAX;
    // mirrored comparisons likewise.
    let (value, target, less) = if ref_as_expr_eq(lhs, b) && expr_eq(a, rhs) {
        // cond: e OP t, assign t = e
        (a, b, matches!(op, BinOp::Lt | BinOp::Le))
    } else if ref_as_expr_eq(lhs, a) && expr_eq(b, rhs) {
        // cond: t OP e, assign t = e
        (b, a, matches!(op, BinOp::Gt | BinOp::Ge))
    } else {
        return None;
    };
    let _ = target;
    let (var, subs): (VarId, &[Expr]) = match lhs {
        Ref::Scalar(v) => (*v, &[]),
        Ref::Element(v, s) => (*v, s.as_slice()),
    };
    Some(UpdateSite {
        var,
        subs,
        op: if less { RedOp::Min } else { RedOp::Max },
        data: vec![value],
    })
}

/// Per-object reduction bookkeeping for a region.
#[derive(Clone, Debug)]
pub struct RedEntry {
    /// The single operator (None until the first update is seen).
    pub op: Option<RedOp>,
    /// Union of reduction regions.
    pub red: Section,
    /// Union of regions touched by non-update accesses (or by updates with a
    /// conflicting operator).
    pub nonred: Section,
}

/// Region-level reduction summary: one entry per storage object touched,
/// in a vector sorted by (and unique in) [`ArrayId`].
#[derive(Clone, Debug, Default)]
pub struct RedSummary {
    entries: Vec<(ArrayId, RedEntry)>,
}

impl RedSummary {
    /// Empty summary.
    pub fn empty() -> RedSummary {
        RedSummary::default()
    }

    fn position(&self, id: ArrayId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |(k, _)| *k)
    }

    /// Install a fully formed entry verbatim (snapshot decode).  Unlike
    /// [`RedSummary::add_update`]/[`RedSummary::add_plain`] no section union
    /// or operator reconciliation runs — the entry must come from an earlier
    /// summary, where those reductions already happened.
    pub fn insert_entry(&mut self, id: ArrayId, e: RedEntry) {
        match self.position(id) {
            Ok(i) => self.entries[i].1 = e,
            Err(i) => self.entries.insert(i, (id, e)),
        }
    }

    fn entry(&mut self, id: ArrayId) -> &mut RedEntry {
        let i = self.position(id).unwrap_or_else(|i| {
            let fresh = RedEntry {
                op: None,
                red: Section::empty(id, 1),
                nonred: Section::empty(id, 1),
            };
            self.entries.insert(i, (id, fresh));
            i
        });
        &mut self.entries[i].1
    }

    /// Record a commutative update over `sec` with operator `op`.
    pub fn add_update(&mut self, sec: Section, op: RedOp) {
        let e = self.entry(sec.array);
        match e.op {
            None => {
                e.op = Some(op);
                e.red = e.red.union(&sec);
            }
            Some(cur) if cur == op => e.red = e.red.union(&sec),
            Some(_) => e.nonred = e.nonred.union(&sec),
        }
    }

    /// Record a plain (non-update) access over `sec`.
    pub fn add_plain(&mut self, sec: Section) {
        let e = self.entry(sec.array);
        e.nonred = e.nonred.union(&sec);
    }

    /// Combine two summaries executed in either order (union semantics —
    /// reduction regions are flow-insensitive, §6.2.2.3).
    pub fn union(&self, other: &RedSummary) -> RedSummary {
        let mut out = self.clone();
        for (id, e) in &other.entries {
            let t = out.entry(*id);
            match (t.op, e.op) {
                (None, op) => {
                    t.op = op;
                    t.red = t.red.union(&e.red);
                }
                (Some(a), Some(b)) if a == b => t.red = t.red.union(&e.red),
                (Some(_), Some(_)) => t.nonred = t.nonred.union(&e.red),
                (Some(_), None) => {}
            }
            let nr = e.nonred.clone();
            let t = out.entry(*id);
            t.nonred = t.nonred.union(&nr);
        }
        out
    }

    /// Map every section through `f` (closure, substitution, retargeting).
    pub fn map_sections(&self, mut f: impl FnMut(&Section) -> Option<Section>) -> RedSummary {
        let mut out = RedSummary::empty();
        for (_, e) in &self.entries {
            let Some(red) = f(&e.red) else { continue };
            let Some(nonred) = f(&e.nonred) else { continue };
            let t = out.entry(red.array);
            t.op = e.op;
            t.red = t.red.union(&red);
            t.nonred = t.nonred.union(&nonred);
        }
        out
    }

    /// Iterate entries.
    pub fn iter(&self) -> impl Iterator<Item = (ArrayId, &RedEntry)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Look up an entry.
    pub fn get(&self, id: ArrayId) -> Option<&RedEntry> {
        self.position(id).ok().map(|i| &self.entries[i].1)
    }

    /// Is `id` a *valid* reduction object in this region: it has updates
    /// with one operator, and the reduction region provably does not overlap
    /// any plain access (§6.2.2.4)?
    pub fn valid_reduction(&self, id: ArrayId) -> Option<RedOp> {
        let e = self.get(id)?;
        let op = e.op?;
        if e.red.is_empty() {
            return None;
        }
        if e.red.provably_disjoint(&e.nonred) {
            Some(op)
        } else {
            None
        }
    }

    /// Share the storage of every section set through `pool` (see
    /// [`PolySetPool`]) and drop the vector's spare capacity: the value is
    /// finished and stays resident.
    pub fn intern_sets(&mut self, pool: &mut PolySetPool) {
        self.entries.shrink_to_fit();
        for (_, e) in &mut self.entries {
            pool.intern(&mut e.red.set);
            pool.intern(&mut e.nonred.set);
        }
    }
}

/// Convenience: classify whether a symbol belongs to the analysis-fresh
/// range (used by mapping code).
pub fn is_fresh_sym(v: Var) -> bool {
    matches!(v, Var::Sym(n) if n >= 0x4000_0000)
}

/// Convenience used by the summarizer for update-site recognition over a
/// whole statement (assignment form only; the `if` MIN/MAX form is handled
/// at the `If` node).
pub fn recognize_stmt(s: &Stmt) -> Option<UpdateSite<'_>> {
    match s {
        Stmt::Assign { lhs, rhs, .. } => recognize_assign(lhs, rhs),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    fn first_assign(src: &str) -> (suif_ir::Program, usize) {
        let p = parse_program(src).unwrap();
        (p, 0)
    }

    #[test]
    fn recognizes_sum_and_product() {
        let (p, _) = first_assign(
            "program t\nproc main() {\n real s, a[5]\n int i\n i = 1\n s = s + a[i]\n s = a[i] + s\n s = s - a[i]\n s = s * 2.0\n s = a[i]\n}",
        );
        let main = p.proc_by_name("main").unwrap();
        let sites: Vec<Option<UpdateSite>> = main.body[1..].iter().map(recognize_stmt).collect();
        assert_eq!(sites[0].as_ref().unwrap().op, RedOp::Add);
        assert_eq!(sites[1].as_ref().unwrap().op, RedOp::Add);
        assert_eq!(sites[2].as_ref().unwrap().op, RedOp::Add); // s - e
        assert_eq!(sites[3].as_ref().unwrap().op, RedOp::Mul);
        assert!(sites[4].is_none());
    }

    #[test]
    fn recognizes_array_and_indirect_updates() {
        let (p, _) = first_assign(
            "program t\nproc main() {\n real h[10], b[10]\n int idx[10], i\n i = 1\n h[idx[i]] = h[idx[i]] + 1\n b[i] = b[i + 1] + 1\n}",
        );
        let main = p.proc_by_name("main").unwrap();
        let s1 = recognize_stmt(&main.body[1]);
        assert!(s1.is_some(), "indirect histogram update must match");
        // b[i] = b[i+1] + 1 — different subscripts, NOT a commutative update.
        let s2 = recognize_stmt(&main.body[2]);
        assert!(s2.is_none());
    }

    #[test]
    fn recognizes_min_forms() {
        let p = parse_program(
            "program t\nproc main() {\n real tmin, a[10]\n int i\n i = 1\n tmin = min(tmin, a[i])\n if a[i] < tmin {\n tmin = a[i]\n }\n if tmin > a[i] {\n tmin = a[i]\n }\n}",
        )
        .unwrap();
        let main = p.proc_by_name("main").unwrap();
        assert_eq!(recognize_stmt(&main.body[1]).unwrap().op, RedOp::Min);
        let suif_ir::Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } = &main.body[2]
        else {
            panic!()
        };
        assert_eq!(
            recognize_if_minmax(cond, then_body, else_body).unwrap().op,
            RedOp::Min
        );
        let suif_ir::Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } = &main.body[3]
        else {
            panic!()
        };
        // `if (t > e) t = e` is also a MIN.
        assert_eq!(
            recognize_if_minmax(cond, then_body, else_body).unwrap().op,
            RedOp::Min
        );
    }

    #[test]
    fn red_summary_validity() {
        use crate::context::AnalysisCtx;
        use suif_poly::LinExpr;
        let p = parse_program("program t\nproc main() {\n real b[10]\n b[1] = 0\n}").unwrap();
        let ctx = AnalysisCtx::new(&p);
        let b = p.var_by_name("main", "b").unwrap();
        let id = ctx.array_of(b);
        let sec1 = ctx.access_section(b, Some(&[LinExpr::constant(3)]));
        let sec2 = ctx.access_section(b, Some(&[LinExpr::constant(7)]));
        let mut rs = RedSummary::empty();
        rs.add_update(sec1.clone(), RedOp::Add);
        rs.add_plain(sec2);
        assert_eq!(rs.valid_reduction(id), Some(RedOp::Add));
        // Overlapping plain access poisons.
        rs.add_plain(sec1);
        assert_eq!(rs.valid_reduction(id), None);
    }

    #[test]
    fn mixed_operators_poison_overlap() {
        use crate::context::AnalysisCtx;
        use suif_poly::LinExpr;
        let p = parse_program("program t\nproc main() {\n real b[10]\n b[1] = 0\n}").unwrap();
        let ctx = AnalysisCtx::new(&p);
        let b = p.var_by_name("main", "b").unwrap();
        let id = ctx.array_of(b);
        let sec = ctx.access_section(b, Some(&[LinExpr::constant(3)]));
        let mut rs = RedSummary::empty();
        rs.add_update(sec.clone(), RedOp::Add);
        rs.add_update(sec, RedOp::Mul);
        assert_eq!(rs.valid_reduction(id), None);
    }
}
