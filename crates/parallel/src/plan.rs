//! Lowering analysis verdicts into runtime execution plans.

use std::collections::{HashMap, HashSet};
use suif_analysis::{ArrayKey, LoopCertInfo, LoopVerdict, ProgramAnalysis, RedOp};
use suif_ir::{callees_of_loop, Program, Stmt, StmtId, VarId};
use suif_poly::{Section, Var};

/// One reduction in a plan.
#[derive(Clone, Debug)]
pub struct PlanReduction {
    /// All variables denoting the reduced storage object (every common view
    /// member for block objects).
    pub vars: Vec<VarId>,
    /// The operator.
    pub op: RedOp,
    /// Constant element range (1-based, within the object) to initialize and
    /// finalize, when the analysis bounded the reduction region (§6.3.3);
    /// `None` means the whole object.
    pub range: Option<(i64, i64)>,
}

/// Execution plan for one parallel loop.
#[derive(Clone, Debug, Default)]
pub struct PlanEntry {
    /// Variables privatized per thread without finalization.
    pub private_vars: Vec<VarId>,
    /// Privatized variables written back from the last iteration's thread.
    pub finalize_last: Vec<VarId>,
    /// Parallel reductions.
    pub reductions: Vec<PlanReduction>,
    /// Static per-iteration work estimate (source lines including callees);
    /// the runtime multiplies by the iteration count for the §4.5
    /// too-fine-grained suppression.
    pub body_weight: u32,
}

/// All parallel loops of a program with their plans.
#[derive(Clone, Debug, Default)]
pub struct ParallelPlans {
    /// Plans per loop statement.
    pub loops: HashMap<StmtId, PlanEntry>,
}

impl ParallelPlans {
    /// Lower a finished analysis into runtime plans: expands storage keys to
    /// variable lists, adds the implicit privates (loop indices and callee
    /// locals / scalar parameter slots), and extracts constant reduction
    /// ranges.
    pub fn from_analysis(pa: &ProgramAnalysis<'_>) -> ParallelPlans {
        let program = pa.ctx.program;
        let mut plans = ParallelPlans::default();
        for li in &pa.ctx.tree.loops {
            let Some(LoopVerdict::Parallel { plan, .. }) = pa.verdicts.get(&li.stmt) else {
                continue;
            };
            let depth = nest_depth(loop_body(program, li.stmt)) + if li.has_calls { 1 } else { 0 };
            let mut entry = PlanEntry {
                // Lines × 4^depth: nested loops multiply per-iteration work.
                body_weight: li.size_lines.max(1) << (2 * depth.min(8)),
                ..Default::default()
            };
            for key in &plan.private {
                entry.private_vars.extend(expand_key(program, *key));
            }
            for key in &plan.finalize_last {
                entry.finalize_last.extend(expand_key(program, *key));
            }
            for (key, op) in &plan.reductions {
                let id = match key {
                    ArrayKey::Common(_) | ArrayKey::Var(_) => {
                        // Look up the interned id to fetch the red section.
                        let probe = expand_key(program, *key);
                        probe.first().map(|&v| pa.ctx.array_of(v))
                    }
                };
                let range = id
                    .and_then(|id| pa.df().loop_iter.get(&li.stmt).map(|it| (id, it)))
                    .and_then(|(id, it)| it.sum.red.get(id).map(|e| e.red.clone()))
                    .and_then(|sec| const_range_dim0(&sec));
                entry.reductions.push(PlanReduction {
                    vars: expand_key(program, *key),
                    op: *op,
                    range,
                });
            }
            // Implicit privates: loop indices of this loop and every nested
            // loop in the same procedure …
            entry.private_vars.push(li.var);
            collect_do_vars(loop_body(program, li.stmt), &mut entry.private_vars);
            // … and the statically-allocated locals / scalar parameter slots
            // of every procedure callable from the body (Fortran-77 locals
            // are undefined on re-entry, so per-thread copies are always
            // legal).
            for p in callees_of_loop(program, li.stmt) {
                let proc = program.proc(p);
                for &v in &proc.locals {
                    entry.private_vars.push(v);
                }
                for &v in &proc.params {
                    if !program.var(v).is_array() {
                        entry.private_vars.push(v);
                    }
                }
            }
            entry.private_vars.sort();
            entry.private_vars.dedup();
            // Variables already in reductions/finalize keep those roles.
            let claimed: HashSet<VarId> = entry
                .finalize_last
                .iter()
                .chain(entry.reductions.iter().flat_map(|r| r.vars.iter()))
                .copied()
                .collect();
            entry.private_vars.retain(|v| !claimed.contains(v));
            plans.loops.insert(li.stmt, entry);
        }
        plans
    }

    /// The plan a race certification runs `info`'s loop under: its
    /// production plan when the analysis judged it parallel (expected
    /// race-free with sequential-identical output), else [`minimal_plan`]
    /// (so the statically reported carried dependence manifests as a
    /// detected race).  `None` when the loop cannot be planned at all.
    pub fn plan_for(&self, program: &Program, info: &LoopCertInfo) -> Option<PlanEntry> {
        if info.parallel {
            self.loops.get(&info.stmt).cloned()
        } else {
            minimal_plan(program, info.stmt)
        }
    }
}

/// The plan a loop gets with *no* analysis-driven transforms: only the
/// always-legal implicit privates (the loop index, nested loop indices, and
/// the locals / scalar parameter slots of every callee).  Running a loop
/// with a carried dependence under this plan leaves the dependent storage
/// shared, so the certifying executor can observe the race the static
/// analysis predicted.
pub fn minimal_plan(program: &Program, loop_stmt: StmtId) -> Option<PlanEntry> {
    let (Stmt::Do { var, body, .. }, _) = program.find_stmt(loop_stmt)? else {
        return None;
    };
    let mut entry = PlanEntry {
        body_weight: 1,
        ..Default::default()
    };
    entry.private_vars.push(*var);
    collect_do_vars(body, &mut entry.private_vars);
    for p in callees_of_loop(program, loop_stmt) {
        let proc = program.proc(p);
        for &v in &proc.locals {
            entry.private_vars.push(v);
        }
        for &v in &proc.params {
            if !program.var(v).is_array() {
                entry.private_vars.push(v);
            }
        }
    }
    entry.private_vars.sort();
    entry.private_vars.dedup();
    Some(entry)
}

/// All variables denoting a storage key.
fn expand_key(program: &Program, key: ArrayKey) -> Vec<VarId> {
    match key {
        ArrayKey::Var(v) => vec![v],
        ArrayKey::Common(block) => {
            let mut out = Vec::new();
            for view in &program.commons[block.0 as usize].views {
                out.extend(view.members.iter().copied());
            }
            out
        }
    }
}

fn loop_body(program: &Program, loop_stmt: StmtId) -> &[Stmt] {
    match program.find_stmt(loop_stmt) {
        Some((Stmt::Do { body, .. }, _)) => body,
        _ => &[],
    }
}

/// Maximum `do`-nesting depth inside a body (same procedure only).
fn nest_depth(body: &[Stmt]) -> u32 {
    body.iter()
        .map(|s| match s {
            Stmt::Do { body, .. } => 1 + nest_depth(body),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => nest_depth(then_body).max(nest_depth(else_body)),
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

fn collect_do_vars(body: &[Stmt], out: &mut Vec<VarId>) {
    for s in body {
        match s {
            Stmt::Do { var, body, .. } => {
                out.push(*var);
                collect_do_vars(body, out);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_do_vars(then_body, out);
                collect_do_vars(else_body, out);
            }
            _ => {}
        }
    }
}

/// Constant `[lo, hi]` bounds of a section's `d0` if derivable: the
/// reduction-region minimization of §6.3.3.
pub fn const_range_dim0(sec: &Section) -> Option<(i64, i64)> {
    if sec.is_empty() || sec.set.is_approximate() {
        return None;
    }
    let mut lo: Option<i64> = None;
    let mut hi: Option<i64> = None;
    for p in sec.set.disjuncts() {
        // Project away every symbol, leaving constraints over d0 only.
        let q = p.project_out_all(|v| matches!(v, Var::Sym(_)));
        if q.is_approximate() {
            return None;
        }
        let (mut plo, mut phi): (Option<i64>, Option<i64>) = (None, None);
        for c in q.constraints() {
            let a = c.expr.coef(Var::Dim(0));
            if a == 0
                || !c
                    .expr
                    .sub(&suif_poly::LinExpr::term(Var::Dim(0), a))
                    .is_constant()
            {
                continue;
            }
            let k = c.expr.constant_part();
            match c.kind {
                suif_poly::ConstraintKind::GeqZero => {
                    if a > 0 {
                        // a·d0 + k >= 0 → d0 >= ceil(-k / a)
                        let b = (-k).div_euclid(a) + if (-k).rem_euclid(a) != 0 { 1 } else { 0 };
                        plo = Some(plo.map_or(b, |x: i64| x.max(b)));
                    } else {
                        // a·d0 + k >= 0, a < 0 → d0 <= floor(k / -a)
                        let b = k.div_euclid(-a);
                        phi = Some(phi.map_or(b, |x: i64| x.min(b)));
                    }
                }
                suif_poly::ConstraintKind::EqZero => {
                    if a.abs() == 1 {
                        let v = -k / a;
                        plo = Some(v);
                        phi = Some(v);
                    }
                }
            }
        }
        let (plo, phi) = (plo?, phi?);
        lo = Some(lo.map_or(plo, |x: i64| x.min(plo)));
        hi = Some(hi.map_or(phi, |x: i64| x.max(phi)));
    }
    match (lo, hi) {
        (Some(l), Some(h)) if l <= h => Some((l, h)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_analysis::{ParallelizeConfig, Parallelizer};
    use suif_ir::parse_program;

    #[test]
    fn plan_includes_implicit_privates() {
        let p = parse_program(
            r#"program t
proc work(real q[*], int n) {
  real tmp[4]
  int j
  do j = 1, n {
    tmp[1] = j
    q[j] = tmp[1]
  }
}
proc main() {
  real a[40]
  int i
  do 1 i = 1, 10 {
    call work(a[(i - 1) * 4 + 1], 4)
  }
}
"#,
        )
        .unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let l1 = pa
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == "main/1")
            .unwrap();
        assert!(
            pa.verdicts[&l1.stmt].is_parallel(),
            "{:?}",
            pa.verdicts[&l1.stmt]
        );
        let plans = ParallelPlans::from_analysis(&pa);
        let entry = &plans.loops[&l1.stmt];
        let names: Vec<String> = entry
            .private_vars
            .iter()
            .map(|&v| format!("{}/{}", p.proc(p.var(v).proc).name, p.var(v).name))
            .collect();
        assert!(names.contains(&"main/i".to_string()), "{names:?}");
        assert!(names.contains(&"work/tmp".to_string()), "{names:?}");
        assert!(names.contains(&"work/j".to_string()), "{names:?}");
        assert!(names.contains(&"work/n".to_string()), "{names:?}");
    }

    #[test]
    fn reduction_range_is_minimized() {
        // bdna pattern (§6.3.3): reduction touches only fax[1:natoms].
        let p = parse_program(
            r#"program t
const natoms = 20
proc main() {
  real fax[2000], w[50]
  int i, ia
  do 1 i = 1, 50 {
    do 2 ia = 1, natoms {
      fax[ia] = fax[ia] + w[i]
    }
  }
}
"#,
        )
        .unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let l1 = pa
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == "main/1")
            .unwrap();
        assert!(pa.verdicts[&l1.stmt].is_parallel());
        let plans = ParallelPlans::from_analysis(&pa);
        let entry = &plans.loops[&l1.stmt];
        assert_eq!(entry.reductions.len(), 1);
        assert_eq!(
            entry.reductions[0].range,
            Some((1, 20)),
            "reduction region minimized to fax[1:natoms]"
        );
    }
    #[test]
    fn body_weight_scales_with_nesting_depth() {
        let src = r#"program t
proc main() {
  real a[8], b[8]
  int i, j
  do 1 i = 1, 8 {
    a[i] = i
  }
  do 2 i = 1, 8 {
    do 3 j = 1, 8 {
      b[j] = a[j] + i
    }
  }
  print a[1], b[1]
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let plans = ParallelPlans::from_analysis(&pa);
        let flat = pa
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == "main/1")
            .unwrap();
        let nested = pa
            .ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == "main/2")
            .unwrap();
        let wf = plans.loops.get(&flat.stmt).map(|e| e.body_weight);
        let wn = plans.loops.get(&nested.stmt).map(|e| e.body_weight);
        if let (Some(wf), Some(wn)) = (wf, wn) {
            assert!(
                wn >= wf * 4,
                "nested weight {wn} not >= 4x flat weight {wf}"
            );
        } else {
            panic!("expected both loops parallel: {wf:?} {wn:?}");
        }
    }

    #[test]
    fn const_range_dim0_handles_points_intervals_and_symbols() {
        use suif_poly::{ArrayId, Constraint, LinExpr, PolySet, Polyhedron, Section, Var};
        let id = ArrayId(0);
        let with_poly = |p: Polyhedron| {
            let mut s = Section::empty(id, 1);
            s.set = PolySet::from_poly(p);
            s
        };
        // Point d0 == 5.
        let sec = with_poly(Polyhedron::from_constraints([Constraint::eq(
            &LinExpr::var(Var::Dim(0)),
            &LinExpr::constant(5),
        )]));
        assert_eq!(const_range_dim0(&sec), Some((5, 5)));
        // Interval 2 <= d0 <= 9.
        let sec = with_poly(Polyhedron::from_constraints([
            Constraint::geq(&LinExpr::var(Var::Dim(0)), &LinExpr::constant(2)),
            Constraint::leq(&LinExpr::var(Var::Dim(0)), &LinExpr::constant(9)),
        ]));
        assert_eq!(const_range_dim0(&sec), Some((2, 9)));
        // Symbol-bounded section: d0 == s0 (no constant bounds).
        let sec = with_poly(Polyhedron::from_constraints([Constraint::eq(
            &LinExpr::var(Var::Dim(0)),
            &LinExpr::var(Var::Sym(0)),
        )]));
        assert_eq!(const_range_dim0(&sec), None);
    }

    #[test]
    fn callees_collected_transitively() {
        let src = r#"program t
proc leaf(real x[*]) {
  x[1] = 1
}
proc mid(real x[*]) {
  call leaf(x)
}
proc main() {
  real a[4]
  int i
  do 1 i = 1, 4 {
    call mid(a)
  }
  print a[1]
}
"#;
        let p = parse_program(src).unwrap();
        let li = {
            let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
            pa.ctx.tree.loops[0].stmt
        };
        let callees = callees_of_loop(&p, li);
        let names: Vec<&str> = callees
            .iter()
            .map(|&pid| p.proc(pid).name.as_str())
            .collect();
        assert!(
            names.contains(&"mid") && names.contains(&"leaf"),
            "{names:?}"
        );
    }
}
