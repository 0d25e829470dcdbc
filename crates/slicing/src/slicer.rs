//! The demand-driven, context-sensitive slicing algorithm (§3.5) with the
//! §3.6 pruning options.
//!
//! Slice summaries `⟨S, F⟩` (the set of statements contributing within the
//! procedure and its callees, plus the upward-exposed formal dependences)
//! are computed demand-driven over the value subgraph reachable from the
//! queried reference, with a Kleene fixed point over the recurrences created
//! by loop φ-nodes (§3.5.3).  Summaries are memoized per pruning
//! configuration, and context sensitivity comes from expanding each formal
//! only through the call sites that actually reach the query — the
//! `Cslice(r, [c1..cn])` form restricts expansion to one call stack.
//!
//! A compact *hierarchical* representation of the result (§3.5.4) — a DAG of
//! per-value nodes whose union is the slice — is available on the result for
//! storage-efficiency experiments; the flattened statement/line sets drive
//! the Explorer display.

use crate::issa::{Def, Issa, SliceVar, ValueId};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use suif_ir::{ProcId, Program, StmtId};

/// Which dependence edges to follow (§3.2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SliceKind {
    /// Data and control dependences, transitively.
    Program,
    /// Data dependences only.
    Data,
    /// The governing control structures of the reference plus the program
    /// slices of their conditions.
    Control,
}

/// Pruning and context options (§3.6, §3.5.3).
#[derive(Clone, Default, Debug)]
pub struct SliceOptions {
    /// Array-restricted: stop at array (weak) values — "array contents are
    /// seldom useful for proving data independence".
    pub array_restricted: bool,
    /// Code-region-restricted: prune at statements outside the given loop
    /// (statements of procedures called from inside count as inside).
    pub region: Option<StmtId>,
    /// Calling context: expand formals only up this call stack (innermost
    /// call last); `None` expands through all callers.
    pub context: Option<Vec<StmtId>>,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct OptKey {
    kind: SliceKind,
    ar: bool,
    region: Option<StmtId>,
}

/// A computed slice.
#[derive(Clone, Debug)]
pub struct Slice {
    /// Statements in the slice.
    pub stmts: BTreeSet<StmtId>,
    /// Their source lines.
    pub lines: BTreeSet<u32>,
    /// Statements where pruning cut the computation (terminal nodes the
    /// display highlights, §3.6).
    pub terminals: BTreeSet<StmtId>,
    /// Number of distinct summary nodes backing this slice (the size of the
    /// hierarchical representation, §3.5.4).
    pub hierarchy_nodes: usize,
}

impl Slice {
    /// Number of distinct source lines.
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Restrict to lines within `[lo, hi]` (the Fig. 4-8 "loop" column).
    pub fn lines_within(&self, lo: u32, hi: u32) -> usize {
        self.lines.iter().filter(|&&l| l >= lo && l <= hi).count()
    }
}

#[derive(Clone, Default, Debug)]
struct Summary {
    stmts: BTreeSet<StmtId>,
    formals: BTreeSet<(ProcId, SliceVar)>,
    terminals: BTreeSet<StmtId>,
}

impl Summary {
    fn merge(&mut self, other: &Summary) -> bool {
        let n0 = self.stmts.len() + self.formals.len() + self.terminals.len();
        self.stmts.extend(other.stmts.iter().copied());
        self.formals.extend(other.formals.iter().copied());
        self.terminals.extend(other.terminals.iter().copied());
        self.stmts.len() + self.formals.len() + self.terminals.len() != n0
    }
}

/// The slicer: build once per program, query many times (§3.3:
/// demand-driven, memoized).
pub struct Slicer<'p> {
    /// The program.
    pub program: &'p Program,
    /// The interprocedural SSA graph.
    pub issa: Issa,
    memo: HashMap<(OptKey, u32), Summary>,
    /// Procedures (transitively) called from each loop, in id order, for
    /// region pruning.
    loop_callees: HashMap<StmtId, Vec<ProcId>>,
}

impl<'p> Slicer<'p> {
    /// Build the slicer (constructs the ISSA graph).
    pub fn new(program: &'p Program) -> Slicer<'p> {
        Slicer {
            program,
            issa: Issa::build(program),
            memo: HashMap::new(),
            loop_callees: HashMap::new(),
        }
    }

    /// The SSA value a statement reads for a variable, if any.
    pub fn use_value(&self, stmt: StmtId, var: suif_ir::VarId) -> Option<ValueId> {
        let sv = SliceVar::of(self.program, var);
        self.issa.use_map.get(&(stmt, sv)).copied()
    }

    /// Slice of the reference to `var` used at `stmt`.
    pub fn slice_use(
        &mut self,
        stmt: StmtId,
        var: suif_ir::VarId,
        kind: SliceKind,
        opts: &SliceOptions,
    ) -> Option<Slice> {
        if kind == SliceKind::Control {
            return Some(self.control_slice(stmt, opts));
        }
        let v = self.use_value(stmt, var)?;
        Some(self.slice_value(v, kind, opts))
    }

    /// Control slice of the statement containing a reference (§3.2.1).
    pub fn control_slice(&mut self, stmt: StmtId, opts: &SliceOptions) -> Slice {
        let chain = self.issa.control_chain(stmt);
        let mut out = Slice {
            stmts: BTreeSet::new(),
            lines: BTreeSet::new(),
            terminals: BTreeSet::new(),
            hierarchy_nodes: 0,
        };
        for (cstmt, cvals) in chain {
            if self.in_region(cstmt, opts.region) {
                out.stmts.insert(cstmt);
            }
            for v in cvals {
                let s = self.slice_value(v, SliceKind::Program, opts);
                out.stmts.extend(s.stmts);
                out.terminals.extend(s.terminals);
                out.hierarchy_nodes += s.hierarchy_nodes;
            }
        }
        self.finish_lines(&mut out);
        out
    }

    /// Slice of an SSA value.
    pub fn slice_value(&mut self, v: ValueId, kind: SliceKind, opts: &SliceOptions) -> Slice {
        let key = OptKey {
            kind,
            ar: opts.array_restricted,
            region: opts.region,
        };
        let root = self.summary_of(v, &key);
        // Expand upward-exposed formals through callers (§3.5.3's Slice(r)),
        // or only along the provided calling context (Cslice).
        let mut stmts = root.stmts.clone();
        let mut terminals = root.terminals.clone();
        let mut nodes = 1usize;
        let mut seen: HashSet<(ProcId, SliceVar)> = HashSet::new();
        let mut work: VecDeque<((ProcId, SliceVar), usize)> =
            root.formals.iter().map(|&f| (f, 0usize)).collect();
        while let Some(((proc, var), depth)) = work.pop_front() {
            if !seen.insert((proc, var)) {
                continue;
            }
            // Callee locals and main's inputs are terminal.
            let sites: Vec<StmtId> = (self.issa.cg.callers_of(proc).iter())
                .map(|site| site.stmt)
                .filter(|s| match (&opts.context, depth) {
                    // Context-restricted: the call on top of the stack.
                    (Some(stack), d) => {
                        let idx = stack.len().checked_sub(1 + d);
                        match idx {
                            Some(i) => stack.get(i) == Some(s),
                            None => false,
                        }
                    }
                    (None, _) => true,
                })
                .collect();
            for site in sites {
                if let Some(&bound) = self.issa.bindings.get(&(site, var)) {
                    let s = self.summary_of(bound, &key);
                    stmts.extend(s.stmts.iter().copied());
                    terminals.extend(s.terminals.iter().copied());
                    nodes += 1;
                    for &f in &s.formals {
                        work.push_back((f, depth + 1));
                    }
                }
            }
        }
        let mut out = Slice {
            stmts,
            lines: BTreeSet::new(),
            terminals,
            hierarchy_nodes: nodes,
        };
        self.finish_lines(&mut out);
        out
    }

    /// Is `stmt` inside the code region `region` (a loop), if there is one?
    fn in_region(&mut self, stmt: StmtId, region: Option<StmtId>) -> bool {
        let Some(region_loop) = region else {
            return true;
        };
        let Some((loop_stmt, loop_proc)) = self.program.find_stmt(region_loop).map(|(s, p)| {
            if let suif_ir::Stmt::Do { line, end_line, .. } = s {
                ((*line, *end_line), p)
            } else {
                ((0, u32::MAX), p)
            }
        }) else {
            return true;
        };
        let Some(sproc) = self.program.stmt_proc(stmt) else {
            return false;
        };
        if sproc == loop_proc {
            let line = self.issa.stmt_lines.get(&stmt).copied().unwrap_or_else(|| {
                self.program
                    .find_stmt(stmt)
                    .map(|(s, _)| s.line())
                    .unwrap_or(0)
            });
            return line >= loop_stmt.0 && line <= loop_stmt.1;
        }
        // Statements in procedures called from inside the loop are inside.
        let program = self.program;
        (self.loop_callees.entry(region_loop))
            .or_insert_with(|| suif_ir::callees_of_loop(program, region_loop))
            .binary_search(&sproc)
            .is_ok()
    }

    /// Demand-driven, memoized summary computation with a Kleene fixed
    /// point over the reachable subgraph (loop φ recurrences, §3.5.3).
    fn summary_of(&mut self, root: ValueId, key: &OptKey) -> Summary {
        if let Some(s) = self.memo.get(&(key.clone(), root.0)) {
            return s.clone();
        }
        // Collect the reachable subgraph.
        let mut reach: Vec<ValueId> = Vec::new();
        let mut seen: HashSet<ValueId> = HashSet::new();
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            if !seen.insert(v) {
                continue;
            }
            reach.push(v);
            for s in self.successors(v, key) {
                stack.push(s);
            }
        }
        // Kleene iteration.
        let mut sums: HashMap<ValueId, Summary> =
            reach.iter().map(|&v| (v, Summary::default())).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &v in &reach {
                let s = self.local_summary(v, key, &sums);
                let slot = sums.get_mut(&v).unwrap();
                if slot.merge(&s) {
                    changed = true;
                }
            }
        }
        for (&v, s) in &sums {
            self.memo.insert((key.clone(), v.0), s.clone());
        }
        sums.remove(&root).unwrap_or_default()
    }

    /// Value successors followed for this configuration.
    fn successors(&mut self, v: ValueId, key: &OptKey) -> Vec<ValueId> {
        let mut out = Vec::new();
        match self.issa.def(v).clone() {
            Def::Param { .. } => {}
            Def::Stmt { stmt, ops, weak } => {
                let pruned_ar = key.ar && weak;
                let pruned_cr = !self.in_region(stmt, key.region);
                if !(pruned_ar || pruned_cr) {
                    out.extend(ops);
                    if key.kind == SliceKind::Program {
                        for (_, cvals) in self.issa.control_chain(stmt) {
                            out.extend(cvals);
                        }
                    }
                }
            }
            Def::Phi { ops } => out.extend(ops),
            Def::CallReturn {
                call,
                callee,
                callee_var,
            } => {
                if self.in_region(call, key.region) {
                    if let Some(&exit) = self.issa.exit_values.get(&(callee, callee_var)) {
                        out.push(exit);
                    }
                    // Formals of the callee resolve through this call's
                    // bindings — add them so the fixed point covers them.
                    // (They are added lazily in local_summary.)
                }
            }
        }
        // CallReturn formal expansion: successors include bound values of
        // the callee's formals at this call.
        if let Def::CallReturn { call, callee, .. } = self.issa.def(v).clone() {
            if self.in_region(call, key.region) {
                let keys: Vec<SliceVar> = self
                    .issa
                    .params
                    .keys()
                    .filter(|(p, _)| *p == callee)
                    .map(|(_, sv)| *sv)
                    .collect();
                for sv in keys {
                    if let Some(&b) = self.issa.bindings.get(&(call, sv)) {
                        out.push(b);
                    }
                }
            }
        }
        out
    }

    fn local_summary(
        &mut self,
        v: ValueId,
        key: &OptKey,
        sums: &HashMap<ValueId, Summary>,
    ) -> Summary {
        let mut out = Summary::default();
        let get = |x: ValueId, out: &mut Summary| {
            if let Some(s) = sums.get(&x) {
                out.merge(s);
            }
        };
        match self.issa.def(v).clone() {
            Def::Param { proc, var } => {
                out.formals.insert((proc, var));
            }
            Def::Stmt { stmt, ops, weak } => {
                let pruned_ar = key.ar && weak;
                let pruned_cr = !self.in_region(stmt, key.region);
                if pruned_cr {
                    // Outside the region: terminal, statement excluded.
                    out.terminals.insert(stmt);
                    return out;
                }
                out.stmts.insert(stmt);
                if pruned_ar {
                    out.terminals.insert(stmt);
                    return out;
                }
                for o in ops {
                    get(o, &mut out);
                }
                if key.kind == SliceKind::Program {
                    for (cstmt, cvals) in self.issa.control_chain(stmt) {
                        if self.in_region(cstmt, key.region) {
                            out.stmts.insert(cstmt);
                        }
                        for cv in cvals {
                            get(cv, &mut out);
                        }
                    }
                }
            }
            Def::Phi { ops } => {
                for o in ops {
                    get(o, &mut out);
                }
            }
            Def::CallReturn {
                call,
                callee,
                callee_var,
            } => {
                if !self.in_region(call, key.region) {
                    out.terminals.insert(call);
                    return out;
                }
                out.stmts.insert(call);
                if let Some(&exit) = self.issa.exit_values.get(&(callee, callee_var)) {
                    // The callee's contribution: its call subslice, plus its
                    // formals mapped through THIS call site (context
                    // sensitivity, §3.5.2).
                    if let Some(cs) = sums.get(&exit) {
                        out.stmts.extend(cs.stmts.iter().copied());
                        out.terminals.extend(cs.terminals.iter().copied());
                        for &(fproc, fvar) in &cs.formals {
                            if fproc == callee {
                                if let Some(&b) = self.issa.bindings.get(&(call, fvar)) {
                                    get(b, &mut out);
                                    continue;
                                }
                            }
                            // Unbound (callee local): terminal input.
                        }
                    }
                }
            }
        }
        out
    }

    fn finish_lines(&self, out: &mut Slice) {
        for &s in &out.stmts {
            if let Some(&l) = self.issa.stmt_lines.get(&s) {
                out.lines.insert(l);
            } else if let Some((stmt, _)) = self.program.find_stmt(s) {
                out.lines.insert(stmt.line());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    fn stmt_on_line(p: &Program, line: u32) -> StmtId {
        let mut out = None;
        for proc in &p.procedures {
            p.walk_stmts(proc.id, &mut |s, _| {
                if s.line() == line && out.is_none() {
                    out = Some(s.id());
                }
            });
        }
        out.unwrap_or_else(|| panic!("no stmt on line {line}"))
    }

    #[test]
    fn data_slice_follows_def_use_chain() {
        let src = "\
program t
proc main() {
  int a, b, c, d
  a = 1
  b = a + 2
  c = 7
  d = b * 3
  print d
}
";
        let p = parse_program(src).unwrap();
        let mut sl = Slicer::new(&p);
        let print_stmt = stmt_on_line(&p, 8);
        let d = p.var_by_name("main", "d").unwrap();
        let s = sl
            .slice_use(print_stmt, d, SliceKind::Data, &SliceOptions::default())
            .unwrap();
        // Slice: a=1 (4), b=a+2 (5), d=b*3 (7); NOT c=7 (6).
        assert_eq!(s.lines, [4u32, 5, 7].into_iter().collect());
    }

    #[test]
    fn program_slice_includes_control() {
        let src = "\
program t
proc main() {
  int a, b, k
  k = 1
  a = 0
  if k > 0 {
    a = 2
  }
  b = a
  print b
}
";
        let p = parse_program(src).unwrap();
        let mut sl = Slicer::new(&p);
        let use_stmt = stmt_on_line(&p, 9);
        let a = p.var_by_name("main", "a").unwrap();
        let data = sl
            .slice_use(use_stmt, a, SliceKind::Data, &SliceOptions::default())
            .unwrap();
        let prog = sl
            .slice_use(use_stmt, a, SliceKind::Program, &SliceOptions::default())
            .unwrap();
        // Data slice: both a-defs (lines 5, 7); program slice additionally
        // the if (6) and k = 1 (4).
        assert!(data.lines.contains(&5) && data.lines.contains(&7));
        assert!(!data.lines.contains(&6));
        assert!(
            prog.lines.contains(&6) && prog.lines.contains(&4),
            "{:?}",
            prog.lines
        );
    }

    #[test]
    fn context_sensitive_slice_does_not_mix_callers() {
        // §3.5.1's example: two callers pass different values; the slice of
        // the value in P must not pick up Q's assignment.
        let src = "\
program t
proc r(int f) {
  f = f + 1
}
proc p() {
  int g
  g = 1
  call r(g)
  print g
}
proc q() {
  int h
  h = 2
  call r(h)
}
proc main() {
  call p()
  call q()
}
";
        let p = parse_program(src).unwrap();
        let mut sl = Slicer::new(&p);
        let print_stmt = stmt_on_line(&p, 9);
        let g = p.var_by_name("p", "g").unwrap();
        let s = sl
            .slice_use(print_stmt, g, SliceKind::Data, &SliceOptions::default())
            .unwrap();
        assert!(s.lines.contains(&7), "g = 1 in slice: {:?}", s.lines);
        assert!(s.lines.contains(&3), "f = f + 1 in slice");
        assert!(
            !s.lines.contains(&13),
            "context-insensitive leak of `h = 2`: {:?}",
            s.lines
        );
    }

    #[test]
    fn loop_recurrence_reaches_fixed_point() {
        let src = "\
program t
proc main() {
  int i, s, t
  s = 0
  t = 5
  do i = 1, 10 {
    s = s + t
  }
  print s
}
";
        let p = parse_program(src).unwrap();
        let mut sl = Slicer::new(&p);
        let print_stmt = stmt_on_line(&p, 9);
        let s_var = p.var_by_name("main", "s").unwrap();
        let s = sl
            .slice_use(print_stmt, s_var, SliceKind::Data, &SliceOptions::default())
            .unwrap();
        assert!(s.lines.contains(&4), "s = 0");
        assert!(s.lines.contains(&5), "t = 5");
        assert!(s.lines.contains(&7), "s = s + t");
    }

    #[test]
    fn array_restriction_prunes_at_array_reads() {
        let src = "\
program t
proc main() {
  real a[10]
  int i, k
  do i = 1, 10 {
    a[i] = i * 2
  }
  k = ifix(a[3])
  print k
}
";
        let p = parse_program(src).unwrap();
        let mut sl = Slicer::new(&p);
        let print_stmt = stmt_on_line(&p, 9);
        let k = p.var_by_name("main", "k").unwrap();
        let full = sl
            .slice_use(print_stmt, k, SliceKind::Data, &SliceOptions::default())
            .unwrap();
        let ar = sl
            .slice_use(
                print_stmt,
                k,
                SliceKind::Data,
                &SliceOptions {
                    array_restricted: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(full.lines.contains(&6), "array fill in full slice");
        assert!(!ar.lines.is_empty());
        assert!(
            ar.num_lines() < full.num_lines(),
            "AR ({:?}) smaller than full ({:?})",
            ar.lines,
            full.lines
        );
        assert!(!ar.terminals.is_empty(), "pruned nodes are highlighted");
    }

    #[test]
    fn region_restriction_prunes_outside_the_loop() {
        let src = "\
program t
proc main() {
  real a[10]
  int i, base, k
  base = 4
  do 10 i = 1, 10 {
    k = base + i
    a[i] = k
  }
  print a[1]
}
";
        let p = parse_program(src).unwrap();
        let mut sl = Slicer::new(&p);
        // Slice of k's use at line 8.
        let use_stmt = stmt_on_line(&p, 8);
        let k = p.var_by_name("main", "k").unwrap();
        let full = sl
            .slice_use(use_stmt, k, SliceKind::Data, &SliceOptions::default())
            .unwrap();
        assert!(full.lines.contains(&5), "base = 4 in full slice");
        let loop_stmt = stmt_on_line(&p, 6);
        let cr = sl
            .slice_use(
                use_stmt,
                k,
                SliceKind::Data,
                &SliceOptions {
                    region: Some(loop_stmt),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!cr.lines.contains(&5), "base = 4 pruned: {:?}", cr.lines);
        assert!(cr.lines.contains(&7), "k = base + i kept");
    }

    #[test]
    fn control_slice_of_guarded_write() {
        // The Fig. 3-1 XPS pattern: the write is guarded, the read is not.
        let src = "\
program t
proc main() {
  real xps[8], y[9], xp[64]
  int s, h, jj, ree
  ree = 1
  do 2365 s = 1, 8 {
    if s != 1 && ree > 0 {
      do 2350 h = 1, 8 {
        xps[h] = y[h + 1]
      }
    }
    do 2360 jj = 1, 8 {
      xp[s + (jj - 1) * 8] = xps[jj]
    }
  }
}
";
        let p = parse_program(src).unwrap();
        let mut sl = Slicer::new(&p);
        // Control slice of the write xps[h] = … at line 9.
        let wstmt = stmt_on_line(&p, 9);
        let cs = sl.control_slice(wstmt, &SliceOptions::default());
        // It must include the guarding IF (line 7) and the definition of
        // ree (line 5) feeding the condition.
        assert!(cs.lines.contains(&7), "{:?}", cs.lines);
        assert!(cs.lines.contains(&5), "{:?}", cs.lines);
        // The read at line 13 is NOT control dependent on the IF.
        let rstmt = stmt_on_line(&p, 13);
        let cr = sl.control_slice(rstmt, &SliceOptions::default());
        assert!(!cr.lines.contains(&7), "{:?}", cr.lines);
    }

    #[test]
    fn cslice_restricts_to_one_call_stack() {
        let src = "\
program t
proc r(int f) {
  f = f * 2
}
proc p() {
  int g
  g = 1
  call r(g)
  print g
}
proc q() {
  int h
  h = 3
  call r(h)
  print h
}
proc main() {
  call p()
  call q()
}
";
        let p = parse_program(src).unwrap();
        let mut sl = Slicer::new(&p);
        // Slice the callee's own use of f inside r, with context [call in q].
        let f_update = stmt_on_line(&p, 3);
        let f = p.var_by_name("r", "f").unwrap();
        let call_in_q = stmt_on_line(&p, 14);
        let call_in_p = stmt_on_line(&p, 8);
        let with_q = sl
            .slice_use(
                f_update,
                f,
                SliceKind::Data,
                &SliceOptions {
                    context: Some(vec![call_in_q]),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            with_q.lines.contains(&13),
            "h = 3 via q: {:?}",
            with_q.lines
        );
        assert!(
            !with_q.lines.contains(&7),
            "g = 1 excluded: {:?}",
            with_q.lines
        );
        let with_p = sl
            .slice_use(
                f_update,
                f,
                SliceKind::Data,
                &SliceOptions {
                    context: Some(vec![call_in_p]),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(with_p.lines.contains(&7));
        assert!(!with_p.lines.contains(&13));
    }
}
