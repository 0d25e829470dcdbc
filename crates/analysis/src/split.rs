//! Common-block live-range splitting (§5.5, Fig. 5-9/5-10).
//!
//! Fortran programs reuse one common block for unrelated data in different
//! program phases, often under *different shapes per procedure*.  Liveness
//! lets the compiler prove the live ranges disjoint and split the block into
//! independent blocks, freeing the layout/decomposition of each phase.
//!
//! Splittability is decided with a phase-flow check driven by the data-flow
//! summaries: procedures are grouped by their view layout of the block; a
//! split into groups is legal when no value written under one group's view
//! is ever exposed-read under another group's view.  We verify this with a
//! forward walk over every procedure body tracking which group last wrote
//! the block: a call into a group with upwards-exposed reads of the block is
//! only legal if that same group was the last writer (or the block is
//! dead-so-far); a callee that must-writes the full used range of the block
//! resets the last-writer set (the §5.5 "kill" that separates phases).

use crate::context::{AnalysisCtx, ArrayKey};
use crate::parallelize::ProgramAnalysis;
use std::collections::{HashMap, HashSet};
use suif_ir::{pretty, CommonId, Extent, ProcId, Program, Stmt};
use suif_poly::Section;

/// A discovered split: the block can be separated into `groups` independent
/// blocks, one per layout group.
#[derive(Clone, Debug)]
pub struct BlockSplit {
    /// The block.
    pub block: CommonId,
    /// Block name.
    pub name: String,
    /// Procedure groups (by identical layout); one new block per group.
    pub groups: Vec<Vec<ProcId>>,
}

/// Layout signature of one view: the (type, extents) sequence.
fn layout_signature(program: &Program, members: &[suif_ir::VarId]) -> String {
    members
        .iter()
        .map(|&v| {
            let info = program.var(v);
            let dims: Vec<String> = info
                .dims
                .iter()
                .map(|d| match d {
                    Extent::Const(c) => c.to_string(),
                    Extent::Var(_) => "?".into(),
                    Extent::Star => "*".into(),
                })
                .collect();
            format!("{:?}[{}]", info.ty, dims.join(","))
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Find the splittable common blocks of a program.
pub fn find_splits(pa: &ProgramAnalysis<'_>) -> Vec<BlockSplit> {
    let ctx = &pa.ctx;
    let program = ctx.program;
    let mut out = Vec::new();

    for (bi, blk) in program.commons.iter().enumerate() {
        let block = CommonId(bi as u32);
        // Group views by layout signature.
        let mut groups: HashMap<String, Vec<ProcId>> = HashMap::new();
        for view in &blk.views {
            let sig = layout_signature(program, &view.members);
            groups.entry(sig).or_default().push(view.proc);
        }
        if groups.len() < 2 {
            continue; // single layout — nothing to split (§5.5 targets
                      // "aliased variables of different types/shapes")
        }
        let group_list: Vec<Vec<ProcId>> = {
            let mut v: Vec<(String, Vec<ProcId>)> = groups.into_iter().collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v.into_iter().map(|(_, g)| g).collect()
        };
        // Group of each proc (transitively: a proc belongs to the groups of
        // every view reachable through its calls).
        let mut proc_groups: HashMap<ProcId, HashSet<usize>> = HashMap::new();
        for (gi, g) in group_list.iter().enumerate() {
            for &p in g {
                proc_groups.entry(p).or_default().insert(gi);
            }
        }
        // Propagate bottom-up through the call graph.
        for &p in ctx.cg.bottom_up() {
            let mut set: HashSet<usize> = proc_groups.get(&p).cloned().unwrap_or_default();
            for &c in ctx.cg.callees_of(p) {
                if let Some(cg) = proc_groups.get(&c) {
                    set.extend(cg.iter().copied());
                }
            }
            proc_groups.insert(p, set);
        }

        if split_is_legal(pa, block, &group_list, &proc_groups) {
            out.push(BlockSplit {
                block,
                name: blk.name.clone(),
                groups: group_list,
            });
        }
    }
    out
}

struct SplitPass<'a, 'p> {
    pa: &'a ProgramAnalysis<'p>,
}

impl crate::pipeline::Pass for SplitPass<'_, '_> {
    type Output = Vec<BlockSplit>;
    fn key(&self) -> crate::pipeline::FactKey {
        crate::pipeline::FactKey::new(
            crate::pipeline::PassId::Split,
            crate::pipeline::Scope::Program,
        )
    }
    fn input_hash(&self) -> u128 {
        self.pa.epoch_hash
    }
    fn deps(&self) -> Vec<crate::pipeline::FactKey> {
        let mut d = crate::parallelize::summary_keys(&self.pa.ctx);
        d.push(crate::pipeline::FactKey::new(
            crate::pipeline::PassId::Liveness,
            crate::pipeline::Scope::Program,
        ));
        d
    }
    fn run(&self) -> Vec<BlockSplit> {
        find_splits(self.pa)
    }
}

/// Demand-driven [`find_splits`]: computed the first time a query asks,
/// reused from the fact store afterwards.
pub fn find_splits_cached(
    pa: &ProgramAnalysis<'_>,
    store: &crate::pipeline::FactStore,
) -> std::sync::Arc<Vec<BlockSplit>> {
    store.demand(&SplitPass { pa })
}

/// The used range of the block: union of every view's extent.
fn used_range(ctx: &AnalysisCtx<'_>, block: CommonId) -> Section {
    let program = ctx.program;
    let mut out: Option<Section> = None;
    for view in &program.commons[block.0 as usize].views {
        for &m in &view.members {
            let s = ctx.whole_section(m);
            out = Some(match out {
                Some(acc) => acc.union(&s),
                None => s,
            });
        }
    }
    out.expect("block has at least one view")
}

fn split_is_legal(
    pa: &ProgramAnalysis<'_>,
    block: CommonId,
    groups: &[Vec<ProcId>],
    proc_groups: &HashMap<ProcId, HashSet<usize>>,
) -> bool {
    let ctx = &pa.ctx;
    let program = ctx.program;
    let block_id = ctx.array_of(program.commons[block.0 as usize].views[0].members[0]);
    let range = used_range(ctx, block);

    // Per-proc facts from the interprocedural summaries.
    let df = pa.df();
    let exposed_of = |p: ProcId| -> bool {
        df.proc_summary
            .get(&p)
            .and_then(|n| n.acc.get(block_id))
            .map(|s| !s.exposed.is_empty())
            .unwrap_or(false)
    };
    let writes = |p: ProcId| -> bool {
        df.proc_summary
            .get(&p)
            .and_then(|n| n.acc.get(block_id))
            .map(|s| !s.write.is_empty())
            .unwrap_or(false)
    };
    let must_covers_range = |p: ProcId| -> bool {
        df.proc_summary
            .get(&p)
            .and_then(|n| n.acc.get(block_id))
            .map(|s| range.provably_subset_of(&s.must_write))
            .unwrap_or(false)
    };

    // A procedure touching multiple groups itself mixes phases: not
    // splittable along these groups if it also flows values (conservative:
    // reject when it has exposed reads of the block).
    for (&p, gs) in proc_groups {
        if gs.len() > 1 && exposed_of(p) {
            return false;
        }
        let _ = groups;
    }

    // Phase-flow check: walk each procedure body; `last` = groups that may
    // have written the block since the last full kill.  `None` group info on
    // a call means the callee does not touch the block.
    fn check_body(
        body: &[Stmt],
        last: &mut HashSet<usize>,
        exposed_of: &dyn Fn(ProcId) -> bool,
        writes: &dyn Fn(ProcId) -> bool,
        must_covers: &dyn Fn(ProcId) -> bool,
        proc_groups: &HashMap<ProcId, HashSet<usize>>,
    ) -> bool {
        for s in body {
            match s {
                Stmt::Call { callee, .. } => {
                    let gs = proc_groups.get(callee).cloned().unwrap_or_default();
                    if gs.is_empty() {
                        continue;
                    }
                    if exposed_of(*callee) && !last.is_empty() && !last.is_subset(&gs) {
                        return false; // cross-group value flow
                    }
                    if must_covers(*callee) {
                        *last = gs;
                    } else if writes(*callee) {
                        last.extend(gs);
                    }
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    let mut l2 = last.clone();
                    if !check_body(
                        then_body,
                        last,
                        exposed_of,
                        writes,
                        must_covers,
                        proc_groups,
                    ) {
                        return false;
                    }
                    if !check_body(
                        else_body,
                        &mut l2,
                        exposed_of,
                        writes,
                        must_covers,
                        proc_groups,
                    ) {
                        return false;
                    }
                    last.extend(l2);
                }
                Stmt::Do { body, .. } => {
                    // Two passes ≈ fixed point for the cyclic flow.
                    for _ in 0..2 {
                        if !check_body(body, last, exposed_of, writes, must_covers, proc_groups) {
                            return false;
                        }
                    }
                }
                _ => {}
            }
        }
        true
    }

    for proc in &program.procedures {
        let mut last = HashSet::new();
        if !check_body(
            &proc.body,
            &mut last,
            &exposed_of,
            &writes,
            &must_covers_range,
            proc_groups,
        ) {
            return false;
        }
    }
    true
}

/// Apply splits: every group after the first gets a renamed copy of the
/// block.  Legal because the analysis proved no value flows between groups.
pub fn apply_splits(program: &Program, splits: &[BlockSplit]) -> Result<Program, String> {
    let mut src = pretty::program_to_string(program);
    for sp in splits {
        for (gi, group) in sp.groups.iter().enumerate().skip(1) {
            let new_name = format!("{}_{}", sp.name, gi);
            // Rewrite the declaration lines of the group's procedures.
            for &p in group {
                let pname = &program.proc(p).name;
                src = rename_block_in_proc(&src, pname, &sp.name, &new_name);
            }
        }
    }
    suif_ir::parse_program(&src).map_err(|e| format!("split program failed to reparse: {e}"))
}

fn rename_block_in_proc(src: &str, proc: &str, block: &str, new_block: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut in_proc = false;
    for line in src.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("proc ") {
            in_proc = trimmed
                .strip_prefix("proc ")
                .map(|r| r.split('(').next() == Some(proc))
                .unwrap_or(false);
        }
        if in_proc && trimmed.starts_with(&format!("common /{block}/")) {
            out.push_str(&line.replace(
                &format!("common /{block}/"),
                &format!("common /{new_block}/"),
            ));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Return the key of the (pre-split) block object, for reporting.
pub fn block_key(block: CommonId) -> ArrayKey {
    ArrayKey::Common(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallelize::{ParallelizeConfig, Parallelizer};
    use suif_ir::parse_program;

    /// hydro2d's varh pattern (Fig. 5-9): tistep reads vz which vps wrote;
    /// trans2 fully rewrites vz1 before fct reads it.  The two live ranges
    /// never cross.
    const HYDRO2D: &str = r#"program t
const mp = 6
const np = 4
proc tistep() {
  common /varh/ real vz[mp, np]
  real acc
  int i, j
  acc = 0
  do 1 j = 1, np {
    do 2 i = 1, mp {
      acc = acc + vz[i, j]
    }
  }
  print acc
}
proc trans2() {
  common /varh/ real vz1[mp, np]
  int i, j
  do 1 j = 1, np {
    do 2 i = 1, mp {
      vz1[i, j] = i * j * 2
    }
  }
}
proc fct() {
  common /varh/ real vz1[mp, np]
  real acc
  int i, j
  acc = 0
  do 1 j = 1, np {
    do 2 i = 1, mp {
      acc = acc + vz1[i, j]
    }
  }
  print acc
}
proc vps() {
  common /varh/ real vz[mp, np]
  int i, j
  do 1 j = 1, np {
    do 2 i = 1, mp {
      vz[i, j] = i + j
    }
  }
}
proc advnce() {
  call trans2()
  call fct()
}
proc check() {
  call vps()
}
proc main() {
  int icnt
  call vps()
  do 100 icnt = 1, 5 {
    call tistep()
    call advnce()
    call check()
  }
}
"#;

    #[test]
    fn splits_hydro2d_varh() {
        // The two views have identical shapes here, so give them different
        // member names but same layout → same signature… the paper's case
        // has *different* shapes; adjust vz1's shape.
        let src = HYDRO2D.replace("real vz1[mp, np]", "real vz1[mp, 4]");
        // Same extents numerically (np = 4), different declaration form —
        // the signature is computed from resolved constants, so make it
        // genuinely different: use a flattened 1-D view.
        let src = src.replace("real vz1[mp, 4]", "real vz1[24]");
        let src = src.replace("vz1[i, j]", "vz1[i + (j - 1) * mp]");
        let p = parse_program(&src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let splits = find_splits(&pa);
        assert_eq!(splits.len(), 1, "varh must split: {splits:?}");
        assert_eq!(splits[0].groups.len(), 2);
        // And the split program still parses & resolves.
        let p2 = apply_splits(&p, &splits).unwrap();
        assert_eq!(p2.commons.len(), 2);
    }

    #[test]
    fn cross_phase_flow_blocks_split() {
        // fct reads vz1 but vps (other group) wrote it last → not splittable.
        let src = r#"program t
const mp = 6
proc writer() {
  common /c/ real a[mp]
  int i
  do 1 i = 1, mp {
    a[i] = i
  }
}
proc reader() {
  common /c/ real b[12]
  real acc
  int i
  acc = 0
  do 1 i = 1, mp {
    acc = acc + b[i]
  }
  print acc
}
proc main() {
  call writer()
  call reader()
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let splits = find_splits(&pa);
        assert!(splits.is_empty(), "value flows across views: {splits:?}");
    }
    #[test]
    fn three_disjoint_phases_split_into_three_groups() {
        // Three procedures use the same common block through three
        // shape-distinct views with no cross-phase value flow: the block
        // splits into one group per view signature.
        let src = r#"program t
proc pa() {
  common /c/ real a[6]
  int i
  do 1 i = 1, 6 {
    a[i] = i
  }
  print a[1]
}
proc pb() {
  common /c/ real b[2, 3]
  int i, j
  do 1 j = 1, 3 {
    do 2 i = 1, 2 {
      b[i, j] = i * j
    }
  }
  print b[1, 1]
}
proc pc() {
  common /c/ real c1[3], real c2[3]
  int i
  do 1 i = 1, 3 {
    c1[i] = i
    c2[i] = 2 * i
  }
  print c1[1], c2[3]
}
proc main() {
  call pa()
  call pb()
  call pc()
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let splits = find_splits(&pa);
        assert_eq!(splits.len(), 1, "{splits:?}");
        assert_eq!(splits[0].groups.len(), 3, "{splits:?}");
        let p2 = apply_splits(&p, &splits).unwrap();
        assert_eq!(p2.commons.len(), 3);
        // The rewritten program still analyzes cleanly.
        let _ = Parallelizer::analyze(&p2, ParallelizeConfig::default());
    }
}
