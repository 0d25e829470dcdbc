//! Data-decomposition advisory (§4.2.4, Fig. 4-6, and the §7.5.1 "Explorer
//! for memory performance" direction).
//!
//! For each parallel loop, every accessed shared array gets an implied
//! *partitioning stride*: how the accessed linearized addresses move per
//! iteration of the parallel index.  Two parallel loops that partition the
//! same array with different strides force data reshuffling between them
//! (hydro's `vsetuv/85` distributes by column while `vqterm/85` distributes
//! by row); a stride much larger than 1 also means non-contiguous
//! per-processor data (poor spatial locality in column-major storage).
//! The advisory reports both — the facts behind the paper's manual loop
//! interchanges and array transposes.

use crate::context::AnalysisCtx;
use crate::parallelize::ProgramAnalysis;
use std::collections::BTreeMap;
use suif_ir::StmtId;
use suif_poly::{ArrayId, ConstraintKind, Section, Var};

/// The partitioning stride of one array in one parallel loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stride {
    /// Addresses advance by this many elements per index step (1 =
    /// contiguous / row partition; `m` = column partition of an `m × n`
    /// array).
    Elements(i64),
    /// The relation between the index and the addresses is not a single
    /// affine stride.
    Irregular,
}

/// One (loop, array) partitioning fact.
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// The parallel loop.
    pub loop_stmt: StmtId,
    /// Loop name.
    pub loop_name: String,
    /// The array object.
    pub object: ArrayId,
    /// Display name.
    pub object_name: String,
    /// Implied stride.
    pub stride: Stride,
    /// Whether the loop writes the array (writers pin the decomposition).
    pub writes: bool,
}

/// A conflict: one array partitioned differently by two parallel loops.
#[derive(Clone, Debug)]
pub struct DecompConflict {
    /// The array.
    pub object_name: String,
    /// First loop and its stride.
    pub a: (String, Stride),
    /// Second loop and its stride.
    pub b: (String, Stride),
}

/// Extract the stride of `sec` with respect to the loop-index symbol: looks
/// for an equality `c_d·d0 + c_i·index + … == 0` and returns
/// `-c_i / c_d` when integral.
fn stride_of(sec: &Section, index: Var) -> Option<Stride> {
    if sec.is_empty() {
        return None;
    }
    let mut found: Option<i64> = None;
    for p in sec.set.disjuncts() {
        // Every constraint relating d0 and the index (equality `d0 == s·i + c`
        // or window bounds `s·i + a <= d0 <= s·i + b`) must agree on the
        // ratio s = -c_i / c_d.
        let mut this: Option<i64> = None;
        let mut consistent = true;
        for c in p.constraints() {
            let _ = c.kind == ConstraintKind::EqZero; // both kinds handled alike
            let cd = c.expr.coef(Var::Dim(0));
            let ci = c.expr.coef(index);
            if cd == 0 || ci == 0 {
                continue;
            }
            if ci % cd != 0 {
                consistent = false;
                break;
            }
            let s = -(ci / cd);
            match this {
                None => this = Some(s),
                Some(prev) if prev == s => {}
                Some(_) => {
                    consistent = false;
                    break;
                }
            }
        }
        if !consistent {
            return Some(Stride::Irregular);
        }
        match (found, this) {
            (None, Some(s)) => found = Some(s),
            (Some(a), Some(b)) if a == b => {}
            (_, None) => return Some(Stride::Irregular),
            (Some(_), Some(_)) => return Some(Stride::Irregular),
        }
    }
    found.map(Stride::Elements)
}

/// Compute the partitionings of every shared array across all parallel
/// loops (only outermost parallel loops are considered — those define the
/// run-time distribution).
pub fn partitionings(pa: &ProgramAnalysis<'_>) -> Vec<Partitioning> {
    let ctx = &pa.ctx;
    let parallel = pa.parallel_loops();
    let mut out = Vec::new();
    for li in &ctx.tree.loops {
        if !parallel.contains(&li.stmt) {
            continue;
        }
        // Skip loops nested (statically) inside another parallel loop.
        if parallel
            .iter()
            .any(|&p| p != li.stmt && ctx.tree.is_nested_in(li.stmt, p))
        {
            continue;
        }
        let Some(iter) = pa.df().loop_iter.get(&li.stmt) else {
            continue;
        };
        for (id, s) in iter.sum.acc.iter() {
            if !ctx.is_array_object(id) {
                continue;
            }
            // Only shared (non-privatized) arrays matter for decomposition;
            // approximate: skip objects the plan privatizes or reduces.
            if let Some(crate::parallelize::LoopVerdict::Parallel { plan, .. }) =
                pa.verdicts.get(&li.stmt)
            {
                let key = ctx.key_of_id(id);
                if plan.private.contains(&key)
                    || plan.finalize_last.contains(&key)
                    || plan.reductions.iter().any(|(k, _)| *k == key)
                {
                    continue;
                }
            }
            let writes = !s.write.is_empty();
            let probe = if writes { &s.write } else { &s.read };
            let Some(stride) = stride_of(probe, iter.index_sym) else {
                continue;
            };
            out.push(Partitioning {
                loop_stmt: li.stmt,
                loop_name: li.name.clone(),
                object: id,
                object_name: ctx.array_name(id),
                stride,
                writes,
            });
        }
    }
    out
}

/// Find arrays partitioned with conflicting strides by different parallel
/// loops (the Fig. 4-6 data-reshuffling diagnosis).
pub fn conflicts(pa: &ProgramAnalysis<'_>) -> Vec<DecompConflict> {
    let parts = partitionings(pa);
    let mut by_object: BTreeMap<ArrayId, Vec<&Partitioning>> = BTreeMap::new();
    for p in &parts {
        by_object.entry(p.object).or_default().push(p);
    }
    let mut out = Vec::new();
    for (_, ps) in by_object {
        for i in 0..ps.len() {
            for j in i + 1..ps.len() {
                let (a, b) = (ps[i], ps[j]);
                if a.loop_stmt == b.loop_stmt {
                    continue;
                }
                if !(a.writes || b.writes) {
                    continue; // read-read never forces reshuffling
                }
                if a.stride != b.stride {
                    out.push(DecompConflict {
                        object_name: a.object_name.clone(),
                        a: (a.loop_name.clone(), a.stride.clone()),
                        b: (b.loop_name.clone(), b.stride.clone()),
                    });
                }
            }
        }
    }
    out.dedup_by(|x, y| x.object_name == y.object_name && x.a.0 == y.a.0 && x.b.0 == y.b.0);
    out
}

/// The advisory as one program-scope fact: partitionings plus conflicts.
#[derive(Clone, Debug)]
pub struct DecompFact {
    /// Per-(loop, array) partitioning facts.
    pub partitionings: Vec<Partitioning>,
    /// Conflicting decompositions between parallel loops.
    pub conflicts: Vec<DecompConflict>,
}

struct DecompPass<'a, 'p> {
    pa: &'a ProgramAnalysis<'p>,
}

impl crate::pipeline::Pass for DecompPass<'_, '_> {
    type Output = DecompFact;
    fn key(&self) -> crate::pipeline::FactKey {
        crate::pipeline::FactKey::new(
            crate::pipeline::PassId::Decomp,
            crate::pipeline::Scope::Program,
        )
    }
    fn input_hash(&self) -> u128 {
        self.pa.epoch_hash
    }
    fn deps(&self) -> Vec<crate::pipeline::FactKey> {
        // The advisory reads the verdicts, so an invalidated classification
        // fact (a user assertion) dirties it too.
        let mut d = crate::parallelize::summary_keys(&self.pa.ctx);
        for &stmt in self.pa.verdicts.keys() {
            d.push(crate::pipeline::FactKey::new(
                crate::pipeline::PassId::Classify,
                crate::pipeline::Scope::Loop(stmt),
            ));
        }
        d
    }
    fn run(&self) -> DecompFact {
        DecompFact {
            partitionings: partitionings(self.pa),
            conflicts: conflicts(self.pa),
        }
    }
}

/// Demand-driven advisory: computed the first time a query asks, reused
/// from the fact store afterwards.
pub fn advisory_cached(
    pa: &ProgramAnalysis<'_>,
    store: &crate::pipeline::FactStore,
) -> std::sync::Arc<DecompFact> {
    store.demand(&DecompPass { pa })
}

/// Render the advisory (the textual Fig. 4-6).
pub fn render_advisory(pa: &ProgramAnalysis<'_>) -> String {
    let mut out = String::new();
    let parts = partitionings(pa);
    out.push_str("array partitionings implied by the parallel loops:\n");
    for p in &parts {
        out.push_str(&format!(
            "  {:<16} {:<10} stride {:<12} {}\n",
            p.loop_name,
            p.object_name,
            match &p.stride {
                Stride::Elements(1) => "1 (rows)".to_string(),
                Stride::Elements(s) => format!("{s} (columns)"),
                Stride::Irregular => "irregular".to_string(),
            },
            if p.writes { "writes" } else { "reads" }
        ));
    }
    let cs = conflicts(pa);
    if cs.is_empty() {
        out.push_str("no conflicting decompositions.\n");
    } else {
        out.push_str("\nconflicting decompositions (data reshuffling between loops,\n§4.2.4 — candidates for loop interchange / array transpose):\n");
        for c in &cs {
            out.push_str(&format!(
                "  {}: {} uses {:?}, {} uses {:?}\n",
                c.object_name, c.a.0, c.a.1, c.b.0, c.b.1
            ));
        }
    }
    let _ = AnalysisCtx::sym_of; // keep the import shape stable
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallelize::{Assertion, ParallelizeConfig, Parallelizer};
    use suif_ir::parse_program;

    /// The Fig. 4-6 pattern: one loop sweeps columns (partition by l), the
    /// other sweeps rows (partition by k) of the same array.
    const SRC: &str = r#"program t
const kmax = 8
const lmax = 8
proc main() {
  real duac[kmax, lmax]
  real acc[kmax]
  int k, l
  do 85 l = 1, lmax {
    do 60 k = 1, kmax {
      duac[k, l] = float(k + l)
    }
  }
  do 95 k = 1, kmax {
    do 80 l = 1, lmax {
      acc[k] = acc[k] + duac[k, l]
    }
  }
  print acc[1]
}
"#;

    #[test]
    fn detects_row_column_conflict() {
        let p = parse_program(SRC).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let parts = partitionings(&pa);
        let find = |loop_name: &str| {
            parts
                .iter()
                .find(|x| x.loop_name == loop_name && x.object_name == "duac")
                .unwrap_or_else(|| panic!("no partitioning for {loop_name}: {parts:?}"))
        };
        // Column-major kmax×lmax: the l-loop strides by kmax (columns), the
        // k-loop strides by 1 (rows).
        assert_eq!(find("main/85").stride, Stride::Elements(8));
        assert_eq!(find("main/95").stride, Stride::Elements(1));
        let cs = conflicts(&pa);
        assert_eq!(cs.len(), 1, "{cs:?}");
        assert_eq!(cs[0].object_name, "duac");
    }

    #[test]
    fn consistent_decompositions_have_no_conflict() {
        let src = r#"program t
const kmax = 8
const lmax = 8
proc main() {
  real a[kmax, lmax]
  int k, l
  do 1 l = 1, lmax {
    do 2 k = 1, kmax {
      a[k, l] = float(k)
    }
  }
  do 3 l = 1, lmax {
    do 4 k = 1, kmax {
      a[k, l] = a[k, l] * 2.0
    }
  }
  print a[1, 1]
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        assert!(conflicts(&pa).is_empty());
    }

    #[test]
    fn hydro_reports_the_vsetuv_vqterm_conflict() {
        // A distilled hydro: vsetuv writes v by column, vqterm reads it by
        // row (the loops are parallel after the case-study assertions).
        let src = r#"program t
const kmax = 8
const lmax = 8
proc main() {
  real v[kmax, lmax], q[kmax, lmax]
  real hold[kmax]
  int k, l
  do 85 l = 2, lmax {
    do 60 k = 1, kmax {
      v[k, l] = float(k * l)
    }
  }
  do 95 k = 2, kmax {
    do 80 l = 2, lmax {
      q[k, l] = v[k, l] - v[k, l - 1]
    }
  }
  print q[2, 2]
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(
            &p,
            ParallelizeConfig {
                assertions: vec![Assertion::Independent {
                    loop_name: "main/95".into(),
                    var: "v".into(),
                }],
                ..Default::default()
            },
        );
        let text = render_advisory(&pa);
        assert!(text.contains("conflicting decompositions"), "{text}");
        assert!(text.contains('v'), "{text}");
    }
}
