//! The Parallelization Guru (§2.6).
//!
//! Quantitative metrics: **parallelism coverage** (fraction of execution
//! time inside parallel regions — Amdahl's limit) and **parallelism
//! granularity** (average computation per parallel-region invocation).
//! The Guru presents a list of sequential loops to parallelize: no I/O, not
//! dynamically nested under a parallel loop, sorted by decreasing measured
//! execution time, annotated with static dependence counts and observed
//! dynamic dependences.

use crate::explorer::Explorer;
use std::collections::HashSet;
use suif_ir::StmtId;

/// One candidate loop for user parallelization.
#[derive(Clone, Debug)]
pub struct TargetLoop {
    /// Loop statement.
    pub stmt: StmtId,
    /// Display name (`proc/label`).
    pub name: String,
    /// Fraction of total execution spent in the loop (inclusive).
    pub coverage: f64,
    /// Average virtual ops per invocation.
    pub granularity: f64,
    /// Number of unresolved static dependences.
    pub static_deps: usize,
    /// Was a loop-carried flow dependence observed dynamically?
    pub dynamic_dep: bool,
    /// Passes the importance cutoffs?
    pub important: bool,
    /// Does the loop body contain procedure calls?
    pub has_calls: bool,
    /// Loop size in source lines (including callees).
    pub size_lines: u32,
}

/// The Guru's report.
#[derive(Clone, Debug)]
pub struct GuruReport {
    /// Parallelism coverage of the auto-parallelized code.
    pub coverage: f64,
    /// Parallelism granularity (avg ops per parallel-loop invocation).
    pub granularity: f64,
    /// Granularity in estimated milliseconds: ops scaled by the wall time
    /// per op of the open's instrumented run, dependence bookkeeping of
    /// that same pass included.  Rendered only; never compared.
    pub granularity_ms: f64,
    /// Ranked list of sequential loops to examine.
    pub targets: Vec<TargetLoop>,
    /// Total number of loops that executed at least once.
    pub executed_loops: usize,
    /// Number of loops left sequential by the compiler (and executed).
    pub sequential_loops: usize,
}

/// Importance cutoffs (§4.3.2: "coverage larger than 2% and granularity
/// larger than 0.05 milliseconds"; our granularity cutoff is in virtual
/// ops, scaled to the machine below).
pub struct Cutoffs {
    /// Minimum coverage fraction.
    pub min_coverage: f64,
    /// Minimum ops per invocation.
    pub min_granularity_ops: f64,
}

impl Default for Cutoffs {
    fn default() -> Self {
        Cutoffs {
            min_coverage: 0.02,
            min_granularity_ops: 50.0,
        }
    }
}

/// Compute the Guru report.
pub fn report(ex: &Explorer<'_>) -> GuruReport {
    report_with(ex, &Cutoffs::default())
}

/// Compute the Guru report with explicit cutoffs.
pub fn report_with(ex: &Explorer<'_>, cutoffs: &Cutoffs) -> GuruReport {
    let parallel = ex.parallel_loops();
    let coverage = ex.profile.coverage(&parallel);
    let granularity = ex.profile.granularity(&parallel);
    let ns_per_op = if ex.profile.total_ops > 0 {
        ex.profile.total_nanos as f64 / ex.profile.total_ops as f64
    } else {
        0.0
    };
    let granularity_ms = granularity * ns_per_op / 1e6;

    let executed: HashSet<StmtId> = ex
        .profile
        .profiles
        .iter()
        .filter(|(_, p)| p.invocations > 0)
        .map(|(&s, _)| s)
        .collect();

    let mut targets = Vec::new();
    let mut sequential_loops = 0;
    for li in &ex.analysis.ctx.tree.loops {
        if !executed.contains(&li.stmt) {
            continue;
        }
        if parallel.contains(&li.stmt) {
            continue;
        }
        sequential_loops += 1;
        // §2.6: "all the sequential loops that have no I/O and that are not
        // dynamically nested under a parallel loop".
        if li.has_io {
            continue;
        }
        let prof = match ex.profile.loop_profile(li.stmt) {
            Some(p) => p,
            None => continue,
        };
        if !prof.dynamic_ancestors.is_disjoint(&parallel) {
            continue;
        }
        let cov = ex.profile.coverage_of(li.stmt);
        let gran = prof.granularity_ops();
        let static_deps = match ex.analysis.verdict(li.stmt) {
            Some(suif_analysis::LoopVerdict::Sequential { deps, .. }) => deps.len(),
            _ => 0,
        };
        let important = cov > cutoffs.min_coverage && gran > cutoffs.min_granularity_ops;
        targets.push(TargetLoop {
            stmt: li.stmt,
            name: li.name.clone(),
            coverage: cov,
            granularity: gran,
            static_deps,
            dynamic_dep: ex.dyndep.has_dep(li.stmt),
            important,
            has_calls: li.has_calls,
            size_lines: li.size_lines,
        });
    }
    targets.sort_by(|a, b| {
        b.coverage
            .partial_cmp(&a.coverage)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.name.cmp(&b.name))
    });

    GuruReport {
        coverage,
        granularity,
        granularity_ms,
        targets,
        executed_loops: executed.len(),
        sequential_loops,
    }
}

impl GuruReport {
    /// Render the target list the way the Guru presents it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "parallelism coverage: {:.1}%   granularity: {:.0} ops (~{:.3} ms)\n",
            self.coverage * 100.0,
            self.granularity,
            self.granularity_ms
        ));
        out.push_str(&format!(
            "loops executed: {}   sequential: {}\n",
            self.executed_loops, self.sequential_loops
        ));
        out.push_str("targets (most expensive first):\n");
        for t in &self.targets {
            out.push_str(&format!(
                "  {:<20} cov {:>5.1}%  gran {:>10.0}  static deps {:>2}  dyn dep {}  {}\n",
                t.name,
                t.coverage * 100.0,
                t.granularity,
                t.static_deps,
                if t.dynamic_dep { "yes" } else { "no " },
                if t.important {
                    "IMPORTANT"
                } else {
                    "(filtered)"
                },
            ));
        }
        out
    }

    /// Important targets only.
    pub fn important_targets(&self) -> impl Iterator<Item = &TargetLoop> {
        self.targets.iter().filter(|t| t.important)
    }
}

#[cfg(test)]
mod tests {
    use crate::explorer::Explorer;
    use suif_ir::parse_program;

    #[test]
    fn guru_ranks_by_cost_and_filters_io() {
        let src = r#"program t
proc main() {
  real a[101], b[100]
  real s
  int i, j
  s = 0
  do 1 i = 1, 100 {
    do 2 j = 1, 100 {
      a[j] = a[j + 1] + 1
    }
  }
  do 3 i = 1, 5 {
    b[i] = b[mod(i * 3, 100) + 1] + 1
  }
  do 4 i = 1, 3 {
    print s
  }
}
"#;
        let p = parse_program(src).unwrap();
        let ex = Explorer::new(&p, vec![]).unwrap();
        let guru = ex.guru();
        // Loop 1 (expensive, sequential via a's recurrence) ranks first.
        assert_eq!(guru.targets[0].name, "main/1");
        assert!(guru.targets[0].important);
        // The I/O loop is not a target at all.
        assert!(guru.targets.iter().all(|t| t.name != "main/4"));
        // The tiny loop 3 is present but filtered as unimportant.
        let t3 = guru.targets.iter().find(|t| t.name == "main/3").unwrap();
        assert!(!t3.important);
        // Dynamic dependence observed for loop 1 (a real recurrence) and
        // loop 2.
        assert!(guru.targets[0].dynamic_dep);
        let rendered = guru.render();
        assert!(rendered.contains("main/1"));
    }

    #[test]
    fn nested_sequential_loops_under_parallel_are_skipped() {
        let src = r#"program t
proc main() {
  real a[64, 8]
  int i, j
  do 1 i = 1, 64 {
    do 2 j = 2, 8 {
      a[i, j] = a[i, j - 1] + 1
    }
  }
}
"#;
        let p = parse_program(src).unwrap();
        let ex = Explorer::new(&p, vec![]).unwrap();
        // Outer loop parallel (rows independent); inner sequential but
        // nested under a parallel loop → not a target.
        let guru = ex.guru();
        assert!(guru.targets.is_empty(), "{:?}", guru.targets);
        assert!(guru.coverage > 0.9);
    }
}
