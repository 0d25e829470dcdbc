//! The Loop Profile Analyzer (§2.5.1).
//!
//! Runs the program sequentially and determines, for each loop, its total
//! (inclusive) execution cost and its average computation per invocation —
//! "which loops dominate the execution time and whether the computation time
//! is spread over many different invocations".
//!
//! Two cost metrics are kept: *virtual ops* (the machine's deterministic
//! operation counter — used by tests and for stable rankings) and wall-clock
//! nanoseconds (used for the speedup figures).

use crate::machine::Hooks;
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use suif_ir::StmtId;

/// Per-loop profile data.
#[derive(Clone, Debug, Default)]
pub struct LoopProfile {
    /// Number of times the loop was entered.
    pub invocations: u64,
    /// Number of iterations executed in total.
    pub iterations: u64,
    /// Total inclusive virtual ops across invocations.
    pub total_ops: u64,
    /// Total inclusive wall time in nanoseconds.
    pub total_nanos: u64,
    /// Loops observed dynamically enclosing this one at least once.
    pub dynamic_ancestors: HashSet<StmtId>,
}

impl LoopProfile {
    /// Average virtual ops per invocation (granularity metric, §2.6).
    pub fn granularity_ops(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_ops as f64 / self.invocations as f64
        }
    }

    /// Average wall nanoseconds per invocation.
    pub fn granularity_nanos(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.invocations as f64
        }
    }
}

/// The profiler: plug into a [`crate::Machine`] as its hooks, run, then call
/// [`LoopProfiler::report`].
pub struct LoopProfiler {
    profiles: HashMap<StmtId, LoopProfile>,
    stack: Vec<ActiveLoop>,
    start: Instant,
    total_nanos: u64,
    final_ops: u64,
}

struct ActiveLoop {
    stmt: StmtId,
    enter_ops: u64,
    enter_time: Instant,
    /// Iterations of this invocation so far; added to the profile at exit.
    iterations: u64,
}

impl Default for LoopProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl LoopProfiler {
    /// Fresh profiler.
    pub fn new() -> LoopProfiler {
        LoopProfiler {
            profiles: HashMap::new(),
            stack: Vec::new(),
            start: Instant::now(),
            total_nanos: 0,
            final_ops: 0,
        }
    }

    /// Finish and extract the report (call after the machine run completes).
    pub fn report(mut self) -> ProfileReport {
        self.total_nanos = self.start.elapsed().as_nanos() as u64;
        ProfileReport {
            profiles: self.profiles,
            total_nanos: self.total_nanos,
            total_ops: self.final_ops,
        }
    }
}

impl Hooks for LoopProfiler {
    fn loop_enter(&mut self, stmt: StmtId, ops: u64) {
        self.stack.push(ActiveLoop {
            stmt,
            enter_ops: ops,
            enter_time: Instant::now(),
            iterations: 0,
        });
    }

    fn loop_iter(&mut self, stmt: StmtId, _iter: i64) {
        if let Some(top) = self.stack.last_mut() {
            debug_assert_eq!(top.stmt, stmt);
            top.iterations += 1;
        }
    }

    fn loop_exit(&mut self, stmt: StmtId, ops: u64) {
        let Some(top) = self.stack.pop() else { return };
        debug_assert_eq!(top.stmt, stmt);
        let prof = self.profiles.entry(stmt).or_default();
        prof.dynamic_ancestors
            .extend(self.stack.iter().map(|a| a.stmt));
        prof.invocations += 1;
        prof.iterations += top.iterations;
        prof.total_ops += ops.saturating_sub(top.enter_ops);
        prof.total_nanos += top.enter_time.elapsed().as_nanos() as u64;
        self.final_ops = self.final_ops.max(ops);
    }
}

/// The finished profile.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Per-loop profiles.
    pub profiles: HashMap<StmtId, LoopProfile>,
    /// Whole-run wall time in nanoseconds.  The clock covers everything the
    /// machine did during the run: when the profiler shares its pass with
    /// another analyzer (an Explorer open pairs it with the Dynamic
    /// Dependence Analyzer), that analyzer's bookkeeping is included.
    pub total_nanos: u64,
    /// Whole-run virtual ops (max observed counter).
    pub total_ops: u64,
}

impl ProfileReport {
    /// Profile for one loop.
    pub fn loop_profile(&self, stmt: StmtId) -> Option<&LoopProfile> {
        self.profiles.get(&stmt)
    }

    /// Fraction of total ops spent inside a loop (inclusive).
    pub fn coverage_of(&self, stmt: StmtId) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        self.profiles
            .get(&stmt)
            .map(|p| p.total_ops as f64 / self.total_ops as f64)
            .unwrap_or(0.0)
    }

    /// Parallelism coverage of a *set* of loops (§2.6): the fraction of
    /// execution spent under at least one loop of the set.  Loops whose
    /// dynamic ancestors include another set member contribute nothing (the
    /// enclosing member already covers them) — this matches the runtime rule
    /// that only the outermost parallel loop executes in parallel.
    pub fn coverage(&self, set: &HashSet<StmtId>) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        let mut covered = 0u64;
        for (&stmt, prof) in &self.profiles {
            if set.contains(&stmt) && prof.dynamic_ancestors.is_disjoint(set) {
                covered += prof.total_ops;
            }
        }
        (covered as f64 / self.total_ops as f64).min(1.0)
    }

    /// Parallelism granularity of a set of loops (§2.6): the average
    /// inclusive cost per invocation over the dynamically-outermost members.
    pub fn granularity(&self, set: &HashSet<StmtId>) -> f64 {
        let mut ops = 0u64;
        let mut inv = 0u64;
        for (&stmt, prof) in &self.profiles {
            if set.contains(&stmt) && prof.dynamic_ancestors.is_disjoint(set) {
                ops += prof.total_ops;
                inv += prof.invocations;
            }
        }
        if inv == 0 {
            0.0
        } else {
            ops as f64 / inv as f64
        }
    }

    /// Loops sorted by decreasing total cost (the Guru's target ordering).
    pub fn loops_by_cost(&self) -> Vec<(StmtId, &LoopProfile)> {
        let mut v: Vec<_> = self.profiles.iter().map(|(&s, p)| (s, p)).collect();
        v.sort_by(|a, b| b.1.total_ops.cmp(&a.1.total_ops).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use suif_ir::{parse_program, RegionTree};

    #[test]
    fn profiles_loop_costs_and_nesting() {
        let p = parse_program(
            r#"program t
proc main() {
  int i, j, s
  s = 0
  do 10 i = 1, 20 {
    do 20 j = 1, 50 {
      s = s + j
    }
  }
  do 30 i = 1, 5 {
    s = s + i
  }
  print s
}
"#,
        )
        .unwrap();
        let tree = RegionTree::build(&p);
        let mut prof = LoopProfiler::new();
        {
            let mut m = Machine::new(&p, &mut prof).unwrap();
            m.run().unwrap();
        }
        let rep = prof.report();
        let by_name = |n: &str| tree.loops.iter().find(|l| l.name == n).unwrap().stmt;
        let outer = by_name("main/10");
        let inner = by_name("main/20");
        let small = by_name("main/30");

        let pi = rep.loop_profile(inner).unwrap();
        assert_eq!(pi.invocations, 20);
        assert_eq!(pi.iterations, 20 * 50);
        assert!(pi.dynamic_ancestors.contains(&outer));

        let po = rep.loop_profile(outer).unwrap();
        assert_eq!(po.invocations, 1);
        // Outer cost dominates the small loop's.
        assert!(po.total_ops > rep.loop_profile(small).unwrap().total_ops);

        // Coverage of {outer, inner} counts only the outer.
        let mut set = HashSet::new();
        set.insert(outer);
        set.insert(inner);
        let cov_both = rep.coverage(&set);
        let mut souter = HashSet::new();
        souter.insert(outer);
        assert!((cov_both - rep.coverage(&souter)).abs() < 1e-9);
        assert!(cov_both > 0.8 && cov_both <= 1.0);

        // Granularity of the outer loop is much larger than the inner's.
        let mut sinner = HashSet::new();
        sinner.insert(inner);
        assert!(rep.granularity(&souter) > rep.granularity(&sinner) * 10.0);
    }
}
