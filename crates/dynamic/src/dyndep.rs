//! The Dynamic Dependence Analyzer (§2.5.2).
//!
//! Instruments the reads and writes of the program and keeps track of the
//! most recent write for each memory location.  Reports, per monitored loop,
//! the variables observed to carry a **loop-carried flow dependence**.
//!
//! Faithful to the paper's design:
//! * it is "aware of the induction variables and reduction operations found
//!   by the compiler, and will ignore dependences on these variables"
//!   (the [`DynDepConfig`] carries those ignore sets);
//! * "it also ignores anti-dependences" — only write→read (flow) pairs are
//!   examined;
//! * it "can detect parallelism that requires data to be privatized" — a
//!   read preceded by a same-iteration write sees a write time no older
//!   than the iteration's start and reports nothing;
//! * "the instrumentation can skip batches of iterations because the
//!   analysis result is used only as a hint" — `max_iterations_per_invocation`
//!   caps tracking per loop invocation.

use crate::machine::Hooks;
use std::collections::{HashMap, HashSet};
use suif_ir::{StmtId, VarId};

/// Configuration of the analyzer.
#[derive(Clone, Debug, Default)]
pub struct DynDepConfig {
    /// Variables whose accesses are ignored entirely (compiler-recognized
    /// induction variables and the like).
    pub ignore_vars: HashSet<VarId>,
    /// Per-loop ignores: `(loop, var)` pairs the compiler proved to be
    /// reduction updates — dependences on them are expected and skipped.
    pub ignore_loop_vars: HashSet<(StmtId, VarId)>,
    /// Only these loops are monitored (`None` = all loops).
    pub monitor: Option<HashSet<StmtId>>,
    /// Stop tracking after this many iterations of each loop invocation
    /// (sampling optimization; `None` = track everything).
    pub max_iterations_per_invocation: Option<u64>,
}

/// The analyzer: plug into a [`crate::Machine`] as its hooks.
///
/// Shadow memory holds one logical-clock value per address — the time of
/// its most recent tracked write.  The clock ticks on every monitored
/// `loop_enter` and `loop_iter`, so a write time places the write relative
/// to every active loop: before the loop instance was entered, in an earlier
/// iteration of it, or in the current one.  Nothing is allocated or hashed
/// per access; the only growth is the shadow's amortized resize.
pub struct DynDepAnalyzer {
    config: DynDepConfig,
    /// `config.ignore_vars` as a dense per-[`VarId`] table.
    ignored: Vec<bool>,
    /// Active monitored loops, outermost first.
    active: Vec<ActiveLoop>,
    /// Ticks on every monitored loop entry and iteration; starts at 1 so a
    /// shadow cell of 0 means "never written".
    clock: u64,
    /// Clock at the most recent tracked write, indexed by address.
    shadow: Vec<u64>,
    /// Observed loop-carried flow dependences: loop → variables.
    deps: HashMap<StmtId, HashSet<VarId>>,
    /// Nesting depth at which tracking was suspended by sampling (if any).
    suspended_at: Option<usize>,
}

struct ActiveLoop {
    stmt: StmtId,
    /// Clock when this loop instance was entered.
    entered: u64,
    /// Clock when its current iteration began.
    iter_start: u64,
    iters_seen: u64,
}

impl DynDepAnalyzer {
    /// Fresh analyzer.
    pub fn new(config: DynDepConfig) -> DynDepAnalyzer {
        let vars = config.ignore_vars.iter().map(|v| v.0 as usize);
        let mut ignored = vec![false; vars.clone().max().map_or(0, |top| top + 1)];
        vars.for_each(|v| ignored[v] = true);
        DynDepAnalyzer {
            config,
            ignored,
            active: Vec::new(),
            clock: 1,
            shadow: Vec::new(),
            deps: HashMap::new(),
            suspended_at: None,
        }
    }

    fn monitored(&self, stmt: StmtId) -> bool {
        match &self.config.monitor {
            Some(set) => set.contains(&stmt),
            None => true,
        }
    }

    /// Are accesses through `var` examined right now?
    fn tracked(&self, var: VarId) -> bool {
        self.suspended_at.is_none() && !matches!(self.ignored.get(var.0 as usize), Some(true))
    }

    /// Finish and extract the report.
    pub fn report(self) -> DynDepReport {
        DynDepReport { deps: self.deps }
    }
}

impl Hooks for DynDepAnalyzer {
    fn loop_enter(&mut self, stmt: StmtId, _ops: u64) {
        if !self.monitored(stmt) {
            return;
        }
        self.clock += 1;
        self.active.push(ActiveLoop {
            stmt,
            entered: self.clock,
            iter_start: self.clock,
            iters_seen: 0,
        });
    }

    fn loop_iter(&mut self, stmt: StmtId, _iter: i64) {
        if !self.monitored(stmt) {
            return;
        }
        let depth = self.active.len().saturating_sub(1);
        if let Some(top) = self.active.last_mut() {
            if top.stmt == stmt {
                self.clock += 1;
                top.iter_start = self.clock;
                top.iters_seen += 1;
                if let Some(cap) = self.config.max_iterations_per_invocation {
                    if top.iters_seen > cap && self.suspended_at.is_none() {
                        self.suspended_at = Some(depth);
                    }
                }
            }
        }
    }

    fn loop_exit(&mut self, stmt: StmtId, _ops: u64) {
        if !self.monitored(stmt) {
            return;
        }
        if let Some(top) = self.active.last() {
            if top.stmt == stmt {
                let depth = self.active.len() - 1;
                if self.suspended_at == Some(depth) {
                    self.suspended_at = None;
                }
                self.active.pop();
            }
        }
    }

    fn load(&mut self, var: VarId, addr: usize) {
        if !self.tracked(var) {
            return;
        }
        let Some(innermost) = self.active.last() else {
            return;
        };
        let w = self.shadow.get(addr).copied().unwrap_or(0);
        if w >= innermost.iter_start {
            // Written in the current iteration of every active loop.
            return;
        }
        // Place the write against the active loops, outermost first.
        for a in &self.active {
            if w < a.entered {
                // The write precedes this loop instance entirely (or the
                // cell was never written): an upwards-exposed read of
                // pre-loop data, no carried dependence.
                break;
            }
            if w < a.iter_start {
                // Written inside this loop instance but before its current
                // iteration began: loop-carried flow dependence here.
                if !self.config.ignore_loop_vars.contains(&(a.stmt, var)) {
                    self.deps.entry(a.stmt).or_default().insert(var);
                }
                break;
            }
        }
    }

    fn store(&mut self, var: VarId, addr: usize) {
        if !self.tracked(var) {
            return;
        }
        if self.shadow.len() <= addr {
            self.shadow.resize(addr + 1, 0);
        }
        self.shadow[addr] = self.clock;
    }
}

/// Result of a dynamic-dependence run.
#[derive(Clone, Debug, Default)]
pub struct DynDepReport {
    /// Loop → variables observed carrying a flow dependence.
    pub deps: HashMap<StmtId, HashSet<VarId>>,
}

impl DynDepReport {
    /// Did the loop carry any observed flow dependence?
    pub fn has_dep(&self, stmt: StmtId) -> bool {
        self.deps.get(&stmt).map(|s| !s.is_empty()).unwrap_or(false)
    }

    /// Variables with observed carried dependences for a loop.
    pub fn dep_vars(&self, stmt: StmtId) -> impl Iterator<Item = VarId> + '_ {
        self.deps.get(&stmt).into_iter().flatten().copied()
    }

    /// This report without the `(loop, var)` pairs of `ignore`: what a run
    /// with them as [`DynDepConfig::ignore_loop_vars`] reports, since that
    /// set only gates the one insert a read makes.
    pub fn ignoring(mut self, ignore: &HashSet<(StmtId, VarId)>) -> DynDepReport {
        self.deps.retain(|&stmt, vars| {
            vars.retain(|&v| !ignore.contains(&(stmt, v)));
            !vars.is_empty()
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use suif_ir::{parse_program, Program, RegionTree};

    fn analyze(src: &str, config: DynDepConfig) -> (Program, RegionTree, DynDepReport) {
        let p = parse_program(src).unwrap();
        let tree = RegionTree::build(&p);
        let mut dd = DynDepAnalyzer::new(config);
        {
            let mut m = Machine::new(&p, &mut dd).unwrap();
            m.run().unwrap();
        }
        let rep = dd.report();
        (p, tree, rep)
    }

    fn loop_stmt(tree: &RegionTree, name: &str) -> suif_ir::StmtId {
        tree.loops.iter().find(|l| l.name == name).unwrap().stmt
    }

    #[test]
    fn independent_loop_has_no_deps() {
        let (_, tree, rep) = analyze(
            "program t\nproc main() {\n real a[10]\n int i\n do 1 i = 1, 10 {\n a[i] = i\n }\n}",
            DynDepConfig::default(),
        );
        assert!(!rep.has_dep(loop_stmt(&tree, "main/1")));
    }

    #[test]
    fn recurrence_is_detected() {
        let (p, tree, rep) = analyze(
            "program t\nproc main() {\n real a[10]\n int i\n a[1] = 1\n do 1 i = 2, 10 {\n a[i] = a[i - 1] + 1\n }\n}",
            DynDepConfig::default(),
        );
        let l = loop_stmt(&tree, "main/1");
        assert!(rep.has_dep(l));
        let a = p.var_by_name("main", "a").unwrap();
        assert!(rep.dep_vars(l).any(|v| v == a));
    }

    #[test]
    fn same_iteration_write_then_read_is_private() {
        // tmp written then read in each iteration — privatizable, no dep.
        let (_, tree, rep) = analyze(
            "program t\nproc main() {\n real tmp[4], out[10]\n int i, j\n do 1 i = 1, 10 {\n do 2 j = 1, 4 {\n tmp[j] = i * j\n }\n do 3 j = 1, 4 {\n out[i] = out[i] + tmp[j]\n }\n }\n}",
            DynDepConfig::default(),
        );
        assert!(!rep.has_dep(loop_stmt(&tree, "main/1")));
    }

    #[test]
    fn read_before_write_within_iteration_is_carried() {
        // tmp read BEFORE being written each iteration: the value flows from
        // the previous iteration — privatization illegal, dep expected.
        let (_, tree, rep) = analyze(
            "program t\nproc main() {\n real tmp, out[10]\n int i\n tmp = 0\n do 1 i = 1, 10 {\n out[i] = tmp\n tmp = i\n }\n}",
            DynDepConfig::default(),
        );
        assert!(rep.has_dep(loop_stmt(&tree, "main/1")));
    }

    #[test]
    fn anti_dependence_is_ignored() {
        // a[i+1] read then a[i+1] written next iteration? Construct pure
        // anti: read a[i+1], write a[i].
        let (_, tree, rep) = analyze(
            "program t\nproc main() {\n real a[12]\n int i\n do 1 i = 1, 10 {\n a[i] = a[i + 1]\n }\n}",
            DynDepConfig::default(),
        );
        assert!(!rep.has_dep(loop_stmt(&tree, "main/1")));
    }

    #[test]
    fn reduction_var_can_be_ignored() {
        let src =
            "program t\nproc main() {\n real s\n int i\n s = 0\n do 1 i = 1, 10 {\n s = s + i\n }\n print s\n}";
        let (p, tree, rep) = analyze(src, DynDepConfig::default());
        let l = loop_stmt(&tree, "main/1");
        assert!(rep.has_dep(l), "sum recurrence should be seen");
        // Now ignore the reduction variable for that loop.
        let s = p.var_by_name("main", "s").unwrap();
        let mut cfg = DynDepConfig::default();
        cfg.ignore_loop_vars.insert((l, s));
        let (_, _, rep2) = analyze(src, cfg);
        assert!(!rep2.has_dep(l));
    }

    #[test]
    fn deps_through_procedure_calls() {
        // The callee writes a common array the next iteration reads.
        let (_, tree, rep) = analyze(
            r#"program t
proc produce(int i) {
  common /c/ real buf[16]
  buf[i] = i
}
proc main() {
  common /c/ real buf[16]
  real acc
  int i
  acc = 0
  do 1 i = 2, 10 {
    acc = acc + buf[i - 1]
    call produce(i)
  }
  print acc
}
"#,
            DynDepConfig::default(),
        );
        assert!(rep.has_dep(loop_stmt(&tree, "main/1")));
    }

    #[test]
    fn cross_invocation_writes_do_not_count() {
        // Each outer iteration, inner loop 2 fully writes b, then inner loop
        // 3 reads it.  The write precedes the read within the same outer
        // iteration, so b carries no dependence at the outer loop; the reads
        // in loop 3 see writes from a *different invocation* of loop 2, which
        // must not be misattributed either.  Only acc (a scalar
        // read-modify-write) genuinely carries at the outer loop.
        let (p, tree, rep) = analyze(
            "program t\nproc main() {\n real b[4]\n real acc\n int i, j\n acc = 0\n do 1 i = 1, 6 {\n do 2 j = 1, 4 {\n b[j] = i * j\n }\n do 3 j = 1, 4 {\n acc = acc + b[j]\n }\n }\n print acc\n}",
            DynDepConfig::default(),
        );
        let outer = loop_stmt(&tree, "main/1");
        let read_loop = loop_stmt(&tree, "main/3");
        let b = p.var_by_name("main", "b").unwrap();
        let acc = p.var_by_name("main", "acc").unwrap();
        let outer_vars: Vec<_> = rep.dep_vars(outer).collect();
        assert!(outer_vars.contains(&acc));
        assert!(!outer_vars.contains(&b), "b falsely carried at outer loop");
        // The read loop carries only acc (its own reduction), never b.
        assert!(!rep.dep_vars(read_loop).any(|v| v == b));
    }

    #[test]
    fn sampling_caps_tracking() {
        let cfg = DynDepConfig {
            max_iterations_per_invocation: Some(3),
            ..DynDepConfig::default()
        };
        // Dep appears only between iterations 8 and 9 — sampling misses it.
        let (_, tree, rep) = analyze(
            "program t\nproc main() {\n real a[12]\n int i\n do 1 i = 1, 10 {\n if i == 9 {\n a[1] = a[2]\n }\n if i == 8 {\n a[2] = 1\n }\n }\n}",
            cfg,
        );
        assert!(!rep.has_dep(loop_stmt(&tree, "main/1")));
        // Without sampling it is caught.
        let (_, tree2, rep2) = analyze(
            "program t\nproc main() {\n real a[12]\n int i\n do 1 i = 1, 10 {\n if i == 9 {\n a[1] = a[2]\n }\n if i == 8 {\n a[2] = 1\n }\n }\n}",
            DynDepConfig::default(),
        );
        assert!(rep2.has_dep(loop_stmt(&tree2, "main/1")));
    }
}
