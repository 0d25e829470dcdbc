//! The parallel loop executor: a [`LoopHandler`] that runs planned loops
//! through the crate's one fork/join (`crate::forkjoin`) for speed.

use crate::forkjoin::{finalize, fork_join, merge_cell, LoopLayout, LoopRun, SegRole, Segment};
use crate::plan::ParallelPlans;
use parking_lot::Mutex;
use std::collections::HashMap;
use suif_dynamic::machine::{LoopHandler, Machine, RuntimeError};
use suif_dynamic::DoLoop;
use suif_ir::StmtId;

/// Reduction finalization strategy (§6.3.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Finalization {
    /// Post-join serialized merging by the spawning thread (the naive
    /// implementation whose elapsed time grows with the thread count).
    Serialized,
    /// Workers merge their own copies into the shared array under
    /// per-section locks, with staggered starting sections ("the i-th
    /// processor finalizes the sections in the order i, i+1, …, n, 1, …").
    StaggeredLocks {
        /// Number of lock-protected sections per reduction object.
        sections: usize,
    },
}

/// Iteration-to-thread assignment policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Schedule {
    /// Contiguous blocks ("the iterations … are evenly divided between the
    /// processors", §4.5) — the paper's policy.
    #[default]
    Block,
    /// Cyclic (round-robin) — an extension that balances triangular loops
    /// like mdg's pair loop at the cost of locality.
    Cyclic,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Worker thread count (the "processor" count of the figures).
    pub threads: usize,
    /// Loops with fewer iterations run sequentially (run-time granularity
    /// suppression, §4.5).
    pub min_parallel_iters: i64,
    /// Loops whose estimated work (iterations × static body weight) falls
    /// below this run sequentially — "the run-time system estimates the
    /// amount of computation … and runs the loop sequentially if it is
    /// considered too fine-grained" (§4.5).
    pub min_parallel_cost: i64,
    /// Reduction finalization strategy.
    pub finalization: Finalization,
    /// Iteration scheduling policy.
    pub schedule: Schedule,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            threads: 2,
            min_parallel_iters: 2,
            min_parallel_cost: 2048,
            finalization: Finalization::StaggeredLocks { sections: 8 },
            schedule: Schedule::Block,
        }
    }
}

/// Execution statistics.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Parallel invocations per loop.
    pub parallel_invocations: HashMap<StmtId, u64>,
    /// Serial-fallback invocations per loop (too few iterations).
    pub serial_fallbacks: HashMap<StmtId, u64>,
    /// Loops skipped because privatization sizes were not computable.
    pub unplannable: HashMap<StmtId, u64>,
    /// Simulated-multiprocessor cost contributed by parallel regions: per
    /// invocation, the **maximum** worker op count (the critical path) plus
    /// the spawn/finalization overhead model.  Added to the main machine's
    /// op counter this gives a deterministic parallel "time" that is
    /// architecture-independent (see `measure::Measurement::ops`).
    pub sim_parallel_ops: u64,
    /// Total ops executed inside workers (for utilization reporting).
    pub worker_ops: u64,
}

/// Simulated overhead model (virtual ops): the cost of spawning and joining
/// one parallel region.  Chosen so that sub-thousand-op loops lose from
/// parallelization, matching the granularity story of §2.6/§4.5.
pub const SPAWN_OVERHEAD_OPS: u64 = 1500;
/// Additional per-thread spawn cost.
pub const PER_THREAD_OVERHEAD_OPS: u64 = 400;

/// The loop handler driving parallel execution.
pub struct ParallelExecutor {
    /// The plans.
    pub plans: ParallelPlans,
    /// Configuration.
    pub config: RuntimeConfig,
    /// Statistics (readable after the run).
    pub stats: RunStats,
}

impl ParallelExecutor {
    /// Create an executor.
    pub fn new(plans: ParallelPlans, config: RuntimeConfig) -> ParallelExecutor {
        ParallelExecutor {
            plans,
            config,
            stats: RunStats::default(),
        }
    }
}

/// The staggered in-worker reduction merge of §6.3.4: worker `t` folds its
/// private copies into shared memory through its own view, one
/// lock-protected section at a time starting from its own, while the other
/// workers may still be running.  `locks` has one lock per section, or none
/// under [`Finalization::Serialized`], where the spawning thread merges.
fn merge_staggered(segments: &[Segment], locks: &[Mutex<()>], t: usize, view: &mut Machine<'_>) {
    let nsections = locks.len();
    if nsections == 0 {
        return;
    }
    let tail = view.shared_len();
    for seg in segments {
        let SegRole::Reduction { op, lo, hi } = &seg.role else {
            continue;
        };
        let per = (hi - lo + 1).div_ceil(nsections);
        for s in 0..nsections {
            let sec = (t + s) % nsections;
            let a = lo + sec * per;
            let b = (a + per).min(hi + 1);
            if a >= b {
                continue;
            }
            // Writes to one section are serialized by its lock and
            // sections are disjoint; the View contract covers the
            // aliasing with the other workers' loop bodies.
            let _guard = locks[sec].lock();
            for k in a..b {
                let mine = view
                    .peek(tail + seg.tail_base + k)
                    .expect("segment lies inside the private tail");
                merge_cell(view, *op, seg.shared_base + k, mine);
            }
        }
    }
}

impl LoopHandler for ParallelExecutor {
    fn on_loop(&mut self, m: &mut Machine<'_>, lp: DoLoop) -> Option<Result<(), RuntimeError>> {
        let id = lp.stmt;
        let plan = self.plans.loops.get(&id)?;
        let run = match LoopRun::evaluate(m, lp) {
            Ok(r) => r,
            Err(e) => return Some(Err(e)),
        };
        let RuntimeConfig {
            threads,
            finalization,
            schedule,
            ..
        } = self.config;
        let est_cost = run.n.saturating_mul(plan.body_weight as i64);
        if run.n < self.config.min_parallel_iters
            || run.n < threads as i64
            || est_cost < self.config.min_parallel_cost
            || threads <= 1
        {
            *self.stats.serial_fallbacks.entry(id).or_insert(0) += 1;
            return None;
        }
        let Ok(layout) = LoopLayout::build(m, plan, lp.line) else {
            *self.stats.unplannable.entry(id).or_insert(0) += 1;
            return None;
        };
        *self.stats.parallel_invocations.entry(id).or_insert(0) += 1;

        let locks: Vec<Mutex<()>> = match finalization {
            Finalization::StaggeredLocks { sections } => {
                (0..sections.max(1)).map(|_| Mutex::new(())).collect()
            }
            Finalization::Serialized => Vec::new(),
        };
        let merge =
            |t: usize, view: &mut Machine<'_>| merge_staggered(&layout.segments, &locks, t, view);
        let results = match fork_join(m, &run, &layout, threads, schedule, &merge) {
            Ok(r) => r,
            Err(e) => return Some(Err(e)),
        };

        // Simulated critical path: max worker + spawn model.
        let mut sim = results.iter().map(|r| r.ops).max().unwrap_or(0)
            + SPAWN_OVERHEAD_OPS
            + PER_THREAD_OVERHEAD_OPS * threads as u64;
        // Finalization model (§6.3.4): serialized merging costs
        // threads × region size on the critical path; staggered locking
        // parallelizes it (≈ one region sweep).
        for seg in &layout.segments {
            if let SegRole::Reduction { lo, hi, .. } = &seg.role {
                let span = (hi - lo + 1) as u64;
                sim += match finalization {
                    Finalization::Serialized => 2 * span * threads as u64,
                    Finalization::StaggeredLocks { .. } => 2 * span,
                };
            }
        }
        self.stats.sim_parallel_ops += sim;
        self.stats.worker_ops += results.iter().map(|r| r.ops).sum::<u64>();

        Some(finalize(m, &run, &layout, schedule, finalization, results))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ParallelPlans;
    use suif_analysis::{ParallelizeConfig, Parallelizer};
    use suif_dynamic::machine::NoHooks;
    use suif_ir::parse_program;

    fn run_both(
        src: &str,
        threads: usize,
        finalization: Finalization,
    ) -> (Vec<String>, Vec<String>, RunStats) {
        let p = parse_program(src).unwrap();
        // Sequential reference.
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.run().unwrap();
        let seq = m.output.clone();
        drop(m);
        // Parallel.
        let plans = {
            let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
            ParallelPlans::from_analysis(&pa)
        };
        let mut hooks2 = NoHooks;
        let mut ex = ParallelExecutor::new(
            plans,
            RuntimeConfig {
                threads,
                min_parallel_iters: 2,
                min_parallel_cost: 0,
                finalization,
                schedule: Default::default(),
            },
        );
        let mut m2 = Machine::new(&p, &mut hooks2).unwrap();
        m2.set_handler(&mut ex);
        m2.run().unwrap();
        let par = m2.output.clone();
        drop(m2);
        (seq, par, ex.stats)
    }

    #[test]
    fn simple_parallel_loop_matches_sequential() {
        let src = r#"program t
proc main() {
  real a[64]
  real s
  int i
  do 1 i = 1, 64 {
    a[i] = i * 2
  }
  s = 0
  do 2 i = 1, 64 {
    s = s + a[i]
  }
  print s
}
"#;
        let (seq, par, stats) = run_both(src, 2, Finalization::Serialized);
        assert_eq!(seq, par);
        assert!(stats.parallel_invocations.values().sum::<u64>() >= 2);
    }

    #[test]
    fn reduction_strategies_agree() {
        let src = r#"program t
proc main() {
  real h[16]
  int idx[200]
  int i
  do 0 i = 1, 200 {
    idx[i] = mod(i * 7, 16) + 1
  }
  do 1 i = 1, 200 {
    h[idx[i]] = h[idx[i]] + 1
  }
  do 9 i = 1, 16 {
    print h[i]
  }
}
"#;
        let (seq, par_ser, _) = run_both(src, 4, Finalization::Serialized);
        assert_eq!(seq, par_ser);
        let (_, par_stag, _) = run_both(src, 4, Finalization::StaggeredLocks { sections: 4 });
        assert_eq!(seq, par_stag);
    }

    #[test]
    fn privatized_temps_through_calls() {
        let src = r#"program t
proc work(real q[*], int base) {
  real tmp[4]
  int j
  do j = 1, 4 {
    tmp[j] = base * 10 + j
  }
  do j = 1, 4 {
    q[j] = tmp[5 - j]
  }
}
proc main() {
  real a[80]
  int i
  do 1 i = 1, 20 {
    call work(a[(i - 1) * 4 + 1], i)
  }
  print a[1], a[4], a[77], a[80]
}
"#;
        let (seq, par, stats) = run_both(src, 2, Finalization::Serialized);
        assert_eq!(seq, par);
        assert_eq!(stats.parallel_invocations.values().sum::<u64>(), 1);
    }

    #[test]
    fn serial_fallback_for_tiny_loops() {
        let src = r#"program t
proc main() {
  real a[3]
  int i
  do 1 i = 1, 3 {
    a[i] = i
  }
  print a[3]
}
"#;
        let p = parse_program(src).unwrap();
        let plans = {
            let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
            ParallelPlans::from_analysis(&pa)
        };
        let mut hooks = NoHooks;
        let mut ex = ParallelExecutor::new(
            plans,
            RuntimeConfig {
                threads: 2,
                min_parallel_iters: 8,
                min_parallel_cost: 0,
                finalization: Finalization::Serialized,
                schedule: Default::default(),
            },
        );
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.set_handler(&mut ex);
        m.run().unwrap();
        assert_eq!(m.output, vec!["3"]);
    }

    #[test]
    fn min_reduction_parallel() {
        let src = r#"program t
proc main() {
  real a[100], tmin
  int i
  do 0 i = 1, 100 {
    a[i] = abs(50.5 - i)
  }
  tmin = 1000000.0
  do 1 i = 1, 100 {
    if a[i] < tmin {
      tmin = a[i]
    }
  }
  print tmin
}
"#;
        let (seq, par, _) = run_both(src, 4, Finalization::Serialized);
        assert_eq!(seq, par);
        assert_eq!(seq, vec!["0.5"]);
    }

    #[test]
    fn privatizable_with_last_iteration_finalization() {
        // tmp written identically every iteration and read AFTER the loop:
        // finalize-last semantics must leave the last iteration's values.
        let src = r#"program t
proc main() {
  real tmp[4], out[32]
  int i, j
  do 1 i = 1, 32 {
    do 2 j = 1, 4 {
      tmp[j] = i * 100 + j
    }
    out[i] = tmp[1] + tmp[4]
  }
  print out[32], tmp[1], tmp[4]
}
"#;
        let (seq, par, _) = run_both(src, 2, Finalization::Serialized);
        assert_eq!(seq, par);
    }

    fn run_with(
        src: &str,
        threads: usize,
        schedule: Schedule,
        finalization: Finalization,
    ) -> (Vec<String>, Vec<String>, RunStats) {
        let p = parse_program(src).unwrap();
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.run().unwrap();
        let seq = m.output.clone();
        drop(m);
        let plans = {
            let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
            ParallelPlans::from_analysis(&pa)
        };
        let mut hooks2 = NoHooks;
        let mut ex = ParallelExecutor::new(
            plans,
            RuntimeConfig {
                threads,
                min_parallel_iters: 2,
                min_parallel_cost: 0,
                finalization,
                schedule,
            },
        );
        let mut m2 = Machine::new(&p, &mut hooks2).unwrap();
        m2.set_handler(&mut ex);
        m2.run().unwrap();
        let par = m2.output.clone();
        drop(m2);
        (seq, par, ex.stats)
    }

    #[test]
    fn finalize_last_with_more_threads_than_iterations() {
        // 3 iterations across 4 workers: some workers run nothing, and the
        // balanced block chunking must still hand the FINAL iteration to the
        // thread whose private copy is written back.
        let src = r#"program t
proc main() {
  real tmp[4], out[8]
  int i, j
  do 1 i = 1, 3 {
    do 2 j = 1, 4 {
      tmp[j] = i * 100 + j
    }
    out[i] = tmp[1] + tmp[4]
  }
  print out[1], out[2], out[3], tmp[1], tmp[4]
}
"#;
        for schedule in [Schedule::Block, Schedule::Cyclic] {
            let (seq, par, _) = run_with(src, 4, schedule, Finalization::Serialized);
            assert_eq!(seq, par, "{schedule:?}");
        }
    }

    #[test]
    fn cyclic_schedule_finalizes_last_iteration_owner() {
        // With 3 threads and 8 iterations, cyclic places the last iteration
        // (k = 7) on thread 7 mod 3 = 1 — NOT the last thread.  Finalization
        // must pick the owner, not just thread T-1.
        let src = r#"program t
proc main() {
  real tmp[2], out[8]
  int i, j
  do 1 i = 1, 8 {
    do 2 j = 1, 2 {
      tmp[j] = i * 10 + j
    }
    out[i] = tmp[1] * tmp[2]
  }
  print out[8], tmp[1], tmp[2]
}
"#;
        let (seq, par, _) = run_with(src, 3, Schedule::Cyclic, Finalization::Serialized);
        assert_eq!(seq, par);
        // The finalized values are the last iteration's: 81 and 82.
        assert_eq!(seq, vec!["6642 81 82"]);
    }

    #[test]
    fn max_reduction_with_negative_values() {
        // All data negative: a max-reduction identity of the runtime must
        // not leak into the result (e.g. initializing private copies to 0.0
        // would wrongly yield 0).
        let src = r#"program t
proc main() {
  real a[64], tmax
  int i
  do 0 i = 1, 64 {
    a[i] = 0.0 - float(i)
  }
  tmax = 0.0 - 1000000.0
  do 1 i = 1, 64 {
    if a[i] > tmax {
      tmax = a[i]
    }
  }
  print tmax
}
"#;
        let (seq, par, _) = run_both(src, 4, Finalization::Serialized);
        assert_eq!(seq, par);
        assert_eq!(seq, vec!["-1"]);
    }

    #[test]
    fn product_reduction_parallel() {
        let src = r#"program t
proc main() {
  real prod
  int i
  prod = 1.0
  do 1 i = 1, 16 {
    prod = prod * 1.5
  }
  print prod
}
"#;
        let (seq, par, _) = run_both(src, 4, Finalization::Serialized);
        // 1.5^16 reassociates exactly in binary floating point.
        assert_eq!(seq, par);
    }

    #[test]
    fn stats_account_parallel_and_fallback_invocations() {
        let src = r#"program t
proc main() {
  real a[64]
  int i, r
  do 9 r = 1, 3 {
    do 1 i = 1, 64 {
      a[i] = i + r
    }
  }
  print a[64]
}
"#;
        let p = parse_program(src).unwrap();
        let plans = {
            let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
            ParallelPlans::from_analysis(&pa)
        };
        let mut hooks = NoHooks;
        let mut ex = ParallelExecutor::new(
            plans.clone(),
            RuntimeConfig {
                threads: 2,
                min_parallel_iters: 2,
                min_parallel_cost: 0,
                finalization: Finalization::Serialized,
                schedule: Schedule::Block,
            },
        );
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.set_handler(&mut ex);
        m.run().unwrap();
        drop(m);
        // The inner loop runs parallel on each of the 3 outer iterations
        // (the outer loop is itself parallel; whichever runs parallel, the
        // invocation totals must be positive and simulated ops accounted).
        let total: u64 = ex.stats.parallel_invocations.values().sum();
        assert!(total >= 1, "no parallel invocation recorded");
        assert!(ex.stats.sim_parallel_ops > 0);
    }
}
