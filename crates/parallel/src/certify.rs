//! Race certification of planned parallel loops.
//!
//! Where [`crate::executor`] runs a compiler-parallelized loop for *speed*,
//! this module runs one for *evidence*.  [`CertifyHandler`] lays the target
//! loop out under the [`LoopLayout`] of the plan it is given, partitions its
//! iterations with the same [`Schedule`] and applies the same [`finalize`]
//! as the fast path — so a certification run exercises exactly the
//! transformed loop the production runtime would execute — but its workers
//! are *logical* threads: views of the machine's memory that the handler
//! itself advances one [`Machine::step_with`] at a time, on the calling OS
//! thread.  Between two steps a seeded [`AdversarialScheduler`] chooses
//! which worker takes the next one (so the interleaving replays from a `u64`
//! seed), and every step reports its memory access to a [`RaceDetector`]
//! that checks it against the happens-before order in which each
//! *iteration* is a logical thread forked at loop entry and joined at exit.
//! Nothing is spawned and nothing is locked.  A schedule builds one
//! detector, whose dense shadow covers the shared segment, and resets it at
//! every invocation of the target loop.
//!
//! [`certify_loops`] runs the program once, sequentially, as a *scout* that
//! stops at each target loop's first head and takes a [`Checkpoint`] there.
//! Every adversarial schedule of that target resumes from the checkpoint
//! and runs the rest of the program, collecting per-schedule races,
//! captured output and final shared memory.  Nothing before a target's
//! first head depends on the schedule, so this is exactly what running the
//! whole program once per schedule gave.  A sequential reference capture of
//! the same program lets callers check the differential invariant: a
//! certified DOALL loop must be race-free with sequential-identical
//! observable behavior under every schedule.

use crate::executor::{Finalization, Schedule};
use crate::forkjoin::{finalize, Iterations, LoopLayout, LoopRun, SegRole, WorkerResult};
use crate::plan::PlanEntry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suif_dynamic::machine::{Checkpoint, Hooks, LoopHandler, Machine, NoHooks, RuntimeError};
use suif_dynamic::race::{AccessKind, Race, RaceDetector};
use suif_dynamic::sched::AdversarialScheduler;
use suif_dynamic::{Code, DoLoop, Value, MAX_EXECUTE_OPS};
use suif_ir::{Program, StmtId, VarId};

/// How many races one schedule reports in [`CertOutcome::races`].
pub const MAX_REPORTED_RACES: usize = 64;

/// Accumulated result of all certified invocations of the target loop.
#[derive(Clone, Debug, Default)]
pub struct CertOutcome {
    /// The first [`MAX_REPORTED_RACES`] races detected, in interleaved
    /// execution order (first pair first).
    pub races: Vec<Race>,
    /// Every race detected, reported in `races` or not.
    pub race_count: u64,
    /// First runtime error raised inside a worker, if any.
    pub error: Option<RuntimeError>,
    /// Scheduling decisions taken at preemption points.
    pub schedule_decisions: u64,
    /// Decisions that preempted the running worker.
    pub schedule_switches: u64,
    /// Shared memory accesses examined by the detector.
    pub shared_accesses: u64,
    /// Loop iterations executed under certification.
    pub iterations: u64,
    /// Certified invocations of the target loop.
    pub loops_run: u64,
    /// Invocations skipped because the plan could not be laid out.
    pub unplannable: u64,
    /// Shared-memory ranges `(base, len)` of privatized storage with no
    /// merge-back (dead after the loop): the certified run leaves these cells
    /// at their pre-loop values while a sequential run mutates them in place,
    /// so differential memory comparisons must mask them out.
    pub dead_private: Vec<(usize, usize)>,
}

/// What one step of a worker reports to ([`Machine::step_with`]): every
/// access goes to the detector, attributed to the iteration the worker is in
/// and the statement it is executing, and the driver reads `touched` after
/// the step.
struct Probe<'d> {
    detector: &'d mut RaceDetector,
    /// Logical thread of the race model: iteration `k` is thread `k + 1`
    /// (thread 0 is the parent).
    tid: usize,
    /// The statement being executed; the load/store hooks carry no line.
    at: &'d mut (StmtId, u32),
    /// The step fired `load` or `store`, private tail included.
    touched: bool,
}

impl Probe<'_> {
    fn access(&mut self, var: VarId, addr: usize, kind: AccessKind) {
        let (stmt, line) = *self.at;
        self.detector
            .on_access(self.tid, var, addr, stmt, line, kind);
        self.touched = true;
    }
}

impl Hooks for Probe<'_> {
    fn on_stmt(&mut self, id: StmtId, line: u32) {
        *self.at = (id, line);
    }

    fn load(&mut self, var: VarId, addr: usize) {
        self.access(var, addr, AccessKind::Read);
    }

    fn store(&mut self, var: VarId, addr: usize) {
        self.access(var, addr, AccessKind::Write);
    }
}

/// What a worker does when it is next chosen to run.
enum Resume {
    /// Take the next iteration of its block, or end.
    NextIteration,
    /// Write the induction variable of 0-based iteration `k` and enter the
    /// body.
    Enter(i64),
    /// Step on through the body.
    Body,
    /// End with the error of its last step, whose access it reported first.
    Fail(RuntimeError),
}

/// One logical thread: a worker view, its block of the iterations and where
/// it stands.
struct Worker<'v> {
    view: Machine<'v>,
    iterations: Iterations,
    resume: Resume,
    /// Race-model thread of the iteration it is in.
    tid: usize,
    at: (StmtId, u32),
}

impl Worker<'_> {
    /// Run up to and including this worker's next preemption point — an
    /// iteration start (its race-model thread is set, its induction variable
    /// not yet written) or a step that touched memory — and return `None`;
    /// or to its end, `Some`: out of iterations, or the error that stopped
    /// it.  Because every instruction fires at most one `load` / `store`, in
    /// the step that performs the access, preempting between steps orders
    /// the workers' accesses exactly as preempting inside the hook did.
    fn advance(
        &mut self,
        run: &LoopRun,
        detector: &mut RaceDetector,
    ) -> Option<Result<(), RuntimeError>> {
        let mut probe = Probe {
            detector,
            tid: self.tid,
            at: &mut self.at,
            touched: false,
        };
        loop {
            match std::mem::replace(&mut self.resume, Resume::Body) {
                Resume::NextIteration => {
                    let Some(k) = self.iterations.next() else {
                        return Some(Ok(()));
                    };
                    self.tid = k as usize + 1;
                    self.resume = Resume::Enter(k);
                    return None;
                }
                Resume::Enter(k) => {
                    if let Err(e) = self.view.begin_iteration(&run.lp, run.lo + k * run.step) {
                        return Some(Err(e));
                    }
                }
                Resume::Body => {
                    while self.view.in_iteration(&run.lp) {
                        let stepped = self.view.step_with(&mut probe);
                        if probe.touched {
                            // A step that reported its access and then
                            // failed (`ArgScalar` alone can) is preempted
                            // like any other, and fails when resumed.
                            if let Err(e) = stepped {
                                self.resume = Resume::Fail(e);
                            }
                            return None;
                        }
                        if let Err(e) = stepped {
                            return Some(Err(e));
                        }
                    }
                    self.resume = Resume::NextIteration;
                }
                Resume::Fail(e) => return Some(Err(e)),
            }
        }
    }
}

/// Run the iterations of `run` on `workers` logical threads — views of `m`'s
/// memory, each with a private tail laid out by `layout` and a
/// [`Schedule::Block`] share of the iterations — stepping one at a time on
/// this thread and asking `sched` who runs next at every preemption point
/// and whenever a worker ends.  A worker that fails leaves the others
/// running to the end of their blocks.  Returns the results in worker order,
/// or the first error in execution order.
///
/// The `View` contract of `suif_dynamic::MemStore` holds trivially: the
/// views are made, stepped and dropped here, and `m` is not touched while
/// one is alive.
fn interleave(
    m: &mut Machine<'_>,
    run: &LoopRun,
    layout: &LoopLayout,
    workers: usize,
    sched: &mut AdversarialScheduler,
    detector: &mut RaceDetector,
) -> Result<Vec<WorkerResult>, RuntimeError> {
    // The views' own hooks hear nothing: every step is lent a `Probe`.
    let mut unused: Vec<NoHooks> = (0..workers).map(|_| NoHooks).collect();
    let mut threads: Vec<Worker<'_>> = unused
        .iter_mut()
        .enumerate()
        .map(|(t, hooks)| Worker {
            view: m.fork_view(&layout.overrides, layout.template.clone(), hooks),
            iterations: Schedule::Block.iterations(t, workers, run.n),
            resume: Resume::NextIteration,
            tid: 0,
            at: (StmtId(0), 0),
        })
        .collect();
    let mut runnable: Vec<usize> = (0..workers).collect();
    let mut error = None;
    let mut active = sched.pick(None, &runnable);
    loop {
        if let Some(ended) = threads[active].advance(run, detector) {
            if let Err(e) = ended {
                error.get_or_insert(e);
            }
            runnable.retain(|&t| t != active);
            if runnable.is_empty() {
                break;
            }
        }
        active = sched.pick(Some(active), &runnable);
    }
    match error {
        Some(e) => Err(e),
        None => Ok(threads
            .into_iter()
            .map(|w| WorkerResult::of(w.view))
            .collect()),
    }
}

/// A [`LoopHandler`] that executes one target loop under race certification.
///
/// Every invocation of the target loop is certified (an inner loop reached
/// several times accumulates into `outcome` across invocations); all other
/// loops run sequentially.
struct CertifyHandler<'p> {
    target: StmtId,
    /// Logical worker count (clamped to the iteration count per invocation).
    threads: usize,
    /// All scheduling decisions derive from this seed.
    seed: u64,
    plan: &'p PlanEntry,
    /// Built once for the schedule, reset at every invocation.
    detector: RaceDetector,
    outcome: CertOutcome,
}

impl LoopHandler for CertifyHandler<'_> {
    fn on_loop(&mut self, m: &mut Machine<'_>, lp: DoLoop) -> Option<Result<(), RuntimeError>> {
        if lp.stmt != self.target {
            return None;
        }
        let run = match LoopRun::evaluate(m, lp) {
            Ok(r) => r,
            Err(e) => return Some(Err(e)),
        };
        if run.n < 1 {
            // Zero-trip: nothing to certify; run sequentially.
            return None;
        }
        let Ok(layout) = LoopLayout::build(m, self.plan, lp.line) else {
            self.outcome.unplannable += 1;
            return None;
        };
        let n = run.n as usize;
        self.outcome.loops_run += 1;
        self.outcome.iterations += n as u64;
        for seg in &layout.segments {
            let range = (seg.shared_base, seg.len);
            if matches!(seg.role, SegRole::Private) && !self.outcome.dead_private.contains(&range) {
                self.outcome.dead_private.push(range);
            }
        }

        // One logical thread per iteration, plus the parent (thread 0);
        // fork edges order everything before the loop with every iteration.
        let detector = &mut self.detector;
        detector.reset(n + 1);
        for k in 0..n {
            detector.fork(0, k + 1);
        }
        let workers = self.threads.max(1).min(n);
        let mut sched = AdversarialScheduler::new(self.seed, workers);
        // Block schedule and serialized merge: the production defaults'
        // deterministic core.
        let joined = interleave(m, &run, &layout, workers, &mut sched, detector);

        self.outcome.shared_accesses += detector.accesses;
        self.outcome.schedule_decisions += sched.decisions;
        self.outcome.schedule_switches += sched.switches;
        let races = detector.races();
        self.outcome.race_count += races.len() as u64;
        let room = MAX_REPORTED_RACES.saturating_sub(self.outcome.races.len());
        self.outcome.races.extend(races.iter().take(room).cloned());
        let results = match joined {
            Ok(results) => results,
            Err(e) => {
                self.outcome.error.get_or_insert_with(|| e.clone());
                return Some(Err(e));
            }
        };
        Some(finalize(
            m,
            &run,
            &layout,
            Schedule::Block,
            Finalization::Serialized,
            results,
        ))
    }
}

/// Options for a certification run.
#[derive(Clone, Debug)]
pub struct CertifyOptions {
    /// Logical worker count (clamped to the iteration count per invocation):
    /// it shapes the block partition, not how many OS threads run.
    pub threads: usize,
    /// Number of adversarial schedules to run.
    pub schedules: u32,
    /// Base seed; schedule `s` runs with seed `seed + s`, which alternates
    /// the scheduling policy through the seed's low bit.
    pub seed: u64,
    /// Program `read` input, replayed identically on every run.
    pub input: Vec<f64>,
}

impl Default for CertifyOptions {
    fn default() -> CertifyOptions {
        CertifyOptions {
            threads: 3,
            schedules: 4,
            seed: 0,
            input: Vec::new(),
        }
    }
}

/// Observable result of one whole-program run: captured `print` output, the
/// final shared memory image, and the error that aborted the run, if any.
#[derive(Clone, Debug)]
pub struct ExecutionCapture {
    /// Captured output lines.
    pub output: Vec<String>,
    /// Final contents of shared memory.
    pub memory: Vec<Value>,
    /// Error that aborted the run, if any.
    pub error: Option<RuntimeError>,
}

/// One adversarial schedule's result for a certified loop.
#[derive(Clone, Debug)]
pub struct ScheduleReport {
    /// The seed this schedule ran under (replay with the same seed).
    pub seed: u64,
    /// Accumulated executor outcome (races, preemption counters).
    pub outcome: CertOutcome,
    /// Whole-program observable result under this schedule.
    pub capture: ExecutionCapture,
    /// Wall-clock time of the run from the loop's first head on: the
    /// prefix the schedules share runs once, outside every schedule, and a
    /// loop the program never reaches ran nothing of its own (zero).
    pub elapsed: Duration,
}

/// Certification result for one loop across all schedules.
#[derive(Clone, Debug)]
pub struct LoopCertification {
    /// The certified loop.
    pub stmt: StmtId,
    /// Per-schedule reports, in seed order.
    pub schedules: Vec<ScheduleReport>,
}

impl LoopCertification {
    /// True when no schedule detected a race.
    pub fn race_free(&self) -> bool {
        self.schedules.iter().all(|s| s.outcome.races.is_empty())
    }

    /// Total races detected across schedules, reported or not.
    pub fn race_count(&self) -> usize {
        self.schedules
            .iter()
            .map(|s| s.outcome.race_count as usize)
            .sum()
    }

    /// Total schedules run.
    pub fn schedules_run(&self) -> u32 {
        self.schedules.len() as u32
    }
}

/// The capture of a program that cannot be laid out.
fn layout_failure(e: impl std::fmt::Debug) -> ExecutionCapture {
    ExecutionCapture {
        output: Vec::new(),
        memory: Vec::new(),
        error: Some(RuntimeError {
            message: format!("layout error: {e:?}"),
            line: 0,
        }),
    }
}

/// Run the program sequentially (no handler) and capture its observable
/// result — the reference side of the differential check.
pub fn capture_sequential(program: &Program, input: &[f64]) -> ExecutionCapture {
    let mut hooks = NoHooks;
    let mut m = match Machine::new(program, &mut hooks) {
        Ok(m) => m,
        Err(e) => return layout_failure(e),
    };
    m.set_input(input.to_vec());
    let error = m.run().err();
    capture_machine(m, error)
}

fn capture_machine(mut m: Machine<'_>, error: Option<RuntimeError>) -> ExecutionCapture {
    let memory = (0..m.shared_len())
        .map(|a| m.peek(a).unwrap_or(Value::Real(0.0)))
        .collect();
    ExecutionCapture {
        output: std::mem::take(&mut m.output),
        memory,
        error,
    }
}

/// Certify `target` under `opts.schedules` adversarial schedules, executing
/// the loop with the privatization described by `plan` (pass the production
/// plan to certify the transformed loop, or
/// [`crate::plan::minimal_plan`]'s result to probe the untransformed one):
/// [`certify_loops`] of one target.
pub fn certify_loop(
    program: &Program,
    target: StmtId,
    plan: &PlanEntry,
    opts: &CertifyOptions,
) -> LoopCertification {
    let mut one = certify_loops(program, &[(target, plan)], opts);
    one.pop().expect("one certification per target")
}

/// Certify every `(loop, plan)` of `targets`, each under `opts.schedules`
/// adversarial schedules, and return their certifications in target order;
/// a loop may appear more than once, under different plans.
///
/// The program is lowered once and run once, sequentially, by a scout
/// machine that stops at the first head of each target loop it reaches and
/// takes a [`Checkpoint`] there.  Every schedule of that loop resumes from
/// the checkpoint with the loop's [`CertifyHandler`] installed and runs to
/// the end of the program; the scout then steps past the head, and quits
/// once no target is left.  Until its target's first head a schedule's run
/// is the sequential run — the handler declines every other loop — so this
/// gives what running the whole program once per schedule did.  A target
/// the scout never reaches (its procedure is never called, or the run fails
/// first) gets the scout's final capture for every schedule, which is again
/// what each full run would have produced.  The scout runs under
/// [`MAX_EXECUTE_OPS`], and each checkpoint carries that budget into the
/// schedules resumed from it: a run that spends it ends in the budget
/// error instead of holding the worker.
pub fn certify_loops(
    program: &Program,
    targets: &[(StmtId, &PlanEntry)],
    opts: &CertifyOptions,
) -> Vec<LoopCertification> {
    let mut certs: Vec<LoopCertification> = targets
        .iter()
        .map(|&(stmt, _)| LoopCertification {
            stmt,
            schedules: Vec::new(),
        })
        .collect();
    let unreached = |cert: &mut LoopCertification, capture: &ExecutionCapture| {
        cert.schedules = (0..opts.schedules)
            .map(|s| ScheduleReport {
                seed: opts.seed.wrapping_add(s as u64),
                outcome: CertOutcome::default(),
                capture: capture.clone(),
                elapsed: Duration::ZERO,
            })
            .collect();
    };
    let code = match Code::lower(program) {
        Ok(code) => Arc::new(code),
        Err(e) => {
            let capture = layout_failure(e);
            certs.iter_mut().for_each(|c| unreached(c, &capture));
            return certs;
        }
    };
    // Target indices by loop, until the scout reaches the loop.
    let mut pending: HashMap<StmtId, Vec<usize>> = HashMap::new();
    for (k, &(stmt, _)) in targets.iter().enumerate() {
        pending.entry(stmt).or_default().push(k);
    }
    let mut hooks = NoHooks;
    let mut scout = Machine::with_code(program, code, &mut hooks);
    scout.set_input(opts.input.clone());
    scout.set_max_ops(MAX_EXECUTE_OPS);
    let error = loop {
        if pending.is_empty() {
            return certs;
        }
        match scout.run_to_head(|lp| pending.contains_key(&lp.stmt)) {
            Ok(Some(lp)) => {
                let at = scout.checkpoint();
                let reached = pending.remove(&lp.stmt);
                for k in reached.expect("the scout stops at pending loops only") {
                    let plan = targets[k].1;
                    certs[k].schedules = (0..opts.schedules)
                        .map(|s| run_schedule(program, &at, lp.stmt, plan, opts, s))
                        .collect();
                }
            }
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    let capture = capture_machine(scout, error);
    for k in pending.into_values().flatten() {
        unreached(&mut certs[k], &capture);
    }
    certs
}

/// Schedule `s` of `target`: resume the run from `at`, the loop's first
/// head, with the loop certified under `plan`, and run it to the end.
fn run_schedule(
    program: &Program,
    at: &Checkpoint,
    target: StmtId,
    plan: &PlanEntry,
    opts: &CertifyOptions,
    s: u32,
) -> ScheduleReport {
    let seed = opts.seed.wrapping_add(s as u64);
    let start = Instant::now();
    let mut hooks = NoHooks;
    let mut m = Machine::resume(program, at, &mut hooks);
    let mut handler = CertifyHandler {
        target,
        threads: opts.threads,
        seed,
        plan,
        detector: RaceDetector::new(0, m.shared_len()),
        outcome: CertOutcome::default(),
    };
    m.set_handler(&mut handler);
    let error = m.finish().err();
    let capture = capture_machine(m, error);
    ScheduleReport {
        seed,
        outcome: handler.outcome,
        capture,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{minimal_plan, ParallelPlans};
    use suif_analysis::{ParallelizeConfig, Parallelizer};
    use suif_ir::parse_program;

    fn loop_named(
        program: &Program,
        pa: &suif_analysis::ProgramAnalysis<'_>,
        name: &str,
    ) -> StmtId {
        let _ = program;
        pa.ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("no loop {name}"))
            .stmt
    }

    /// Every schedule of `target` run from `main`, as certification ran
    /// before the scout: the reference `certify_loops` must equal.
    fn certify_from_main(
        program: &Program,
        target: StmtId,
        plan: &PlanEntry,
        opts: &CertifyOptions,
    ) -> LoopCertification {
        let schedules = (0..opts.schedules)
            .map(|s| {
                let seed = opts.seed.wrapping_add(s as u64);
                let mut hooks = NoHooks;
                let (outcome, capture) = match Machine::new(program, &mut hooks) {
                    Err(e) => (CertOutcome::default(), layout_failure(e)),
                    Ok(mut m) => {
                        let mut handler = CertifyHandler {
                            target,
                            threads: opts.threads,
                            seed,
                            plan,
                            detector: RaceDetector::new(0, m.shared_len()),
                            outcome: CertOutcome::default(),
                        };
                        m.set_input(opts.input.clone());
                        m.set_handler(&mut handler);
                        let error = m.run().err();
                        let capture = capture_machine(m, error);
                        (handler.outcome, capture)
                    }
                };
                ScheduleReport {
                    seed,
                    outcome,
                    capture,
                    elapsed: Duration::ZERO,
                }
            })
            .collect();
        LoopCertification {
            stmt: target,
            schedules,
        }
    }

    /// Everything a certification reports but the wall clock.
    fn shown(c: &LoopCertification) -> String {
        let schedules: Vec<_> = c
            .schedules
            .iter()
            .map(|s| (s.seed, &s.outcome, &s.capture))
            .collect();
        format!("{:?} {schedules:?}", c.stmt)
    }

    /// Certify the named loops of `src` in one `certify_loops` call — each
    /// under its production plan, or the minimal plan when it has none, and
    /// the ones marked `minimal` under the minimal plan too — and check each
    /// against per-target certification and against schedules run from
    /// `main`.  Returns the certifications in target order.
    fn one_call_agrees(src: &str, loops: &[&str], minimal: &[&str]) -> Vec<LoopCertification> {
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let plans = ParallelPlans::from_analysis(&pa);
        let mut targets = Vec::new();
        for &name in loops {
            let stmt = loop_named(&p, &pa, name);
            let production = plans.loops.get(&stmt).cloned();
            targets.extend(
                production
                    .or_else(|| minimal_plan(&p, stmt))
                    .map(|plan| (stmt, plan)),
            );
        }
        for &name in minimal {
            let stmt = loop_named(&p, &pa, name);
            targets.push((stmt, minimal_plan(&p, stmt).expect("a minimal plan")));
        }
        assert_eq!(
            targets.len(),
            loops.len() + minimal.len(),
            "every loop planned"
        );
        let opts = CertifyOptions {
            schedules: 3,
            seed: 5,
            ..Default::default()
        };
        let refs: Vec<_> = targets.iter().map(|(stmt, plan)| (*stmt, plan)).collect();
        let all = certify_loops(&p, &refs, &opts);
        assert_eq!(all.len(), targets.len());
        for (cert, (stmt, plan)) in all.iter().zip(&targets) {
            assert_eq!(shown(cert), shown(&certify_loop(&p, *stmt, plan, &opts)));
            assert_eq!(
                shown(cert),
                shown(&certify_from_main(&p, *stmt, plan, &opts))
            );
        }
        all
    }

    #[test]
    fn a_loop_the_program_never_reaches_gets_the_whole_run() {
        let src = r#"program t
proc never() {
  real b[8]
  int j
  do 3 j = 1, 8 {
    b[j] = j
  }
}
proc main() {
  real a[8]
  int i
  do 1 i = 1, 8 {
    a[i] = i
  }
  print a[8]
}
"#;
        let certs = one_call_agrees(src, &["main/1", "never/3"], &[]);
        let seq = capture_sequential(&parse_program(src).unwrap(), &[]);
        for s in &certs[1].schedules {
            assert_eq!(s.outcome.loops_run, 0);
            assert_eq!(s.capture.output, seq.output);
            assert_eq!(s.capture.memory, seq.memory);
            assert_eq!(s.elapsed, Duration::ZERO);
        }
        assert!(certs[0].schedules.iter().all(|s| s.outcome.loops_run == 1));
    }

    #[test]
    fn nested_targets_and_one_loop_under_two_plans() {
        let src = r#"program t
proc f(real q[*], int n) {
  int j
  do 3 j = 2, n {
    q[j] = q[j - 1] + 1
  }
}
proc main() {
  real a[6, 5], s
  int i, k
  s = 0
  do 1 i = 1, 5 {
    do 2 k = 1, 6 {
      a[k, i] = k + i
    }
    call f(a[1, i], 6)
  }
  do 4 i = 1, 5 {
    s = s + a[6, i]
  }
  print s
}
"#;
        let certs = one_call_agrees(
            src,
            &["main/1", "main/2", "f/3", "main/4"],
            &["main/2", "main/4"],
        );
        // The inner loops run once per outer iteration.
        assert_eq!(certs[1].schedules[0].outcome.loops_run, 5);
        assert_eq!(certs[2].schedules[0].outcome.loops_run, 5);
        assert!(!certs[2].race_free(), "f/3 carries a dependence");
    }

    #[test]
    fn a_run_that_fails_before_a_targets_head() {
        let src = r#"program t
proc main() {
  real a[4]
  int i, k
  do 1 i = 1, 4 {
    a[i] = i
  }
  k = 5
  a[k] = 1
  do 2 i = 1, 4 {
    a[i] = a[i] * 2
  }
}
"#;
        let certs = one_call_agrees(src, &["main/1", "main/2"], &[]);
        for cert in &certs {
            for s in &cert.schedules {
                let e = s.capture.error.as_ref().expect("the run fails");
                assert_eq!(
                    (e.line, e.message.as_str()),
                    (9, "subscript 1 of `a` is 5 (> extent 4)")
                );
            }
        }
        assert!(certs[1].schedules.iter().all(|s| s.outcome.loops_run == 0));
    }

    #[test]
    fn a_program_that_cannot_be_laid_out() {
        let src = r#"program t
proc f(int n) {
  real tmp[n]
  int j
  do 2 j = 1, n {
    tmp[j] = j
  }
}
proc main() {
  real a[4]
  int i
  do 1 i = 1, 4 {
    a[i] = i
  }
  call f(3)
}
"#;
        let certs = one_call_agrees(src, &["main/1", "f/2"], &[]);
        for s in certs.iter().flat_map(|c| &c.schedules) {
            let e = s.capture.error.as_ref().expect("no layout");
            assert!(e.message.starts_with("layout error"), "{}", e.message);
            assert_eq!(s.outcome.loops_run, 0);
        }
    }

    #[test]
    fn doall_certifies_race_free_and_matches_sequential() {
        let src = r#"program t
proc main() {
  real a[32]
  int i
  do 1 i = 1, 32 {
    a[i] = i * 2
  }
  print a[1], a[32]
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let target = loop_named(&p, &pa, "main/1");
        let plans = ParallelPlans::from_analysis(&pa);
        let plan = plans.loops.get(&target).expect("loop planned").clone();
        let seq = capture_sequential(&p, &[]);
        let cert = certify_loop(&p, target, &plan, &CertifyOptions::default());
        assert!(
            cert.race_free(),
            "races: {:?}",
            cert.schedules[0].outcome.races
        );
        assert_eq!(cert.schedules_run(), 4);
        for s in &cert.schedules {
            assert!(s.outcome.loops_run >= 1, "loop not certified");
            assert_eq!(s.capture.output, seq.output, "seed {}", s.seed);
            assert_eq!(s.capture.memory, seq.memory, "seed {}", s.seed);
            assert!(s.capture.error.is_none());
        }
    }

    #[test]
    fn carried_dependence_races_under_minimal_plan() {
        // a[i] = a[i-1] + 1 carries a flow dependence: iterations conflict.
        let src = r#"program t
proc main() {
  real a[32]
  int i
  a[1] = 1
  do 1 i = 2, 32 {
    a[i] = a[i - 1] + 1
  }
  print a[32]
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let target = loop_named(&p, &pa, "main/1");
        assert!(!pa.verdicts[&target].is_parallel(), "must be serial");
        let plan = minimal_plan(&p, target).unwrap();
        let cert = certify_loop(&p, target, &plan, &CertifyOptions::default());
        assert!(!cert.race_free(), "carried dependence must race");
        let race = cert.schedules[0].outcome.races.first().expect("race");
        assert_eq!(p.var(race.first.var).name, "a");
    }

    #[test]
    fn schedules_are_replayable() {
        let src = r#"program t
proc main() {
  real a[16]
  int i
  do 1 i = 1, 16 {
    a[i] = i
  }
  print a[16]
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let target = loop_named(&p, &pa, "main/1");
        let plan = ParallelPlans::from_analysis(&pa).loops[&target].clone();
        let opts = CertifyOptions {
            schedules: 2,
            seed: 99,
            ..Default::default()
        };
        let a = certify_loop(&p, target, &plan, &opts);
        let b = certify_loop(&p, target, &plan, &opts);
        let counters = |c: &LoopCertification| -> Vec<(u64, u64, u64)> {
            let of = |s: &ScheduleReport| {
                let o = &s.outcome;
                (o.schedule_decisions, o.schedule_switches, o.shared_accesses)
            };
            c.schedules.iter().map(of).collect()
        };
        assert_eq!(counters(&a), counters(&b));
        // Seeds 99 and 100 as the token gate between OS threads decided
        // them: 1 first pick + 16 iteration starts + 48 accesses (two loads
        // of `i` and the store, per iteration) + 2 picks among the rest as
        // the first two workers end.
        assert_eq!(counters(&a), vec![(67, 13, 16), (67, 6, 16)]);
        for (x, y) in a.schedules.iter().zip(&b.schedules) {
            assert_eq!(x.capture.output, y.capture.output);
        }
    }
}
