//! Race certification of planned parallel loops.
//!
//! Where [`crate::executor`] runs a compiler-parallelized loop for *speed*,
//! this module runs one for *evidence*.  `CertifyHandler` lays the target
//! loop out under the `LoopLayout` of the plan it is given, partitions its
//! iterations with the same [`Schedule`] and applies the same `finalize`
//! as the fast path — so a certification run exercises exactly the
//! transformed loop the production runtime would execute — but its workers
//! are *logical* threads: views of the machine's memory that the handler
//! itself advances one [`Machine::step_with`] at a time, on the calling OS
//! thread.  Between two steps a seeded [`AdversarialScheduler`] chooses
//! which worker takes the next one (so the interleaving replays from a `u64`
//! seed), and every step reports its memory access to a [`RaceDetector`],
//! in whose model each *iteration* is a logical thread unordered with every
//! other: two iterations race on a cell one of them writes.  Nothing is
//! spawned and nothing is locked.  One detector, whose dense shadow covers
//! the shared segment, serves every schedule of a call and is reset at
//! every invocation of a target loop.
//!
//! [`certify_loops`] runs the program once, as a *scout* that carries the
//! schedules: each rides it as the scout's thread plus an *overlay* of the
//! cells where its memory differs, runs only its loop's invocations under
//! its handler, and leaves for good to run alone to the end once its
//! thread differs or the scout is about to read its overlay.  Schedules
//! waiting at an exit in one state share one race-free run of it.  Each
//! schedule's races, captured output and final shared memory are exactly
//! those of one whole run per schedule ([`certify_from_main`]).  A
//! sequential reference capture of the same program lets callers check the
//! differential invariant: a certified DOALL loop must be race-free with
//! sequential-identical observable behavior under every schedule.

use crate::executor::{Finalization, Schedule};
use crate::forkjoin::{finalize, Iterations, LoopLayout, LoopRun, SegRole, WorkerResult};
use crate::plan::PlanEntry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use suif_dynamic::machine::{
    same_value, Checkpoint, Hooks, LoopHandler, Machine, NoHooks, RuntimeError, Stop,
};
use suif_dynamic::race::{AccessKind, Race, RaceDetector};
use suif_dynamic::sched::AdversarialScheduler;
use suif_dynamic::{Code, DoLoop, Value, MAX_EXECUTE_OPS};
use suif_ir::{Program, StmtId, VarId};

/// How many races one schedule reports in [`CertOutcome::races`], over all
/// its invocations; [`suif_dynamic::race::MAX_INVOCATION_RACES`] caps the
/// races the detector records in one invocation.
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
    /// (thread 0, before a worker's first iteration, makes no access).
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
/// this thread as `sched` [`drive`]s them.  A worker that fails leaves the
/// others running to the end of their blocks.  Returns each worker's count
/// of preemption points, and the results in worker order or the first
/// error in execution order.
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
) -> (Vec<u64>, Result<Vec<WorkerResult>, RuntimeError>) {
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
    let mut error = None;
    let points = drive(sched, workers, |t| {
        match threads[t].advance(run, detector) {
            Some(Err(e)) => {
                error.get_or_insert(e);
                true
            }
            ended => ended.is_some(),
        }
    });
    let results = threads.into_iter().map(|w| WorkerResult::of(w.view));
    (points, error.map_or_else(|| Ok(results.collect()), Err))
}

/// Ask `sched` which of `workers` logical threads runs next, first and
/// after every `advance(t)` — worker `t` runs to its next preemption point
/// (`false`) or to its end (`true`) — until all have ended, and return each
/// worker's count of preemption points.
fn drive(
    sched: &mut AdversarialScheduler,
    workers: usize,
    mut advance: impl FnMut(usize) -> bool,
) -> Vec<u64> {
    let mut points = vec![0; workers];
    let mut runnable: Vec<usize> = (0..workers).collect();
    let mut active = sched.pick(None, &runnable);
    loop {
        if advance(active) {
            runnable.retain(|&t| t != active);
            if runnable.is_empty() {
                return points;
            }
        } else {
            points[active] += 1;
        }
        active = sched.pick(Some(active), &runnable);
    }
}

/// What a run certified that a run of the same invocation from the same
/// state, under another seed, certifies alike if the first raced nowhere.
#[derive(Default)]
struct Trail {
    /// Per certified invocation, each worker's count of preemption points.
    points: Vec<Vec<u64>>,
    /// The private ranges of every invocation laid out, in order.
    private: Vec<(usize, usize)>,
}

/// A [`LoopHandler`] that executes one target loop under race certification.
///
/// Every invocation of the target loop is certified (an inner loop reached
/// several times accumulates into `outcome` across invocations); all other
/// loops run sequentially.
struct CertifyHandler<'h> {
    target: StmtId,
    /// Logical worker count (clamped to the iteration count per invocation).
    threads: usize,
    /// All scheduling decisions derive from this seed.
    seed: u64,
    plan: &'h PlanEntry,
    /// Reset at every invocation, so one serves every schedule of a call.
    detector: &'h mut RaceDetector,
    outcome: &'h mut CertOutcome,
    trail: Trail,
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
            if matches!(seg.role, SegRole::Private) {
                self.trail.private.push(range);
                if !self.outcome.dead_private.contains(&range) {
                    self.outcome.dead_private.push(range);
                }
            }
        }

        // One logical thread per iteration, unordered with every other.
        let detector = &mut *self.detector;
        detector.reset();
        let workers = self.threads.max(1).min(n);
        let mut sched = AdversarialScheduler::new(self.seed, workers);
        // Block schedule and serialized merge: the production defaults'
        // deterministic core.
        let (points, joined) = interleave(m, &run, &layout, workers, &mut sched, detector);
        self.trail.points.push(points);

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

/// The most adversarial schedules one certification may ask for.  A
/// `certify` request and the CLI's `--schedules` refuse more, and fewer than
/// one.
pub const MAX_CERTIFY_SCHEDULES: u32 = 64;

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
#[derive(Clone, Debug, Default)]
pub struct ExecutionCapture {
    /// Captured output lines.
    pub output: Vec<String>,
    /// Final contents of shared memory.
    pub memory: Vec<Value>,
    /// Error that aborted the run, if any.
    pub error: Option<RuntimeError>,
}

/// One adversarial schedule's result for a certified loop.
#[derive(Clone, Debug, Default)]
pub struct ScheduleReport {
    /// The seed this schedule ran under (replay with the same seed).
    pub seed: u64,
    /// Accumulated executor outcome (races, preemption counters).
    pub outcome: CertOutcome,
    /// Whole-program observable result under this schedule, shared with
    /// the schedules of the call that end alike: all that ride the scout to
    /// its end with no cell differing share its capture.
    pub capture: Arc<ExecutionCapture>,
    /// Wall-clock time of the schedule's own work: its invocations of the
    /// loop and the stretches it ran alone.  The scout's sequential run is
    /// in no schedule's `elapsed`, and a loop the program never reaches ran
    /// nothing of its own (zero).
    pub elapsed: Duration,
    /// Certified invocations after which the schedule's thread equalled the
    /// scout's, so that it rode the scout on from there.
    pub joined: u64,
    /// Those of the `joined` invocations after which some cell of the
    /// schedule's memory differed from the scout's: it rode on with an
    /// overlay.
    pub overlaid: u64,
    /// 1 when the schedule left the scout to run alone to the end (its
    /// thread differed, the scout was about to read a cell of its overlay,
    /// or the scout stopped without it), else 0.
    pub diverged: u64,
    /// Those of the `joined` invocations it took from the race-free run
    /// of another schedule waiting in the same state, instead of its own.
    pub shared: u64,
    /// The part of `elapsed` it spent running alone after it left.
    pub alone: Duration,
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
    capture_machine(m, error, &[])
}

/// The capture of `m`, which ended with `error`: its output follows the
/// first [`Machine::printed`] lines of `printed`, the output of the run it
/// continues.
fn capture_machine(
    mut m: Machine<'_>,
    error: Option<RuntimeError>,
    printed: &[String],
) -> ExecutionCapture {
    let memory = (0..m.shared_len())
        .map(|a| m.peek(a).unwrap_or(Value::Real(0.0)))
        .collect();
    let mut output = printed[..m.printed()].to_vec();
    output.append(&mut m.output);
    ExecutionCapture {
        output,
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

/// What certification means, for tests to hold [`certify_loops`] to: every
/// schedule of `target` is one whole run of the program from `main`, within
/// [`MAX_EXECUTE_OPS`], with the loop certified under `plan` at each of its
/// invocations and every other loop run sequentially.  `elapsed` is the
/// run's time; `joined`, `overlaid` and `diverged` are zero, as there is no
/// scout.
pub fn certify_from_main(
    program: &Program,
    target: StmtId,
    plan: &PlanEntry,
    opts: &CertifyOptions,
) -> LoopCertification {
    from_main_within(program, target, plan, opts, MAX_EXECUTE_OPS)
}

/// [`certify_from_main`] within a budget of `max_ops`.
fn from_main_within(
    program: &Program,
    target: StmtId,
    plan: &PlanEntry,
    opts: &CertifyOptions,
    max_ops: u64,
) -> LoopCertification {
    let schedules = (0..opts.schedules)
        .map(|s| {
            let start = Instant::now();
            let mut report = ScheduleReport {
                seed: opts.seed.wrapping_add(s as u64),
                ..Default::default()
            };
            let mut hooks = NoHooks;
            let capture = match Machine::new(program, &mut hooks) {
                Err(e) => layout_failure(e),
                Ok(mut m) => {
                    let mut detector = RaceDetector::new(m.shared_len());
                    let mut handler = CertifyHandler {
                        target,
                        threads: opts.threads,
                        seed: report.seed,
                        plan,
                        detector: &mut detector,
                        outcome: &mut report.outcome,
                        trail: Trail::default(),
                    };
                    m.set_input(opts.input.clone());
                    m.set_max_ops(max_ops);
                    m.set_handler(&mut handler);
                    let error = m.run().err();
                    capture_machine(m, error, &[])
                }
            };
            report.capture = Arc::new(capture);
            report.elapsed = start.elapsed();
            report
        })
        .collect();
    LoopCertification {
        stmt: target,
        schedules,
    }
}

/// Certify every `(loop, plan)` of `targets`, each under `opts.schedules`
/// adversarial schedules, and return their certifications in target order;
/// a loop may appear more than once, under different plans.  Each result is
/// [`certify_from_main`]'s, but for `elapsed`, `joined`, `overlaid`,
/// `diverged`, `shared` and `alone`.
///
/// The program is lowered once and run once, sequentially, by a *scout*
/// that carries the schedules.  A schedule is *joined* while its thread —
/// program counter, stacks, input read, output, live bindings — is the
/// scout's; its memory is the scout's but for a sparse *overlay* of cells,
/// empty at the start.  At a head of a target loop with joined schedules
/// the scout takes one [`Checkpoint`] and runs the loop on sequentially
/// while they wait.  At the loop's exit each of them runs that invocation
/// under its `CertifyHandler` from the checkpoint with its overlay
/// applied, and rides on if its thread then equals the scout's, with the
/// cells that differ as its new overlay.  When no joined schedule rides
/// the loop through, the first waiting one to reach the exit *stands in*:
/// the scout takes its state instead of running the loop.  While an
/// overlay holds cells, the scout looks at each instruction's accesses
/// before it runs it ([`Machine::accesses`]): a write to a held cell drops
/// it from every overlay, as the schedule's run writes what the scout's
/// does, and a read of one makes that schedule leave from the scout's
/// state with its overlay applied.  A schedule whose thread differs at an
/// exit leaves there, and one that leaves runs alone to the end there and
/// then.  If the scout fails or ends inside the loop, the waiting
/// schedules run alone from its head.  The scout stops once it carries no
/// one.  Joined schedules, and those of a target the scout never reached,
/// take the scout's final capture with their overlays applied.
///
/// Schedules of one target that wait at an exit with the same lag and
/// overlay start the invocation in one state, and every interleaving of a
/// race-free invocation computes alike: no iteration touches a cell
/// another writes.  So the first runs it, and when its run rides on with
/// no race the others take its place, counters and private ranges, and
/// replay their own schedulers over its preemption points (`shared`).
///
/// A handler skips a loop body's ops, so a joined schedule counts fewer
/// ops than the scout; it keeps the difference (its lag) and is resumed
/// with its own count.  The scout stops before any budget check that a
/// joined schedule with another count would fail, and such schedules go on
/// alone from there: every run stays within [`MAX_EXECUTE_OPS`] of its
/// own, and a run that spends it ends in the budget error instead of
/// holding the worker.
pub fn certify_loops(
    program: &Program,
    targets: &[(StmtId, &PlanEntry)],
    opts: &CertifyOptions,
) -> Vec<LoopCertification> {
    certify_within(program, targets, opts, MAX_EXECUTE_OPS)
}

/// [`certify_loops`] within a budget of `max_ops`.
fn certify_within(
    program: &Program,
    targets: &[(StmtId, &PlanEntry)],
    opts: &CertifyOptions,
    max_ops: u64,
) -> Vec<LoopCertification> {
    let mut scheds: Vec<Sched> = (0..targets.len())
        .flat_map(|target| (0..opts.schedules).map(move |s| (target, s)))
        .map(|(target, s)| Sched {
            target,
            place: Place::joined(),
            report: ScheduleReport {
                seed: opts.seed.wrapping_add(s as u64),
                ..Default::default()
            },
        })
        .collect();
    let code = match Code::lower(program) {
        Ok(code) => Arc::new(code),
        Err(e) => {
            let capture = Arc::new(layout_failure(e));
            for s in &mut scheds {
                s.place = Place::Done(Arc::clone(&capture));
            }
            return reports(targets, scheds);
        }
    };
    let mut hooks = NoHooks;
    let mut scout = Machine::with_code(program, code, &mut hooks);
    scout.set_input(opts.input.clone());
    scout.set_max_ops(max_ops);
    let mut c = Certifier {
        program,
        targets,
        threads: opts.threads,
        detector: RaceDetector::new(scout.shared_len()),
        scheds,
        watched: vec![false; scout.shared_len()],
        marked: Vec::new(),
        watching: false,
    };
    // Schedules by their target's loop.
    let mut by_loop: HashMap<StmtId, Vec<usize>> = HashMap::new();
    for (i, sched) in c.scheds.iter().enumerate() {
        by_loop.entry(targets[sched.target].0).or_default().push(i);
    }
    // The head of each loop the scout runs while schedules wait at its
    // exit, innermost last.
    let mut heads: Vec<(DoLoop, Checkpoint)> = Vec::new();
    let ended = loop {
        let Some(limit) = c.limit(max_ops) else {
            break None;
        };
        let joined = |lp: &DoLoop| {
            by_loop.get(&lp.stmt).is_some_and(|ids| {
                ids.iter()
                    .any(|&i| matches!(c.scheds[i].place, Place::Joined { .. }))
            })
        };
        let watched: &[bool] = if c.watching { &c.watched } else { &[] };
        let exit = heads.last().map(|(lp, _)| lp);
        match scout.run_to(exit, limit, watched, joined) {
            Ok(Stop::Head(lp)) => {
                for &i in &by_loop[&lp.stmt] {
                    c.scheds[i].place = match c.take(i) {
                        Place::Joined { lag, overlay } => Place::Pending { lag, overlay },
                        other => other,
                    };
                }
                c.rewatch();
                let head = scout.checkpoint();
                if c.scheds
                    .iter()
                    .any(|s| matches!(s.place, Place::Joined { .. }))
                {
                    heads.push((lp, head));
                    // Past the head, and on through the loop sequentially.
                    if let Err(e) = scout.step() {
                        break Some(Err(e));
                    }
                } else {
                    // No schedule rides the loop through: the first waiting
                    // one to reach its exit stands in for the scout's run.
                    c.at_exit(&mut scout, &lp, head, &by_loop[&lp.stmt], true);
                }
            }
            Ok(Stop::Exit) => {
                let (lp, head) = heads.pop().expect("the scout stops at a waited-for exit");
                c.at_exit(&mut scout, &lp, head, &by_loop[&lp.stmt], false);
            }
            Ok(Stop::Limit) => c.detach(&scout),
            Ok(Stop::Touch) => {
                c.touch(&scout);
                match scout.step() {
                    Ok(true) => {}
                    Ok(false) => break Some(Ok(())),
                    Err(e) => break Some(Err(e)),
                }
            }
            Ok(Stop::End) => break Some(Ok(())),
            Err(e) => break Some(Err(e)),
        }
    };
    for i in 0..c.scheds.len() {
        let place = match c.take(i) {
            Place::Pending { lag, overlay } => {
                let stmt = targets[c.scheds[i].target].0;
                let (_, head) = heads
                    .iter()
                    .find(|(lp, _)| lp.stmt == stmt)
                    .expect("a waiting schedule's loop is being run");
                let ops = head.ops().wrapping_sub(lag);
                c.alone(i, overlaid(head.clone(), &overlay), ops, &scout.output)
            }
            other => other,
        };
        c.scheds[i].place = place;
    }
    let capture = ended.map(|result| Arc::new(capture_machine(scout, result.err(), &[])));
    for s in &mut c.scheds {
        if let Place::Joined { overlay, .. } = &s.place {
            let capture = capture
                .as_ref()
                .expect("a joined schedule keeps the scout running");
            s.place = Place::Done(if overlay.is_empty() {
                Arc::clone(capture)
            } else {
                let mut own = ExecutionCapture::clone(capture);
                for &(addr, val) in overlay {
                    own.memory[addr] = val;
                }
                Arc::new(own)
            });
        }
    }
    reports(targets, c.scheds)
}

/// Equal cell for cell, and bit for bit.
fn same_cells(a: &Overlay, b: &Overlay) -> bool {
    let same = |(x, y): (&(usize, Value), &(usize, Value))| x.0 == y.0 && same_value(&x.1, &y.1);
    a.len() == b.len() && a.iter().zip(b).all(same)
}

/// `at` with the cells of `overlay` set to its values.
fn overlaid(mut at: Checkpoint, overlay: &[(usize, Value)]) -> Checkpoint {
    for &(addr, val) in overlay {
        assert!(at.poke(addr, val), "an overlay holds cells of memory");
    }
    at
}

/// The certifications of `targets` from their finished schedules.
fn reports(targets: &[(StmtId, &PlanEntry)], scheds: Vec<Sched>) -> Vec<LoopCertification> {
    let mut certs: Vec<LoopCertification> = targets
        .iter()
        .map(|&(stmt, _)| LoopCertification {
            stmt,
            schedules: Vec::new(),
        })
        .collect();
    for s in scheds {
        let Place::Done(capture) = s.place else {
            panic!("every schedule runs to the end");
        };
        certs[s.target].schedules.push(ScheduleReport {
            capture,
            ..s.report
        });
    }
    certs
}

/// The cells where a schedule's memory differs from the scout's, with the
/// schedule's values, by address.
type Overlay = Vec<(usize, Value)>;

/// Where a schedule stands while the scout runs.
#[derive(Clone)]
enum Place {
    /// Riding the scout: its thread is the scout's, with `lag` fewer ops
    /// counted (wrapping), and its memory is the scout's but for `overlay`.
    Joined { lag: u64, overlay: Overlay },
    /// Rode the scout to the head of its loop, whose exit the scout is
    /// running to, with `lag` fewer ops counted than the head's checkpoint
    /// and `overlay` over its memory.
    Pending { lag: u64, overlay: Overlay },
    /// Ran to the end of the program, or failed.
    Done(Arc<ExecutionCapture>),
}

impl Place {
    /// Where every schedule starts: the scout's state exactly.
    fn joined() -> Place {
        Place::Joined {
            lag: 0,
            overlay: Overlay::new(),
        }
    }
}

/// One schedule of one target.
struct Sched {
    /// Index of its target.
    target: usize,
    place: Place,
    /// All but the capture, which its place holds once it is done.
    report: ScheduleReport,
}

impl ScheduleReport {
    /// The counters an invocation adds to, but its scheduling decisions:
    /// `loops_run` first, `race_count` fifth and `joined` sixth.
    fn counters(&mut self) -> [&mut u64; 7] {
        let o = &mut self.outcome;
        [
            &mut o.loops_run,
            &mut o.iterations,
            &mut o.shared_accesses,
            &mut o.unplannable,
            &mut o.race_count,
            &mut self.joined,
            &mut self.overlaid,
        ]
    }
}

/// The schedules of one [`certify_loops`] call and what they share.
struct Certifier<'p, 't> {
    program: &'p Program,
    targets: &'t [(StmtId, &'t PlanEntry)],
    threads: usize,
    /// Every schedule's detector: it is reset at each invocation.
    detector: RaceDetector,
    scheds: Vec<Sched>,
    /// Per cell of memory: true where a joined schedule's overlay may hold
    /// it.  Exact but after a schedule leaves, until [`Certifier::rewatch`].
    watched: Vec<bool>,
    /// The cells `watched` marked since the last [`Certifier::rewatch`].
    marked: Vec<usize>,
    /// Some joined schedule's overlay holds a cell: the scout must look at
    /// what it touches.
    watching: bool,
}

impl Certifier<'_, '_> {
    /// Schedule `i`'s place, which the caller replaces.
    fn take(&mut self, i: usize) -> Place {
        std::mem::replace(&mut self.scheds[i].place, Place::joined())
    }

    /// The op count past which the scout stops before a budget check: the
    /// first at which a schedule riding it with another count would fail
    /// the check.  `None` once the scout carries no one.
    fn limit(&self, max_ops: u64) -> Option<u64> {
        let mut carrying = false;
        let mut limit = u64::MAX;
        for s in &self.scheds {
            match s.place {
                Place::Joined { lag, .. } => {
                    carrying = true;
                    if lag != 0 {
                        limit = limit.min(max_ops.saturating_add_signed((lag as i64).min(0)));
                    }
                }
                Place::Pending { .. } => carrying = true,
                Place::Done(_) => {}
            }
        }
        carrying.then_some(limit)
    }

    /// Watch the cells of `overlay`, a joined schedule's.
    fn mark(&mut self, overlay: &Overlay) {
        for &(addr, _) in overlay {
            if !self.watched[addr] {
                self.watched[addr] = true;
                self.marked.push(addr);
            }
        }
        self.watching |= !overlay.is_empty();
    }

    /// Watch exactly the cells the joined schedules' overlays hold, after
    /// some left the joined state.
    fn rewatch(&mut self) {
        for &addr in &self.marked {
            self.watched[addr] = false;
        }
        self.marked.clear();
        self.watching = false;
        let scheds = std::mem::take(&mut self.scheds);
        for s in &scheds {
            if let Place::Joined { overlay, .. } = &s.place {
                self.mark(overlay);
            }
        }
        self.scheds = scheds;
    }

    /// Run schedule `i` under its handler from `at` — the scout's state or
    /// its own — with `ops` ops counted, to the exit of `exit`, and return
    /// its state there; or, with no `exit` or when it ends or fails first,
    /// to the end, and return its capture, whose output follows the lines
    /// of `printed`, the scout's, that came before `at`.  Returns the run's
    /// trail beside.  The time counts in its `elapsed`.
    fn run(
        &mut self,
        i: usize,
        at: Checkpoint,
        ops: u64,
        exit: Option<&DoLoop>,
        printed: &[String],
    ) -> (Result<Checkpoint, ExecutionCapture>, Trail) {
        let start = Instant::now();
        let (target, plan) = self.targets[self.scheds[i].target];
        let sched = &mut self.scheds[i].report;
        let mut hooks = NoHooks;
        let mut m = Machine::resume(self.program, at, &mut hooks);
        m.set_ops(ops);
        let mut handler = CertifyHandler {
            target,
            threads: self.threads,
            seed: sched.seed,
            plan,
            detector: &mut self.detector,
            outcome: &mut sched.outcome,
            trail: Trail::default(),
        };
        m.set_handler(&mut handler);
        let stopped = match exit {
            Some(lp) => m.run_to(Some(lp), u64::MAX, &[], |_| false),
            None => m.finish().map(|()| Stop::End),
        };
        let stood = match stopped {
            Ok(Stop::Exit) => Ok(m.into_checkpoint()),
            Ok(_) => Err(capture_machine(m, None, printed)),
            Err(e) => Err(capture_machine(m, Some(e), printed)),
        };
        sched.elapsed += start.elapsed();
        (stood, handler.trail)
    }

    /// Schedule `i` leaves the scout for good: it runs alone from `at`, with
    /// `ops` ops counted, to the end.  The one place `diverged` counts.
    fn alone(&mut self, i: usize, at: Checkpoint, ops: u64, printed: &[String]) -> Place {
        let start = Instant::now();
        self.scheds[i].report.diverged += 1;
        let (Err(capture), _) = self.run(i, at, ops, None, printed) else {
            unreachable!("a run with no exit goes to the end");
        };
        self.scheds[i].report.alone += start.elapsed();
        Place::Done(Arc::new(capture))
    }

    /// The scout stands at the exit of `lp`, whose `head` it checkpointed —
    /// or, when it `stands_in`, at the head itself: each of the schedules
    /// `ids` that waits there runs the invocation from the head with its
    /// overlay applied, the last one from `head` itself, and rides on if its
    /// thread then equals the scout's, with the cells that differ as its
    /// overlay.  One whose thread differs goes on alone.  A scout that
    /// stands in takes the state of the first schedule to reach the exit as
    /// its own, in place of running the loop; it stays at the head if none
    /// does.  Schedules waiting alike share a run, as [`certify_loops`] says.
    fn at_exit(
        &mut self,
        scout: &mut Machine<'_>,
        lp: &DoLoop,
        head: Checkpoint,
        ids: &[usize],
        mut stands_in: bool,
    ) {
        let mut waiting: VecDeque<usize> = ids
            .iter()
            .copied()
            .filter(|&i| matches!(self.scheds[i].place, Place::Pending { .. }))
            .collect();
        // A clone of the head for each run, but the last schedule's.
        let mut heads = std::iter::repeat_n(head, waiting.len());
        while let Some(i) = waiting.pop_front() {
            let Place::Pending { lag, overlay } = self.take(i) else {
                unreachable!("a waiting schedule");
            };
            let at = heads.next().expect("a head for each run");
            let ops = at.ops().wrapping_sub(lag);
            let before = self.scheds[i].report.counters().map(|c| *c);
            let (stood, trail) = self.run(i, overlaid(at, &overlay), ops, Some(lp), &scout.output);
            let certified = before[0] != self.scheds[i].report.outcome.loops_run;
            let place = match stood {
                Err(capture) => Place::Done(Arc::new(capture)),
                Ok(post) if stands_in => {
                    stands_in = false;
                    scout.restore(post);
                    Place::joined()
                }
                Ok(post) => match scout.differences(&post) {
                    Some(cells) => {
                        if !cells.is_empty() {
                            self.scheds[i].report.overlaid += u64::from(certified);
                            self.mark(&cells);
                        }
                        Place::Joined {
                            lag: scout.ops().wrapping_sub(post.ops()),
                            overlay: cells,
                        }
                    }
                    None => {
                        let ops = post.ops();
                        self.alone(i, post, ops, &scout.output)
                    }
                },
            };
            let rode = matches!(place, Place::Joined { .. });
            self.scheds[i].report.joined += u64::from(rode && certified);
            let after = self.scheds[i].report.counters().map(|c| *c);
            let delta: [u64; 7] = std::array::from_fn(|k| after[k] - before[k]);
            // Every interleaving of a race-free invocation computes alike.
            if rode && delta[4] == 0 {
                let target = self.scheds[i].target;
                let scheds = &mut self.scheds;
                waiting.retain(|&j| {
                    let peer = &mut scheds[j];
                    let alike = matches!(&peer.place, Place::Pending { lag: l, overlay: o }
                        if peer.target == target && *l == lag && same_cells(o, &overlay));
                    if alike {
                        let r = &mut peer.report;
                        for (c, d) in r.counters().into_iter().zip(delta) {
                            *c += d;
                        }
                        r.shared += delta[5];
                        for range in &trail.private {
                            if !r.outcome.dead_private.contains(range) {
                                r.outcome.dead_private.push(*range);
                            }
                        }
                        // Its own scheduler, driven over the run's workers.
                        for points in &trail.points {
                            let mut own = AdversarialScheduler::new(r.seed, points.len());
                            let mut left: Vec<_> = points.iter().map(|&p| 0..p).collect();
                            drive(&mut own, points.len(), |t| left[t].next().is_none());
                            r.outcome.schedule_decisions += own.decisions;
                            r.outcome.schedule_switches += own.switches;
                        }
                        peer.place = place.clone();
                    }
                    !alike
                });
            }
            self.scheds[i].place = place;
        }
    }

    /// The scout is about to run an instruction that touches a cell some
    /// joined schedule's overlay may hold.  A schedule whose overlay it
    /// reads leaves the scout here, from the scout's state with its overlay
    /// applied; the others drop the cells it writes, which their runs set
    /// as the scout's does, having read what the scout reads.
    fn touch(&mut self, scout: &Machine<'_>) {
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        scout.accesses(|addr, kind| match kind {
            AccessKind::Read => reads.push(addr),
            AccessKind::Write => writes.push(addr),
        });
        let holds = |overlay: &Overlay, addr: &usize| {
            overlay.binary_search_by_key(addr, |&(a, _)| a).is_ok()
        };
        let mut left = false;
        for i in 0..self.scheds.len() {
            let Place::Joined { lag, overlay } = &mut self.scheds[i].place else {
                continue;
            };
            if !reads.iter().any(|addr| holds(overlay, addr)) {
                for addr in &writes {
                    if let Ok(k) = overlay.binary_search_by_key(addr, |&(a, _)| a) {
                        overlay.remove(k);
                    }
                }
                continue;
            }
            let ops = scout.ops().wrapping_sub(*lag);
            let at = overlaid(scout.checkpoint(), overlay);
            self.scheds[i].place = self.alone(i, at, ops, &scout.output);
            left = true;
        }
        if left {
            self.rewatch();
        } else {
            for &addr in &writes {
                self.watched[addr] = false;
            }
            self.watching = self
                .scheds
                .iter()
                .any(|s| matches!(&s.place, Place::Joined { overlay, .. } if !overlay.is_empty()));
        }
    }

    /// The scout stands before a budget check that a schedule riding it
    /// with another op count could fail: every such schedule goes on alone
    /// from here, with its overlay applied, and fails at the check if it
    /// must.
    fn detach(&mut self, scout: &Machine<'_>) {
        let at = scout.checkpoint();
        for i in 0..self.scheds.len() {
            let Place::Joined { lag, overlay } = &self.scheds[i].place else {
                continue;
            };
            if *lag != 0 {
                let (ops, at) = (
                    scout.ops().wrapping_sub(*lag),
                    overlaid(at.clone(), overlay),
                );
                self.scheds[i].place = self.alone(i, at, ops, &scout.output);
            }
        }
        self.rewatch();
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

    /// Every op budget from none to more than the run needs: schedules that
    /// ride the scout with fewer ops counted than it (a DOALL loop reached
    /// each outer iteration), more (a zero-trip invocation evaluates its
    /// bounds twice), or as many (a loop never called, and the prefix), fail
    /// or finish where their own runs from `main` do.
    #[test]
    fn every_op_budget_ends_each_schedule_where_its_own_run_does() {
        let src = r#"program t
proc never() {
  real b[8]
  int j
  do 5 j = 1, 8 {
    b[j] = j
  }
}
proc main() {
  real a[8], s
  int i, k, n
  s = 0
  n = 0
  do 1 k = 1, 4 {
    do 2 i = 1, 8 {
      a[i] = i * k
    }
    do 3 i = 1, n {
      a[i] = 0
    }
    do 4 i = 2, 8 {
      a[i] = a[i - 1] + 1
    }
    s = s + a[8]
  }
  print s
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let targets: Vec<_> = ["main/2", "main/3", "main/4", "never/5"]
            .iter()
            .map(|name| {
                let stmt = loop_named(&p, &pa, name);
                (stmt, minimal_plan(&p, stmt).expect("a minimal plan"))
            })
            .collect();
        let refs: Vec<_> = targets.iter().map(|(stmt, plan)| (*stmt, plan)).collect();
        let opts = CertifyOptions {
            schedules: 2,
            seed: 3,
            ..Default::default()
        };
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.run().unwrap();
        let (mut finished, mut joined) = (false, 0);
        for budget in 0..m.ops() + 4 {
            let all = certify_within(&p, &refs, &opts, budget);
            for (cert, (stmt, plan)) in all.iter().zip(&targets) {
                let reference = from_main_within(&p, *stmt, plan, &opts, budget);
                assert_eq!(shown(cert), shown(&reference), "budget {budget}");
            }
            finished = all[0].schedules[0].capture.error.is_none();
            joined += all[0].schedules[0].joined;
        }
        assert!(finished, "the largest budget is enough");
        assert!(joined > 0, "main/2 rode the scout");
    }

    /// The first invocation races on `n`, leaving it 1 under some
    /// schedules and 0 (the scout's) under others; at the second, the
    /// former run one iteration and the latter none, evaluating the bounds
    /// twice.  Then the scout stores `n` and `i`, and the schedules wait at
    /// the later, zero-trip, heads with equal memory but another op count
    /// each, the latter ending with more ops counted than the scout: they
    /// may not share a run, or one would meet the budget where its own
    /// run from `main` does not.
    #[test]
    fn schedules_that_differ_only_in_their_op_counts_share_no_run() {
        let src = r#"program t
proc never() {
  real b[2]
  int j
  do 3 j = 1, 2 {
    b[j] = j
  }
}
proc main() {
  int i, k, n
  n = 2
  do 2 k = 1, 6 {
    do 1 i = 1, n {
      n = 2 - i
    }
    if k == 2 {
      n = 0
      i = 0
    }
  }
  print n
}
"#;
        let p = parse_program(src).unwrap();
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let targets: Vec<_> = ["main/1", "never/3"]
            .iter()
            .map(|name| {
                let stmt = loop_named(&p, &pa, name);
                (stmt, minimal_plan(&p, stmt).expect("a minimal plan"))
            })
            .collect();
        let refs: Vec<_> = targets.iter().map(|(stmt, plan)| (*stmt, plan)).collect();
        let opts = CertifyOptions {
            schedules: 4,
            seed: 1,
            ..Default::default()
        };
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.run().unwrap();
        for budget in 0..m.ops() + 4 {
            let all = certify_within(&p, &refs, &opts, budget);
            for (cert, (stmt, plan)) in all.iter().zip(&targets) {
                let reference = from_main_within(&p, *stmt, plan, &opts, budget);
                assert_eq!(shown(cert), shown(&reference), "budget {budget}");
            }
        }
        let all = certify_loops(&p, &refs, &opts);
        let ran: Vec<u64> = all[0]
            .schedules
            .iter()
            .map(|s| s.outcome.loops_run)
            .collect();
        assert!(ran.contains(&1) && ran.contains(&2), "{ran:?}");
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
