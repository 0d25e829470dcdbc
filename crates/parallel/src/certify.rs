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
//! Nothing is spawned and nothing is locked.  One detector, whose dense
//! shadow covers the shared segment, serves every schedule of a call and is
//! reset at every invocation of a target loop.
//!
//! [`certify_loops`] runs the program once, sequentially, as a *scout* that
//! carries the schedules: a schedule whose state is the scout's rides it
//! between invocations, runs only its loop's invocations under its handler
//! (at the loop's exit, from the scout's [`Checkpoint`] at its head), and
//! rides on when its state then equals the scout's.  A schedule whose
//! invocation raced, or whose state differs, leaves the scout once and for
//! all and runs alone to the end.  Each
//! schedule's races, captured output and final shared memory are exactly
//! those of one whole run per schedule ([`certify_from_main`]).  A
//! sequential reference capture of the same program lets callers check the
//! differential invariant: a certified DOALL loop must be race-free with
//! sequential-identical observable behavior under every schedule.

use crate::executor::{Finalization, Schedule};
use crate::forkjoin::{finalize, Iterations, LoopLayout, LoopRun, SegRole, WorkerResult};
use crate::plan::PlanEntry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suif_dynamic::machine::{Checkpoint, Hooks, LoopHandler, Machine, NoHooks, RuntimeError, Stop};
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
        let detector = &mut *self.detector;
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
    /// Wall-clock time of the schedule's own work: its invocations of the
    /// loop and the stretches it ran alone.  The scout's sequential run is
    /// in no schedule's `elapsed`, and a loop the program never reaches ran
    /// nothing of its own (zero).
    pub elapsed: Duration,
    /// Certified invocations after which the schedule's state equalled the
    /// scout's, so that it rode the scout on from there.
    pub joined: u64,
    /// 1 when the schedule left the scout to run alone to the end (its
    /// invocation raced, its state differed, or the scout stopped without
    /// it), else 0.
    pub diverged: u64,
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

/// What certification means, for tests to hold [`certify_loops`] to: every
/// schedule of `target` is one whole run of the program from `main`, within
/// [`MAX_EXECUTE_OPS`], with the loop certified under `plan` at each of its
/// invocations and every other loop run sequentially.  `elapsed` is the
/// run's time; `joined` and `diverged` are zero, as there is no scout.
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
            let seed = opts.seed.wrapping_add(s as u64);
            let start = Instant::now();
            let mut outcome = CertOutcome::default();
            let mut hooks = NoHooks;
            let capture = match Machine::new(program, &mut hooks) {
                Err(e) => layout_failure(e),
                Ok(mut m) => {
                    let mut detector = RaceDetector::new(0, m.shared_len());
                    let mut handler = CertifyHandler {
                        target,
                        threads: opts.threads,
                        seed,
                        plan,
                        detector: &mut detector,
                        outcome: &mut outcome,
                    };
                    m.set_input(opts.input.clone());
                    m.set_max_ops(max_ops);
                    m.set_handler(&mut handler);
                    let error = m.run().err();
                    capture_machine(m, error)
                }
            };
            ScheduleReport {
                seed,
                outcome,
                capture,
                elapsed: start.elapsed(),
                joined: 0,
                diverged: 0,
            }
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
/// [`certify_from_main`]'s, but for `elapsed`, `joined` and `diverged`.
///
/// The program is lowered once and run once, sequentially, by a *scout*
/// that carries the schedules.  A schedule is *joined* while its machine
/// state is the scout's — every schedule starts so — and holds no machine
/// of its own then.  At a head of a target loop with joined schedules the
/// scout takes one [`Checkpoint`] and runs the loop on sequentially while
/// they wait.  At the loop's exit each of them runs that invocation under
/// its [`CertifyHandler`] from the checkpoint, and rides on if its state
/// then equals the scout's.  A schedule whose invocation raced, or whose
/// state differs, leaves the scout for good: it runs alone to the end
/// there and then.  If the scout fails or ends inside the loop, the waiting
/// schedules run alone from its head.  The scout stops once it carries no
/// one.  Joined schedules, and those of a target the scout never reached,
/// take the scout's final capture.
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
            seed: opts.seed.wrapping_add(s as u64),
            outcome: CertOutcome::default(),
            place: Place::Joined { lag: 0 },
            elapsed: Duration::ZERO,
            joined: 0,
            diverged: 0,
        })
        .collect();
    let code = match Code::lower(program) {
        Ok(code) => Arc::new(code),
        Err(e) => {
            let capture = layout_failure(e);
            for s in &mut scheds {
                s.place = Place::Done(capture.clone());
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
        detector: RaceDetector::new(0, scout.shared_len()),
        scheds,
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
        match scout.run_to(heads.last().map(|(lp, _)| lp), limit, joined) {
            Ok(Stop::Head(lp)) => {
                for &i in &by_loop[&lp.stmt] {
                    if let Place::Joined { lag } = c.scheds[i].place {
                        c.scheds[i].place = Place::Pending { lag };
                    }
                }
                heads.push((lp, scout.checkpoint()));
                // Past the head, and on through the loop sequentially.
                if let Err(e) = scout.step() {
                    break Some(Err(e));
                }
            }
            Ok(Stop::Exit) => {
                let (lp, head) = heads.pop().expect("the scout stops at a waited-for exit");
                c.at_exit(&scout, &lp, head, &by_loop[&lp.stmt]);
            }
            Ok(Stop::Limit) => c.detach(&scout),
            Ok(Stop::End) => break Some(Ok(())),
            Err(e) => break Some(Err(e)),
        }
    };
    let capture = ended.map(|result| capture_machine(scout, result.err()));
    for i in 0..c.scheds.len() {
        let place = match c.take(i) {
            Place::Joined { .. } => Place::Done(
                capture
                    .clone()
                    .expect("a joined schedule keeps the scout running"),
            ),
            Place::Pending { lag } => {
                let stmt = targets[c.scheds[i].target].0;
                let (_, head) = heads
                    .iter()
                    .find(|(lp, _)| lp.stmt == stmt)
                    .expect("a waiting schedule's loop is being run");
                c.alone(i, head.clone(), head.ops().wrapping_sub(lag))
            }
            done => done,
        };
        c.scheds[i].place = place;
    }
    reports(targets, c.scheds)
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
            seed: s.seed,
            outcome: s.outcome,
            capture,
            elapsed: s.elapsed,
            joined: s.joined,
            diverged: s.diverged,
        });
    }
    certs
}

/// Where a schedule stands while the scout runs.
enum Place {
    /// Riding the scout: its state is the scout's, with `lag` fewer ops
    /// counted (wrapping).
    Joined { lag: u64 },
    /// Rode the scout to the head of its loop, whose exit the scout is
    /// running to, with `lag` fewer ops counted than the head's checkpoint.
    Pending { lag: u64 },
    /// Ran to the end of the program, or failed.
    Done(ExecutionCapture),
}

/// One schedule of one target.
struct Sched {
    /// Index of its target.
    target: usize,
    seed: u64,
    outcome: CertOutcome,
    place: Place,
    elapsed: Duration,
    joined: u64,
    diverged: u64,
}

/// The schedules of one [`certify_loops`] call and what they share.
struct Certifier<'p, 't> {
    program: &'p Program,
    targets: &'t [(StmtId, &'t PlanEntry)],
    threads: usize,
    /// Every schedule's detector: it is reset at each invocation.
    detector: RaceDetector,
    scheds: Vec<Sched>,
}

impl Certifier<'_, '_> {
    /// Schedule `i`'s place, which the caller replaces.
    fn take(&mut self, i: usize) -> Place {
        std::mem::replace(&mut self.scheds[i].place, Place::Joined { lag: 0 })
    }

    /// The op count past which the scout stops before a budget check: the
    /// first at which a schedule riding it with another count would fail
    /// the check.  `None` once the scout carries no one.
    fn limit(&self, max_ops: u64) -> Option<u64> {
        let mut carrying = false;
        let mut limit = u64::MAX;
        for s in &self.scheds {
            match s.place {
                Place::Joined { lag } => {
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

    /// Run schedule `i` under its handler from `at` — the scout's state or
    /// its own — with `ops` ops counted, to the exit of `exit`, and return
    /// its state there; or, with no `exit` or when it ends or fails first,
    /// to the end, and return its capture.  The time counts in its
    /// `elapsed`.
    fn run(
        &mut self,
        i: usize,
        at: Checkpoint,
        ops: u64,
        exit: Option<&DoLoop>,
    ) -> Result<Checkpoint, ExecutionCapture> {
        let start = Instant::now();
        let sched = &mut self.scheds[i];
        let (target, plan) = self.targets[sched.target];
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
        };
        m.set_handler(&mut handler);
        let stopped = match exit {
            Some(lp) => m.run_to(Some(lp), u64::MAX, |_| false),
            None => m.finish().map(|()| Stop::End),
        };
        let stood = match stopped {
            Ok(Stop::Exit) => Ok(m.into_checkpoint()),
            Ok(_) => Err(capture_machine(m, None)),
            Err(e) => Err(capture_machine(m, Some(e))),
        };
        sched.elapsed += start.elapsed();
        stood
    }

    /// Schedule `i` leaves the scout for good: it runs alone from `at`, with
    /// `ops` ops counted, to the end.  The one place `diverged` counts.
    fn alone(&mut self, i: usize, at: Checkpoint, ops: u64) -> Place {
        self.scheds[i].diverged += 1;
        match self.run(i, at, ops, None) {
            Err(capture) => Place::Done(capture),
            Ok(_) => unreachable!("a run with no exit goes to the end"),
        }
    }

    /// The scout stands at the exit of `lp`, whose `head` it checkpointed:
    /// each of the schedules `ids` that waits there runs the invocation from
    /// the head, the last one from `head` itself, and rides on if its state
    /// then equals the scout's.  One whose invocation raced, or whose state
    /// differs, goes on alone.
    fn at_exit(&mut self, scout: &Machine<'_>, lp: &DoLoop, head: Checkpoint, ids: &[usize]) {
        let waiting: Vec<(usize, u64)> = ids
            .iter()
            .filter_map(|&i| match self.scheds[i].place {
                Place::Pending { lag } => Some((i, lag)),
                _ => None,
            })
            .collect();
        // A clone of the head each, but the last, which takes it.
        let heads = std::iter::repeat_n(head, waiting.len());
        for ((i, lag), at) in waiting.into_iter().zip(heads) {
            let ops = at.ops().wrapping_sub(lag);
            let outcome = &self.scheds[i].outcome;
            let (races, certified) = (outcome.race_count, outcome.loops_run);
            let place = match self.run(i, at, ops, Some(lp)) {
                Err(capture) => Place::Done(capture),
                // A racing invocation leaves without a comparison: leaving
                // is always exact, and a race seldom keeps the scout's state.
                Ok(post)
                    if self.scheds[i].outcome.race_count == races && scout.same_state(&post) =>
                {
                    let sched = &mut self.scheds[i];
                    sched.joined += u64::from(sched.outcome.loops_run != certified);
                    Place::Joined {
                        lag: scout.ops().wrapping_sub(post.ops()),
                    }
                }
                Ok(post) => {
                    let ops = post.ops();
                    self.alone(i, post, ops)
                }
            };
            self.scheds[i].place = place;
        }
    }

    /// The scout stands before a budget check that a schedule riding it
    /// with another op count could fail: every such schedule goes on alone
    /// from here, and fails at the check if it must.
    fn detach(&mut self, scout: &Machine<'_>) {
        let at = scout.checkpoint();
        for i in 0..self.scheds.len() {
            let Place::Joined { lag } = self.scheds[i].place else {
                continue;
            };
            if lag != 0 {
                let ops = scout.ops().wrapping_sub(lag);
                self.scheds[i].place = self.alone(i, at.clone(), ops);
            }
        }
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
