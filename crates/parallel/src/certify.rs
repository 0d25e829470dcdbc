//! Race certification of planned parallel loops.
//!
//! Where [`crate::executor`] runs a compiler-parallelized loop for *speed*,
//! this module runs one for *evidence*.  [`CertifyHandler`] puts the target
//! loop through the same [`fork_join`] and [`finalize`] as the fast path,
//! under the same [`LoopLayout`] of the plan it is given — so a
//! certification run exercises exactly the transformed loop the production
//! runtime would execute — but plugs in a token-passing [`Gate`] as the
//! observer: workers are serialized with a preemption point at every shared
//! memory access, a seeded
//! [`AdversarialScheduler`](suif_dynamic::sched::AdversarialScheduler) picks
//! the next worker at each point (so the interleaving replays from a `u64`
//! seed), and a [`RaceDetector`](suif_dynamic::race::RaceDetector) checks
//! every access against the happens-before order in which each *iteration*
//! is a logical thread forked at loop entry and joined at exit.
//!
//! [`certify_loop`] runs the whole program once per adversarial schedule,
//! collecting per-schedule races, captured output and final shared memory.
//! A sequential reference capture of the same program lets callers check
//! the differential invariant: a certified DOALL loop must be race-free
//! with sequential-identical observable behavior under every schedule.

use crate::executor::{Finalization, Schedule};
use crate::forkjoin::{finalize, fork_join, LoopLayout, LoopRun, Observer, SegRole};
use crate::plan::PlanEntry;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;
use suif_dynamic::machine::{Hooks, LoopHandler, Machine, NoHooks, RuntimeError};
use suif_dynamic::race::{AccessKind, Race, RaceDetector};
use suif_dynamic::sched::AdversarialScheduler;
use suif_dynamic::{Code, DoLoop, Value};
use suif_ir::{Program, StmtId, VarId};

/// Accumulated result of all certified invocations of the target loop.
#[derive(Clone, Debug, Default)]
pub struct CertOutcome {
    /// Races detected, in interleaved execution order (first pair first).
    pub races: Vec<Race>,
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

struct GateState {
    registered: usize,
    holder: Option<usize>,
    finished: Vec<bool>,
    current_tid: Vec<usize>,
    sched: AdversarialScheduler,
    detector: RaceDetector,
    error: Option<RuntimeError>,
}

impl GateState {
    fn runnable(&self) -> Vec<usize> {
        (0..self.finished.len())
            .filter(|&w| !self.finished[w])
            .collect()
    }
}

/// Token-passing gate serializing the certification workers.
///
/// Exactly one worker (the token holder) executes at any time; every shared
/// memory access and every iteration boundary is a preemption point where
/// the scheduler may pass the token.  Because the machine's hooks fire
/// *after* each access and the holder yields before performing its next one,
/// the interleaving of shared accesses is fully determined by the
/// scheduler's decisions — no physical data race can occur.
struct Gate {
    workers: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    /// A gate for `workers` workers with a seeded scheduler and a detector
    /// pre-loaded with the loop's fork edges.
    fn new(workers: usize, sched: AdversarialScheduler, detector: RaceDetector) -> Gate {
        Gate {
            workers,
            state: Mutex::new(GateState {
                registered: 0,
                holder: None,
                finished: vec![false; workers],
                current_tid: vec![0; workers],
                sched,
                detector,
                error: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state
            .lock()
            .expect("a certification worker panicked holding the gate")
    }

    /// Reschedule at a preemption point: possibly pass the token and, if so,
    /// wait until it comes back.  Caller must hold the token.
    fn preempt(&self, w: usize, mut st: MutexGuard<'_, GateState>) {
        debug_assert_eq!(st.holder, Some(w));
        let runnable = st.runnable();
        if runnable.is_empty() {
            st.holder = None;
            self.cv.notify_all();
            return;
        }
        let next = st.sched.pick(Some(w), &runnable);
        if next != w {
            st.holder = Some(next);
            self.cv.notify_all();
            while st.holder != Some(w) {
                st = self.cv.wait(st).expect("gate poisoned");
            }
        }
    }

    /// Record a shared memory access by worker `w` (attributed to the
    /// iteration it is executing) and hit a preemption point.
    fn access(&self, w: usize, var: VarId, addr: usize, at: (StmtId, u32), kind: AccessKind) {
        let mut st = self.lock();
        let tid = st.current_tid[w];
        st.detector.on_access(tid, var, addr, at.0, at.1, kind);
        self.preempt(w, st);
    }

    /// Tear down after the join, returning detector, scheduler and the first
    /// worker error.
    fn into_parts(self) -> (RaceDetector, AdversarialScheduler, Option<RuntimeError>) {
        let st = self.state.into_inner().expect("gate poisoned");
        (st.detector, st.sched, st.error)
    }
}

impl Observer for Gate {
    type Hooks<'g> = CertHooks<'g>;

    fn hooks(&self, t: usize) -> CertHooks<'_> {
        CertHooks {
            gate: self,
            worker: t,
            at: (StmtId(0), 0),
        }
    }

    /// Block until every worker has registered and this worker is picked to
    /// run first.
    fn start(&self, t: usize) {
        let mut st = self.lock();
        st.registered += 1;
        if st.registered == self.workers {
            let runnable = st.runnable();
            let first = st.sched.pick(None, &runnable);
            st.holder = Some(first);
            self.cv.notify_all();
        }
        while st.holder != Some(t) {
            st = self.cv.wait(st).expect("gate poisoned");
        }
    }

    /// Iteration `k` is logical thread `k + 1` of the race model (thread 0
    /// is the parent); starting it is also a preemption point.
    fn begin_iter(&self, t: usize, k: i64) {
        let mut st = self.lock();
        st.current_tid[t] = k as usize + 1;
        self.preempt(t, st);
    }

    /// Record the first worker error, mark worker `t` finished and pass the
    /// token on.
    fn finish(&self, t: usize, _view: &mut Machine<'_>, error: Option<&RuntimeError>) {
        let mut st = self.lock();
        if st.error.is_none() {
            st.error = error.cloned();
        }
        st.finished[t] = true;
        let runnable = st.runnable();
        st.holder = if runnable.is_empty() {
            None
        } else {
            Some(st.sched.pick(Some(t), &runnable))
        };
        self.cv.notify_all();
    }
}

/// Per-worker [`Hooks`]: tracks the current statement (the load/store hooks
/// carry no source line) and routes every memory access through the gate.
struct CertHooks<'g> {
    gate: &'g Gate,
    worker: usize,
    at: (StmtId, u32),
}

impl Hooks for CertHooks<'_> {
    fn on_stmt(&mut self, id: StmtId, line: u32) {
        self.at = (id, line);
    }

    fn load(&mut self, var: VarId, addr: usize) {
        self.gate
            .access(self.worker, var, addr, self.at, AccessKind::Read);
    }

    fn store(&mut self, var: VarId, addr: usize) {
        self.gate
            .access(self.worker, var, addr, self.at, AccessKind::Write);
    }
}

/// A [`LoopHandler`] that executes one target loop under race certification.
///
/// Every invocation of the target loop is certified (an inner loop reached
/// several times accumulates into `outcome` across invocations); all other
/// loops run sequentially.
struct CertifyHandler<'p> {
    target: StmtId,
    threads: usize,
    /// All scheduling decisions derive from this seed.
    seed: u64,
    plan: &'p PlanEntry,
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
        let mut detector = RaceDetector::new(n + 1, m.shared_len());
        for k in 0..n {
            detector.fork(0, k + 1);
        }
        let workers = self.threads.max(1).min(n);
        let gate = Gate::new(
            workers,
            AdversarialScheduler::new(self.seed, workers),
            detector,
        );
        // Block schedule and serialized merge: the production defaults'
        // deterministic core.
        let joined = fork_join(m, &run, &layout, workers, Schedule::Block, &gate);

        let (detector, sched, error) = gate.into_parts();
        self.outcome.shared_accesses += detector.accesses;
        self.outcome.races.extend(detector.into_races());
        self.outcome.schedule_decisions += sched.decisions;
        self.outcome.schedule_switches += sched.switches;
        if let Some(e) = error {
            self.outcome.error.get_or_insert_with(|| e.clone());
            return Some(Err(e));
        }
        Some(joined.and_then(|results| {
            finalize(
                m,
                &run,
                &layout,
                Schedule::Block,
                Finalization::Serialized,
                results,
            )
        }))
    }
}

/// Options for a certification run.
#[derive(Clone, Debug)]
pub struct CertifyOptions {
    /// Worker thread count (clamped to the iteration count per invocation).
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
    /// Wall-clock time of the run.
    pub elapsed: std::time::Duration,
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

    /// Total races across schedules.
    pub fn race_count(&self) -> usize {
        self.schedules.iter().map(|s| s.outcome.races.len()).sum()
    }

    /// Total schedules run.
    pub fn schedules_run(&self) -> u32 {
        self.schedules.len() as u32
    }
}

/// Run the program sequentially (no handler) and capture its observable
/// result — the reference side of the differential check.
pub fn capture_sequential(program: &Program, input: &[f64]) -> ExecutionCapture {
    let mut hooks = NoHooks;
    let mut m = match Machine::new(program, &mut hooks) {
        Ok(m) => m,
        Err(e) => {
            return ExecutionCapture {
                output: Vec::new(),
                memory: Vec::new(),
                error: Some(RuntimeError {
                    message: format!("layout error: {e:?}"),
                    line: 0,
                }),
            }
        }
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
/// [`crate::plan::minimal_plan`]'s result to probe the untransformed one).
/// The program is lowered once; every schedule's machine and its workers
/// share that code.
pub fn certify_loop(
    program: &Program,
    target: StmtId,
    plan: &PlanEntry,
    opts: &CertifyOptions,
) -> LoopCertification {
    let code = Code::lower(program).map(Arc::new);
    let mut schedules = Vec::with_capacity(opts.schedules as usize);
    for s in 0..opts.schedules {
        let seed = opts.seed.wrapping_add(s as u64);
        let start = Instant::now();
        let mut hooks = NoHooks;
        let mut handler = CertifyHandler {
            target,
            threads: opts.threads,
            seed,
            plan,
            outcome: CertOutcome::default(),
        };
        let mut m = match &code {
            Ok(code) => Machine::with_code(program, Arc::clone(code), &mut hooks),
            Err(e) => {
                schedules.push(ScheduleReport {
                    seed,
                    outcome: CertOutcome::default(),
                    capture: ExecutionCapture {
                        output: Vec::new(),
                        memory: Vec::new(),
                        error: Some(RuntimeError {
                            message: format!("layout error: {e:?}"),
                            line: 0,
                        }),
                    },
                    elapsed: start.elapsed(),
                });
                continue;
            }
        };
        m.set_input(opts.input.clone());
        m.set_handler(&mut handler);
        let error = m.run().err();
        let capture = capture_machine(m, error);
        schedules.push(ScheduleReport {
            seed,
            outcome: handler.outcome,
            capture,
            elapsed: start.elapsed(),
        });
    }
    LoopCertification {
        stmt: target,
        schedules,
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
        // Seeds 99 and 100 as the gate decided them before it moved into
        // this crate: 1 first pick + 16 iteration starts + 48 accesses
        // (two loads of `i` and the store, per iteration) + 2 hand-overs
        // at finish.
        assert_eq!(counters(&a), vec![(67, 13, 16), (67, 6, 16)]);
        for (x, y) in a.schedules.iter().zip(&b.schedules) {
            assert_eq!(x.capture.output, y.capture.output);
        }
    }
}
