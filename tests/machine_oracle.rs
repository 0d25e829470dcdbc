//! Differential test of the stepping machine against the walker it replaced.
//!
//! `suif_dynamic::Machine` lowers a program once to a flat instruction array
//! and runs it with `step`.  The recursive AST walker it was before lives on
//! in `tests/walker/`, and both run every program here under a recording
//! [`Hooks`] that folds each callback's name and arguments, in order, into
//! one hash.  They must agree on the printed output, on `ops()` after a
//! successful run, on the final memory image, on the `RuntimeError` of a
//! failing run, and on the hook event stream — which carries the `ops`
//! values `loop_enter` / `loop_exit` see, so a misplaced op shows even when
//! the total is right.
//!
//! Each program also runs with a loop handler that evaluates every loop's
//! bounds and then declines it: the path a serial fallback of the parallel
//! runtime takes, where the bounds are evaluated (and counted) twice.
//!
//! The certifier's scout stops a run at a loop's first head, checkpoints it
//! and resumes copies of it.  So the same programs also run that way: a
//! machine stops at every loop's first head in turn, and from each
//! checkpoint a machine resumed under a fresh recorder runs to the end.  It
//! must end exactly as the uninterrupted run does, and the events it hears
//! must be the uninterrupted run's after that head.  The stream hash is a
//! polynomial over the events, so the hash of the prefix the scout heard and
//! the hash of the resumed tail compose to the hash of the whole run.

mod walker;

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use suif_benchmarks::{apps, ch4_apps, ch6_apps, Scale};
use suif_dynamic::machine::{Hooks, LoopHandler, Machine, NoHooks, RuntimeError, Stop};
use suif_dynamic::{DoLoop, Value};
use suif_ir::{Program, Stmt, StmtId, VarId};

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds the event stream into one hash: each event's words are mixed into
/// one (FNV-1a), and the stream is the polynomial `hash · P + event`.
#[derive(Clone, Default)]
struct Recorder {
    hash: u64,
    events: u64,
}

impl Recorder {
    fn fold(&mut self, callback: u64, a: u64, b: u64) {
        let mut event = 0xcbf2_9ce4_8422_2325u64;
        for word in [callback, a, b] {
            event = (event ^ word).wrapping_mul(FNV_PRIME);
        }
        self.hash = self.hash.wrapping_mul(FNV_PRIME).wrapping_add(event);
        self.events += 1;
    }

    /// The recorder of this stream followed by `tail`'s.
    fn then(&self, tail: &Recorder) -> Recorder {
        let shift = FNV_PRIME.wrapping_pow(u32::try_from(tail.events).expect("events fit"));
        Recorder {
            hash: self.hash.wrapping_mul(shift).wrapping_add(tail.hash),
            events: self.events + tail.events,
        }
    }
}

impl Hooks for Recorder {
    fn on_stmt(&mut self, id: StmtId, line: u32) {
        self.fold(1, id.0.into(), line.into());
    }
    fn loop_enter(&mut self, stmt: StmtId, ops: u64) {
        self.fold(2, stmt.0.into(), ops);
    }
    fn loop_iter(&mut self, stmt: StmtId, iter: i64) {
        self.fold(3, stmt.0.into(), iter as u64);
    }
    fn loop_exit(&mut self, stmt: StmtId, ops: u64) {
        self.fold(4, stmt.0.into(), ops);
    }
    fn load(&mut self, var: VarId, addr: usize) {
        self.fold(5, var.0.into(), addr as u64);
    }
    fn store(&mut self, var: VarId, addr: usize) {
        self.fold(6, var.0.into(), addr as u64);
    }
}

/// A [`Recorder`] the test reads while a machine still holds it.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Recorder>>);

impl Shared {
    fn read(&self) -> Recorder {
        self.0.lock().unwrap().clone()
    }
}

impl Hooks for Shared {
    fn on_stmt(&mut self, id: StmtId, line: u32) {
        self.0.lock().unwrap().on_stmt(id, line);
    }
    fn loop_enter(&mut self, stmt: StmtId, ops: u64) {
        self.0.lock().unwrap().loop_enter(stmt, ops);
    }
    fn loop_iter(&mut self, stmt: StmtId, iter: i64) {
        self.0.lock().unwrap().loop_iter(stmt, iter);
    }
    fn loop_exit(&mut self, stmt: StmtId, ops: u64) {
        self.0.lock().unwrap().loop_exit(stmt, ops);
    }
    fn load(&mut self, var: VarId, addr: usize) {
        self.0.lock().unwrap().load(var, addr);
    }
    fn store(&mut self, var: VarId, addr: usize) {
        self.0.lock().unwrap().store(var, addr);
    }
}

/// Everything a run shows.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `ops()` of a successful run, or the error's `(line, message)`.
    result: Result<u64, (u32, String)>,
    output: Vec<String>,
    /// The memory image, bit for bit (`NaN` compares equal to itself).
    memory: Vec<(bool, u64)>,
    events: u64,
    stream: u64,
}

/// What a machine shows at the end of its run, but for the events: the
/// result, `ops()`, the output and the memory image.
type Ended = (
    Result<(), RuntimeError>,
    u64,
    Vec<String>,
    Vec<Option<Value>>,
);

fn outcome((result, ops, output, memory): Ended, recorder: Recorder) -> Outcome {
    Outcome {
        result: result.map(|()| ops).map_err(|e| (e.line, e.message)),
        output,
        memory: memory
            .into_iter()
            .map(|v| match v.expect("inside memory") {
                Value::Int(i) => (true, i as u64),
                Value::Real(r) => (false, r.to_bits()),
            })
            .collect(),
        events: recorder.events,
        stream: recorder.hash,
    }
}

fn ended(m: &mut Machine<'_>, result: Result<(), RuntimeError>) -> Ended {
    let memory = (0..m.shared_len()).map(|a| m.peek(a)).collect();
    (result, m.ops(), std::mem::take(&mut m.output), memory)
}

/// Evaluates the bounds of every loop it is offered, then declines it.
struct Decline;

impl LoopHandler for Decline {
    fn on_loop(&mut self, m: &mut Machine<'_>, lp: DoLoop) -> Option<Result<(), RuntimeError>> {
        m.eval_do_bounds(&lp).err().map(Err)
    }
}

impl walker::LoopHandler for Decline {
    fn on_loop(
        &mut self,
        m: &mut walker::Machine<'_>,
        do_stmt: &Stmt,
    ) -> Option<Result<(), RuntimeError>> {
        m.eval_do_bounds(do_stmt).err().map(Err)
    }
}

fn run_machine(program: &Program, input: &[f64], decline: bool) -> Outcome {
    let mut recorder = Recorder::default();
    let mut handler = Decline;
    let ran = {
        let mut m = Machine::new(program, &mut recorder).expect("layout");
        m.set_input(input.to_vec());
        if decline {
            m.set_handler(&mut handler);
        }
        let result = m.run();
        ended(&mut m, result)
    };
    outcome(ran, recorder)
}

fn run_walker(program: &Program, input: &[f64], decline: bool) -> Outcome {
    let mut recorder = Recorder::default();
    let mut handler = Decline;
    let ran = {
        let mut m = walker::Machine::new(program, &mut recorder).expect("layout");
        m.set_input(input.to_vec());
        if decline {
            m.set_handler(&mut handler);
        }
        let result = m.run();
        let memory = (0..m.shared_len()).map(|a| m.peek(a)).collect();
        (result, m.ops(), std::mem::take(&mut m.output), memory)
    };
    outcome(ran, recorder)
}

/// Run `program` on both sides, plainly and with the declining handler;
/// returns the plain outcome.
fn check(name: &str, program: &Program, input: &[f64]) -> Outcome {
    let handled = run_machine(program, input, true);
    assert_eq!(
        handled,
        run_walker(program, input, true),
        "{name}: the runs differ under a declining loop handler"
    );
    let plain = run_machine(program, input, false);
    assert_eq!(
        plain,
        run_walker(program, input, false),
        "{name}: the runs differ"
    );
    plain
}

fn check_source(name: &str, source: &str, input: &[f64]) -> Outcome {
    let program =
        suif_ir::parse_program(source).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
    check(name, &program, input)
}

/// Stop `program`'s run at the first head of every loop it reaches, in
/// turn, and resume a checkpoint taken there to the end under a fresh
/// recorder: each must end as the uninterrupted run does, having heard the
/// uninterrupted run's events after that head.  So must the stopped run
/// itself.  Returns the uninterrupted outcome and the number of heads.
fn check_checkpoints(name: &str, program: &Program, input: &[f64]) -> (Outcome, usize) {
    let whole = run_machine(program, input, false);
    let heard = Shared::default();
    let mut hooks = heard.clone();
    let mut scout = Machine::new(program, &mut hooks).expect("layout");
    scout.set_input(input.to_vec());
    let mut reached = HashSet::new();
    let result = loop {
        let lp = match scout.run_to(None, u64::MAX, &[], |lp| !reached.contains(&lp.stmt)) {
            Ok(Stop::Head(lp)) => lp,
            Ok(_) => break Ok(()),
            Err(e) => break Err(e),
        };
        reached.insert(lp.stmt);
        let at = scout.checkpoint();
        let prefix = heard.read();
        let mut tail = Recorder::default();
        let resumed = {
            let mut m = Machine::resume(program, at, &mut tail);
            let result = m.finish();
            // A checkpoint keeps no output: the resumed run prints what
            // follows the lines the scout printed before it.
            assert_eq!(m.printed(), scout.output.len());
            let mut ran = ended(&mut m, result);
            ran.2.splice(0..0, scout.output.iter().cloned());
            ran
        };
        let resumed = outcome(resumed, prefix.then(&tail));
        assert_eq!(
            resumed, whole,
            "{name}: resumed at the first head of the loop on line {}",
            lp.line
        );
    };
    let scouted = outcome(ended(&mut scout, result), heard.read());
    assert_eq!(scouted, whole, "{name}: the run stopped at every head");
    (whole, reached.len())
}

/// The first declared extent, one element shorter (the `extent` mutant of
/// `tests/execute_fact.rs`): many of these run out of bounds.
fn shrink_first_extent(source: &str) -> Option<String> {
    let constant = |name: &str| {
        source.lines().find_map(|l| {
            let rest = l.trim().strip_prefix("const ")?;
            let (n, v) = rest.split_once('=')?;
            (n.trim() == name).then(|| v.trim().parse::<i64>().ok())?
        })
    };
    let mut done = false;
    let lines: Vec<String> = source
        .lines()
        .map(|line| {
            let t = line.trim_start();
            let declares =
                t.starts_with("real ") || t.starts_with("int ") || t.starts_with("common ");
            let shrunk = (|| {
                let open = line.find('[')?;
                let close = open + line[open..].find(']')?;
                let extent = line[open + 1..close].trim();
                let value = extent.parse::<i64>().ok().or_else(|| constant(extent))?;
                Some(format!("{}{}{}", &line[..=open], value - 1, &line[close..]))
            })();
            match shrunk.filter(|_| declares && !done) {
                Some(new) => {
                    done = true;
                    new
                }
                None => line.to_string(),
            }
        })
        .collect();
    done.then(|| lines.join("\n") + "\n")
}

fn suite(scale: Scale) -> Vec<suif_benchmarks::BenchProgram> {
    let mut suite = ch4_apps(scale);
    suite.push(apps::flo88(scale, true));
    suite.push(apps::wave5(scale));
    suite.push(apps::hydro2d(scale));
    suite.extend(ch6_apps(scale));
    assert_eq!(suite.len(), 13);
    suite
}

#[test]
fn machine_equals_walker_on_the_suite() {
    let (mut events, mut failed) = (0, 0);
    for bench in suite(Scale::Test) {
        let ran = check(bench.name, &bench.parse(), &bench.input);
        assert!(ran.result.is_ok(), "{}: {:?}", bench.name, ran.result);
        events += ran.events;
        if let Some(mutant) = shrink_first_extent(&bench.source) {
            let name = format!("{} [extent]", bench.name);
            failed += usize::from(check_source(&name, &mutant, &bench.input).result.is_err());
        }
    }
    assert!(events > 500_000, "only {events} events compared");
    assert!(failed >= 3, "only {failed} mutants failed at run time");
}

#[test]
fn machine_equals_walker_on_the_ch4_applications_at_bench_scale() {
    let mut ops = 0;
    for bench in ch4_apps(Scale::Bench) {
        let program = bench.parse();
        let ran = run_machine(&program, &bench.input, false);
        assert_eq!(
            ran,
            run_walker(&program, &bench.input, false),
            "{}",
            bench.name
        );
        ops += ran.result.expect("the application runs");
    }
    // The count `perfbench`'s traced `ch4_open` reports as `dynamic.ops`:
    // while it stands, the machine's costs need no `EXECUTE_VERSION` bump.
    assert_eq!(ops, 30_126_337);
}

#[test]
fn machine_equals_walker_on_generated_programs() {
    // `SUIF_ORACLE_PROGRAMS` widens the corpus (CI's release run).
    let programs: u64 = std::env::var("SUIF_ORACLE_PROGRAMS")
        .ok()
        .map(|n| n.parse().expect("SUIF_ORACLE_PROGRAMS is a count"))
        .unwrap_or(300);
    let (mut events, mut failed) = (0, 0);
    for seed in 0..programs {
        let name = minif_gen::name_for_seed(seed);
        let source = minif_gen::source_for_seed(seed);
        events += check_source(&name, &source, &[]).events;
        if let Some(mutant) = shrink_first_extent(&source) {
            let ran = check_source(&format!("{name} [extent]"), &mutant, &[]);
            failed += usize::from(ran.result.is_err());
        }
    }
    assert!(events > 100 * programs, "only {events} events compared");
    assert!(
        failed as u64 > programs / 10,
        "only {failed} mutants failed at run time"
    );
}

/// A program whose run depends on what it reads, into scalars and elements.
const READER: &str = "program reader
proc main() {
  real a[16], x, y
  int i, k
  read x
  read y
  read k
  read a[k + 1]
  do 1 i = 1, 16 {
    a[i] = a[i] + x * float(i)
  }
  do 2 i = 2, 16 {
    if y > 0.5 { a[i] = a[i - 1] + 1.0 }
  }
  print a[16], x + y, k
}
";

#[test]
fn machine_equals_walker_on_a_program_that_reads() {
    let ran = check_source("reader", READER, &[1.5, 1.0, 3.7, 2.25]);
    assert_eq!(ran.output, vec!["16.5 2.5 3"]);
    // Too little input: the fourth `read` fails before its subscript is
    // evaluated.
    for supplied in 0..4 {
        let input = &[1.5, 1.0, 3.7, 2.25][..supplied];
        let ran = check_source("reader, short input", READER, input);
        let line = 5 + supplied as u32;
        assert_eq!(ran.result, Err((line, "read: input exhausted".into())));
    }
}

/// Programs that fail at run time: `(name, source, line, message)`.  Each
/// fails after some hooks have fired, so "equal up to the error" compares
/// something.
const FAILING: &[(&str, &str, u32, &str)] = &[
    (
        "store above the extent",
        "program t\nproc main() {\n real a[3]\n int i\n do i = 1, 4 {\n a[i] = i\n }\n}",
        6,
        "subscript 1 of `a` is 4 (> extent 3)",
    ),
    (
        "load below 1, second dimension",
        "program t\nproc main() {\n real a[3, 3], s\n int i\n i = 1\n s = a[i, i - 1] + 1\n}",
        0,
        "subscript 2 of `a` is 0 (< 1)",
    ),
    (
        "sub-array base out of range",
        "program t\nproc f(real q[*]) {\n q[1] = 1\n}\nproc main() {\n real b[4]\n int k\n k = 5\n call f(b[k])\n}",
        9,
        "subscript 1 of `b` is 5 (> extent 4)",
    ),
    (
        "assumed-size formal runs off memory",
        "program t\nproc f(real q[*], int n) {\n q[n] = 1\n}\nproc main() {\n real b[4]\n call f(b, 1000000)\n}",
        3,
        "access to `q` out of memory bounds",
    ),
    (
        "adjustable extent exceeded in a callee",
        "program t\nproc f(real q[n, m], int n, int m) {\n int i\n do i = 1, m + 1 {\n q[n, i] = i\n }\n}\nproc main() {\n real b[6]\n call f(b, 2, 3)\n print b[6]\n}",
        5,
        "subscript 2 of `q` is 4 (> extent 3)",
    ),
    (
        "zero step",
        "program t\nproc main() {\n int i, k, s\n k = 0\n s = 1\n do i = 1, 10, k {\n s = s + 1\n }\n}",
        6,
        "do loop with zero step",
    ),
    (
        "integer division by zero",
        "program t\nproc main() {\n int i, k\n do i = 1, 3 {\n k = 7 / (2 - i)\n }\n}",
        0,
        "integer division by zero",
    ),
    (
        "integer remainder by zero, right of a taken `&&`",
        "program t\nproc main() {\n int i, k\n k = 0\n i = 3\n if i > 1 && i % k == 0 {\n print 1\n }\n}",
        0,
        "integer remainder by zero",
    ),
    (
        "mod by zero in a callee's argument",
        "program t\nproc g(int n) {\n print n\n}\nproc main() {\n int k\n k = 0\n call g(4)\n call g(mod(9, k))\n}",
        0,
        "mod by zero",
    ),
];

#[test]
fn machine_equals_walker_on_programs_that_fail() {
    for &(name, source, line, message) in FAILING {
        let ran = check_source(name, source, &[]);
        assert_eq!(ran.result, Err((line, message.into())), "{name}");
        assert!(ran.events > 0, "{name}: failed before any hook fired");
    }
}

#[test]
fn checkpoints_resume_exactly_on_the_suite() {
    let mut heads = 0;
    for bench in suite(Scale::Test) {
        let (ran, reached) = check_checkpoints(bench.name, &bench.parse(), &bench.input);
        assert!(ran.result.is_ok(), "{}: {:?}", bench.name, ran.result);
        heads += reached;
    }
    assert!(heads > 200, "only {heads} heads resumed");
}

#[test]
fn checkpoints_resume_exactly_on_the_ch4_applications_at_bench_scale() {
    // Every head's tail is most of a run: one thread per application.
    let heads: usize = std::thread::scope(|scope| {
        let apps: Vec<_> = ch4_apps(Scale::Bench)
            .into_iter()
            .map(|bench| {
                scope.spawn(move || {
                    let (ran, reached) =
                        check_checkpoints(bench.name, &bench.parse(), &bench.input);
                    assert!(ran.result.is_ok(), "{}: {:?}", bench.name, ran.result);
                    reached
                })
            })
            .collect();
        apps.into_iter().map(|app| app.join().unwrap()).sum()
    });
    assert!(heads > 60, "only {heads} heads resumed");
}

#[test]
fn checkpoints_resume_exactly_on_generated_programs() {
    let programs: u64 = std::env::var("SUIF_ORACLE_PROGRAMS")
        .ok()
        .map(|n| n.parse().expect("SUIF_ORACLE_PROGRAMS is a count"))
        .unwrap_or(300);
    let (mut heads, mut failed) = (0, 0);
    for seed in 0..programs {
        let name = minif_gen::name_for_seed(seed);
        let source = minif_gen::source_for_seed(seed);
        let program = suif_ir::parse_program(&source).unwrap();
        heads += check_checkpoints(&name, &program, &[]).1;
        if let Some(mutant) = shrink_first_extent(&source) {
            let program = suif_ir::parse_program(&mutant).unwrap();
            let (ran, _) = check_checkpoints(&format!("{name} [extent]"), &program, &[]);
            failed += usize::from(ran.result.is_err());
        }
    }
    assert!(heads as u64 > programs, "only {heads} heads resumed");
    assert!(
        failed as u64 > programs / 10,
        "only {failed} mutants failed"
    );
}

/// Reads before, between and inside its loops, so a checkpoint at either
/// head holds input not yet read.
const READS_ON: &str = "program reads_on
proc main() {
  real a[8], x
  int i
  read x
  do 1 i = 1, 8 {
    a[i] = x * float(i)
  }
  read x
  do 2 i = 1, 4 {
    read x
    a[2 * i] = a[2 * i] + x
  }
  print a[1], a[2], a[8], x
}
";

#[test]
fn checkpoints_keep_the_input_not_yet_read_and_the_errors_to_come() {
    let input = [1.5, 0.5, 1.0, 2.0, 3.0, 4.0];
    let (ran, reached) = check_checkpoints(
        "reads on",
        &suif_ir::parse_program(READS_ON).unwrap(),
        &input,
    );
    assert_eq!(ran.output, vec!["1.5 4 16 4"]);
    assert_eq!(reached, 2);
    // Short input: the run fails inside the second loop, after both heads.
    for supplied in 2..input.len() {
        let program = suif_ir::parse_program(READS_ON).unwrap();
        let (ran, reached) =
            check_checkpoints("reads on, short input", &program, &input[..supplied]);
        assert_eq!(ran.result, Err((11, "read: input exhausted".into())));
        assert_eq!(reached, 2);
    }
    let (ran, _) = check_checkpoints(
        "reader",
        &suif_ir::parse_program(READER).unwrap(),
        &[1.5, 1.0, 3.7, 2.25],
    );
    assert_eq!(ran.output, vec!["16.5 2.5 3"]);
    for &(name, source, line, message) in FAILING {
        let (ran, _) = check_checkpoints(name, &suif_ir::parse_program(source).unwrap(), &[]);
        assert_eq!(ran.result, Err((line, message.into())), "{name}");
    }
}

/// `certify_loop` and `fork_view` rely on this: a machine made from another
/// machine's code, or forked from it, lowers nothing.
#[test]
fn workers_and_reruns_share_one_code_object() {
    let program = suif_ir::parse_program(
        "program t\nproc main() {\n real a[8]\n int i\n do 1 i = 1, 8 {\n a[i] = i\n }\n print a[8]\n}",
    )
    .unwrap();
    let (mut h1, mut h2, mut h3) = (NoHooks, NoHooks, NoHooks);
    let mut parent = Machine::new(&program, &mut h1).unwrap();
    let code = Arc::clone(parent.code());
    {
        let worker = parent.fork_view(&HashMap::new(), Vec::new(), &mut h2);
        assert!(Arc::ptr_eq(&code, worker.code()), "fork_view lowered again");
    }
    let mut again = Machine::with_code(&program, Arc::clone(&code), &mut h3);
    assert!(Arc::ptr_eq(&code, again.code()));
    parent.run().unwrap();
    again.run().unwrap();
    assert_eq!(parent.output, again.output);
    assert_eq!(parent.ops(), again.ops());
    drop((parent, again));
    assert_eq!(
        Arc::strong_count(&code),
        1,
        "the code outlived its machines"
    );
}
