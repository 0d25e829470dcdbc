//! The scout is only a shortcut: `certify_loops` must report, for every
//! target and every schedule, exactly what `certify_from_main` — one whole
//! run of the program from `main` per schedule, the loop certified at each
//! invocation — reports.  Field by field: the seed, the races in order, every
//! counter, the dead-private ranges, the error; and capture by capture: the
//! output, the final memory bit for bit, the error.  `elapsed`, `joined` and
//! `diverged` say how the run went, not what it found, and are set aside,
//! but for one invariant: a schedule leaves the scout at most once
//! (`diverged <= 1`), as it never comes back.
//!
//! The inputs: the 13 applications at `Scale::Test` under 2 and 4 schedules
//! from seeds 1, 2 and 7 (in a debug build, each application under one of
//! the six, in turn); mdg under `MAX_CERTIFY_SCHEDULES` schedules and the
//! four Ch. 4 applications at `Scale::Bench` from one seed (release builds
//! only: a debug build takes minutes); the certification regression corpus;
//! `minif_gen` programs and accepted source mutants, `SUIF_CERTIFY_PROGRAMS`
//! of each (default 6 in debug builds, 100 in release); and hand-written
//! programs for the ways a schedule leaves the scout.

mod source_mutants;

use std::path::Path;
use suif_analysis::{ParallelizeConfig, Parallelizer};
use suif_benchmarks::{ch4_apps, Scale};
use suif_dynamic::machine::{Machine, NoHooks};
use suif_dynamic::Value;
use suif_ir::{Program, StmtId};
use suif_parallel::{
    certify_from_main, certify_loops, minimal_plan, CertifyOptions, LoopCertification,
    ParallelPlans, PlanEntry, ScheduleReport, MAX_CERTIFY_SCHEDULES,
};

fn program_count() -> usize {
    match std::env::var("SUIF_CERTIFY_PROGRAMS") {
        Ok(v) => v.parse().expect("SUIF_CERTIFY_PROGRAMS must be a number"),
        Err(_) if cfg!(debug_assertions) => 6,
        Err(_) => 100,
    }
}

/// Every plannable loop of `program` with the plan a `certify` request
/// gives it: its production plan when parallel, the minimal one when not.
fn plannable(program: &Program) -> Vec<(StmtId, PlanEntry)> {
    let analysis = Parallelizer::analyze(program, ParallelizeConfig::default());
    let plans = ParallelPlans::from_analysis(&analysis);
    analysis
        .certify_inputs()
        .iter()
        .filter_map(|info| Some((info.stmt, plans.plan_for(program, info)?)))
        .collect()
}

/// Where `got` and `want`, one schedule each, differ in what they found.
fn differs(got: &ScheduleReport, want: &ScheduleReport) -> Option<String> {
    let bits = |m: &[Value]| -> Vec<(bool, u64)> {
        m.iter()
            .map(|v| match *v {
                Value::Int(i) => (true, i as u64),
                Value::Real(x) => (false, x.to_bits()),
            })
            .collect()
    };
    let (g, w) = (&got.capture, &want.capture);
    if got.seed != want.seed {
        Some(format!("seed {} against {}", got.seed, want.seed))
    } else if format!("{:?}", got.outcome) != format!("{:?}", want.outcome) {
        Some(format!(
            "outcome {:?}\nagainst {:?}",
            got.outcome, want.outcome
        ))
    } else if g.output != w.output {
        Some(format!("output {:?}\nagainst {:?}", g.output, w.output))
    } else if format!("{:?}", g.error) != format!("{:?}", w.error) {
        Some(format!("error {:?} against {:?}", g.error, w.error))
    } else if bits(&g.memory) != bits(&w.memory) {
        Some("final memory".to_string())
    } else {
        None
    }
}

/// Certify `targets` of `program` in one `certify_loops` call and hold every
/// certification to `certify_from_main`'s; returns them.
fn agrees(
    label: &str,
    program: &Program,
    targets: &[(StmtId, PlanEntry)],
    opts: &CertifyOptions,
) -> Vec<LoopCertification> {
    let refs: Vec<_> = targets.iter().map(|(stmt, plan)| (*stmt, plan)).collect();
    let certs = certify_loops(program, &refs, opts);
    assert_eq!(certs.len(), targets.len(), "{label}");
    for (cert, (stmt, plan)) in certs.iter().zip(targets) {
        let want = certify_from_main(program, *stmt, plan, opts);
        assert_eq!(cert.stmt, want.stmt, "{label}");
        assert_eq!(cert.schedules.len(), want.schedules.len(), "{label}");
        for (got, want) in cert.schedules.iter().zip(&want.schedules) {
            if let Some(what) = differs(got, want) {
                panic!(
                    "{label}: loop {:?}, seed {} (joined {}, diverged {}): {what}",
                    stmt, got.seed, got.joined, got.diverged
                );
            }
            assert!(
                got.diverged <= 1,
                "{label}: loop {stmt:?}, seed {}: a schedule leaves the scout once, not {}",
                got.seed,
                got.diverged
            );
        }
    }
    certs
}

fn options(schedules: u32, seed: u64) -> CertifyOptions {
    CertifyOptions {
        schedules,
        seed,
        ..Default::default()
    }
}

#[test]
fn the_applications_agree_with_a_run_per_schedule() {
    let configs: Vec<(u32, u64)> = [2, 4]
        .into_iter()
        .flat_map(|schedules| [1, 2, 7].map(|seed| (schedules, seed)))
        .collect();
    let mut joined = 0;
    for (k, (name, source)) in source_mutants::applications(Scale::Test)
        .into_iter()
        .enumerate()
    {
        let program = suif_ir::parse_program(&source).unwrap();
        let targets = plannable(&program);
        // A debug build gives each application one configuration, in turn.
        let mine = if cfg!(debug_assertions) {
            &configs[k % configs.len()..][..1]
        } else {
            &configs[..]
        };
        for &(schedules, seed) in mine {
            let label = format!("{name} ({schedules} schedules, seed {seed})");
            let certs = agrees(&label, &program, &targets, &options(schedules, seed));
            joined += certs
                .iter()
                .flat_map(|c| &c.schedules)
                .map(|s| s.joined)
                .sum::<u64>();
        }
    }
    assert!(joined > 0, "no schedule rode the scout past an invocation");
}

/// As many schedules as a request may ask for wait at each exit of mdg's
/// loops and run their invocations there from one head checkpoint.
#[test]
fn mdg_agrees_under_the_most_schedules() {
    if cfg!(debug_assertions) {
        return;
    }
    let bench = ch4_apps(Scale::Test).remove(0);
    assert_eq!(bench.name, "mdg");
    let program = bench.parse();
    let opts = options(MAX_CERTIFY_SCHEDULES, 1);
    let certs = agrees("mdg (64 schedules)", &program, &plannable(&program), &opts);
    let joined: u64 = certs
        .iter()
        .flat_map(|c| &c.schedules)
        .map(|s| s.joined)
        .sum();
    assert!(joined > 0, "no schedule rode the scout past an invocation");
}

#[test]
fn the_ch4_applications_agree_at_bench_scale() {
    if cfg!(debug_assertions) {
        return;
    }
    for bench in ch4_apps(Scale::Bench) {
        let program = bench.parse();
        agrees(bench.name, &program, &plannable(&program), &options(2, 1));
    }
}

#[test]
fn the_regression_corpus_agrees() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions/certify");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the certification regression corpus")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mf"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    for f in files {
        let source = std::fs::read_to_string(&f).unwrap();
        let program = suif_ir::parse_program(&source).unwrap();
        let label = f.display().to_string();
        agrees(&label, &program, &plannable(&program), &options(4, 3));
    }
}

/// True when `program`'s sequential run ends, or fails, within `budget`.
fn ends_within(program: &Program, budget: u64) -> bool {
    let mut hooks = NoHooks;
    let Ok(mut m) = Machine::new(program, &mut hooks) else {
        return true;
    };
    m.set_max_ops(budget);
    m.run()
        .map_or_else(|e| !e.message.contains("op budget"), |()| true)
}

#[test]
fn generated_programs_and_source_mutants_agree() {
    let count = program_count();
    for seed in 0..count as u64 {
        let source = minif_gen::source_for_seed(seed);
        let program = suif_ir::parse_program(&source).unwrap();
        let label = minif_gen::name_for_seed(seed);
        agrees(&label, &program, &plannable(&program), &options(4, seed));
    }
    // Mutants the front end accepts and whose sequential run ends quickly
    // (a mutated bound can make one run for minutes); failing runs stay in.
    let mut accepted = 0;
    for mutant in source_mutants::Mutants::new(source_mutants::SEED) {
        if accepted == count {
            break;
        }
        let Ok(program) = suif_ir::parse_program(&mutant.text) else {
            continue;
        };
        if !ends_within(&program, 2_000_000) {
            continue;
        }
        accepted += 1;
        let seed = accepted as u64;
        agrees(
            &mutant.label,
            &program,
            &plannable(&program),
            &options(2, seed),
        );
    }
}

/// Each named loop of `source` under its minimal plan, in one call.
fn minimal(source: &str, loops: &[&str]) -> (Program, Vec<(StmtId, PlanEntry)>) {
    let program = suif_ir::parse_program(source).unwrap();
    let analysis = Parallelizer::analyze(&program, ParallelizeConfig::default());
    let targets = loops
        .iter()
        .map(|name| {
            let info = analysis.ctx.tree.loops.iter().find(|l| l.name == *name);
            let stmt = info.unwrap_or_else(|| panic!("no loop {name}")).stmt;
            (stmt, minimal_plan(&program, stmt).expect("a minimal plan"))
        })
        .collect();
    (program, targets)
}

/// Every hand-written case under 4 schedules from seed 11.
fn hand_written(label: &str, source: &str, loops: &[&str]) -> Vec<LoopCertification> {
    let (program, targets) = minimal(source, loops);
    agrees(label, &program, &targets, &options(4, 11))
}

fn sum(cert: &LoopCertification, f: fn(&ScheduleReport) -> u64) -> u64 {
    cert.schedules.iter().map(f).sum()
}

/// A racy loop's schedules leave the scout at their first racing
/// invocation and run alone to the end, though the next loop overwrites
/// every cell they differ in: a schedule that leaves does not come back.
/// The next loop's schedules ride the scout across the racy invocations.
#[test]
fn a_racy_loop_diverges_and_rejoins_once_its_cells_are_overwritten() {
    let source = r#"program t
proc main() {
  real a[16], s
  int i, k
  s = 0
  do 1 k = 1, 3 {
    do 2 i = 2, 16 {
      a[i] = a[i - 1] + k
    }
    do 3 i = 1, 16 {
      a[i] = i
    }
    s = s + a[16]
  }
  print s
}
"#;
    let certs = hand_written("racy then overwritten", source, &["main/2", "main/3"]);
    let racy = &certs[0];
    assert!(!racy.race_free());
    assert!(sum(racy, |s| s.diverged) > 0, "main/2 goes on alone");
    assert!(
        sum(racy, |s| s.joined) == 0,
        "a racing invocation is not compared"
    );
    // main/3's schedules ride the scout across main/2's invocations.
    assert!(sum(&certs[1], |s| s.joined) > 0);
}

#[test]
fn nested_targets_and_one_loop_under_two_plans() {
    let source = r#"program t
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
    let (program, mut targets) = minimal(source, &["main/1", "main/2", "f/3", "main/4"]);
    let analysis = Parallelizer::analyze(&program, ParallelizeConfig::default());
    let plans = ParallelPlans::from_analysis(&analysis);
    let main2 = targets[1].0;
    targets.push((main2, plans.loops[&main2].clone()));
    let certs = agrees("nested", &program, &targets, &options(4, 11));
    assert_eq!(certs[1].schedules[0].outcome.loops_run, 5);
    assert_eq!(certs[2].schedules[0].outcome.loops_run, 5);
}

#[test]
fn runtime_errors_inside_an_invocation_and_between_two() {
    // A worker of main/1's third invocation subscripts past the extent.
    let inside = r#"program t
proc main() {
  real a[8]
  int i, k, n
  n = 6
  do 2 k = 1, 4 {
    do 1 i = 1, n {
      a[i] = a[i] + k
    }
    n = n + 1
  }
  print a[1]
}
"#;
    for cert in hand_written("error inside", inside, &["main/1"]) {
        for s in &cert.schedules {
            let e = s.capture.error.as_ref().expect("the run fails");
            assert!(e.message.contains("extent"), "{}", e.message);
        }
    }
    // The stretch after main/1's second invocation fails.
    let between = r#"program t
proc main() {
  real a[8]
  int i, k, m
  do 2 k = 1, 4 {
    do 1 i = 1, 8 {
      a[i] = i * k
    }
    m = 10 - 4 * k
    a[m] = 0
  }
  print a[1]
}
"#;
    let certs = hand_written("error between", between, &["main/1"]);
    for s in &certs[0].schedules {
        let e = s.capture.error.as_ref().expect("the run fails");
        assert_eq!(e.line, 10, "{}", e.message);
        assert_eq!(s.outcome.loops_run, 3);
    }
}

#[test]
fn input_read_between_invocations_and_output_printed_inside_one() {
    let source = r#"program t
proc main() {
  real a[4], x
  int i, k
  do 2 k = 1, 3 {
    read x
    do 1 i = 1, 4 {
      a[i] = x + i
      print a[i]
    }
    do 3 i = 1, 4 {
      a[i] = a[i] * 2
    }
  }
  print a[4]
}
"#;
    let (program, targets) = minimal(source, &["main/1", "main/3"]);
    let opts = CertifyOptions {
        input: vec![1.5, -0.0, 7.25],
        ..options(4, 11)
    };
    let certs = agrees("read and print", &program, &targets, &opts);
    // Printing workers reorder the output under some schedules; a loop
    // without output rides the scout.
    assert!(sum(&certs[1], |s| s.joined) > 0);
}

#[test]
fn a_procedure_never_called() {
    let source = r#"program t
proc never(real q[*]) {
  int j
  do 3 j = 1, 8 {
    q[j] = j
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
    let certs = hand_written("never called", source, &["main/1", "never/3"]);
    for s in &certs[1].schedules {
        assert_eq!((s.outcome.loops_run, s.elapsed.is_zero()), (0, true));
    }
}

/// The one variable of `program` called `name`.
fn var(program: &Program, name: &str) -> suif_ir::VarId {
    let mut named = (0..program.vars.len() as u32)
        .map(suif_ir::VarId)
        .filter(|&v| program.var(v).name == name);
    let v = named.next().unwrap_or_else(|| panic!("no variable {name}"));
    assert!(named.next().is_none(), "two variables called {name}");
    v
}

/// A wrong privatization — the assertion the certifier exists to check —
/// changes what the loop prints and nothing else: `t` is written back from
/// the last iteration, as the sequential run leaves it, but each worker's
/// first iteration prints its copy-in.  So the schedules go on alone, and
/// must end with their own output.
#[test]
fn an_invocation_that_changes_only_the_output() {
    let source = r#"program t
proc main() {
  real t, a[4]
  int i
  t = 0
  do 1 i = 1, 4 {
    print t
    t = 5
    a[i] = i
  }
  do 2 i = 1, 4 {
    a[i] = a[i] * 2
  }
  print t, a[4]
}
"#;
    let (program, mut targets) = minimal(source, &["main/1", "main/2"]);
    targets[0].1.finalize_last.push(var(&program, "t"));
    let certs = agrees("output only", &program, &targets, &options(4, 11));
    assert!(certs[0].race_free());
    for s in &certs[0].schedules {
        assert_eq!((s.joined, s.diverged), (0, 1));
        assert_eq!(s.capture.output[..4], ["0", "0", "0", "5"]);
    }
    assert!(sum(&certs[1], |s| s.joined) > 0);
}

/// A wrong privatization of `n` keeps `f`'s first invocation from setting
/// it, so the schedules enter the outer loop with a bound of 2 where the
/// scout's is 3.  So at the first exit their states differ from the
/// scout's in that loop frame alone, and they go on alone from there.
#[test]
fn states_that_differ_only_in_a_loop_frame() {
    let source = r#"program t
proc f(real q[*], int n, int c) {
  int i
  do 1 i = 1, 4 {
    if c == 0 {
      n = 3
    }
    q[i] = i
  }
}
proc main() {
  real a[4], s
  int k, m, c
  s = 0
  m = 2
  c = 0
  call f(a, m, c)
  c = 1
  do 2 k = 1, m {
    m = 2
    call f(a, m, c)
    s = s + 1
  }
  do 3 k = 1, 4 {
    a[k] = a[k] + 1
  }
  print s, m
}
"#;
    // `main/3`'s schedules keep the scout running past `f`'s invocations.
    let (program, mut targets) = minimal(source, &["f/1", "main/3"]);
    targets[0].1.private_vars.push(var(&program, "n"));
    let certs = agrees("loop frame", &program, &targets, &options(4, 11));
    assert!(certs[0].race_free());
    for s in &certs[0].schedules {
        assert_eq!(s.capture.output, ["2 2"]);
        assert_eq!((s.joined, s.diverged), (0, 1), "at the first exit");
    }
}

/// A racing invocation makes `main` call `f` a second time, which the
/// sequential run does not: those schedules go on alone to the end at
/// once, and make the second call on their own, while the scout carries
/// `main/2`'s schedules to the end without them.
#[test]
fn a_schedule_the_scout_leaves_waiting_at_a_head() {
    let source = r#"program t
proc f(real q[*]) {
  int i
  do 1 i = 2, 8 {
    q[i] = q[i - 1] + 1
  }
}
proc main() {
  real a[8], b[8]
  int i
  a[1] = 1
  call f(a)
  if a[8] != 8 {
    call f(a)
  }
  do 2 i = 1, 8 {
    b[i] = i
  }
  print a[8], b[8]
}
"#;
    let certs = hand_written("left waiting", source, &["f/1", "main/2"]);
    let twice = certs[0]
        .schedules
        .iter()
        .filter(|s| s.outcome.loops_run == 2);
    assert!(twice.count() > 0, "a race led to a second call");
    assert!(sum(&certs[1], |s| s.joined) > 0);
}

/// The scout fails inside a loop while schedules wait at its exit, and at
/// the exit of the loop around it: each schedule runs alone from its own
/// loop's head.  `main/1`'s schedules fail under their handlers; the racing
/// iterations of `main/2` share `n`, and end as their interleaving has it.
#[test]
fn the_scout_fails_inside_loops_whose_schedules_wait() {
    let source = r#"program t
proc main() {
  real a[8]
  int i, k, n
  n = 3
  do 2 k = 1, 3 {
    do 1 i = 1, n {
      a[i] = a[i] + k
    }
    n = n + 3
  }
  print a[1]
}
"#;
    let certs = hand_written("fails while waited on", source, &["main/1", "main/2"]);
    for s in &certs[0].schedules {
        let e = s.capture.error.as_ref().expect("the run fails");
        assert!(e.message.contains("extent"), "{}", e.message);
        assert_eq!((s.outcome.loops_run, s.joined, s.diverged), (3, 2, 1));
    }
    for s in &certs[1].schedules {
        assert_eq!((s.outcome.loops_run, s.joined, s.diverged), (1, 0, 1));
    }
}
