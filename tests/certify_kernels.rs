//! Hand-written MiniF kernels pinning the race detector's reports: a known
//! write-write race, a read-write race across iterations, and a reduction
//! that is race-free only under the reduction transform.  Each test pins the
//! exact reported access pair (variable, race kind, source lines).  Two
//! kernels fail at run time inside the certified loop, and one races in an
//! inner loop reached often enough to overflow the bounded race list.  The
//! last holds certification's cost linear in a loop's trip count.

use suif_analysis::{ParallelizeConfig, Parallelizer, VarClass};
use suif_dynamic::Race;
use suif_dynamic::Value;
use suif_ir::{parse_program, Program, StmtId};
use suif_parallel::plan::minimal_plan;
use suif_parallel::{capture_sequential, certify_loop, CertifyOptions, ParallelPlans};

fn loop_named(src: &str, name: &str) -> (Program, StmtId) {
    let p = parse_program(src).unwrap();
    let stmt = {
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        pa.ctx
            .tree
            .loops
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("no loop {name}"))
            .stmt
    };
    (p, stmt)
}

fn first_race(program: &Program, target: StmtId, seed: u64) -> Race {
    let plan = minimal_plan(program, target).unwrap();
    let cert = certify_loop(
        program,
        target,
        &plan,
        &CertifyOptions {
            seed,
            ..Default::default()
        },
    );
    assert!(!cert.race_free(), "expected a race");
    cert.schedules[0]
        .outcome
        .races
        .first()
        .expect("first schedule reports the race")
        .clone()
}

#[test]
fn write_write_race_pins_access_pair() {
    // Every iteration writes a[5]: iterations conflict write-vs-write.
    let src = "program t
proc main() {
  real a[8]
  int i
  do 1 i = 1, 16 {
    a[5] = i
  }
  print a[5]
}
";
    let (p, target) = loop_named(src, "main/1");
    let race = first_race(&p, target, 11);
    assert_eq!(race.kind(), "write-write");
    assert_eq!(p.var(race.first.var).name, "a");
    assert_eq!(p.var(race.second.var).name, "a");
    // Both sides are the `a[5] = i` assignment on line 6.
    assert_eq!((race.first.line, race.second.line), (6, 6));
    assert_ne!(race.first.thread, race.second.thread);
}

#[test]
fn read_write_race_across_iterations_pins_access_pair() {
    // a[i] = a[i - 1] + 1: iteration i reads the cell iteration i-1 writes.
    let src = "program t
proc main() {
  real a[32]
  int i
  a[1] = 1
  do 1 i = 2, 32 {
    a[i] = a[i - 1] + 1
  }
  print a[32]
}
";
    let (p, target) = loop_named(src, "main/1");
    // Statically serial: the carried flow dependence is reported on `a`.
    let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
    assert!(!pa.verdicts[&target].is_parallel());
    let race = first_race(&p, target, 12);
    assert_eq!(race.kind(), "read-write");
    assert_eq!(p.var(race.first.var).name, "a");
    assert_eq!(p.var(race.second.var).name, "a");
    // Both accesses come from the single body statement on line 7.
    assert_eq!((race.first.line, race.second.line), (7, 7));
    assert_ne!(race.first.thread, race.second.thread);
}

#[test]
fn reduction_race_free_only_under_reduction_transform() {
    let src = "program t
proc main() {
  real a[64], s
  int i
  do 0 i = 1, 64 {
    a[i] = i
  }
  s = 0
  do 1 i = 1, 64 {
    s = s + a[i]
  }
  print s
}
";
    let (p, target) = loop_named(src, "main/1");
    let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
    // Statically parallel *because of* the reduction transform on s.
    assert!(pa.verdicts[&target].is_parallel());
    assert!(pa.verdicts[&target]
        .classes()
        .values()
        .any(|c| matches!(c, VarClass::Reduction(_))));

    // Under the production plan: race-free and sequential-identical.
    let plans = ParallelPlans::from_analysis(&pa);
    let plan = plans.loops[&target].clone();
    let seq = capture_sequential(&p, &[]);
    let cert = certify_loop(&p, target, &plan, &CertifyOptions::default());
    assert!(
        cert.race_free(),
        "transformed reduction must certify race-free: {:?}",
        cert.schedules[0].outcome.races
    );
    for s in &cert.schedules {
        // 1 + 2 + … + 64 reassociates exactly in binary floating point.
        assert_eq!(s.capture.output, seq.output, "seed {}", s.seed);
    }

    // Under the minimal (untransformed) plan: the update races on `s`, and
    // the first conflicting pair is the read and write of `s = s + a[i]`.
    let race = first_race(&p, target, 13);
    assert_eq!(race.kind(), "read-write");
    assert_eq!(p.var(race.first.var).name, "s");
    assert_eq!(p.var(race.second.var).name, "s");
    assert_eq!((race.first.line, race.second.line), (10, 10));
}

#[test]
fn runtime_error_in_certified_body_is_captured_and_joins() {
    // Only iteration 7 subscripts out of bounds.  The worker that owns it
    // stops, the other workers run to the end of their blocks, all are
    // joined, and the error aborts the run in every schedule.
    let src = "program t
proc main() {
  real a[16]
  int idx[12], i
  do 0 i = 1, 12 {
    idx[i] = i
  }
  idx[7] = 17
  do 1 i = 1, 12 {
    a[idx[i]] = i
  }
  print a[1]
}
";
    let (p, target) = loop_named(src, "main/1");
    let plan = minimal_plan(&p, target).unwrap();
    let seq = capture_sequential(&p, &[]);
    let seq_err = seq.error.expect("sequential run fails too");
    let cert = certify_loop(&p, target, &plan, &CertifyOptions::default());
    assert_eq!(cert.schedules_run(), 4);
    for s in &cert.schedules {
        let e = s.capture.error.as_ref().expect("error surfaces");
        assert_eq!((e.line, &e.message), (seq_err.line, &seq_err.message));
        assert_eq!(s.outcome.error.as_ref().map(|e| e.line), Some(e.line));
        // The loop never finished: nothing after it ran.
        assert!(s.capture.output.is_empty(), "seed {}", s.seed);
        assert_eq!(s.outcome.loops_run, 1);
    }
}

#[test]
fn failure_in_the_last_workers_block_lets_the_others_finish() {
    // Three workers own iterations 1-4, 5-8 and 9-12; only iteration 10
    // subscripts out of bounds.  The last worker stops there; the other two
    // are not torn down with it: they run their blocks to the end.
    let src = "program t
proc main() {
  real a[16]
  int idx[12], i
  do 0 i = 1, 12 {
    idx[i] = i
  }
  idx[10] = 17
  do 1 i = 1, 12 {
    a[idx[i]] = i
  }
  print a[1]
}
";
    let (p, target) = loop_named(src, "main/1");
    let plan = minimal_plan(&p, target).unwrap();
    let opts = CertifyOptions {
        schedules: 2,
        seed: 99,
        ..Default::default()
    };
    let cert = certify_loop(&p, target, &plan, &opts);
    // `a` is laid out first: cells 0..16.  Iterations 1-9 stored, 10 failed,
    // 11 and 12 never ran.
    let a: Vec<Value> = (1..=16)
        .map(|i| Value::Real(if i <= 9 { i as f64 } else { 0.0 }))
        .collect();
    // (decisions, switches, shared accesses) of seeds 99 and 100, as the
    // token gate between OS threads took them.
    let pinned = [(52, 11, 19), (52, 6, 19)];
    for (s, pinned) in cert.schedules.iter().zip(pinned) {
        let e = s.capture.error.as_ref().expect("error surfaces");
        assert_eq!(
            (e.line, e.message.as_str()),
            (10, "subscript 1 of `a` is 17 (> extent 16)")
        );
        assert_eq!(s.outcome.error.as_ref().map(|e| e.line), Some(10));
        assert_eq!(&s.capture.memory[..16], &a[..], "seed {}", s.seed);
        assert!(s.capture.output.is_empty(), "seed {}", s.seed);
        let o = &s.outcome;
        assert_eq!(
            (o.schedule_decisions, o.schedule_switches, o.shared_accesses),
            pinned,
            "seed {}",
            s.seed
        );
    }
}

#[test]
fn race_list_is_bounded_and_the_count_is_not() {
    // The inner loop carries a flow dependence and is reached 120 times;
    // every invocation detects the same six pairs again.
    let src = "program t
proc main() {
  real a[8]
  int i, j
  do 1 j = 1, 120 {
    do 2 i = 2, 8 {
      a[i] = a[i - 1] + 1
    }
  }
  print a[8]
}
";
    let (p, target) = loop_named(src, "main/2");
    let plan = minimal_plan(&p, target).unwrap();
    let opts = CertifyOptions {
        schedules: 2,
        seed: 21,
        ..Default::default()
    };
    let cert = certify_loop(&p, target, &plan, &opts);
    assert!(!cert.race_free());
    // What the unbounded list held: 6 races × 120 invocations per schedule.
    assert_eq!(cert.race_count(), 1440);
    for s in &cert.schedules {
        assert_eq!(s.outcome.loops_run, 120);
        assert_eq!(s.outcome.race_count, 720, "seed {}", s.seed);
        assert_eq!(
            s.outcome.races.len(),
            suif_parallel::certify::MAX_REPORTED_RACES
        );
        let r = &s.outcome.races[0];
        assert_eq!(
            (
                r.addr,
                r.first.thread,
                r.first.line,
                r.second.thread,
                r.second.line
            ),
            (3, 3, 7, 4, 7),
            "seed {}",
            s.seed
        );
    }
}

#[test]
fn certifying_costs_time_linear_in_the_trip_count() {
    // 16 000 iterations of `a[i] = i` as one invocation and as 16
    // invocations of 1 000: the same accesses, so the same work.  A model
    // whose per-invocation state grows with the square of the trip count
    // (one clock per iteration, one component per earlier iteration) takes
    // 10 to 15 times as long, and half a gigabyte, on the first.
    let one = "program t
proc main() {
  real a[16000]
  int i
  do 1 i = 1, 16000 {
    a[i] = i
  }
  print a[16000]
}
";
    let sixteen = "program t
proc main() {
  real a[16000]
  int i, j
  do 2 j = 0, 15 {
    do 1 i = 1, 1000 {
      a[j * 1000 + i] = i
    }
  }
  print a[16000]
}
";
    let best_of_three = |src: &str| {
        let (p, target) = loop_named(src, "main/1");
        let pa = Parallelizer::analyze(&p, ParallelizeConfig::default());
        let plan = ParallelPlans::from_analysis(&pa).loops[&target].clone();
        let opts = CertifyOptions {
            schedules: 1,
            ..Default::default()
        };
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let cert = certify_loop(&p, target, &plan, &opts);
                let secs = start.elapsed().as_secs_f64();
                assert!(cert.race_free());
                assert_eq!(cert.schedules[0].outcome.iterations, 16_000);
                secs
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (one, sixteen) = (best_of_three(one), best_of_three(sixteen));
    assert!(
        one < 3.0 * sixteen,
        "one invocation of 16 000 iterations took {one:.3} s, \
         16 of 1 000 took {sixteen:.3} s"
    );
}
