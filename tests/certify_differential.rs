//! Static-vs-dynamic differential fuzzing of the race-certification
//! subsystem (`docs/dynamic.md`).
//!
//! For every generated MiniF program (shared generator in the `minif-gen`
//! crate) the harness checks both directions of the oracle:
//!
//! * **DOALL direction** — every loop the static parallelizer claims
//!   parallel must execute race-free under 4 adversarial schedules of the
//!   certifying executor, with whole-program output equal to the sequential
//!   run (floating-point-canonicalized) and final memory *bitwise* equal for
//!   plain DOALL loops (no transforms) or tolerance-equal for transformed
//!   ones (reductions reassociate).
//! * **serial direction** — every loop the static side classifies serial
//!   whose carried flow dependence is also *observed dynamically* (by the
//!   Dynamic Dependence Analyzer on the sequential run) must, when executed
//!   in parallel under the minimal always-legal plan, exhibit a detected
//!   race, an observable divergence, or a runtime error under one of the
//!   same 4 schedules.
//!
//! One `certify_loops` call per program certifies every loop of both
//! directions, the production plans and the minimal plans in one target
//! list, so the fuzz also exercises the certifier's scout: one sequential
//! run that carries every schedule whose state agrees with its own, each
//! schedule running only its loop's invocations and, while its state
//! differs, the stretches after them.
//!
//! Failures auto-shrink by delta-debugging the generated statement lists and
//! are persisted as minimal MiniF programs under
//! `tests/regressions/certify/`, which this harness (and CI) replays before
//! generating novel cases.  Program count: `SUIF_CERTIFY_PROGRAMS` env var,
//! defaulting to 48 in debug builds and 500 in release (the acceptance
//! bar), all from one fixed seed.

use minif_gen::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use std::path::{Path, PathBuf};
use suif_analysis::{LoopCertInfo, ParallelizeConfig, Parallelizer};
use suif_dynamic::machine::Machine;
use suif_dynamic::{DynDepAnalyzer, DynDepConfig, Value};
use suif_parallel::plan::minimal_plan;
use suif_parallel::{capture_sequential, certify_loops, CertifyOptions, ParallelPlans, PlanEntry};

/// Adversarial schedules per certified loop, in both directions.
const SCHEDULES: u32 = 4;

fn regression_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions/certify")
}

fn program_count() -> usize {
    if let Ok(v) = std::env::var("SUIF_CERTIFY_PROGRAMS") {
        return v.parse().expect("SUIF_CERTIFY_PROGRAMS must be a number");
    }
    if cfg!(debug_assertions) {
        48
    } else {
        500
    }
}

fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Privatized storage with no merge-back keeps its pre-loop shared value
/// under certification while the sequential run mutates it in place, so
/// memory comparisons skip those cells (reported by the executor as
/// `CertOutcome::dead_private`).
fn masked(addr: usize, dead: &[(usize, usize)]) -> bool {
    dead.iter()
        .any(|&(base, len)| addr >= base && addr < base + len)
}

fn mem_bitwise_eq(a: &[Value], b: &[Value], dead: &[(usize, usize)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .enumerate()
            .all(|(i, (x, y))| masked(i, dead) || x == y)
}

fn mem_close(a: &[Value], b: &[Value], dead: &[(usize, usize)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).enumerate().all(|(i, (x, y))| {
            masked(i, dead)
                || match (x, y) {
                    (Value::Int(p), Value::Int(q)) => p == q,
                    (Value::Real(p), Value::Real(q)) => {
                        (p - q).abs() <= 1e-9 + 1e-6 * p.abs().max(q.abs())
                    }
                    _ => false,
                }
        })
}

/// The full differential check over one MiniF source.  `Err` carries a
/// human-readable reason (the shrinker minimizes over it).
fn check_source(src: &str) -> Result<(), String> {
    let program = suif_ir::parse_program(src)
        .map_err(|e| format!("generated program failed to parse: {e}"))?;
    let seq = capture_sequential(&program, &[]);
    if let Some(e) = &seq.error {
        return Err(format!("sequential run failed: {}", e.message));
    }
    let pa = Parallelizer::analyze(&program, ParallelizeConfig::default());
    let plans = ParallelPlans::from_analysis(&pa);

    // Dynamic dependence observation on the sequential run (gates the
    // serial direction).
    let mut dd = DynDepAnalyzer::new(DynDepConfig::default());
    {
        let mut m = Machine::new(&program, &mut dd).map_err(|e| format!("layout error: {e:?}"))?;
        m.run()
            .map_err(|e| format!("dyndep run failed: {}", e.message))?;
    }
    let dynrep = dd.report();

    let base_seed = fnv64(src) & 0xffff_f000; // room for schedule offsets

    // Every loop either direction certifies, with its plan: a parallel
    // loop's production plan, or a refutable serial loop's minimal plan
    // and the variables the dynamic analyzer saw it carry.
    let mut targets: Vec<(LoopCertInfo, PlanEntry, Vec<String>)> = Vec::new();
    for info in pa.certify_inputs() {
        if info.parallel {
            let Some(plan) = plans.loops.get(&info.stmt) else {
                return Err(format!("parallel loop {} has no plan", info.name));
            };
            targets.push((info, plan.clone(), Vec::new()));
        } else {
            if info.has_io {
                continue;
            }
            // Gate on a dynamically observed carried flow dependence: only
            // then is the static "serial" claim dynamically refutable.
            let observed: Vec<String> = dynrep
                .dep_vars(info.stmt)
                .map(|v| program.var(v).name.clone())
                .collect();
            if observed.is_empty() {
                continue;
            }
            let Some(plan) = minimal_plan(&program, info.stmt) else {
                continue;
            };
            targets.push((info, plan, observed));
        }
    }
    let certs = certify_loops(
        &program,
        &targets
            .iter()
            .map(|(info, plan, _)| (info.stmt, plan))
            .collect::<Vec<_>>(),
        &CertifyOptions {
            schedules: SCHEDULES,
            seed: base_seed,
            ..Default::default()
        },
    );

    for ((info, _, observed), cert) in targets.iter().zip(&certs) {
        if info.parallel {
            for s in &cert.schedules {
                let dead = &s.outcome.dead_private;
                if let Some(r) = s.outcome.races.first() {
                    return Err(format!(
                        "DOALL loop {} races under seed {}: {}",
                        info.name, s.seed, r
                    ));
                }
                if let Some(e) = &s.capture.error {
                    return Err(format!(
                        "DOALL loop {} failed under seed {}: {}",
                        info.name, s.seed, e.message
                    ));
                }
                if canon(&s.capture.output) != canon(&seq.output) {
                    return Err(format!(
                        "DOALL loop {} output diverged under seed {}:\nseq: {:?}\npar: {:?}",
                        info.name, s.seed, seq.output, s.capture.output
                    ));
                }
                let mem_ok = if info.plain_doall {
                    // Race-free plain DOALL: every cell written by at most
                    // one iteration, so memory must be bitwise deterministic.
                    mem_bitwise_eq(&s.capture.memory, &seq.memory, dead)
                } else {
                    mem_close(&s.capture.memory, &seq.memory, dead)
                };
                if !mem_ok {
                    return Err(format!(
                        "DOALL loop {} final memory diverged under seed {} (plain={})",
                        info.name, s.seed, info.plain_doall
                    ));
                }
            }
        } else {
            // Loops that never ran in parallel (e.g. zero-trip at runtime)
            // cannot be refuted dynamically.
            if cert.schedules.iter().all(|s| s.outcome.loops_run == 0) {
                continue;
            }
            let refuted = cert.schedules.iter().any(|s| {
                !s.outcome.races.is_empty()
                    || s.capture.error.is_some()
                    || canon(&s.capture.output) != canon(&seq.output)
                    || !mem_close(&s.capture.memory, &seq.memory, &s.outcome.dead_private)
            });
            if !refuted {
                return Err(format!(
                    "serial loop {} (dynamic deps {:?}) showed no race, divergence or \
                     error under {} adversarial schedules of the minimal plan",
                    info.name, observed, SCHEDULES
                ));
            }
        }
    }
    Ok(())
}

fn check_case(loops: &[Vec<GStmt>]) -> Result<(), String> {
    check_source(&render_program(loops))
}

/// Delta-debug a failing case down to a local minimum: drop whole loops,
/// drop statements, and flatten `If`/`Loop` wrappers while the failure
/// persists.
fn shrink_candidates(loops: &[Vec<GStmt>]) -> Vec<Vec<Vec<GStmt>>> {
    let mut out = Vec::new();
    if loops.len() > 1 {
        for i in 0..loops.len() {
            let mut c = loops.to_vec();
            c.remove(i);
            out.push(c);
        }
    }
    for (i, body) in loops.iter().enumerate() {
        for j in 0..body.len() {
            if body.len() > 1 {
                let mut c = loops.to_vec();
                c[i].remove(j);
                out.push(c);
            }
            match &body[j] {
                GStmt::If(_, inner) | GStmt::Loop(inner) => {
                    let mut c = loops.to_vec();
                    c[i].splice(j..=j, inner.iter().cloned());
                    out.push(c);
                }
                _ => {}
            }
        }
    }
    out
}

fn shrink(mut cur: Vec<Vec<GStmt>>) -> Vec<Vec<GStmt>> {
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&cur) {
            if check_case(&cand).is_err() {
                cur = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// Shrink, persist the minimal MiniF source as a regression file, and panic.
fn fail_with_shrink(loops: Vec<Vec<GStmt>>, idx: usize, reason: String) -> ! {
    let minimal = shrink(loops);
    let src = render_program(&minimal);
    let final_reason = check_case(&minimal).err().unwrap_or_else(|| reason.clone());
    let dir = regression_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("shrink-{:016x}.mf", fnv64(&src)));
    let _ = std::fs::write(&path, &src);
    panic!(
        "certify differential failure on generated program #{idx}\n\
         original failure: {reason}\n\
         shrunk failure:   {final_reason}\n\
         minimal program persisted to {}:\n{src}",
        path.display()
    );
}

/// Replay the persisted regression corpus and the structured known
/// regressions before any novel case is generated.
#[test]
fn certify_replays_regression_corpus_first() {
    for (i, case) in known_regressions().iter().enumerate() {
        if let Err(e) = check_case(case) {
            panic!("known regression {i} fails certification: {e}");
        }
    }
    let dir = regression_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "mf"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    for f in files {
        let src = std::fs::read_to_string(&f).expect("read regression file");
        if let Err(e) = check_source(&src) {
            panic!(
                "persisted regression {} fails certification: {e}",
                f.display()
            );
        }
    }
}

/// The main differential fuzz loop: fixed seed, `program_count()` programs.
#[test]
fn certify_differential_fuzz() {
    let count = program_count();
    let strat = gprogram();
    let mut rng = TestRng::from_name("certify-differential-v1");
    for idx in 0..count {
        let loops = strat.generate(&mut rng);
        if let Err(reason) = check_case(&loops) {
            fail_with_shrink(loops, idx, reason);
        }
    }
}

/// Regenerate the seed corpus files for the structured known regressions
/// (run explicitly with `--ignored` when the generator's rendering changes).
#[test]
#[ignore]
fn dump_known_regression_sources() {
    let dir = regression_dir();
    std::fs::create_dir_all(&dir).expect("create regression dir");
    for case in known_regressions() {
        let src = render_program(&case);
        let path = dir.join(format!("seed-{:016x}.mf", fnv64(&src)));
        std::fs::write(&path, &src).expect("write seed regression");
    }
}
