//! `Polyhedron::prove_empty` is a pure function: no state survives from one
//! analysis to the next.  Analyzing a program twice in one process, each
//! time through a fresh [`FactStore`], must give the same verdicts *and* run
//! the same number of emptiness proofs through the same rungs of the ladder
//! — a memo anywhere below the fact store would answer the second run's
//! questions from the first's and its counters would come out lower.
//!
//! One test function: the kernel counters are process-wide, so a second
//! test analyzing concurrently in this binary would bleed into the deltas.

use std::collections::BTreeMap;
use suif_analysis::{FactStore, ParallelizeConfig, Parallelizer, ScheduleOptions};
use suif_benchmarks::{ch4_apps, ch5_apps, ch6_apps, Scale};
use suif_ir::Program;
use suif_poly::{poly_stats, PolyStats};

/// Loop-name → verdict Debug repr, plus what the kernel did to get there.
fn analyze(program: &Program) -> (BTreeMap<String, String>, PolyStats) {
    let before = poly_stats();
    let store = FactStore::new();
    let opts = ScheduleOptions::default();
    let (pa, _) =
        Parallelizer::analyze_in(program, ParallelizeConfig::default(), &opts, None, &store);
    let verdicts = pa
        .ctx
        .tree
        .loops
        .iter()
        .map(|li| (li.name.clone(), format!("{:?}", pa.verdicts[&li.stmt])))
        .collect();
    (verdicts, poly_stats().since(&before))
}

#[test]
fn a_second_analysis_repeats_every_proof_of_the_first() {
    let mut programs: Vec<(String, Program)> = ch4_apps(Scale::Test)
        .into_iter()
        .chain(ch5_apps(Scale::Test))
        .chain(ch6_apps(Scale::Test))
        .map(|b| (b.name.to_string(), b.parse()))
        .collect();
    assert_eq!(programs.len(), 15);
    for seed in 0..100 {
        let program = suif_ir::parse_program(&minif_gen::source_for_seed(seed))
            .unwrap_or_else(|e| panic!("seed {seed} failed to parse: {e}"));
        programs.push((minif_gen::name_for_seed(seed), program));
    }

    let (mut proofs, mut fm_runs) = (0, 0);
    for (name, program) in &programs {
        let (first, first_work) = analyze(program);
        let (second, second_work) = analyze(program);
        assert_eq!(first, second, "{name}: verdicts");
        assert_eq!(first_work, second_work, "{name}: kernel work");
        assert!(first_work.witness_sats <= first_work.quick_sats, "{name}");
        proofs += first_work.fm_runs + first_work.quick_sats + first_work.interval_rejects;
        fm_runs += first_work.fm_runs;
    }
    assert!(
        proofs > 10_000,
        "the programs ask real questions ({proofs})"
    );
    // The integer-witness rung settles almost every satisfiable system
    // before elimination.
    assert!(
        fm_runs * 100 <= proofs * 15,
        "{fm_runs} of {proofs} proofs ran Fourier–Motzkin"
    );
}
