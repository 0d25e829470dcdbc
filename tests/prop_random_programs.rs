//! Property tests over randomly generated MiniF programs.
//!
//! The generator lives in the `minif-gen` crate (shared with the race
//! certification harness in `certify_differential.rs` and the corpus
//! driver).  Three end-to-end properties are checked:
//!
//! 1. **front-end fixpoint** — pretty-printing a parsed program and
//!    re-parsing it reaches a printing fixpoint;
//! 2. **analysis + runtime soundness** — executing the program with the
//!    auto-parallelizer's plans on the SPMD runtime produces the same output
//!    as the sequential interpreter (modulo floating-point reassociation of
//!    reductions);
//! 3. **static/dynamic agreement** — a loop the compiler declares parallel
//!    with no transformations (every object class `Parallel`) never shows a
//!    loop-carried dependence of any kind — flow, anti or output — in the
//!    dynamic dependence analyzer.
//!
//! The shrunk counterexamples checked into
//! `tests/prop_random_programs.proptest-regressions` are replayed first (see
//! [`minif_gen::known_regressions`]): the vendored proptest shim has no
//! persistence, so the replay is explicit.

use minif_gen::*;
use proptest::prelude::*;
use suif_analysis::{ParallelizeConfig, Parallelizer, VarClass};
use suif_dynamic::machine::{Machine, NoHooks};
use suif_dynamic::DynDepAnalyzer;
use suif_explorer::explorer::dyndep_config;
use suif_parallel::{
    measure_parallel, measure_sequential, Finalization, ParallelPlans, RuntimeConfig, Schedule,
};

/// The runtime-soundness core shared by the property below and the
/// regression replay: sequential output must match parallel output across
/// the schedule / finalization / thread-count matrix.
fn assert_parallel_matches_sequential(loops: &[Vec<GStmt>]) {
    let src = render_program(loops);
    let program = suif_ir::parse_program(&src).expect("parse");
    let seq = measure_sequential(&program, vec![]).expect("sequential run");
    let pa = Parallelizer::analyze(&program, ParallelizeConfig::default());
    let plans = ParallelPlans::from_analysis(&pa);
    for threads in [2usize, 3] {
        for schedule in [Schedule::Block, Schedule::Cyclic] {
            for finalization in [
                Finalization::Serialized,
                Finalization::StaggeredLocks { sections: 4 },
            ] {
                let (par, _) = measure_parallel(
                    &program,
                    &plans,
                    RuntimeConfig {
                        threads,
                        min_parallel_iters: 2,
                        min_parallel_cost: 0,
                        finalization,
                        schedule,
                    },
                    vec![],
                )
                .expect("parallel run");
                assert_eq!(
                    canon(&seq.output),
                    canon(&par.output),
                    "divergence with {threads} threads / {schedule:?} / {finalization:?} on:\n{src}"
                );
            }
        }
    }
}

/// Replay the checked-in shrunk corpus before any novel case is generated.
#[test]
fn replay_known_regressions() {
    for (i, case) in known_regressions().iter().enumerate() {
        let src = render_program(case);
        let p1 = suif_ir::parse_program(&src)
            .unwrap_or_else(|e| panic!("regression {i} failed to parse: {e}\n{src}"));
        let printed = suif_ir::pretty::program_to_string(&p1);
        let p2 = suif_ir::parse_program(&printed)
            .unwrap_or_else(|e| panic!("regression {i} failed to reparse: {e}\n{printed}"));
        assert_eq!(
            printed,
            suif_ir::pretty::program_to_string(&p2),
            "regression {i} not a printing fixpoint"
        );
        assert_parallel_matches_sequential(case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pretty_print_reaches_fixpoint(loops in gprogram()) {
        let src = render_program(&loops);
        let p1 = suif_ir::parse_program(&src)
            .unwrap_or_else(|e| panic!("generated program failed to parse: {e}\n{src}"));
        let printed = suif_ir::pretty::program_to_string(&p1);
        let p2 = suif_ir::parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed program failed to reparse: {e}\n{printed}"));
        prop_assert_eq!(printed, suif_ir::pretty::program_to_string(&p2));
    }

    #[test]
    fn parallel_execution_matches_sequential(loops in gprogram()) {
        let src = render_program(&loops);
        let program = suif_ir::parse_program(&src).expect("parse");
        let seq = measure_sequential(&program, vec![]).expect("sequential run");
        let pa = Parallelizer::analyze(&program, ParallelizeConfig::default());
        let plans = ParallelPlans::from_analysis(&pa);
        let (par, _) = measure_parallel(
            &program,
            &plans,
            RuntimeConfig {
                threads: 2,
                min_parallel_iters: 2,
                min_parallel_cost: 0,
                finalization: Finalization::Serialized,
                schedule: Default::default(),
            },
            vec![],
        )
        .expect("parallel run");
        prop_assert_eq!(
            canon(&seq.output),
            canon(&par.output),
            "divergence on:\n{}",
            src
        );
    }

    #[test]
    fn static_parallel_verdicts_are_dynamically_clean(loops in gprogram()) {
        let src = render_program(&loops);
        let program = suif_ir::parse_program(&src).expect("parse");
        let pa = Parallelizer::analyze(&program, ParallelizeConfig::default());
        // Dynamic run ignoring only the induction variables: every carried
        // dependence observed, whatever its kind.
        let mut dd = DynDepAnalyzer::new(dyndep_config(&program, &pa));
        {
            let mut m = Machine::new(&program, &mut dd).unwrap();
            m.run().unwrap();
        }
        let rep = dd.report();
        for li in &pa.ctx.tree.loops {
            let Some(v) = pa.verdicts.get(&li.stmt) else { continue };
            if !v.is_parallel() {
                continue;
            }
            // Only plain-parallel loops (no privatization, no reductions):
            // those must be dependence-free even dynamically.
            let plain = v
                .classes()
                .values()
                .all(|c| matches!(c, VarClass::Parallel));
            if !plain {
                continue;
            }
            let dyn_vars: Vec<String> = rep
                .deps
                .get(&li.stmt)
                .into_iter()
                .flatten()
                .map(|(&v, &kinds)| format!("{} ({kinds:#05b})", program.var(v).name))
                .collect();
            prop_assert!(
                dyn_vars.is_empty(),
                "loop {} declared plainly parallel but carries {:?} dynamically:\n{}",
                li.name,
                dyn_vars,
                src
            );
        }
    }

    #[test]
    fn parallel_execution_matches_sequential_all_configs(loops in gprogram()) {
        assert_parallel_matches_sequential(&loops);
    }

    #[test]
    fn interpreter_is_deterministic(loops in gprogram()) {
        let src = render_program(&loops);
        let program = suif_ir::parse_program(&src).expect("parse");
        let mut h1 = NoHooks;
        let mut m1 = Machine::new(&program, &mut h1).unwrap();
        m1.run().unwrap();
        let mut h2 = NoHooks;
        let mut m2 = Machine::new(&program, &mut h2).unwrap();
        m2.run().unwrap();
        prop_assert_eq!(&m1.output, &m2.output);
        prop_assert_eq!(m1.ops(), m2.ops());
    }
}
