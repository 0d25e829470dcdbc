//! An open interprets the program once, under `(LoopProfiler,
//! DynDepAnalyzer)`.  Everything the Explorer takes from that one run must
//! equal what two runs — each analyzer alone in its own machine — report,
//! and the Guru built on it must rank and flag the same loops.  The run
//! ignores only induction variables; the reductions the verdicts found are
//! dropped from its report afterwards, which must equal a run that ignored
//! them.

use suif_analysis::{ParallelizeConfig, Parallelizer};
use suif_benchmarks::{apps, ch4_apps, ch6_apps, Scale};
use suif_dynamic::machine::Machine;
use suif_dynamic::{DynDepAnalyzer, DynDepConfig, Hooks, LoopProfiler};
use suif_explorer::explorer::dyndep_config;
use suif_explorer::{Explorer, GuruReport};
use suif_ir::Program;

fn run_alone(program: &Program, input: &[f64], hooks: &mut dyn Hooks) {
    let mut m = Machine::new(program, hooks).expect("layout");
    m.set_input(input.to_vec());
    m.run().expect("run");
}

/// What of a Guru report does not depend on the wall clock.
fn guru_view(g: &GuruReport) -> impl PartialEq + std::fmt::Debug + '_ {
    let targets: Vec<_> = g
        .targets
        .iter()
        .map(|t| {
            (
                (t.stmt, &t.name, t.static_deps, t.dynamic_dep, t.important),
                (t.coverage, t.granularity, t.has_calls, t.size_lines),
            )
        })
        .collect();
    (
        targets,
        (g.coverage, g.granularity),
        (g.executed_loops, g.sequential_loops),
    )
}

fn assert_fused_equals_separate(name: &str, program: &Program, input: &[f64]) {
    let mut ex = Explorer::new(program, input.to_vec())
        .unwrap_or_else(|e| panic!("{name} failed to open: {e}"));

    let mut profiler = LoopProfiler::new();
    run_alone(program, input, &mut profiler);
    let profile = profiler.report();
    let mut dd = DynDepAnalyzer::new(dyndep_config(program, &ex.analysis));
    run_alone(program, input, &mut dd);
    let dyndep = dd.report();

    assert_eq!(ex.profile.total_ops, profile.total_ops, "{name}");
    assert!(ex.execution.ops >= profile.total_ops, "{name}");
    assert_eq!(
        ex.profile.profiles.len(),
        profile.profiles.len(),
        "{name}: profiled loops"
    );
    for (stmt, alone) in &profile.profiles {
        let fused = ex
            .profile
            .loop_profile(*stmt)
            .unwrap_or_else(|| panic!("{name}: loop {stmt:?} missing from the fused profile"));
        assert_eq!(
            (
                fused.invocations,
                fused.iterations,
                fused.total_ops,
                &fused.dynamic_ancestors
            ),
            (
                alone.invocations,
                alone.iterations,
                alone.total_ops,
                &alone.dynamic_ancestors
            ),
            "{name}: loop {stmt:?}"
        );
    }
    assert_eq!(ex.dyndep.deps, dyndep.deps, "{name}");

    let fused_guru = ex.guru();
    ex.profile = profile;
    ex.dyndep = dyndep;
    let separate_guru = ex.guru();
    assert_eq!(
        guru_view(&fused_guru),
        guru_view(&separate_guru),
        "{name}: guru"
    );
}

#[test]
fn fused_run_equals_separate_runs_on_ch4_apps() {
    for bench in ch4_apps(Scale::Test) {
        assert_fused_equals_separate(bench.name, &bench.parse(), &bench.input);
    }
}

#[test]
fn reductions_filtered_after_the_run_equal_reductions_ignored_in_it() {
    let scale = Scale::Test;
    let mut programs: Vec<(String, Program, Vec<f64>)> = Vec::new();
    let mut suite = ch4_apps(scale);
    suite.push(apps::flo88(scale, true));
    suite.push(apps::wave5(scale));
    suite.push(apps::hydro2d(scale));
    suite.extend(ch6_apps(scale));
    assert_eq!(suite.len(), 13);
    for bench in suite {
        programs.push((bench.name.to_string(), bench.parse(), bench.input));
    }
    for seed in 0..200 {
        let program = suif_ir::parse_program(&minif_gen::source_for_seed(seed)).unwrap();
        programs.push((minif_gen::name_for_seed(seed), program, Vec::new()));
    }
    let mut filtered = 0;
    for (name, program, input) in &programs {
        let analysis = Parallelizer::analyze(program, ParallelizeConfig::default());
        let ignoring = dyndep_config(program, &analysis);
        let mut during = DynDepAnalyzer::new(ignoring.clone());
        run_alone(program, input, &mut during);
        let mut after = DynDepAnalyzer::new(DynDepConfig {
            ignore_loop_vars: Default::default(),
            ..ignoring.clone()
        });
        run_alone(program, input, &mut after);
        let (during, after) = (during.report(), after.report());
        filtered += usize::from(during.deps != after.deps);
        assert_eq!(
            during.deps,
            after.ignoring(&ignoring.ignore_loop_vars).deps,
            "{name}"
        );
    }
    assert!(
        filtered >= 100,
        "only {filtered} runs saw a reduction's dependence"
    );
}

#[test]
fn fused_run_equals_separate_runs_on_generated_programs() {
    for seed in 0..60 {
        let program = suif_ir::parse_program(&minif_gen::source_for_seed(seed))
            .unwrap_or_else(|e| panic!("seed {seed} failed to parse: {e}"));
        assert_fused_equals_separate(&minif_gen::name_for_seed(seed), &program, &[]);
    }
}
