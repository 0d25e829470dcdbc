//! An open interprets the program once, under `(LoopProfiler,
//! DynDepAnalyzer)`.  Everything the Explorer takes from that one run must
//! equal what two runs — each analyzer alone in its own machine — report,
//! the reductions the verdicts found dropped from the dependences, and the
//! Guru built on it must rank and flag the same loops.

use suif_benchmarks::{ch4_apps, Scale};
use suif_dynamic::machine::Machine;
use suif_dynamic::{DynDepAnalyzer, Hooks, LoopProfiler};
use suif_explorer::explorer::{dyndep_config, reduction_ignores};
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
    let dyndep = dd.report().ignoring(&reduction_ignores(&ex.analysis));

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
fn fused_run_equals_separate_runs_on_generated_programs() {
    for seed in 0..60 {
        let program = suif_ir::parse_program(&minif_gen::source_for_seed(seed))
            .unwrap_or_else(|e| panic!("seed {seed} failed to parse: {e}"));
        assert_fused_equals_separate(&minif_gen::name_for_seed(seed), &program, &[]);
    }
}
