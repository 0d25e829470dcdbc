//! Remaining figures: the hydro region diagram and machine characteristics.

use suif_benchmarks::apps;
use suif_benchmarks::Scale;
use suif_explorer::Explorer;
use suif_ir::CallGraph;

/// Fig. 2-1: the hydro coarse-grain parallel-region structure, rendered as
/// the call tree with parallel-loop annotations (the textual analogue of the
/// box diagram).
pub fn fig2_1() -> String {
    let bench = apps::hydro(Scale::Test);
    let program = bench.parse();
    let ex = Explorer::new(&program, bench.input.clone()).unwrap();
    let cg = CallGraph::build(&program);
    let mut out = String::from(
        "Fig 2-1: hydro call tree; per procedure, its loops and their automatic verdicts\n",
    );
    out.push_str(&cg.render_tree(&program));
    out.push_str("\nloops:\n");
    let parallel = ex.parallel_loops();
    for li in &ex.analysis.ctx.tree.loops {
        out.push_str(&format!(
            "  {:<16} {}\n",
            li.name,
            if parallel.contains(&li.stmt) {
                "parallel (auto)"
            } else {
                "sequential"
            }
        ));
    }
    out
}

/// Ablation: the Dynamic Dependence Analyzer's iteration-sampling
/// optimization (§2.5.2: "the instrumentation can skip batches of
/// iterations because the analysis result is used only as a hint") —
/// instrumented-run cost vs. dependences observed, per cap.
pub fn abl_dyndep() -> String {
    use suif_dynamic::machine::Machine;
    use suif_dynamic::{DynDepAnalyzer, DynDepConfig};
    let bench = apps::mdg(Scale::Test);
    let program = bench.parse();
    let mut out = String::from(
        "Ablation: dynamic-dependence iteration sampling on mdg\n\
         cap(iter/invocation)  wall(ms)  loops-with-deps\n",
    );
    for cap in [None, Some(64), Some(8), Some(2)] {
        let cfg = DynDepConfig {
            max_iterations_per_invocation: cap,
            ..Default::default()
        };
        let mut dd = DynDepAnalyzer::new(cfg);
        let t0 = std::time::Instant::now();
        {
            let mut m = Machine::new(&program, &mut dd).unwrap();
            m.set_input(bench.input.clone());
            m.run().unwrap();
        }
        let wall = t0.elapsed();
        let rep = dd.report();
        let with_deps = rep.deps.keys().filter(|&&l| rep.has_dep(l)).count();
        out.push_str(&format!(
            "{:>20}  {:>8.1}  {:>4}\n",
            cap.map(|c| c.to_string())
                .unwrap_or_else(|| "unlimited".into()),
            wall.as_secs_f64() * 1e3,
            with_deps
        ));
    }
    out
}

/// Ablation: block vs cyclic iteration scheduling on mdg's triangular pair
/// loop (the Fig. 4-10 mdg imbalance note) — an extension beyond the
/// paper's block-only runtime (§4.5).
pub fn abl_schedule() -> String {
    use suif_analysis::{Assertion, ParallelizeConfig, Parallelizer};
    use suif_parallel::{
        parallel_ops, sequential_ops, Finalization, ParallelPlans, RuntimeConfig, Schedule,
    };
    let bench = apps::mdg(suif_benchmarks::Scale::Bench);
    let program = bench.parse();
    let pa = Parallelizer::analyze(
        &program,
        ParallelizeConfig {
            assertions: vec![Assertion::Privatizable {
                loop_name: "interf/1000".into(),
                var: "rl".into(),
            }],
            ..Default::default()
        },
    );
    let plans = ParallelPlans::from_analysis(&pa);
    let seq = sequential_ops(&program, &bench.input).unwrap();
    let mut out = String::from(
        "Ablation: iteration scheduling on mdg (user-parallelized, simulated speedup)\n\
         threads  block  cyclic\n",
    );
    for threads in [2usize, 4] {
        let mut row = format!("{threads:>7}");
        for schedule in [Schedule::Block, Schedule::Cyclic] {
            let cfg = RuntimeConfig {
                threads,
                min_parallel_iters: 4,
                min_parallel_cost: 2048,
                finalization: Finalization::StaggeredLocks { sections: 8 },
                schedule,
            };
            let par = parallel_ops(&program, &plans, &cfg, &bench.input).unwrap();
            row.push_str(&format!("  {:>5.2}", seq as f64 / par as f64));
        }
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Fig. 6-1: characteristics of the machine used for the experiments (the
/// host stands in for the paper's SGI Challenge / Origin).
pub fn fig6_1() -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let os = std::env::consts::OS;
    let arch = std::env::consts::ARCH;
    format!(
        "Fig 6-1: experimental platform (host stand-in for the paper's machines)\n\
         processors : {cpus}\n\
         arch       : {arch}\n\
         os         : {os}\n\
         runtime    : std::thread SPMD over an interpreter shared-memory view\n\
         note       : the paper used a 4-cpu SGI Challenge and a 4-cpu SGI Origin;\n\
                      absolute times are not comparable, speedup shapes are.\n"
    )
}

/// Ablation: the polyhedral subtract budget (`SUBTRACT_TEST_BUDGET`).  The
/// full-liveness top-down on mdg subtracts the loop must-writes from large
/// exposed unions (`E − M` of Fig 5-2); without a budget one transfer on the
/// timestep loop costs seconds.  Precision is reported as the number of
/// modified arrays proven dead at loop exits — the budgets are sound
/// over-approximations, so lower budgets can only *lose* dead verdicts.
pub fn abl_subtract() -> String {
    use suif_analysis::liveness::{analyze_liveness, bottom_up};
    use suif_analysis::{AnalysisCtx, ArrayDataFlow, LivenessMode};
    let bench = apps::mdg(Scale::Test);
    let program = bench.parse();
    let ctx = AnalysisCtx::new(&program);
    let df = ArrayDataFlow::analyze(&ctx);
    let saved = bottom_up(&ctx, &df);
    let mut out = String::from(
        "Ablation: PolySet::subtract test budget on mdg full liveness\n\
         budget      top-down(ms)  dead-at-exit\n",
    );
    for (label, budget) in [
        ("64", Some(64isize)),
        ("1024 (def)", Some(1024)),
        ("unlimited", Some(isize::MAX)),
    ] {
        suif_poly::set_subtract_test_budget(budget);
        let t0 = std::time::Instant::now();
        let res = analyze_liveness(&ctx, &df, &saved, LivenessMode::Full);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let dead: usize = ctx
            .tree
            .loops
            .iter()
            .map(|l| {
                let written = res.written.get(&l.stmt).cloned().unwrap_or_default();
                written
                    .iter()
                    .filter(|id| !res.live_after_write[&l.stmt].contains(id))
                    .count()
            })
            .sum();
        out.push_str(&format!("{label:<11} {ms:>12.1}  {dead}\n"));
    }
    suif_poly::set_subtract_test_budget(None);
    out
}
