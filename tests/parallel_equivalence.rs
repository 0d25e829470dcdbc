//! The parallel scheduler must be bit-identical to the sequential pass, and
//! a warm summary cache must re-summarize nothing — checked over the full
//! benchmark suite (Ch. 4–6).

use std::collections::BTreeMap;
use suif_analysis::{
    AnalysisCtx, ArrayDataFlow, ParallelizeConfig, Parallelizer, ScheduleOptions, SummaryCache,
};
use suif_benchmarks::{ch4_apps, ch5_apps, ch6_apps, BenchProgram, Scale};

fn all_apps() -> Vec<BenchProgram> {
    let mut v = ch4_apps(Scale::Test);
    v.extend(ch5_apps(Scale::Test));
    v.extend(ch6_apps(Scale::Test));
    v
}

/// Canonical rendering of a data-flow result (`HashMap`s sorted by id).
fn df_fingerprint(df: &ArrayDataFlow) -> String {
    let procs: BTreeMap<u32, String> = df
        .proc_summary
        .iter()
        .map(|(k, v)| (k.0, format!("{v:?}")))
        .collect();
    let fresh: BTreeMap<u32, (u32, u32)> = df.proc_fresh.iter().map(|(k, &v)| (k.0, v)).collect();
    let stmts: BTreeMap<u32, String> = df
        .stmt_summary
        .iter()
        .map(|(k, v)| (k.0, format!("{v:?}")))
        .collect();
    let iters: BTreeMap<u32, String> = df
        .loop_iter
        .iter()
        .map(|(k, v)| (k.0, format!("{v:?}")))
        .collect();
    let closed: BTreeMap<u32, String> = df
        .loop_closed_plain
        .iter()
        .map(|(k, v)| (k.0, format!("{v:?}")))
        .collect();
    format!("{procs:?}|{fresh:?}|{stmts:?}|{iters:?}|{closed:?}")
}

fn verdict_fingerprint(pa: &suif_analysis::ProgramAnalysis<'_>) -> String {
    let v: BTreeMap<u32, String> = pa
        .verdicts
        .iter()
        .map(|(k, v)| (k.0, format!("{v:?}")))
        .collect();
    format!("{v:?}")
}

#[test]
fn parallel_schedule_is_bit_identical_across_suite() {
    for app in all_apps() {
        let program = app.parse();
        let ctx = AnalysisCtx::new(&program);
        let seq = ArrayDataFlow::analyze(&ctx);
        let (par, stats) =
            suif_analysis::schedule::run(&ctx, &ScheduleOptions { threads: 4 }, None);
        assert_eq!(
            df_fingerprint(&seq),
            df_fingerprint(&par),
            "{}: parallel data flow diverged from sequential",
            app.name
        );
        assert_eq!(stats.summarized, stats.procs, "{}", app.name);

        // Whole-driver equivalence: verdicts must match too.
        let pa_seq = Parallelizer::analyze(&program, ParallelizeConfig::default());
        let (pa_par, _) = Parallelizer::analyze_with(
            &program,
            ParallelizeConfig::default(),
            &ScheduleOptions { threads: 4 },
            None,
        );
        assert_eq!(
            verdict_fingerprint(&pa_seq),
            verdict_fingerprint(&pa_par),
            "{}: verdicts diverged under the parallel schedule",
            app.name
        );
    }
}

#[test]
fn warm_cache_resummarizes_nothing_across_suite() {
    for app in all_apps() {
        let program = app.parse();
        let ctx = AnalysisCtx::new(&program);
        let cache = SummaryCache::new();
        let (cold, s1) =
            suif_analysis::schedule::run(&ctx, &ScheduleOptions { threads: 2 }, Some(&cache));
        assert_eq!(s1.summarized, s1.procs, "{}: cold run must miss", app.name);
        let (warm, s2) =
            suif_analysis::schedule::run(&ctx, &ScheduleOptions { threads: 2 }, Some(&cache));
        assert_eq!(
            s2.summarized, 0,
            "{}: warm run must re-summarize zero procedures",
            app.name
        );
        assert_eq!(s2.cache_hits, s2.procs, "{}", app.name);
        assert_eq!(
            df_fingerprint(&cold),
            df_fingerprint(&warm),
            "{}: cached flows diverged",
            app.name
        );
    }
}
