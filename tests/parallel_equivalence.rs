//! A warm summary cache must re-summarize nothing and hand back the same
//! data flow — checked over the full benchmark suite (Ch. 4–6).

use std::collections::BTreeMap;
use suif_analysis::{AnalysisCtx, ArrayDataFlow, SummaryCache};
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

#[test]
fn warm_cache_resummarizes_nothing_across_suite() {
    for app in all_apps() {
        let program = app.parse();
        let ctx = AnalysisCtx::new(&program);
        let cache = SummaryCache::new();
        let (cold, s1) = ArrayDataFlow::analyze_cached(&ctx, Some(&cache));
        assert_eq!(s1.summarized, s1.procs, "{}: cold run must miss", app.name);
        let (warm, s2) = ArrayDataFlow::analyze_cached(&ctx, Some(&cache));
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
