//! A warm fact store must re-summarize nothing and hand back the same
//! data flow — checked over the full benchmark suite (Ch. 4–6).

mod fingerprint;

use fingerprint::df_fingerprint;
use suif_analysis::{FactStore, ParallelizeConfig, Parallelizer};
use suif_benchmarks::{ch4_apps, ch5_apps, ch6_apps, BenchProgram, Scale};

fn all_apps() -> Vec<BenchProgram> {
    let mut v = ch4_apps(Scale::Test);
    v.extend(ch5_apps(Scale::Test));
    v.extend(ch6_apps(Scale::Test));
    v
}

#[test]
fn warm_cache_resummarizes_nothing_across_suite() {
    for app in all_apps() {
        let program = app.parse();
        let store = FactStore::new();
        let analyze = || {
            let config = ParallelizeConfig::default();
            Parallelizer::analyze_in(&program, config, &Default::default(), None, &store)
        };
        let (cold, s1) = analyze();
        assert_eq!(
            (s1.summarized(), s1.summary_hits()),
            (s1.procs as u64, 0),
            "{}: cold run must miss",
            app.name
        );
        let (warm, s2) = analyze();
        assert_eq!(
            s2.summarized(),
            0,
            "{}: warm run must re-summarize zero procedures",
            app.name
        );
        assert_eq!(s2.summary_hits(), s2.procs as u64, "{}", app.name);
        assert_eq!(
            df_fingerprint(cold.df()),
            df_fingerprint(warm.df()),
            "{}: served flows diverged",
            app.name
        );
    }
}
