//! Property: demanding facts through the [`FactStore`] with a parallel
//! [`Executor`] is observationally identical to sequential demand — the
//! verdicts, the warnings, and the dependency edges recorded in the store
//! are bit-equal — and every pass still executes exactly once per fact
//! (parallelism may move work between the `deduped` and `reused` counters,
//! never inflate `invocations`).

use proptest::prelude::*;
use std::collections::BTreeMap;
use suif_analysis::{
    Assertion, FactStore, ParallelizeConfig, Parallelizer, PassId, ProgramAnalysis, ScheduleOptions,
};

/// A generated program: `n` leaf procedures (elementwise when the constant
/// is even, a loop-carried recurrence when odd) called in sequence by main.
fn gen_src(consts: &[i64]) -> String {
    let mut s = String::from("program gen\n");
    for (k, c) in consts.iter().enumerate() {
        if c % 2 == 0 {
            s.push_str(&format!(
                "proc f{k}(real q[*], int n) {{\n int i\n do 1 i = 1, n {{\n  q[i] = q[i] + {c}\n }}\n}}\n"
            ));
        } else {
            s.push_str(&format!(
                "proc f{k}(real q[*], int n) {{\n int i\n do 1 i = 2, n {{\n  q[i] = q[i - 1] + {c}\n }}\n}}\n"
            ));
        }
    }
    s.push_str("proc main() {\n real b[16]\n int i\n do 9 i = 1, 16 {\n  b[i] = i\n }\n");
    for k in 0..consts.len() {
        s.push_str(&format!(" call f{k}(b, 16)\n"));
    }
    s.push_str(" print b[3]\n}\n");
    s
}

/// Loop-name → verdict Debug repr; the observational fingerprint.
fn fingerprint(pa: &ProgramAnalysis<'_>) -> BTreeMap<String, String> {
    pa.ctx
        .tree
        .loops
        .iter()
        .map(|li| (li.name.clone(), format!("{:?}", pa.verdicts[&li.stmt])))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_demand_matches_sequential(
        consts in prop::collection::vec(-4i64..5, 1..6),
        bogus in prop::collection::vec(0usize..3, 0..3),
    ) {
        let src = gen_src(&consts);
        let program = suif_ir::parse_program(&src).unwrap();

        // Unresolvable assertions exercise the warning path; their order in
        // the config is scrambled relative to source position.
        let mut config = ParallelizeConfig::default();
        for b in &bogus {
            config.assertions.push(Assertion::Privatizable {
                loop_name: format!("nosuch{b}/1"),
                var: "q".into(),
            });
        }

        let seq_store = FactStore::new();
        let (seq_pa, seq_stats) = Parallelizer::analyze_in(
            &program,
            config.clone(),
            &ScheduleOptions { threads: 1 },
            None,
            &seq_store,
        );

        let par_store = FactStore::new();
        let (par_pa, par_stats) = Parallelizer::analyze_in(
            &program,
            config.clone(),
            &ScheduleOptions { threads: 4 },
            None,
            &par_store,
        );

        // Bit-identical observable output.
        prop_assert_eq!(fingerprint(&seq_pa), fingerprint(&par_pa));
        prop_assert_eq!(&seq_pa.warnings, &par_pa.warnings);
        prop_assert_eq!(seq_store.dependency_edges(), par_store.dependency_edges());

        // Exactly-once execution: parallel fan-out never runs a classify
        // pass twice for the same loop — any racing demand is either
        // deduped (blocked on the in-flight run) or served from the store.
        let loops = seq_pa.ctx.tree.loops.len() as u64;
        for store in [&seq_store, &par_store] {
            let m = store.metrics_for(PassId::Classify);
            prop_assert_eq!(m.invocations, loops);
            prop_assert_eq!(m.invocations + m.reused + m.deduped >= loops, true);
        }
        prop_assert_eq!(seq_stats.facts_computed, par_stats.facts_computed);

        // A second fan-out over the warm parallel store recomputes nothing.
        let (re_pa, re_stats) = Parallelizer::analyze_in(
            &program, config, &ScheduleOptions { threads: 4 }, None, &par_store);
        prop_assert_eq!(fingerprint(&par_pa), fingerprint(&re_pa));
        prop_assert_eq!(re_stats.facts_computed, 0);
    }
}
