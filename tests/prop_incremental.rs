//! Property: incremental assertion replay through a shared [`FactStore`] is
//! observationally identical to a from-scratch `Parallelizer::analyze`, and
//! each new assertion replays at most the asserted loop's classify pass —
//! never the summaries, the liveness, or any other loop's classification.
//! And a one-procedure edit re-summarizes exactly the procedures whose
//! own content key moved or one of whose callees' summaries changed value
//! (early cutoff), landing on the data flow of a fresh analysis.

mod fingerprint;

use fingerprint::df_fingerprint;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use suif_analysis::cache::ProgramKeys;
use suif_analysis::{
    AnalysisCtx, Assertion, FactStore, ParallelizeConfig, Parallelizer, PassId, ProgramAnalysis,
    ScheduleOptions, Scope,
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

/// Input hash of every `Summarize` fact in the store, by scope.  A fact
/// that re-ran was stored under its new hash; a reused one kept its own.
fn summary_hashes(store: &FactStore) -> BTreeMap<Scope, u128> {
    let facts = store.export().into_iter();
    facts
        .filter(|f| f.key.pass == PassId::Summarize)
        .map(|f| (f.key.scope, f.hash))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn one_procedure_edit_resummarizes_exactly_the_moved_keys(
        consts in prop::collection::vec(-4i64..5, 1..5),
        edit_at in 0usize..5,
        delta in 1i64..4,
    ) {
        let edit_at = edit_at % consts.len();
        let mut edited = consts.clone();
        // Guaranteed change; may flip elementwise <-> recurrence.
        edited[edit_at] += delta;
        let base = suif_ir::parse_program(&gen_src(&consts)).unwrap();
        let next = suif_ir::parse_program(&gen_src(&edited)).unwrap();
        let store = FactStore::new();
        let opts = ScheduleOptions::default();
        let config = ParallelizeConfig::default;

        let (old_pa, _) = Parallelizer::analyze_in(&base, config(), &opts, None, &store);
        let before = summary_hashes(&store);
        let ran_before = store.metrics_for(PassId::Summarize).invocations;
        let (pa, stats) = Parallelizer::analyze_in(&next, config(), &opts, None, &store);
        let ran = store.metrics_for(PassId::Summarize).invocations - ran_before;

        let (old, new) = (
            ProgramKeys::of(&AnalysisCtx::new(&base)),
            ProgramKeys::of(&AnalysisCtx::new(&next)),
        );
        // A procedure re-runs when its own region moved, or when a callee's
        // interface or summary value did; an equal summary cuts off.
        let callee_moved = |c: &suif_ir::ProcId| {
            old.interfaces.get(c) != new.interfaces.get(c)
                || old_pa.summaries.get(c) != pa.summaries.get(c)
        };
        let moved: BTreeSet<Scope> = new
            .procs
            .iter()
            .filter(|(pid, key)| {
                old.procs.get(pid) != Some(key) || pa.ctx.cg.callees_of(**pid).iter().any(callee_moved)
            })
            .map(|(&pid, _)| Scope::Proc(pid))
            .collect();
        let rerun: BTreeSet<Scope> = summary_hashes(&store)
            .into_iter()
            .filter(|(scope, hash)| before.get(scope) != Some(hash))
            .map(|(scope, _)| scope)
            .collect();
        prop_assert_eq!(&rerun, &moved, "re-summarized set != moved inputs");
        prop_assert_eq!(ran as usize, moved.len(), "a procedure ran twice");
        prop_assert_eq!(stats.summarized(), ran);
        prop_assert_eq!(stats.summary_hits() as usize, stats.procs - moved.len());
        // The edited leaf; its caller too exactly when the edit flipped
        // the leaf between elementwise and recurrence, which changes its
        // sections.  A changed constant alone changes no section, so the
        // walk stops at the leaf.  Every other leaf is served.
        prop_assert_eq!(moved.len(), if delta % 2 == 1 { 2 } else { 1 });

        let fresh = Parallelizer::analyze(&next, config());
        prop_assert_eq!(df_fingerprint(pa.df()), df_fingerprint(fresh.df()));
        prop_assert_eq!(fingerprint(&pa), fingerprint(&fresh));
    }

    #[test]
    fn incremental_replay_matches_scratch(
        consts in prop::collection::vec(-4i64..5, 1..4),
        picks in prop::collection::vec((0usize..6, 0usize..2), 1..6),
    ) {
        let src = gen_src(&consts);
        let program = suif_ir::parse_program(&src).unwrap();
        let store = FactStore::new();
        let opts = ScheduleOptions::default();

        let (pa0, _) = Parallelizer::analyze_in(
            &program, ParallelizeConfig::default(), &opts, None, &store);
        let fresh0 = Parallelizer::analyze(&program, ParallelizeConfig::default());
        prop_assert_eq!(fingerprint(&pa0), fingerprint(&fresh0));

        let mut assertions: Vec<Assertion> = Vec::new();
        for (slot, kind) in picks {
            // Target one of the leaves, main's init loop, or a bogus name.
            let loop_name = if slot < consts.len() {
                format!("f{slot}/1")
            } else if slot == consts.len() {
                "main/9".to_string()
            } else {
                "nosuch/1".to_string()
            };
            let var = if slot < consts.len() { "q" } else { "b" };
            let a = if kind == 0 {
                Assertion::Privatizable { loop_name: loop_name.clone(), var: var.into() }
            } else {
                Assertion::Independent { loop_name: loop_name.clone(), var: var.into() }
            };
            let already = assertions.contains(&a);
            let resolvable = !loop_name.starts_with("nosuch");
            assertions.push(a);
            let config = ParallelizeConfig {
                assertions: assertions.clone(),
                ..Default::default()
            };

            let classify_before = store.metrics_for(PassId::Classify).invocations;
            let summarize_before = store.metrics_for(PassId::Summarize).invocations;
            let liveness_before = store.metrics_for(PassId::Liveness).invocations;
            let (pa, _) = Parallelizer::analyze_in(&program, config.clone(), &opts, None, &store);
            let delta = store.metrics_for(PassId::Classify).invocations - classify_before;

            // At most the asserted loop reclassifies; a duplicate or
            // unresolvable assertion replays nothing at all.
            prop_assert!(delta <= 1, "one assertion replayed {} classify passes", delta);
            if already || !resolvable {
                prop_assert_eq!(delta, 0, "no-op assertion must replay nothing");
            }
            prop_assert_eq!(
                store.metrics_for(PassId::Summarize).invocations, summarize_before,
                "summaries must never re-run on an assertion");
            prop_assert_eq!(
                store.metrics_for(PassId::Liveness).invocations, liveness_before,
                "liveness must never re-run on an assertion");

            // Verdicts identical to a from-scratch analysis of the same set.
            let fresh = Parallelizer::analyze(&program, config);
            prop_assert_eq!(fingerprint(&pa), fingerprint(&fresh));

            // Unresolved assertions warn instead of disappearing.
            if !resolvable {
                prop_assert!(
                    pa.warnings.iter().any(|w| w.contains("unresolved assertion")),
                    "missing unresolved-assertion warning: {:?}", pa.warnings);
            }
        }
    }
}

/// Deterministic acceptance check: one assertion re-runs exactly one
/// classify pass, zero summarize/liveness passes, and lands on verdicts
/// bit-identical to a full recompute.
#[test]
fn one_assertion_replays_one_classify_pass() {
    let src = "program t\nproc main() {\n real a[8], c[8]\n int i, j\n a[1] = 1\n \
               do 1 i = 2, 8 {\n  a[i] = a[i - 1] + 1\n }\n \
               do 2 j = 1, 8 {\n  c[j] = j\n }\n print a[3]\n print c[3]\n}";
    let program = suif_ir::parse_program(src).unwrap();
    let store = FactStore::new();
    let opts = ScheduleOptions::default();
    let (pa, _) =
        Parallelizer::analyze_in(&program, ParallelizeConfig::default(), &opts, None, &store);
    let seq = pa
        .ctx
        .tree
        .loops
        .iter()
        .find(|l| l.name == "main/1")
        .unwrap()
        .stmt;
    assert!(
        !pa.verdicts[&seq].is_parallel(),
        "recurrence starts sequential"
    );
    let base = store.metrics();

    let config = ParallelizeConfig {
        assertions: vec![Assertion::Independent {
            loop_name: "main/1".into(),
            var: "a".into(),
        }],
        ..Default::default()
    };
    let (pa, stats) = Parallelizer::analyze_in(&program, config.clone(), &opts, None, &store);
    let after = store.metrics();

    assert!(
        pa.verdicts[&seq].is_parallel(),
        "assertion overrides the dep"
    );
    assert_eq!(
        after[&PassId::Classify].invocations - base[&PassId::Classify].invocations,
        1,
        "exactly the asserted loop reclassified"
    );
    assert_eq!(
        after[&PassId::Summarize].invocations,
        base[&PassId::Summarize].invocations
    );
    assert_eq!(
        after[&PassId::Liveness].invocations,
        base[&PassId::Liveness].invocations
    );
    assert_eq!(stats.facts_computed, 1);
    assert!(stats.facts_reused >= 2, "other loop + summaries + liveness");

    // Bit-identical to the from-scratch analysis under the same config.
    let fresh = Parallelizer::analyze(&program, config);
    assert_eq!(fingerprint(&pa), fingerprint(&fresh));
}
