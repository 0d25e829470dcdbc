//! Property: the durable snapshot round trip is lossless and lazy.
//! Analyzing a generated program, exporting the fact store through
//! [`Snapshot`], and importing the decoded bytes into a fresh store must
//! (a) re-encode bit-identically, (b) validate every entry against the
//! freshly computed expected input hashes — all seven passes, (c) re-serve the analysis with
//! **zero** invocations of any persisted pass, (d) after invalidating
//! `N` loop classifications, recompute **exactly `N`** of them, and (e)
//! after a one-leaf edit, validate (bottom-up, over the recorded value
//! hashes) only facts equal to a fresh analysis's of the edited program,
//! every untouched leaf's summary and tables among them.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use suif_analysis::{
    recorded_values, FactKey, FactStore, ParallelizeConfig, Parallelizer, PassId, ProgramAnalysis,
    ScheduleOptions, Scope, Snapshot,
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

/// Demand every loop's carried-dependence table (the slice answers) and
/// the contraction, decomposition and block-split advisories.
fn demand_advisories(pa: &ProgramAnalysis<'_>, store: &FactStore) {
    for li in &pa.ctx.tree.loops {
        suif_analysis::deps::carried_deps_cached(pa, store, li.stmt);
    }
    suif_analysis::contract::find_candidates_cached(pa, store);
    suif_analysis::decomp::advisory_cached(pa, store);
    suif_analysis::split::find_splits_cached(pa, store);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn snapshot_round_trip_is_lossless_and_lazy(
        consts in prop::collection::vec(-4i64..5, 1..6),
        kill in prop::collection::vec(0usize..64, 1..4),
    ) {
        let src = gen_src(&consts);
        let program = suif_ir::parse_program(&src).unwrap();
        let config = ParallelizeConfig::default();
        let opts = ScheduleOptions::default();

        // Cold analysis, plus every loop's carried-dependence fact and the
        // three program-scope advisories, so every pass
        // `expected_fact_hashes` lists is checked against a real fact.
        let store = FactStore::new();
        let (pa, _) = Parallelizer::analyze_in(&program, config.clone(), &opts, None, &store);
        let cold = fingerprint(&pa);
        demand_advisories(&pa, &store);

        // Export → encode → decode: nothing dropped, and re-encoding the
        // decoded snapshot reproduces the original bytes (golden round trip).
        let snap = Snapshot::new(store.export());
        let persisted_keys: BTreeSet<FactKey> = snap.facts.iter().map(|f| f.key).collect();
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).unwrap();
        prop_assert_eq!(decoded.undecodable, 0);
        prop_assert_eq!(&decoded.encode(), &bytes);
        prop_assert_eq!(decoded.facts.len(), persisted_keys.len());

        // Every loop's classify and carried-deps facts made it in, and so
        // did every procedure's summary and the program-scope liveness and
        // advisory facts.
        for li in &pa.ctx.tree.loops {
            prop_assert!(persisted_keys.contains(&FactKey::new(PassId::Classify, Scope::Loop(li.stmt))));
            prop_assert!(persisted_keys.contains(&FactKey::new(PassId::Deps, Scope::Loop(li.stmt))));
        }
        for p in &program.procedures {
            prop_assert!(persisted_keys.contains(&FactKey::new(PassId::Summarize, Scope::Proc(p.id))));
        }
        for pass in [
            PassId::Liveness,
            PassId::Contract,
            PassId::Decomp,
            PassId::Split,
        ] {
            prop_assert!(persisted_keys.contains(&FactKey::new(pass, Scope::Program)));
        }

        // Warm-start validation: the program did not change, so every
        // decoded entry matches its freshly computed expected input hash.
        let recorded = recorded_values(&decoded.facts);
        let expected = Parallelizer::expected_fact_hashes(&program, &config, &[], &recorded);
        for f in &decoded.facts {
            prop_assert_eq!(expected.get(&f.key).copied(), Some(f.hash));
        }

        // A warm start after an edit of one leaf's constant: every fact the
        // validator keeps is the one a fresh analysis of the edited program
        // computes (same input and value hash), and every other leaf's
        // summary and loop tables are kept.
        let edited_leaf = kill[0] % consts.len();
        let mut edited = consts.clone();
        edited[edited_leaf] += 1 + (kill[0] % 2) as i64;
        let next = suif_ir::parse_program(&gen_src(&edited)).unwrap();
        let expected = Parallelizer::expected_fact_hashes(&next, &config, &[], &recorded);
        let fresh = FactStore::new();
        let (fresh_pa, _) = Parallelizer::analyze_in(&next, config.clone(), &opts, None, &fresh);
        demand_advisories(&fresh_pa, &fresh);
        let fresh_facts: BTreeMap<FactKey, (u128, u128)> = fresh
            .export()
            .into_iter()
            .map(|f| (f.key, (f.hash, f.value_hash)))
            .collect();
        let mut kept = BTreeSet::new();
        for f in decoded.facts.iter().filter(|f| expected.get(&f.key) == Some(&f.hash)) {
            prop_assert_eq!(fresh_facts.get(&f.key), Some(&(f.hash, f.value_hash)), "{:?}", f.key);
            kept.insert(f.key);
        }
        for (k, p) in next.procedures.iter().enumerate() {
            if p.name == "main" || k == edited_leaf {
                continue;
            }
            prop_assert!(kept.contains(&FactKey::new(PassId::Summarize, Scope::Proc(p.id))));
        }
        for li in fresh_pa.ctx.tree.loops.iter().filter(|li| li.name != format!("f{edited_leaf}/1")) {
            let proc_name = &next.proc(li.proc).name;
            if proc_name != "main" {
                prop_assert!(kept.contains(&FactKey::new(PassId::Deps, Scope::Loop(li.stmt))));
            }
        }

        // Import into a fresh store and re-demand everything: the verdicts
        // are bit-identical and no persisted pass runs even once.
        let warm = FactStore::new();
        let n_facts = decoded.facts.len();
        prop_assert_eq!(warm.import(decoded.facts), n_facts);
        let (warm_pa, _) =
            Parallelizer::analyze_in(&program, config.clone(), &opts, None, &warm);
        demand_advisories(&warm_pa, &warm);
        prop_assert_eq!(&cold, &fingerprint(&warm_pa));
        for pass in [PassId::Contract, PassId::Decomp, PassId::Split] {
            let m = warm.metrics_for(pass);
            prop_assert_eq!((m.invocations, m.reused), (0, 1));
        }
        let loops = pa.ctx.tree.loops.len() as u64;
        for pass in [PassId::Classify, PassId::Deps] {
            let m = warm.metrics_for(pass);
            prop_assert_eq!(m.invocations, 0);
            prop_assert!(m.reused >= loops);
        }
        // The expensive interprocedural passes are persisted too: the warm
        // run invokes summarize and liveness exactly zero times.
        for pass in [PassId::Summarize, PassId::Liveness] {
            prop_assert_eq!(warm.metrics_for(pass).invocations, 0);
        }
        // And the warm store's facts are bit-identical on the wire: re-
        // exporting and re-encoding reproduces the original snapshot bytes.
        let warm_snap = Snapshot::new(warm.export());
        prop_assert_eq!(&warm_snap.encode(), &bytes);

        // Invalidate N distinct loop classifications; re-demanding runs the
        // classify pass exactly N times — no more, no less.
        let doomed: BTreeSet<_> = kill
            .iter()
            .map(|ix| pa.ctx.tree.loops[ix % pa.ctx.tree.loops.len()].stmt)
            .collect();
        for stmt in &doomed {
            warm.invalidate(FactKey::new(PassId::Classify, Scope::Loop(*stmt)));
        }
        let before = warm.metrics_for(PassId::Classify).invocations;
        let (re_pa, _) = Parallelizer::analyze_in(&program, config, &opts, None, &warm);
        let after = warm.metrics_for(PassId::Classify).invocations;
        prop_assert_eq!(after - before, doomed.len() as u64);
        prop_assert_eq!(&cold, &fingerprint(&re_pa));
    }
}
