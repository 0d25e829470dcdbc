//! Property: a byte-budgeted [`FactStore`] is observationally identical to
//! an unbounded one.  Filling past budget evicts cold facts (the `evicted`
//! counters account for every one), but every re-demand — resident or
//! recomputed — returns the same verdicts, warnings, and dependency edges
//! the unbounded store serves.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use suif_analysis::{
    ExecutionFact, ExportedFact, FactKey, FactStore, ParallelizeConfig, Parallelizer, PassId,
    ProgramAnalysis, ScheduleOptions, Scope, SharedFactTier,
};

/// `n` leaf procedures (elementwise when even, a carried recurrence when
/// odd) called in sequence by main — enough distinct loops to overflow a
/// small byte budget.
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
    fn bounded_store_matches_unbounded(
        consts in prop::collection::vec(-4i64..5, 2..7),
        budget_facts in 1usize..6,
    ) {
        let src = gen_src(&consts);
        let program = suif_ir::parse_program(&src).unwrap();
        let config = ParallelizeConfig::default();
        let opts = ScheduleOptions::default();

        let unbounded = FactStore::new();
        let (base_pa, _) =
            Parallelizer::analyze_in(&program, config.clone(), &opts, None, &unbounded);
        let base = fingerprint(&base_pa);
        prop_assert_eq!(unbounded.byte_stats().evicted, 0);

        // A budget far below one analysis worth of facts: the fill itself
        // evicts, and later re-demands recompute what the sweep dropped.
        let bounded = FactStore::new();
        bounded.set_budget(Some(64 * budget_facts));
        let (pa, _) = Parallelizer::analyze_in(&program, config.clone(), &opts, None, &bounded);
        prop_assert_eq!(&base, &fingerprint(&pa));
        prop_assert_eq!(&base_pa.warnings, &pa.warnings);

        let bs = bounded.byte_stats();
        prop_assert!(bs.evicted > 0, "budget this small must evict: {bs:?}");
        prop_assert!(
            bs.resident_bytes <= 64 * budget_facts as u64 + 8192,
            "resident near budget (one oversize fact may straddle it): {bs:?}"
        );

        // Re-analyze over the evicted store: bit-identical again, and the
        // eviction counters only ever grow (monotone accounting).
        let (re_pa, _) = Parallelizer::analyze_in(&program, config, &opts, None, &bounded);
        prop_assert_eq!(&base, &fingerprint(&re_pa));
        let bs2 = bounded.byte_stats();
        prop_assert!(bs2.evicted >= bs.evicted);
        prop_assert_eq!(
            bs2.evicted_bytes >= bs.evicted_bytes, true,
            "evicted byte counter is monotone"
        );
    }

    /// Tier fairness invariants under arbitrary multi-session publish
    /// sequences: the byte budget holds after every single publish, the
    /// per-session ledger always reconciles with resident bytes, and the
    /// second-chance fairness pass never fires with fewer than two
    /// bytes-holding sessions.
    #[test]
    fn tier_budget_and_session_ledger_hold_under_any_publish_order(
        publishes in prop::collection::vec((1u64..5, 16usize..200), 1..80),
        budget_units in 2usize..8,
    ) {
        let budget = 256 * budget_units;
        let tier = SharedFactTier::with_budget(Some(budget));
        let mut owners_seen = std::collections::BTreeSet::new();
        for (i, (owner, bytes)) in publishes.iter().enumerate() {
            owners_seen.insert(*owner);
            tier.publish_owned(
                *owner,
                ExportedFact {
                    key: FactKey::new(PassId::Classify, Scope::Loop(suif_ir::StmtId(i as u32))),
                    hash: i as u128, // distinct hashes: every publish is a new fact
                    value_hash: 0,
                    deps: vec![],
                    bytes: *bytes,
                    value: Arc::new(ExecutionFact::default()).into(),
                },
            );

            // Budget invariant after EVERY publish, not just at the end.
            let s = tier.stats();
            prop_assert!(
                s.resident_bytes <= budget as u64,
                "budget breached after publish {i}: {} > {budget}",
                s.resident_bytes
            );
            // The per-session ledger reconciles with the resident total.
            let ledger: u64 = tier.session_bytes().iter().map(|(_, b)| b).sum();
            prop_assert_eq!(ledger, s.resident_bytes, "owner ledger drifted at publish {i}");
        }

        let s = tier.stats();
        if owners_seen.len() < 2 {
            prop_assert_eq!(
                s.fairness_spared, 0,
                "fairness must not protect a sole tenant"
            );
        }
        // Accounting closes: everything published was either evicted or is
        // still resident.
        let total: u64 = publishes.iter().map(|(_, b)| *b as u64).sum();
        prop_assert_eq!(s.resident_bytes + s.evicted_bytes, total);
    }
}
