//! Property: the warm path derives nothing twice and still lands on the
//! cold answer.  Over seeded multi-procedure `minif_gen` programs, random
//! assertion sets and random one-procedure edits:
//!
//! 1. a re-analysis on resident content keys
//!    ([`ProgramAnalysis::reanalyze`]) equals `analyze_in` on a fresh store
//!    — verdicts, warnings, epoch hash, and the input hash of every fact;
//! 2. after a reload (the edited program analyzed through the same store),
//!    every loop's carried-dependence table equals a fresh store's;
//! 3. the `Deps` pass runs during that reload exactly once per loop of a
//!    procedure whose content key moved;
//! 4. `expected_fact_hashes` agrees with the store on every `Deps` fact.

use proptest::prelude::*;
use std::collections::BTreeMap;
use suif_analysis::deps::carried_deps_cached;
use suif_analysis::{
    Assertion, FactKey, FactStore, ParallelizeConfig, Parallelizer, PassId, ProgramAnalysis,
    ScheduleOptions,
};

/// One procedure `g<k>` per seed — the body of that seed's `minif_gen`
/// program — called in order by a loop-free `main`.
fn program_src(seeds: &[u64]) -> String {
    let mut src = format!("program warm\nconst n = {}\n", minif_gen::N);
    for (k, &seed) in seeds.iter().enumerate() {
        let generated = minif_gen::source_for_seed(seed);
        let (_, body) = generated
            .split_once("proc main() {")
            .expect("a generated program has one main");
        src.push_str(&format!("proc g{k}() {{{body}"));
    }
    src.push_str("proc main() {\n");
    for k in 0..seeds.len() {
        src.push_str(&format!(" call g{k}()\n"));
    }
    src.push_str("}\n");
    src
}

fn parse(src: &str) -> suif_ir::Program {
    suif_ir::parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

fn analyze_in<'p>(
    program: &'p suif_ir::Program,
    config: ParallelizeConfig,
    store: &FactStore,
) -> ProgramAnalysis<'p> {
    Parallelizer::analyze_in(program, config, &ScheduleOptions::default(), None, store).0
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

/// Input hash of every valid fact in `store`.
fn fact_hashes(store: &FactStore) -> BTreeMap<FactKey, u128> {
    store
        .export()
        .into_iter()
        .map(|f| (f.key, f.hash))
        .collect()
}

/// One assertion per pick: a loop, a variable (the last name resolves to
/// nothing and warns) and a kind.
fn assertions(pa: &ProgramAnalysis<'_>, picks: &[(usize, usize, bool)]) -> Vec<Assertion> {
    const VARS: [&str; 7] = ["a0", "a1", "a2", "s0", "s1", "s2", "nosuch"];
    let loops = &pa.ctx.tree.loops;
    picks
        .iter()
        .map(|&(l, v, independent)| {
            let loop_name = loops[l % loops.len()].name.clone();
            let var = VARS[v % VARS.len()].to_string();
            if independent {
                Assertion::Independent { loop_name, var }
            } else {
                Assertion::Privatizable { loop_name, var }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reanalysis_on_resident_keys_matches_a_fresh_store(
        seeds in prop::collection::vec(0u64..10_000, 1..4),
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..64, 0usize..7, 0u8..2), 0..4),
            1..4,
        ),
    ) {
        let program = parse(&program_src(&seeds));
        let store = FactStore::new();
        let mut pa = analyze_in(&program, ParallelizeConfig::default(), &store);
        for picks in &rounds {
            let picks: Vec<_> = picks.iter().map(|&(l, v, k)| (l, v, k == 1)).collect();
            let config = ParallelizeConfig {
                assertions: assertions(&pa, &picks),
                ..Default::default()
            };
            let (warm, _) = pa.reanalyze(config.clone(), &store);
            let fresh_store = FactStore::new();
            let fresh = analyze_in(&program, config.clone(), &fresh_store);

            prop_assert_eq!(fingerprint(&warm), fingerprint(&fresh));
            prop_assert_eq!(&warm.warnings, &fresh.warnings);
            prop_assert_eq!(warm.epoch_hash, fresh.epoch_hash);
            prop_assert_eq!(&*warm.keys, &*fresh.keys);
            // Every fact the fresh analysis holds, the resident store holds
            // under the same input hash, and so does the validator.
            let resident = fact_hashes(&store);
            let expected = Parallelizer::expected_fact_hashes(&program, &config, &[]);
            for (key, hash) in fact_hashes(&fresh_store) {
                prop_assert_eq!(resident.get(&key), Some(&hash), "{:?}", key);
                prop_assert_eq!(expected.get(&key), Some(&hash), "{:?}", key);
            }
            pa = warm;
        }
    }

    #[test]
    fn reload_recomputes_exactly_the_moved_loops_tables(
        seeds in prop::collection::vec(0u64..10_000, 2..5),
        edit_at in 0usize..8,
        new_seed in 10_000u64..20_000,
    ) {
        let mut edited = seeds.clone();
        edited[edit_at % seeds.len()] = new_seed;
        let (base, next) = (parse(&program_src(&seeds)), parse(&program_src(&edited)));
        let config = ParallelizeConfig::default;

        let store = FactStore::new();
        let old = analyze_in(&base, config(), &store);
        let deps_before = store.metrics_for(PassId::Deps).invocations;
        let pa = analyze_in(&next, config(), &store);
        let ran = store.metrics_for(PassId::Deps).invocations - deps_before;
        let moved = pa
            .ctx
            .tree
            .loops
            .iter()
            .filter(|li| old.keys.procs.get(&li.proc) != pa.keys.procs.get(&li.proc))
            .count() as u64;
        prop_assert_eq!(ran, moved, "Deps runs != loops of moved procedures");

        let fresh_store = FactStore::new();
        let fresh = analyze_in(&next, config(), &fresh_store);
        prop_assert_eq!(fingerprint(&pa), fingerprint(&fresh));
        for li in &pa.ctx.tree.loops {
            prop_assert_eq!(
                carried_deps_cached(&pa, &store, li.stmt),
                carried_deps_cached(&fresh, &fresh_store, li.stmt),
                "{}", &li.name
            );
        }
        prop_assert_eq!(
            store.metrics_for(PassId::Deps).invocations - deps_before,
            moved,
            "reading the tables computed one"
        );

        let resident = fact_hashes(&store);
        let expected = Parallelizer::expected_fact_hashes(&next, &config(), &[]);
        let mut tables = 0;
        for (key, hash) in expected.iter().filter(|(k, _)| k.pass == PassId::Deps) {
            prop_assert_eq!(resident.get(key), Some(hash), "{:?}", key);
            tables += 1;
        }
        prop_assert_eq!(tables, pa.ctx.tree.loops.len());
    }
}
