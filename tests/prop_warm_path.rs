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
//!    procedure whose content key or summary value moved;
//! 4. `expected_fact_hashes`, over the store's recorded value hashes,
//!    agrees with the store on every `Deps` fact;
//! 5. after a one-procedure edit — a literal (many of them
//!    value-preserving), an operator, or an idle loop's index flipped
//!    between a local and a scalar formal — every fact equals a fresh
//!    store's, and each pass runs exactly over the value-changed cone:
//!    early cutoff stops where values stop changing.  The four-procedure
//!    probe pins the counts of a data edit.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use suif_analysis::deps::carried_deps_cached;
use suif_analysis::{
    recorded_values, Assertion, FactKey, FactStore, ParallelizeConfig, Parallelizer, PassId,
    ProgramAnalysis, ScheduleOptions, Scope,
};

/// One procedure `g<k>` per seed — the body of that seed's `minif_gen`
/// program, its three arrays made parameters, plus a scalar formal `m` and
/// an [`IDLE_LOOP`] — called in order, inside one loop, by a `main` that
/// owns the arrays: `main`'s summary, its loop's table and its verdict all
/// read the callees' summaries.  A second loop in `main` is bounded by the
/// scalar passed as `m`, so its sections read whether a callee may modify
/// `m`.
fn program_src(seeds: &[u64]) -> String {
    const ARRAYS: &str = "\n  real a0[n], a1[n], a2[n]\n";
    let mut src = format!("program warm\nconst n = {}\n", minif_gen::N);
    for (k, &seed) in seeds.iter().enumerate() {
        let generated = minif_gen::source_for_seed(seed);
        let (_, body) = generated
            .split_once("proc main() {")
            .expect("a generated program has one main");
        let body = body
            .strip_prefix(ARRAYS)
            .expect("a generated main declares its arrays first");
        let body = body.replacen(INIT_LOOP, &format!("{IDLE_LOOP}{INIT_LOOP}"), 1);
        src.push_str(&format!(
            "proc g{k}(real a0[*], real a1[*], real a2[*], int m) {{\n{body}"
        ));
    }
    src.push_str(
        "proc main() {\n real a0[n], a1[n], a2[n]\n int it, nn\n nn = 4\n do 1 it = 1, 2 {\n",
    );
    for k in 0..seeds.len() {
        src.push_str(&format!("  call g{k}(a0, a1, a2, nn)\n"));
    }
    src.push_str(" }\n do 2 it = 1, nn {\n  a0[it] = 0.0\n }\n}\n");
    src
}

/// The byte range of procedure `proc_name` in `src`.
fn proc_span(src: &str, proc_name: &str) -> Option<(usize, usize)> {
    let start = src.find(&format!("proc {proc_name}("))?;
    let end = src[start + 1..]
        .find("\nproc ")
        .map_or(src.len(), |e| start + 1 + e);
    Some((start, end))
}

/// The loop every generated body opens with.
const INIT_LOOP: &str = "  do 1 i = 1, n {\n    a0[i] = sin(float(i) * 0.7)\n    a1[i] = cos(float(i) * 0.3)\n    a2[i] = float(i) * 0.1\n  }\n";

/// A loop whose body never reads its index: moving the index from the
/// local `i` onto the formal `m` leaves the procedure's summary value alone
/// but makes `m` a modified formal, which only the callers' walks see.
const IDLE_LOOP: &str = "  do 9 i = 1, 2 {\n    a2[1] = 0.0\n  }\n";

/// `src` with the idle loop of `proc_name` indexed by `m` instead of `i`.
fn idle_on_formal(src: &str, proc_name: &str) -> Option<String> {
    let (start, end) = proc_span(src, proc_name)?;
    let at = start + src[start..end].find(IDLE_LOOP)?;
    let on_m = IDLE_LOOP.replace(" i = ", " m = ");
    Some(format!(
        "{}{on_m}{}",
        &src[..at],
        &src[at + IDLE_LOOP.len()..]
    ))
}

/// `src` with the `nth` ` + ` of procedure `proc_name` whose right operand
/// is an expression (not a subscript offset) turned into ` - `.
fn flip_operator(src: &str, proc_name: &str, nth: usize) -> Option<String> {
    let (start, end) = proc_span(src, proc_name)?;
    let sites: Vec<usize> = src[start..end]
        .match_indices(" + ")
        .map(|(i, _)| start + i)
        .filter(|&i| matches!(src.as_bytes()[i + 3], b'(' | b'a' | b's' | b'-'))
        .collect();
    let &at = sites.get(nth % sites.len().max(1))?;
    Some(format!("{} - {}", &src[..at], &src[at + 3..]))
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

/// Input and value hash of every valid fact in `store`.
fn facts(store: &FactStore) -> BTreeMap<FactKey, (u128, u128)> {
    store
        .export()
        .into_iter()
        .map(|f| (f.key, (f.hash, f.value_hash)))
        .collect()
}

/// `src` with its `nth` numeric literal inside procedure `proc_name`
/// changed (loop labels excluded): a real literal's last digit moves, an
/// integer grows by one.  `None` when the procedure has no such literal.
fn edit_literal(src: &str, proc_name: &str, nth: usize) -> Option<String> {
    let (start, end) = proc_span(src, proc_name)?;
    let bytes = src.as_bytes();
    let mut spans = Vec::new();
    let mut i = start + 5 + proc_name.len();
    while i < end {
        let after_ident = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        if bytes[i].is_ascii_digit() && !after_ident && !src[..i].ends_with("do ") {
            let j = i + src[i..end]
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(end - i);
            spans.push((i, j));
            i = j;
        } else {
            i += 1;
        }
    }
    let &(i, j) = spans.get(nth % spans.len().max(1))?;
    let lit = &src[i..j];
    let new = if lit.contains('.') {
        let last = lit.as_bytes()[lit.len() - 1] - b'0';
        format!("{}{}", &lit[..lit.len() - 1], (last + 1) % 10)
    } else {
        (lit.parse::<u64>().ok()? + 1).to_string()
    };
    Some(format!("{}{new}{}", &src[..i], &src[j..]))
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
            let recorded = recorded_values(&store.export());
            let expected = Parallelizer::expected_fact_hashes(&program, &config, &[], &recorded);
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
            .filter(|li| {
                old.keys.procs.get(&li.proc) != pa.keys.procs.get(&li.proc)
                    || old.summaries.get(&li.proc) != pa.summaries.get(&li.proc)
            })
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
        let recorded = recorded_values(&store.export());
        let expected = Parallelizer::expected_fact_hashes(&next, &config(), &[], &recorded);
        let mut tables = 0;
        for (key, hash) in expected.iter().filter(|(k, _)| k.pass == PassId::Deps) {
            prop_assert_eq!(resident.get(key), Some(hash), "{:?}", key);
            tables += 1;
        }
        prop_assert_eq!(tables, pa.ctx.tree.loops.len());
    }

    #[test]
    fn a_one_procedure_edit_recomputes_exactly_the_value_changed_cone(
        seeds in prop::collection::vec(0u64..10_000, 2..5),
        edit_at in 0usize..8,
        nth in 0usize..64,
        kind in 0u8..4,
    ) {
        let mut src = program_src(&seeds);
        let target = format!("g{}", edit_at % seeds.len());
        // A generated body always holds a literal and the idle loop; an
        // expression `+` is optional (a literal edit stands in).
        let literal = |src: &str| edit_literal(src, &target, nth).expect("a literal to edit");
        let on_formal = |src: &str| idle_on_formal(src, &target).expect("an idle loop");
        let edited = match kind {
            0 => literal(&src),
            1 => on_formal(&src),
            2 => {
                let flipped = on_formal(&src);
                std::mem::replace(&mut src, flipped)
            }
            _ => flip_operator(&src, &target, nth).unwrap_or_else(|| literal(&src)),
        };
        let (base, next) = (parse(&src), parse(&edited));
        let config = ParallelizeConfig::default;

        let store = FactStore::new();
        let old = analyze_in(&base, config(), &store);
        let before = facts(&store);
        let runs_before = store.metrics();
        let pa = analyze_in(&next, config(), &store);
        let runs = |pass| {
            store.metrics_for(pass).invocations
                - runs_before.get(&pass).map_or(0, |m| m.invocations)
        };
        let after = facts(&store);

        // Every fact and verdict equals a fresh store's.
        let fresh_store = FactStore::new();
        let fresh = analyze_in(&next, config(), &fresh_store);
        prop_assert_eq!(fingerprint(&pa), fingerprint(&fresh));
        prop_assert_eq!(&after, &facts(&fresh_store));

        // The value-changed cone, from the content keys and the summaries'
        // value hashes alone.
        let content_moved = |p: &suif_ir::ProcId| old.keys.procs.get(p) != pa.keys.procs.get(p);
        let value_moved = |p: &suif_ir::ProcId| old.summaries.get(p) != pa.summaries.get(p);
        let summarized: HashSet<_> = next
            .procedures
            .iter()
            .map(|p| p.id)
            .filter(|p| {
                content_moved(p)
                    || pa.ctx.cg.callees_of(*p).iter().any(|c| {
                        value_moved(c) || old.keys.interfaces.get(c) != pa.keys.interfaces.get(c)
                    })
            })
            .collect();
        prop_assert_eq!(runs(PassId::Summarize), summarized.len() as u64);
        let liveness_key = FactKey::new(PassId::Liveness, Scope::Program);
        let liveness_moved = before[&liveness_key].1 != after[&liveness_key].1;
        let liveness_ran = old.keys.skeleton != pa.keys.skeleton
            || next.procedures.iter().any(|p| value_moved(&p.id));
        prop_assert_eq!(runs(PassId::Liveness), liveness_ran as u64);
        let loops = &pa.ctx.tree.loops;
        let cone = |li: &&suif_ir::LoopInfo| content_moved(&li.proc) || value_moved(&li.proc);
        let deps = loops.iter().filter(cone).count() as u64;
        prop_assert_eq!(runs(PassId::Deps), deps);
        let classify = if liveness_moved {
            loops.len() as u64
        } else {
            loops.iter().filter(|li| cone(li) || summarized.contains(&li.proc)).count() as u64
        };
        prop_assert_eq!(runs(PassId::Classify), classify);
    }
}

/// The four-procedure probe: `leaf`, `other`, `third` and `main`, one loop
/// each, and a reload that changes one constant factor in `leaf`'s loop
/// body.  The edit changes no section, so the walk stops at `leaf`: one
/// summary, no liveness, and `leaf`'s own loop's table and verdict only.
#[test]
fn a_data_edit_in_one_leaf_reruns_that_leaf_alone() {
    let src = "program probe
proc leaf(real q[*]) {
  int i
  do 1 i = 1, 16 {
    q[i] = q[i] * 0.5
  }
}
proc other(real q[*]) {
  int i
  do 2 i = 2, 16 {
    q[i] = q[i - 1] + 1.0
  }
}
proc third(real q[*]) {
  int i
  do 3 i = 1, 16 {
    q[i] = q[i] + 2.0
  }
}
proc main() {
  real b[16]
  int i
  do 4 i = 1, 16 {
    b[i] = i
  }
  call leaf(b)
  call other(b)
  call third(b)
  print b[3]
}
";
    let base = parse(src);
    let next = parse(&src.replace("q[i] * 0.5", "q[i] * 0.75"));
    let store = FactStore::new();
    analyze_in(&base, ParallelizeConfig::default(), &store);
    let before = store.metrics();
    let pa = analyze_in(&next, ParallelizeConfig::default(), &store);
    let runs = |pass| store.metrics_for(pass).invocations - before[&pass].invocations;
    assert_eq!(runs(PassId::Summarize), 1);
    assert_eq!(runs(PassId::Liveness), 0);
    assert_eq!(runs(PassId::Deps), 1);
    assert_eq!(runs(PassId::Classify), 1);
    let leaf_loop = FactKey::new(PassId::Classify, Scope::Loop(pa.ctx.tree.loops[0].stmt));
    assert_eq!(pa.ctx.tree.loops[0].name, "leaf/1");
    let fresh = FactStore::new();
    analyze_in(&next, ParallelizeConfig::default(), &fresh);
    assert_eq!(facts(&store), facts(&fresh));
    assert!(facts(&store).contains_key(&leaf_loop));
}

/// A leaf's `do` index flips from a local to a scalar formal.  The
/// variables and the leaf's summary keep their values, but the formal is
/// now modified, so the caller's copy-out kills `n` and its loop's must-write
/// of `a[1:5]` must go: the caller reads `modified_params` through the
/// leaf's interface, not through its summary.
#[test]
fn flipping_a_leaf_do_index_onto_a_formal_resummarizes_the_caller() {
    let src = "program flip
proc f(int q, real x[*]) {
  int k
  do 1 k = 1, 2 {
    x[1] = 0
  }
}
proc main() {
  real a[8]
  int n, i
  n = 5
  call f(n, a)
  do 2 i = 1, n {
    a[i] = 0
  }
  print a[1]
}
";
    let edited = src.replace("do 1 k = 1, 2", "do 1 q = 1, 2");
    for (from, to) in [(src, edited.as_str()), (edited.as_str(), src)] {
        let (base, next) = (parse(from), parse(to));
        let store = FactStore::new();
        let old = analyze_in(&base, ParallelizeConfig::default(), &store);
        let pa = analyze_in(&next, ParallelizeConfig::default(), &store);
        let fresh_store = FactStore::new();
        let fresh = analyze_in(&next, ParallelizeConfig::default(), &fresh_store);
        assert_eq!(fingerprint(&pa), fingerprint(&fresh));
        assert_eq!(facts(&store), facts(&fresh_store));
        let recorded = recorded_values(&store.export());
        let expected = Parallelizer::expected_fact_hashes(
            &next,
            &ParallelizeConfig::default(),
            &[],
            &recorded,
        );
        for (key, hash) in fact_hashes(&fresh_store) {
            assert_eq!(expected.get(&key), Some(&hash), "{key:?}");
        }
        let f = next.procedures[0].id;
        assert_ne!(old.keys.interfaces[&f], pa.keys.interfaces[&f]);
    }
}
