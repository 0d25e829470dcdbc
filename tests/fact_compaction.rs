//! The compaction oracle: `ProcFlow::compact` and `LivenessResult::compact`
//! change a resident fact's form, never its content.
//!
//! For every `Summarize` and `Liveness` value of the Ch. 4 applications, the
//! 13-application suite and 200 generated programs:
//!
//! * the value as produced is compact: its section sets use exactly one
//!   storage per distinct content;
//! * an *exploded* copy — every set in its own allocation, the form facts had
//!   before compaction existed — encodes to the same snapshot bytes, and
//!   still does after `compact()`, which leaves it compact too;
//! * the value read back from `facts.snap` bytes is compact as well, so a
//!   warm-started daemon holds the same form as a cold one.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use suif_analysis::reduction::{RedEntry, RedSummary};
use suif_analysis::summarize::NodeSummary;
use suif_analysis::{
    ExportedFact, FactStore, FactValue, LivenessResult, ParallelizeConfig, Parallelizer, PassId,
    ProcFlow, ScheduleOptions, Snapshot,
};
use suif_benchmarks::{apps, ch4_apps, ch6_apps, Scale};
use suif_poly::{AccessSummary, PolySet, Section, SectionSummary};
use suif_server::generated_entries;

fn node_sets<'a>(n: &'a NodeSummary, out: &mut Vec<&'a PolySet>) {
    acc_sets(&n.acc, out);
    for (_, e) in n.red.iter() {
        out.extend([&e.red.set, &e.nonred.set]);
    }
}

fn acc_sets<'a>(a: &'a AccessSummary, out: &mut Vec<&'a PolySet>) {
    for (_, s) in a.iter() {
        out.extend([&s.read.set, &s.exposed.set, &s.write.set, &s.must_write.set]);
    }
}

/// A fact value as its concrete type.
fn concrete<T: 'static>(value: &dyn FactValue) -> &T {
    (value as &dyn Any)
        .downcast_ref()
        .expect("the pass's output type")
}

/// Every section set a `Summarize` or `Liveness` value holds.
fn sets_of(pass: PassId, value: &dyn FactValue) -> Vec<&PolySet> {
    let mut out = Vec::new();
    match pass {
        PassId::Summarize => {
            let f = concrete::<ProcFlow>(value);
            node_sets(&f.summary, &mut out);
            f.stmt_summary.values().for_each(|n| node_sets(n, &mut out));
            f.loop_iter
                .values()
                .for_each(|l| node_sets(&l.sum, &mut out));
            f.loop_closed_plain
                .values()
                .for_each(|a| acc_sets(a, &mut out));
        }
        _ => {
            let l = concrete::<LivenessResult>(value);
            l.after_full
                .iter()
                .flat_map(|m| m.values())
                .for_each(|a| acc_sets(a, &mut out));
        }
    }
    out
}

/// `(storages, distinct contents)` over the value's non-empty sets.
fn storage_census(sets: &[&PolySet]) -> (usize, usize) {
    let mut by_addr = HashMap::new();
    for s in sets {
        if let Some(addr) = s.storage_addr() {
            by_addr.entry(addr).or_insert_with(|| s.disjuncts());
        }
    }
    let contents: HashSet<String> = by_addr.values().map(|d| format!("{d:?}")).collect();
    (by_addr.len(), contents.len())
}

fn explode_section(s: &Section) -> Section {
    Section {
        set: PolySet::from_parts(s.set.disjuncts().to_vec(), s.set.set_approximate()),
        ..s.clone()
    }
}

fn explode_acc(a: &AccessSummary) -> AccessSummary {
    let mut out = AccessSummary::empty();
    for (_, s) in a.iter() {
        out.insert(SectionSummary {
            read: explode_section(&s.read),
            exposed: explode_section(&s.exposed),
            write: explode_section(&s.write),
            must_write: explode_section(&s.must_write),
        });
    }
    out
}

fn explode_node(n: &NodeSummary) -> NodeSummary {
    let mut red = RedSummary::empty();
    for (id, e) in n.red.iter() {
        let entry = RedEntry {
            op: e.op,
            red: explode_section(&e.red),
            nonred: explode_section(&e.nonred),
        };
        red.insert_entry(id, entry);
    }
    NodeSummary {
        acc: explode_acc(&n.acc),
        red,
    }
}

/// The value with every set in a private allocation; `compact` turns the
/// copy back into the compact form.
fn exploded(pass: PassId, value: &dyn FactValue, compact: bool) -> Arc<dyn FactValue> {
    match pass {
        PassId::Summarize => {
            let f = concrete::<ProcFlow>(value);
            let mut x = ProcFlow {
                summary: Arc::new(explode_node(&f.summary)),
                fresh: f.fresh,
                stmt_summary: f
                    .stmt_summary
                    .iter()
                    .map(|(k, n)| (*k, Arc::new(explode_node(n))))
                    .collect(),
                loop_iter: f
                    .loop_iter
                    .iter()
                    .map(|(k, l)| {
                        let mut it = (**l).clone();
                        it.sum = explode_node(&l.sum);
                        (*k, Arc::new(it))
                    })
                    .collect(),
                loop_closed_plain: f
                    .loop_closed_plain
                    .iter()
                    .map(|(k, a)| (*k, Arc::new(explode_acc(a))))
                    .collect(),
            };
            if compact {
                x.compact();
            }
            Arc::new(x)
        }
        _ => {
            let l = concrete::<LivenessResult>(value);
            let mut x = LivenessResult {
                mode: l.mode,
                written: l.written.clone(),
                live_after_write: l.live_after_write.clone(),
                after_full: l
                    .after_full
                    .as_ref()
                    .map(|m| m.iter().map(|(r, a)| (*r, explode_acc(a))).collect()),
                elapsed: l.elapsed,
            };
            if compact {
                x.compact();
            }
            Arc::new(x)
        }
    }
}

/// The snapshot bytes of one fact with `value` in place of its own.
fn encoded(f: &ExportedFact, value: Arc<dyn FactValue>) -> Vec<u8> {
    Snapshot::new(vec![ExportedFact {
        key: f.key,
        hash: f.hash,
        deps: f.deps.clone(),
        bytes: f.bytes,
        value,
    }])
    .encode()
}

/// Analyze `sources` and hold every compacted value to the oracle; returns
/// how many values were checked and how many storages compaction saved on
/// their exploded copies.
fn check(sources: &[(String, String)]) -> (usize, usize) {
    let mut checked = 0;
    let mut saved = 0;
    for (name, source) in sources {
        let program = suif_ir::parse_program(source).expect("parses");
        let store = FactStore::new();
        Parallelizer::analyze_in(
            &program,
            ParallelizeConfig::default(),
            &ScheduleOptions::default(),
            None,
            &store,
        );
        let mut facts: Vec<ExportedFact> = store
            .export()
            .into_iter()
            .filter(|f| matches!(f.key.pass, PassId::Summarize | PassId::Liveness))
            .collect();
        facts.sort_by_key(|f| f.key);
        let decoded = Snapshot::decode(&Snapshot::new(facts.clone()).encode()).expect("decodes");
        assert_eq!(decoded.undecodable, 0, "{name}");
        assert_eq!(decoded.facts.len(), facts.len(), "{name}");
        for (f, back) in facts.iter().zip(&decoded.facts) {
            let pass = f.key.pass;
            let what = format!("{name}: {pass:?} fact {:?}", f.key.scope);
            let bytes = encoded(f, f.value.clone());

            let (storages, distinct) = storage_census(&sets_of(pass, &*f.value));
            assert_eq!(storages, distinct, "{what}: produced value is not compact");

            let loose = exploded(pass, &*f.value, false);
            let loose_sets = sets_of(pass, &*loose);
            let (loose_storages, _) = storage_census(&loose_sets);
            let nonempty = loose_sets.iter().filter(|s| !s.is_empty()).count();
            assert_eq!(loose_storages, nonempty, "{what}: exploded copy shares");
            assert_eq!(encoded(f, loose), bytes, "{what}: exploded bytes moved");

            let packed = exploded(pass, &*f.value, true);
            let (storages, distinct) = storage_census(&sets_of(pass, &*packed));
            assert_eq!(storages, distinct, "{what}: compact() left duplicates");
            assert_eq!(encoded(f, packed), bytes, "{what}: compact() moved bytes");
            saved += loose_storages - storages;

            assert_eq!(back.key, f.key, "{what}");
            let (storages, distinct) = storage_census(&sets_of(pass, &*back.value));
            assert_eq!(storages, distinct, "{what}: decoded value is not compact");
            assert_eq!(
                encoded(f, back.value.clone()),
                bytes,
                "{what}: decode moved bytes"
            );
            checked += 1;
        }
    }
    (checked, saved)
}

fn bench_sources(progs: Vec<suif_benchmarks::BenchProgram>) -> Vec<(String, String)> {
    progs
        .into_iter()
        .map(|b| (b.name.to_string(), b.source))
        .collect()
}

#[test]
fn ch4_applications_compact_without_moving_a_byte() {
    let (checked, saved) = check(&bench_sources(ch4_apps(Scale::Test)));
    assert!(checked > 4, "only {checked} values checked");
    assert!(saved > 0, "compaction shared nothing");
}

#[test]
fn thirteen_application_suite_compacts_without_moving_a_byte() {
    let mut suite = ch4_apps(Scale::Test);
    suite.push(apps::flo88(Scale::Test, true));
    suite.push(apps::wave5(Scale::Test));
    suite.push(apps::hydro2d(Scale::Test));
    suite.extend(ch6_apps(Scale::Test));
    assert_eq!(suite.len(), 13);
    let (checked, saved) = check(&bench_sources(suite));
    assert!(checked > 13, "only {checked} values checked");
    assert!(saved > 0, "compaction shared nothing");
}

#[test]
fn generated_programs_compact_without_moving_a_byte() {
    let sources: Vec<(String, String)> = generated_entries(200, 0)
        .into_iter()
        .map(|e| (e.name, e.source))
        .collect();
    let (checked, saved) = check(&sources);
    assert!(checked >= 400, "only {checked} values checked");
    assert!(saved > 0, "compaction shared nothing");
}
