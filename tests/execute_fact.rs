//! The instrumented run is a fact.  Two properties make that safe:
//!
//! * **the hash is sound** — two opens whose `Execute` input hashes are
//!   equal observe the same run: the same profile, the same dynamic
//!   dependences, the same `ops` (or the same error) — every field the fact
//!   holds but the wall clock.  Printed output is not one of them: no fact,
//!   report or reply carries it, and the hash masks the literals only a
//!   `print` or a data store reads.  Checked over the 13 suite programs,
//!   100 generated programs, a program that `read`s, and single-site
//!   mutants of each: whenever a mutant's run differs from its base in any
//!   of those, its hash differs.  A sweep over every numeric literal of the
//!   suite and 300 generated programs runs each mutant that keeps its
//!   base's hash and finds its fact equal to the base's;
//! * **reuse is invisible** — an open served from the store, from a shared
//!   tier or from a decoded snapshot builds the very reports the producing
//!   open built, wall-clock included, and interprets nothing.
//!
//! A run that ends in a runtime error is never a fact.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use suif_analysis::execution::{execute_hash_of, skeleton_hash, ExecutionFact, EXECUTE_KEY};
use suif_analysis::snapshot::merge_image;
use suif_analysis::{
    AnalyzeStats, FactStore, ParallelizeConfig, Parallelizer, PassId, ScheduleOptions,
    SharedFactTier, Snapshot,
};
use suif_benchmarks::{apps, ch4_apps, ch6_apps, Scale};
use suif_dynamic::machine::{Machine, NoHooks};
use suif_dynamic::{DynDepReport, ProfileReport};
use suif_explorer::explorer::execute;
use suif_explorer::{Explorer, ExplorerError};
use suif_ir::{Program, StmtId, VarId};
use suif_server::json::Json;
use suif_server::{Daemon, ServiceOptions, ServiceState, SNAPSHOT_FILE, SNAPSHOT_LOG_FILE};

const GENERATED: u64 = 100;

/// A program whose run depends on what it reads.
const READER: &str = "program reader
proc main() {
  real a[16], x, y
  int i
  read x
  read y
  do 1 i = 1, 16 {
    a[i] = x * float(i)
  }
  do 2 i = 2, 16 {
    if y > 0.5 { a[i] = a[i - 1] + 1.0 }
  }
  print a[16], x + y
}
";

/// The bases: `(name, source, input)`.
fn bases() -> Vec<(String, String, Vec<f64>)> {
    let scale = Scale::Test;
    let mut suite = ch4_apps(scale);
    suite.push(apps::flo88(scale, true));
    suite.push(apps::wave5(scale));
    suite.push(apps::hydro2d(scale));
    suite.extend(ch6_apps(scale));
    assert_eq!(suite.len(), 13);
    let mut out: Vec<_> = suite
        .into_iter()
        .map(|b| (b.name.to_string(), b.source, b.input))
        .collect();
    out.extend((0..GENERATED).map(|seed| {
        (
            minif_gen::name_for_seed(seed),
            minif_gen::source_for_seed(seed),
            Vec::new(),
        )
    }));
    out.push(("reader".into(), READER.into(), vec![1.5, 1.0]));
    out
}

fn open<'p>(
    program: &'p Program,
    input: &[f64],
    store: Arc<FactStore>,
) -> Result<(Explorer<'p>, AnalyzeStats), ExplorerError> {
    Explorer::with_store(
        program,
        ParallelizeConfig::default(),
        input.to_vec(),
        &ScheduleOptions::default(),
        None,
        store,
    )
}

type LoopFields = (u64, u64, u64, u64, BTreeSet<StmtId>);

/// Every field of a profile, in a comparable shape.
fn profile_fields(p: &ProfileReport) -> (u64, u64, BTreeMap<StmtId, LoopFields>) {
    let loops = p.profiles.iter().map(|(&s, l)| {
        let ancestors = l.dynamic_ancestors.iter().copied().collect();
        let fields = (
            l.invocations,
            l.iterations,
            l.total_ops,
            l.total_nanos,
            ancestors,
        );
        (s, fields)
    });
    (p.total_ops, p.total_nanos, loops.collect())
}

fn dyndep_fields(d: &DynDepReport) -> BTreeMap<StmtId, BTreeMap<VarId, u8>> {
    d.deps
        .iter()
        .map(|(&s, vars)| (s, vars.iter().map(|(&v, &k)| (v, k)).collect()))
        .collect()
}

// ----- hash soundness ----------------------------------------------------

/// A loop's profile, the wall clock left out.
type LoopCounts = (u64, u64, u64, BTreeSet<StmtId>);

/// What a run's fact holds, the wall clock left out, or the error the run
/// ended in.
#[derive(Debug, PartialEq)]
enum Observed {
    Ran {
        profile: (u64, BTreeMap<StmtId, LoopCounts>),
        carried: BTreeMap<StmtId, BTreeMap<VarId, u8>>,
        ops: u64,
    },
    Failed(String),
}

impl Observed {
    fn of(run: Result<&ExecutionFact, String>) -> Observed {
        let run = match run {
            Ok(run) => run,
            Err(e) => return Observed::Failed(e),
        };
        let loops = run.loops.iter().map(|(&s, l)| {
            let ancestors = l.dynamic_ancestors.clone();
            (s, (l.invocations, l.iterations, l.total_ops, ancestors))
        });
        Observed::Ran {
            profile: (run.profiled_ops, loops.collect()),
            carried: run.carried.clone(),
            ops: run.ops,
        }
    }
}

/// The `Execute` input hash of `(source, input)` and what its run shows;
/// `None` when a mutation left no valid program.
fn observe(source: &str, input: &[f64]) -> Option<(u128, Observed)> {
    let program = suif_ir::parse_program(source).ok()?;
    let config = ParallelizeConfig::default();
    let recorded = Default::default();
    let expected = Parallelizer::expected_fact_hashes(&program, &config, input, &recorded);
    let hash = expected[&EXECUTE_KEY];
    let store = Arc::new(FactStore::new());
    let observed = match open(&program, input, store.clone()) {
        Err(e) => {
            assert!(
                store.export().iter().all(|f| f.key != EXECUTE_KEY),
                "a failed run left a fact"
            );
            Observed::Failed(e.to_string())
        }
        Ok((ex, _)) => {
            let stored = store.export();
            let fact = stored.iter().find(|f| f.key == EXECUTE_KEY);
            let fact = fact.expect("the run is in the store");
            assert_eq!(fact.hash, hash, "pass and validator disagree");
            let mut hooks = NoHooks;
            let mut m = Machine::new(&program, &mut hooks).expect("layout");
            m.set_input(input.to_vec());
            m.run().expect("the instrumented run succeeded");
            assert_eq!(m.ops(), ex.execution.ops);
            let value: Arc<dyn Any + Send + Sync> = fact.value.value().expect("decodes");
            let run = value.downcast::<ExecutionFact>().expect("the run's type");
            Observed::of(Ok(&run))
        }
    };
    Some((hash, observed))
}

/// Rewrite the first line `pick` accepts with what it returns.
fn rewrite_line(source: &str, pick: impl Fn(&str) -> Option<String>) -> Option<String> {
    let mut done = false;
    let lines: Vec<String> = source
        .lines()
        .map(|line| match pick(line).filter(|_| !done) {
            Some(new) => {
                done = true;
                new
            }
            None => line.to_string(),
        })
        .collect();
    done.then(|| lines.join("\n") + "\n")
}

/// The last digit of the first real literal, changed.
fn mutate_literal(source: &str) -> Option<String> {
    let b = source.as_bytes();
    let dot = (1..b.len().saturating_sub(1))
        .find(|&i| b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit())?;
    let last = (dot + 1..b.len())
        .take_while(|&i| b[i].is_ascii_digit())
        .last()?;
    let mut out = b.to_vec();
    out[last] = b'0' + (b[last] - b'0' + 1) % 10;
    String::from_utf8(out).ok()
}

/// The first `do … = 1, …` starts at 2.
fn mutate_loop_bound(source: &str) -> Option<String> {
    rewrite_line(source, |line| {
        (line.trim_start().starts_with("do ") && line.contains(" = 1, "))
            .then(|| line.replacen(" = 1, ", " = 2, ", 1))
    })
}

/// The first declared extent, one element shorter.
fn mutate_extent(source: &str) -> Option<String> {
    let constant = |name: &str| {
        source.lines().find_map(|l| {
            let rest = l.trim().strip_prefix("const ")?;
            let (n, v) = rest.split_once('=')?;
            (n.trim() == name).then(|| v.trim().parse::<i64>().ok())?
        })
    };
    rewrite_line(source, |line| {
        let t = line.trim_start();
        if !(t.starts_with("real ") || t.starts_with("int ") || t.starts_with("common ")) {
            return None;
        }
        let open = line.find('[')?;
        let close = open + line[open..].find(']')?;
        let extent = line[open + 1..close].trim();
        let value = extent.parse::<i64>().ok().or_else(|| constant(extent))?;
        Some(format!("{}{}{}", &line[..=open], value - 1, &line[close..]))
    })
}

/// The first `print` prints twice its first value.
fn mutate_print(source: &str) -> Option<String> {
    rewrite_line(source, |line| {
        line.trim_start()
            .starts_with("print ")
            .then(|| line.replacen("print ", "print 2 * ", 1))
    })
}

#[test]
fn equal_execute_hashes_mean_equal_runs() {
    let mut seen: HashMap<u128, (String, Observed)> = HashMap::new();
    let mut record = |name: String, hash: u128, observed: Observed| {
        if let Some((first, was)) = seen.get(&hash) {
            assert_eq!(was, &observed, "{first} and {name} share a hash");
        } else {
            seen.insert(hash, (name, observed));
        }
    };
    let (mut mutants, mut moved, mut failed) = (0, 0, 0);
    for (name, source, input) in bases() {
        let (base_hash, base) =
            observe(&source, &input).unwrap_or_else(|| panic!("{name} does not parse"));
        let mut longer = input.clone();
        longer.push(0.25);
        let mut other = input.clone();
        if let Some(last) = other.last_mut() {
            *last = 0.0;
        }
        let variants = [
            ("literal", mutate_literal(&source), input.clone()),
            ("loop bound", mutate_loop_bound(&source), input.clone()),
            ("extent", mutate_extent(&source), input.clone()),
            ("print", mutate_print(&source), input.clone()),
            ("longer input", Some(source.clone()), longer),
            ("other input", Some(source.clone()), other),
        ];
        for (what, mutant, mutant_input) in variants {
            let Some(mutant) = mutant else { continue };
            if mutant == source && mutant_input == input {
                continue;
            }
            let Some((hash, observed)) = observe(&mutant, &mutant_input) else {
                continue;
            };
            mutants += 1;
            failed += usize::from(matches!(observed, Observed::Failed(_)));
            if observed != base {
                moved += 1;
                assert_ne!(hash, base_hash, "{name} [{what}]: the run moved");
            }
            record(format!("{name} [{what}]"), hash, observed);
        }
        record(name, base_hash, base);
    }
    assert!(mutants >= 500, "only {mutants} mutants ran");
    assert!(
        moved >= 200,
        "only {moved} of {mutants} mutants moved the run"
    );
    assert!(failed > 0, "no mutant ended in a runtime error");
}

/// The byte offset of the last digit of every numeric literal in `source`
/// (identifiers, exponents and `//` comments skipped).
fn literal_last_digits(source: &str) -> Vec<usize> {
    let b = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i..].starts_with(b"//") {
            i += b[i..]
                .iter()
                .position(|&c| c == b'\n')
                .unwrap_or(b.len() - i);
        } else if b[i].is_ascii_alphabetic() || b[i] == b'_' {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
        } else if b[i].is_ascii_digit() {
            let mut last = i;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                if b[i].is_ascii_digit() {
                    last = i;
                }
                i += 1;
            }
            out.push(last);
            if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                i += 1;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'-' || b[i] == b'+') {
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Generated programs in the literal sweep, beside the 13 applications.
const SWEPT_GENERATED: u64 = 300;

#[test]
fn every_literal_edit_that_keeps_the_hash_keeps_the_run() {
    let mut swept: Vec<(String, String, Vec<f64>)> = bases()
        .into_iter()
        .filter(|(name, ..)| !name.starts_with("gen-"))
        .collect();
    swept.extend((0..SWEPT_GENERATED).map(|seed| {
        let name = minif_gen::name_for_seed(seed);
        (name, minif_gen::source_for_seed(seed), Vec::new())
    }));
    let observe = |program: &Program, input: &[f64]| {
        let run = execute(program, input);
        Observed::of(run.as_ref().map_err(ToString::to_string))
    };
    let (mut mutants, mut kept) = (0, 0);
    for (name, source, input) in swept {
        let program = suif_ir::parse_program(&source).unwrap();
        let base_hash = execute_hash_of(skeleton_hash(&program), &input);
        let base = observe(&program, &input);
        for at in literal_last_digits(&source) {
            for shift in [1, 5] {
                let mut bytes = source.clone().into_bytes();
                bytes[at] = b'0' + (bytes[at] - b'0' + shift) % 10;
                let mutant = String::from_utf8(bytes).unwrap();
                let Ok(edited) = suif_ir::parse_program(&mutant) else {
                    continue;
                };
                mutants += 1;
                if execute_hash_of(skeleton_hash(&edited), &input) != base_hash {
                    continue;
                }
                kept += 1;
                assert_eq!(
                    observe(&edited, &input),
                    base,
                    "{name}: the digit at byte {at} shifted by {shift} kept the hash"
                );
            }
        }
    }
    // 5 336 of 20 236 when this sweep was written.
    assert!(
        kept >= 5_000,
        "only {kept} of {mutants} literal mutants kept their base's hash"
    );
}

// ----- reuse -------------------------------------------------------------

/// Everything an open takes from the run, and the Guru built on it: the
/// profile, the dependences, `(ops, secs)` and the Guru's `(Debug, render)`.
type OpenedView = (
    (u64, u64, BTreeMap<StmtId, LoopFields>),
    BTreeMap<StmtId, BTreeMap<VarId, u8>>,
    (u64, u64),
    (String, String),
);

fn opened_view(ex: &Explorer<'_>) -> OpenedView {
    let guru = ex.guru();
    (
        profile_fields(&ex.profile),
        dyndep_fields(&ex.dyndep),
        (ex.execution.ops, ex.execution.secs.to_bits()),
        (format!("{guru:?}"), guru.render()),
    )
}

/// Open `program` over `store`, which must already be able to answer the
/// run — from itself (`reused`) or its tier (`shared`), as `served` says:
/// nothing is interpreted and the view equals `fresh`.
fn assert_reused(
    how: &str,
    program: &Program,
    input: &[f64],
    store: Arc<FactStore>,
    served: (u64, u64),
    fresh: &OpenedView,
) {
    let (ex, stats) = open(program, input, store).expect("a reused open");
    let run = stats.pass(PassId::Execute).expect("the run was demanded");
    assert_eq!(run.invocations, 0, "{how}: interpreted");
    assert_eq!((run.reused, run.shared), served, "{how}");
    assert!(ex.execution.reused, "{how}");
    assert_eq!(&opened_view(&ex), fresh, "{how}");
}

#[test]
fn a_reused_run_equals_the_run_that_produced_it() {
    for (name, source, input) in bases() {
        let program = suif_ir::parse_program(&source).unwrap();
        let tier = Arc::new(SharedFactTier::new());
        let store = Arc::new(FactStore::with_shared(tier.clone()));
        let (ex, stats) = open(&program, &input, store.clone()).expect("a fresh open");
        let run = stats.pass(PassId::Execute).expect("the run was demanded");
        assert_eq!(
            (run.invocations, run.reused, run.shared),
            (1, 0, 0),
            "{name}"
        );
        assert!(!ex.execution.reused, "{name}");
        let fresh = opened_view(&ex);
        drop(ex);

        // (a) a second Explorer on the same store
        let how = format!("{name} [same store]");
        assert_reused(&how, &program, &input, store.clone(), (1, 0), &fresh);

        // (b) a second session's store over the tier the first published to
        let how = format!("{name} [shared tier]");
        let sibling = Arc::new(FactStore::with_shared(tier.clone()));
        assert_reused(&how, &program, &input, sibling, (0, 1), &fresh);

        // (c) the store's facts through the snapshot codec into a fresh store
        let how = format!("{name} [snapshot]");
        let bytes = Snapshot::new(store.export()).encode();
        let decoded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded.undecodable, 0, "{how}");
        assert_eq!(decoded.encode(), bytes, "{how}: canonical wire form");
        let imported = Arc::new(FactStore::new());
        imported.import(decoded.facts);
        assert_reused(&how, &program, &input, imported, (1, 0), &fresh);
    }
}

// ----- a failed run is not a fact ----------------------------------------

/// Writes past the end of `a` in the last iteration.
const OUT_OF_BOUNDS: &str = "program oob
proc main() {
  real a[8]
  int i
  do 1 i = 1, 9 {
    a[i] = float(i)
  }
  print a[1]
}
";

#[test]
fn a_run_that_fails_is_an_error_each_time_and_never_a_fact() {
    // What the parent answered: the machine's own message.
    let failure = |source: &str| {
        let program = suif_ir::parse_program(source).unwrap();
        let mut hooks = NoHooks;
        let mut m = Machine::new(&program, &mut hooks).unwrap();
        ExplorerError(m.run().unwrap_err().to_string()).to_string()
    };
    let why = failure(OUT_OF_BOUNDS);
    assert!(why.contains("line 6"), "{why}");
    let program = suif_ir::parse_program(OUT_OF_BOUNDS).unwrap();

    // One store, opened twice: the same error, no fact, no stuck claim.
    let store = Arc::new(FactStore::new());
    for _ in 0..2 {
        let e = open(&program, &[], store.clone())
            .err()
            .expect("the run fails");
        assert_eq!(e.to_string(), why);
        assert!(store.export().iter().all(|f| f.key != EXECUTE_KEY));
        assert_eq!(store.metrics_for(PassId::Execute).invocations, 0);
    }

    // A persisting daemon: `load` answers the error on first and repeated
    // opens, from either connection; a sibling's good program is served.
    let dir = std::env::temp_dir().join(format!("suif_execute_fact_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = ServiceState::new(ServiceOptions {
        workers: 1,
        persist_dir: Some(dir.clone()),
        ..ServiceOptions::default()
    });
    let load =
        |text: &str| Json::obj([("cmd", Json::str("load")), ("text", Json::str(text))]).to_string();
    let mut a = Daemon::for_state(state.clone());
    let mut b = Daemon::for_state(state.clone());
    for turn in 0..3 {
        let d = if turn == 1 { &mut b } else { &mut a };
        let (reply, close) = d.handle_line(&load(OUT_OF_BOUNDS));
        assert!(!close);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(reply.get("error").and_then(Json::as_str), Some(&*why));
    }
    // (The daemon supplies no input.)
    let (reply, _) = b.handle_line(&load(READER));
    let exhausted = failure(READER);
    assert!(exhausted.contains("input exhausted"), "{exhausted}");
    assert_eq!(reply.get("error").and_then(Json::as_str), Some(&*exhausted));
    let (reply, _) = b.handle_line(&load(include_str!("../docs/samples/demo.mf")));
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    let (reply, _) = b.handle_line(r#"{"cmd":"checkpoint"}"#);
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );

    // Published and persisted: the good program's run, and no other.
    let runs = |facts: &[suif_analysis::ExportedFact]| {
        facts.iter().filter(|f| f.key == EXECUTE_KEY).count()
    };
    assert_eq!(runs(&state.tier().export()), 1);
    let base = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    let log = std::fs::read(dir.join(SNAPSHOT_LOG_FILE)).unwrap();
    let image = merge_image(&base, Some(&log)).unwrap();
    assert_eq!(image.undecodable, 0);
    assert_eq!(runs(&image.facts), 1);
    drop((a, b, state));
    let _ = std::fs::remove_dir_all(&dir);
}
