//! One owner for the persist directory: six sessions of one persisting
//! daemon, opened from six threads over sibling programs (same statement
//! ids, different content), must behave as one writer — one read of the
//! directory, no colliding temp files, idle checkpoints that write nothing,
//! one view of the log's size — and a restart over the directory must be
//! warm for all six.
//!
//! The four cases run in order inside one test: each builds on the state the
//! previous one left.
//!
//! A second test pins what the two files hold: facts and nothing else.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use suif_analysis::persist::DirStats;
use suif_analysis::snapshot::merge_image;
use suif_analysis::{
    recorded_values, FactKey, ParallelizeConfig, Parallelizer, PassId, RecordedValues, Scope,
    Snapshot,
};
use suif_benchmarks::{ch4_apps, Scale};
use suif_server::json::Json;
use suif_server::{Daemon, ServiceOptions, ServiceState, SNAPSHOT_FILE, SNAPSHOT_LOG_FILE};

const TENANTS: usize = 6;

/// `docs/samples/demo.mf` with one literal changed per tenant.
fn sibling(i: usize) -> String {
    let src = include_str!("../docs/samples/demo.mf");
    assert!(src.contains("* 0.25"));
    src.replace("* 0.25", &format!("* 0.2{i}"))
}

fn service(dir: &Path) -> Arc<ServiceState> {
    ServiceState::new(ServiceOptions {
        workers: 1,
        persist_dir: Some(dir.to_path_buf()),
        ..ServiceOptions::default()
    })
}

fn request(d: &mut Daemon, line: &str) -> Json {
    let (reply, _) = d.handle_line(line);
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    reply
}

/// One connection per tenant, all `load`ing at once; the connections (with
/// their sessions) and the load replies come back in tenant order.
fn open_all(state: &Arc<ServiceState>) -> Vec<(Daemon, Json)> {
    let start = Barrier::new(TENANTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|i| {
                let start = &start;
                scope.spawn(move || {
                    let mut d = Daemon::for_state(state.clone());
                    let load =
                        Json::obj([("cmd", Json::str("load")), ("text", Json::str(sibling(i)))]);
                    start.wait();
                    let reply = request(&mut d, &load.to_string());
                    (d, reply)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn int(j: &Json, path: &[&str]) -> i64 {
    let leaf = path.iter().try_fold(j, |j, k| j.get(k));
    leaf.and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("no integer at {path:?} in {j}"))
}

fn status(load: &Json) -> &str {
    let snap = load.get("snapshot").expect("load replies carry `snapshot`");
    snap.get("status").and_then(Json::as_str).unwrap()
}

/// The `(key, hash)` pairs durable in the directory's two files, with
/// their recorded value hashes.
fn pairs_on_disk(dir: &Path) -> RecordedValues {
    let base = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    let log = std::fs::read(dir.join(SNAPSHOT_LOG_FILE)).unwrap();
    let image = merge_image(&base, Some(&log)).unwrap();
    assert!(!image.log_damaged, "healthy log");
    recorded_values(&image.facts)
}

/// What an open of tenant `i` computes: its summary, liveness and per-loop
/// classification facts and its instrumented run, under the hashes they
/// must carry given the value hashes `recorded` beside the facts they read.
fn opened_pairs(i: usize, recorded: &RecordedValues) -> Vec<(FactKey, u128)> {
    let program = suif_ir::parse_program(&sibling(i)).unwrap();
    let pairs: Vec<(FactKey, u128)> =
        Parallelizer::expected_fact_hashes(&program, &ParallelizeConfig::default(), &[], recorded)
            .into_iter()
            .filter(|(k, _)| {
                matches!(
                    k.pass,
                    PassId::Summarize | PassId::Liveness | PassId::Classify | PassId::Execute
                )
            })
            .collect();
    // Every fact of the open is expected: none was left out because a
    // fact it reads was missing.
    let loops = suif_ir::RegionTree::build(&program).loops.len();
    assert_eq!(pairs.len(), program.procedures.len() + 1 + loops + 1);
    pairs
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn log_len(dir: &Path) -> i64 {
    std::fs::metadata(dir.join(SNAPSHOT_LOG_FILE))
        .unwrap()
        .len() as i64
}

#[test]
fn six_sessions_share_one_owner_of_the_directory() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("suif_persist_dir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // ---- case 1: six concurrent opens are one reader and one writer ----
    let state = service(&dir);
    let mut tenants = open_all(&state);
    for (_, load) in &tenants {
        assert_eq!(status(load), "none", "a fresh directory holds no image");
    }
    let owner = state.persist().expect("persistence is on");
    assert_eq!(
        owner.stats(),
        DirStats {
            reads: 1,
            write_errors: 0
        },
        "one read of the directory, every open's write succeeded"
    );
    assert_eq!(
        file_names(&dir),
        [SNAPSHOT_FILE, SNAPSHOT_LOG_FILE],
        "no stray temp file"
    );
    let durable = pairs_on_disk(&dir);
    for i in 0..TENANTS {
        for pair in opened_pairs(i, &durable) {
            assert!(
                durable.contains_key(&pair),
                "tenant {i}: {pair:?} not durable"
            );
        }
    }

    // ---- case 2: idle checkpoints, from any session, write nothing ----
    let base_before = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    let log_before = log_len(&dir);
    for round in 0..2 {
        for who in [0, TENANTS - 1] {
            let compactions = int(
                &request(&mut tenants[who].0, r#"{"cmd":"stats"}"#),
                &["snapshot", "compactions"],
            );
            let ck = request(&mut tenants[who].0, r#"{"cmd":"checkpoint"}"#);
            assert_eq!(int(&ck, &["delta_facts"]), 0, "round {round}: {ck}");
            assert_eq!(int(&ck, &["bytes"]), 0, "round {round}: {ck}");
            assert_eq!(int(&ck, &["compactions"]), compactions, "{ck}");
            assert_eq!(
                int(&ck, &["facts"]),
                durable.len() as i64,
                "`facts` counts every durable (key, hash) pair: {ck}"
            );
        }
    }
    // Siblings' facts coexist under shared keys: the edited procedure's
    // summary is durable once per tenant, while `main`'s, keyed by that
    // summary's value (equal across the siblings), is durable once.
    let program = suif_ir::parse_program(&sibling(0)).unwrap();
    let summaries = |name: &str| {
        let pid = program
            .procedures
            .iter()
            .find(|p| p.name == name)
            .unwrap()
            .id;
        let key = FactKey::new(PassId::Summarize, Scope::Proc(pid));
        durable.keys().filter(|(k, _)| *k == key).count()
    };
    assert_eq!(summaries("smooth"), TENANTS, "{} pairs", durable.len());
    assert_eq!(summaries("main"), 1, "{} pairs", durable.len());
    assert_eq!(log_len(&dir), log_before, "idle checkpoints grew the log");
    assert_eq!(
        std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
        base_before,
        "idle checkpoints rewrote the base"
    );

    // ---- case 3: one view of the log, whoever appended last ----
    request(&mut tenants[1].0, r#"{"cmd":"advisory"}"#);
    let appended = request(&mut tenants[1].0, r#"{"cmd":"checkpoint"}"#);
    assert!(int(&appended, &["delta_facts"]) > 0, "{appended}");
    assert!(int(&appended, &["bytes"]) > 0, "{appended}");
    let seen = request(&mut tenants[4].0, r#"{"cmd":"checkpoint"}"#);
    assert_eq!(int(&seen, &["log_bytes"]), log_len(&dir), "{seen}");
    assert_eq!(
        int(&seen, &["bytes"]),
        0,
        "nothing of its own to add: {seen}"
    );

    // ---- case 4: a restart over the directory is warm for all six ----
    drop(tenants); // sessions close: final checkpoints
    drop(state);
    let state = service(&dir);
    for (i, (_, load)) in open_all(&state).iter().enumerate() {
        assert_eq!(status(load), "loaded", "tenant {i}: {load}");
        assert!(int(load, &["snapshot", "warm_hits"]) > 0, "tenant {i}");
        assert_eq!(int(load, &["snapshot", "evicted_stale"]), 0, "tenant {i}");
        for pass in ["summarize", "liveness", "classify", "execute"] {
            assert_eq!(
                int(load, &["passes", pass, "invocations"]),
                0,
                "tenant {i} recomputed {pass}: {load}"
            );
        }
        let reused = load.get("execution").and_then(|e| e.get("reused"));
        assert_eq!(reused.and_then(Json::as_bool), Some(true), "tenant {i}");
    }
    assert_eq!(state.persist().unwrap().stats().reads, 1);
    assert_eq!(file_names(&dir), [SNAPSHOT_FILE, SNAPSHOT_LOG_FILE]);
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The directory holds facts only.  After the mdg case study (load, guru,
/// the advisories, the user's assertions, checkpoint) the base image
/// re-encodes to itself byte for byte, the log replays cleanly over it, the
/// folded pair round-trips too — and the pair is a fraction of what it was
/// while every checkpoint also carried the emptiness-proof memo (≈ 550 KB
/// for mdg's base alone).  What the session classifies under the user's
/// assertions, the first one included, is that tenant's opinion and never
/// becomes durable: the log grows by the advisories and by nothing else.
#[test]
fn mdg_case_study_persists_facts_only() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("suif_persist_dir_mdg_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mdg = ch4_apps(Scale::Bench).swap_remove(0);
    assert_eq!(mdg.name, "mdg");
    let state = service(&dir);
    let mut d = Daemon::for_state(state.clone());
    let load = Json::obj([("cmd", Json::str("load")), ("text", Json::str(&mdg.source))]);
    request(&mut d, &load.to_string());
    request(&mut d, r#"{"cmd":"guru"}"#);
    request(&mut d, r#"{"cmd":"advisory"}"#);
    let advised = request(&mut d, r#"{"cmd":"checkpoint"}"#);
    assert!(int(&advised, &["delta_facts"]) > 0, "{advised}");
    assert!(!mdg.assertions.is_empty());
    for a in &mdg.assertions {
        let kind = if a.privatize {
            "private"
        } else {
            "independent"
        };
        let assert = Json::obj([
            ("cmd", Json::str("assert")),
            ("loop", Json::str(&a.loop_name)),
            ("var", Json::str(&a.var)),
            ("kind", Json::str(kind)),
        ]);
        request(&mut d, &assert.to_string());
    }
    let asserted = request(&mut d, r#"{"cmd":"checkpoint"}"#);
    assert_eq!(
        int(&asserted, &["log_bytes"]),
        int(&advised, &["log_bytes"]),
        "the assertions made something durable: {asserted}"
    );
    let idle = request(&mut d, r#"{"cmd":"checkpoint"}"#);
    assert_eq!(int(&idle, &["bytes"]), 0, "{idle}");

    let base = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    let log = std::fs::read(dir.join(SNAPSHOT_LOG_FILE)).unwrap();
    let decoded = Snapshot::decode(&base).expect("the base decodes");
    assert_eq!(decoded.undecodable, 0);
    assert!(!decoded.facts.is_empty());
    assert_eq!(decoded.encode(), base, "encode(decode(base)) == base");

    let image = merge_image(&base, Some(&log)).unwrap();
    assert!(!image.log_damaged, "every log record decodes to facts");
    assert_eq!(image.undecodable, 0);
    assert!(
        image.facts.len() > decoded.facts.len(),
        "the advisories were appended to the log"
    );
    let folded = Snapshot::new(image.facts).encode();
    assert_eq!(Snapshot::decode(&folded).unwrap().encode(), folded);
    assert!(
        base.len() + log.len() <= 160 * 1024,
        "base {} B + log {} B",
        base.len(),
        log.len()
    );

    drop(d);
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
}
