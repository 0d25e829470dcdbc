//! Seeded byte-level fuzzing of MiniF source text.  `load` hands a client's
//! text to `parse_program` and, if it is accepted, to the analyses, so each
//! of the two must answer any text: the front end with a refusal, the
//! analyses with a result.
//!
//! The mutants come from `source_mutants`: one to four byte deletes,
//! inserts, replaces or span duplicates over the 13 applications and
//! `minif_gen` programs.  Each case runs on its own thread with the 2 MiB
//! stack of a daemon worker, and must, within [`CASE_BOUND`], either be
//! refused by `parse_program` or go through `Parallelizer::analyze_in`
//! without a panic.
//!
//! A failing mutant is shrunk line by line and saved under
//! `tests/regressions/source/`, and every saved program is replayed before
//! novel cases are generated.  Case count: `SUIF_SOURCE_CASES` (default
//! 2000), all from one fixed seed.

mod source_mutants;

use source_mutants::{Mutants, SEED};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;
use suif_analysis::{FactStore, ParallelizeConfig, Parallelizer};

/// How long one case may take, debug build included.
const CASE_BOUND: Duration = Duration::from_secs(60);

/// The stack of one daemon worker thread.
const WORKER_STACK: usize = 2 << 20;

fn regression_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions/source")
}

fn case_count() -> usize {
    match std::env::var("SUIF_SOURCE_CASES") {
        Ok(v) => v.parse().expect("SUIF_SOURCE_CASES must be a number"),
        Err(_) => 2000,
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Refuse or analyze `text`; true when it was analyzed.
fn load(text: &str) -> bool {
    let Ok(program) = suif_ir::parse_program(text) else {
        return false;
    };
    let store = FactStore::new();
    Parallelizer::analyze_in(
        &program,
        ParallelizeConfig::default(),
        &Default::default(),
        None,
        &store,
    );
    true
}

/// [`load`] on a worker-sized thread, with a panic or a case running past
/// [`CASE_BOUND`] turned into an error.  A case past the bound is left
/// running: the test fails on it anyway.
fn check(text: &str) -> Result<bool, String> {
    let (tx, rx) = mpsc::channel();
    let owned = text.to_string();
    let worker = std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| load(&owned)));
            let _ = tx.send(outcome.map_err(|_| "panicked".to_string()));
        })
        .expect("spawn");
    let outcome = rx
        .recv_timeout(CASE_BOUND)
        .map_err(|_| format!("no answer within {CASE_BOUND:?}"))?;
    worker.join().expect("the panic was caught on the worker");
    outcome
}

/// Drop lines of `text` while it still panics.  A case that only runs
/// long is kept whole: re-running it per line would take longer still.
fn shrink(text: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let mut i = lines.len();
    while i > 0 {
        i -= 1;
        let mut fewer = lines.clone();
        fewer.remove(i);
        if check(&fewer.join("\n")) == Err("panicked".into()) {
            lines = fewer;
        }
    }
    lines.join("\n")
}

/// Saved programs, in name order.
fn saved_programs() -> Vec<(PathBuf, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(regression_dir())
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "mf"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("read saved program");
            (path, text)
        })
        .collect()
}

#[test]
fn mutated_sources_are_refused_or_analyzed() {
    for (path, text) in saved_programs() {
        if let Err(e) = check(&text) {
            panic!("saved program {} fails: {e}", path.display());
        }
    }
    let mut analyzed = 0;
    for (case, m) in Mutants::new(SEED).take(case_count()).enumerate() {
        match check(&m.text) {
            Ok(a) => analyzed += usize::from(a),
            Err(e) => {
                let text = if e == "panicked" {
                    shrink(&m.text)
                } else {
                    m.text
                };
                let dir = regression_dir();
                let path = dir.join(format!("shrink-{:016x}.mf", fnv64(text.as_bytes())));
                let saved =
                    std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &text));
                panic!(
                    "case {case} ({}): {e}\nprogram saved to {}: {saved:?}",
                    m.label,
                    path.display()
                );
            }
        }
    }
    println!(
        "{} mutants: {analyzed} analyzed, {} refused",
        case_count(),
        case_count() - analyzed
    );
    // Most byte edits break the syntax, but the analyses must see some.
    assert!(analyzed * 50 >= case_count(), "{analyzed} mutants analyzed");
}
