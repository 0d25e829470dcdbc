//! Corpus-mode integration tests: fault isolation end-to-end through the
//! `suif-explorer corpus` CLI, and the daemon's `corpus` protocol command.
//! (The fixed-seed differential against isolated single-tenant analysis is
//! the root `tests/corpus_differential.rs`, where tier-1 runs it.)

use std::io::Write;
use std::process::Command;
use suif_server::json::Json;
use suif_server::{Daemon, ServiceOptions, ServiceState};

const BIN: &str = env!("CARGO_BIN_EXE_suif-explorer");

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("suif_corpus_{tag}_{}", std::process::id()));
    // A leftover from a previous crashed run of this same pid-tagged test.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One recurrence (sequential) and one reduction (parallel).
const GOOD_SRC: &str = "program t
proc main() {
 real a[32]
 real acc
 int i
 a[1] = 1
 do 1 i = 2, 32 {
  a[i] = a[i - 1] * 1.01
 }
 acc = 0
 do 2 i = 1, 32 {
  acc = acc + a[i]
 }
 print acc
}
";

/// End-to-end CLI fault isolation: a directory corpus with a parse error
/// and an oversize file, plus generated programs with one injected panic.
/// Every fault becomes an error record, every sibling completes, and the
/// process still exits 0 with a nonzero `errors` count in the summary.
#[test]
fn cli_corpus_exits_zero_with_error_records_under_faults() {
    let dir = temp_dir("cli");
    std::fs::write(dir.join("bad.mf"), "program p\nthis is not minif\n").unwrap();
    std::fs::write(dir.join("big.mf"), "x".repeat(32 * 1024)).unwrap();
    std::fs::write(dir.join("good.mf"), GOOD_SRC).unwrap();

    let out = Command::new(BIN)
        .arg("corpus")
        .arg(&dir)
        .args([
            "--gen",
            "4",
            "--seed-base",
            "40",
            "--inject-panic",
            "gen-00000041",
            "--max-program-bytes",
            "16384",
            "--workers",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "faults must not fail the run: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e:?}")))
        .collect();
    // 3 files + 4 generated, each one record, then the summary line last.
    assert_eq!(lines.len(), 8, "{text}");
    let summary = lines.last().unwrap();
    assert_eq!(summary.get("summary").and_then(Json::as_bool), Some(true));
    assert_eq!(summary.get("programs").and_then(Json::as_i64), Some(7));
    assert_eq!(summary.get("ok").and_then(Json::as_i64), Some(4));
    assert_eq!(summary.get("errors").and_then(Json::as_i64), Some(3));
    assert_eq!(summary.get("parse_errors").and_then(Json::as_i64), Some(1));
    assert_eq!(summary.get("panics").and_then(Json::as_i64), Some(1));
    assert_eq!(summary.get("oversize").and_then(Json::as_i64), Some(1));
    assert!(
        summary
            .get("tier")
            .and_then(|t| t.get("peak_resident_bytes"))
            .and_then(Json::as_i64)
            .unwrap_or(0)
            > 0,
        "summary reports peak resident tier bytes: {summary}"
    );

    let status_of = |name: &str| -> &str {
        lines
            .iter()
            .find(|l| l.get("program").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no record for {name}: {text}"))
            .get("status")
            .and_then(Json::as_str)
            .unwrap()
    };
    assert_eq!(status_of("bad"), "parse");
    assert_eq!(status_of("big"), "oversize");
    assert_eq!(status_of("good"), "ok");
    assert_eq!(status_of("gen-00000041"), "panic");
    for seed in [40u64, 42, 43] {
        assert_eq!(status_of(&format!("gen-{seed:08}")), "ok");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Manifest input plus `--report FILE`: records stream to the file (stdout
/// stays clean) and relative manifest paths resolve against the manifest's
/// own directory.
#[test]
fn cli_corpus_manifest_and_report_file() {
    let dir = temp_dir("manifest");
    std::fs::write(dir.join("one.mf"), GOOD_SRC).unwrap();
    std::fs::write(dir.join("two.mf"), GOOD_SRC).unwrap();
    let manifest = dir.join("corpus.txt");
    let mut f = std::fs::File::create(&manifest).unwrap();
    writeln!(f, "# corpus manifest").unwrap();
    writeln!(f, "one.mf").unwrap();
    writeln!(f).unwrap();
    writeln!(f, "{}", dir.join("two.mf").display()).unwrap();
    drop(f);
    let report = dir.join("report.jsonl");

    let out = Command::new(BIN)
        .arg("corpus")
        .arg(&manifest)
        .arg("--report")
        .arg(&report)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stdout.is_empty(),
        "records go to --report, not stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let text = std::fs::read_to_string(&report).unwrap();
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 3, "{text}");
    // Records stream in completion order; find each by name.
    for name in ["one", "two"] {
        let line = lines[..2]
            .iter()
            .find(|l| l.get("program").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no record for {name}: {text}"));
        assert_eq!(line.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(line.get("parallel").and_then(Json::as_i64), Some(1));
        assert_eq!(line.get("sequential").and_then(Json::as_i64), Some(1));
    }
    assert_eq!(
        lines[2].get("summary").and_then(Json::as_bool),
        Some(true),
        "summary is the last report line"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The daemon's `corpus` command is service-level: no session required,
/// generated entries analyzed over the shared tier, reports plus summary
/// in one response.
#[test]
fn daemon_corpus_command_needs_no_session() {
    let mut d = Daemon::for_state(ServiceState::new(ServiceOptions {
        workers: 2,
        shared_budget: Some(128 << 10),
        ..ServiceOptions::default()
    }));
    let (resp, close) = d.handle_line(r#"{"cmd":"corpus","gen":5,"seed_base":9,"workers":2}"#);
    assert!(!close);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    let summary = resp.get("summary").expect("summary present");
    assert_eq!(summary.get("programs").and_then(Json::as_i64), Some(5));
    assert_eq!(summary.get("ok").and_then(Json::as_i64), Some(5));
    assert_eq!(summary.get("errors").and_then(Json::as_i64), Some(0));
    let reports = resp
        .get("reports")
        .and_then(Json::as_arr)
        .expect("reports array");
    assert_eq!(reports.len(), 5);
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(
            r.get("program").and_then(Json::as_str),
            Some(minif_gen::name_for_seed(9 + i as u64).as_str()),
            "reports come back in submission order"
        );
        assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"));
    }

    // A second run over the now-warm tier shares facts instead of
    // recomputing them.
    let (resp2, _) = d.handle_line(r#"{"cmd":"corpus","gen":5,"seed_base":9,"workers":2}"#);
    let shared: i64 = resp2
        .get("reports")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|r| r.get("facts")?.get("shared")?.as_i64())
        .sum();
    assert!(shared > 0, "warm rerun reads facts from the tier: {resp2}");
    // ...the tier's own counters agree, and it stayed inside its budget
    // (which the five programs' ~200 KB of facts overflow).
    let tier_stat = |resp: &Json, field: &str| {
        let tier = resp.get("summary").unwrap().get("tier").unwrap();
        tier.get(field).and_then(Json::as_i64).unwrap()
    };
    assert!(tier_stat(&resp2, "hits") > tier_stat(&resp, "hits"));
    assert!(
        tier_stat(&resp, "evicted") > 0,
        "budget never bound: {resp}"
    );
    assert!(tier_stat(&resp2, "resident_bytes") <= tier_stat(&resp2, "budget"));

    // Inline programs work too, and faults degrade to error records.
    let (resp3, _) = d
        .handle_line(r#"{"cmd":"corpus","programs":[{"name":"broken","text":"program p\nnope"}]}"#);
    assert_eq!(resp3.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        resp3
            .get("summary")
            .and_then(|s| s.get("errors"))
            .and_then(Json::as_i64),
        Some(1),
        "{resp3}"
    );

    // No programs at all is a request error, not an empty run.
    let (resp4, _) = d.handle_line(r#"{"cmd":"corpus"}"#);
    assert_eq!(resp4.get("ok").and_then(Json::as_bool), Some(false));
}
