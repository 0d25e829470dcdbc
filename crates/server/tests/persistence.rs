//! Durable persistence: warm starts, and crash-safety under snapshot
//! corruption.
//!
//! A daemon restart on an unchanged program must re-serve `guru` and `slice`
//! from the persisted fact snapshot with **zero** pass invocations for the
//! persisted fact kinds; a torn, bit-flipped, or version-bumped snapshot
//! must be detected, logged, and discarded for a clean cold start — never a
//! wrong answer.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use suif_analysis::persist::COMPACT_MIN_LOG_BYTES;
use suif_analysis::snapshot::LOG_HEADER_LEN;
use suif_analysis::PersistDir;
use suif_server::json::Json;
use suif_server::{
    Daemon, ServiceOptions, ServiceState, Session, SessionConfig, SNAPSHOT_FILE, SNAPSHOT_LOG_FILE,
};

const SRC: &str = "program t
proc inc(real q[*], int n) {
 int i
 do 1 i = 1, n {
  q[i] = q[i] + 1
 }
}
proc rec(real q[*], int n) {
 int i
 do 1 i = 2, n {
  q[i] = q[i - 1] * 2
 }
}
proc main() {
 real b[8]
 int i
 do 2 i = 1, 8 {
  b[i] = i
 }
 call inc(b, 8)
 call rec(b, 8)
 print b[3]
}";

/// A fresh per-test scratch directory (recreated empty every run).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("suif_persist_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_src(src: &str, dir: &Path) -> Session {
    Session::open_cfg(
        src,
        Default::default(),
        SessionConfig {
            persist: Some(PersistDir::new(dir)),
            ..Default::default()
        },
    )
    .unwrap()
}

fn open(dir: &Path) -> Session {
    open_src(SRC, dir)
}

fn snapshot_stats(s: &Session) -> Json {
    s.stats_json().get("snapshot").cloned().unwrap()
}

/// First open in a fresh dir: nothing to load, but a snapshot is written so
/// even an unclean exit restarts warm.
#[test]
fn first_open_writes_a_snapshot() {
    let dir = scratch("first_open");
    let s = open(&dir);
    let snap = snapshot_stats(&s);
    assert_eq!(snap.get("status").and_then(Json::as_str), Some("none"));
    assert_eq!(snap.get("warm_hits").and_then(Json::as_i64), Some(0));
    assert!(snap.get("cold_misses").and_then(Json::as_i64).unwrap() > 0);
    assert!(dir.join(SNAPSHOT_FILE).exists(), "written at open");
    assert!(dir.join(SNAPSHOT_LOG_FILE).exists(), "log created at open");
    // No temp files left behind by the atomic writer.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name() != SNAPSHOT_FILE && e.file_name() != SNAPSHOT_LOG_FILE)
        .collect();
    assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole acceptance check: restart on an unchanged program re-serves
/// `guru` and `slice` with zero invocations of the persisted fact kinds.
#[test]
fn warm_start_reserves_answers_without_recomputation() {
    let dir = scratch("warm_start");
    let (cold_guru, cold_slice) = {
        let mut s = open(&dir);
        let g = s.guru_json();
        // Slicing reads the carried-deps fact the open's classification
        // computed, so it is persisted with the open.
        let sl = s.slice_json("rec/1").unwrap();
        // `checkpoint` persists the post-query state.
        s.checkpoint_json().unwrap();
        (g, sl)
    }; // drop = clean shutdown (also checkpoints)

    let mut s = open(&dir);
    let snap = snapshot_stats(&s);
    assert_eq!(snap.get("status").and_then(Json::as_str), Some("loaded"));
    assert!(
        snap.get("warm_hits").and_then(Json::as_i64).unwrap() > 0,
        "{snap}"
    );
    assert_eq!(snap.get("evicted_stale").and_then(Json::as_i64), Some(0));

    // Zero invocations of any persisted pass on the warm open — including
    // summarize and liveness, the expensive interprocedural ones, and the
    // instrumented run, the most expensive of all — and the answers are
    // bit-identical, the Guru's rendered wall-clock estimate included: it
    // is the producing run's.
    let st = s.stats_json();
    for pass in ["classify", "summarize", "liveness", "execute"] {
        let p = st.get("passes").unwrap().get(pass).unwrap();
        assert_eq!(
            p.get("invocations").and_then(Json::as_i64),
            Some(0),
            "{pass}: {st}"
        );
    }
    let classify = st.get("passes").unwrap().get("classify").unwrap();
    assert!(classify.get("reused").and_then(Json::as_i64).unwrap() > 0);
    let reused = st.get("execution").and_then(|e| e.get("reused"));
    assert_eq!(reused.and_then(Json::as_bool), Some(true), "{st}");
    assert_eq!(format!("{cold_guru}"), format!("{}", s.guru_json()));
    assert_eq!(
        format!("{cold_slice}"),
        format!("{}", s.slice_json("rec/1").unwrap())
    );

    // An `assert` checkpoints by appending its delta to the log, which
    // costs less than the full base-image rewrite it replaced.
    let appended = |s: &Session| {
        let snap = snapshot_stats(s);
        snap.get("appended_bytes").and_then(Json::as_i64).unwrap()
    };
    let base_bytes = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len() as i64;
    let before = appended(&s);
    let r = s.assert_json("inc/1", "q", true);
    assert_eq!(
        r.get("assertion").and_then(Json::as_str),
        Some("consistent")
    );
    let delta = appended(&s) - before;
    assert!(
        0 < delta && delta < base_bytes,
        "assert appended {delta} B against a {base_bytes} B base image"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `reply` with every wall-clock (`secs`) and kernel-counter (`poly`)
/// field removed: the kernel counters are the last analysis's work, which
/// a warm session does not repeat.
fn masked(reply: &Json) -> String {
    fn strip(j: &Json) -> Json {
        match j {
            Json::Obj(m) => Json::Obj(
                (m.iter())
                    .filter(|(k, _)| *k != "secs" && *k != "poly")
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Json::Arr(xs) => Json::Arr(xs.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    strip(reply).to_string()
}

/// Every command a user sends after an open, one reply each: `guru`,
/// `slice` of every loop, `analyze`, `advisory`, `codeview`, `certify`,
/// then `assert` of a dependence and `analyze` again.
fn replies_to_every_command(s: &mut Session) -> Vec<String> {
    let mut out = vec![masked(&s.guru_json())];
    for name in ["inc/1", "rec/1", "main/2"] {
        out.push(masked(&s.slice_json(name).unwrap()));
    }
    out.push(masked(&s.analyze()));
    out.push(masked(&s.advisory_json()));
    out.push(masked(&s.codeview_json()));
    out.push(masked(&s.certify_json(None, 2, 11).unwrap()));
    out.push(masked(&s.assert_json("rec/1", "q", true)));
    out.push(masked(&s.analyze()));
    out
}

/// A warm session answers every command as the cold session that wrote
/// its directory did, while reads decode the persisted values it needs.
#[test]
fn a_warm_session_answers_every_command_like_a_cold_one() {
    let dir = scratch("warm_equals_cold");
    let cold = replies_to_every_command(&mut open(&dir));
    let mut s = open(&dir);
    let decoded = |s: &Session| {
        let snap = snapshot_stats(s);
        snap.get("values_decoded").and_then(Json::as_i64).unwrap()
    };
    let at_open = decoded(&s);
    assert_eq!(
        at_open,
        4,
        "three verdicts and the run: {}",
        snapshot_stats(&s)
    );
    assert_eq!(replies_to_every_command(&mut s), cold);
    assert!(decoded(&s) > at_open, "the commands read persisted values");
    let snap = snapshot_stats(&s);
    assert!(snap.get("decode_secs").and_then(Json::as_f64).unwrap() > 0.0);
    assert_eq!(snap.get("evicted_stale").and_then(Json::as_i64), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm `load → guru` of each Ch. 4 application at bench scale reads
/// its verdicts and its run and nothing else: every `Summarize` and
/// `Liveness` value stays bytes.  A `slice` then reads one more value, its
/// loop's carried-dependence table.
#[test]
fn a_warm_open_of_each_ch4_application_decodes_no_summary_and_no_liveness() {
    for b in suif_benchmarks::ch4_apps(suif_benchmarks::Scale::Bench) {
        let dir = scratch(&format!("warm_decodes_{}", b.name));
        drop(open_src(&b.source, &dir));
        let mut s = open_src(&b.source, &dir);
        let guru = s.guru_json();
        let loops = s.verdicts_json();
        let loops = loops.get("loops").and_then(Json::as_arr).unwrap();
        let decoded = |s: &Session| {
            let snap = snapshot_stats(s);
            snap.get("values_decoded").and_then(Json::as_i64).unwrap()
        };
        let st = s.stats_json();
        for pass in ["summarize", "liveness", "classify", "execute"] {
            let p = st.get("passes").unwrap().get(pass).unwrap();
            let runs = p.get("invocations").and_then(Json::as_i64);
            assert_eq!(runs, Some(0), "{}: {pass}", b.name);
        }
        assert_eq!(
            decoded(&s),
            loops.len() as i64 + 1,
            "{}: one verdict per loop and the run",
            b.name
        );
        let target = (guru.get("targets").and_then(Json::as_arr))
            .and_then(|t| t.first()?.get("loop")?.as_str().map(str::to_string))
            .unwrap_or_else(|| loops[0].get("loop").unwrap().as_str().unwrap().into());
        s.slice_json(&target).unwrap();
        assert_eq!(
            decoded(&s),
            loops.len() as i64 + 2,
            "{}: and one table",
            b.name
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An edited program invalidates persisted facts by hash: they are evicted
/// as stale (not served), and the analysis matches a fresh one.
#[test]
fn stale_snapshot_entries_are_evicted_not_served() {
    let dir = scratch("stale");
    drop(open(&dir));
    let edited = SRC.replace(
        "do 1 i = 1, n {\n  q[i] = q[i] + 1",
        "do 1 i = 2, n {\n  q[i] = q[i - 1] + 1",
    );
    let s = open_src(&edited, &dir);
    let snap = snapshot_stats(&s);
    assert_eq!(snap.get("status").and_then(Json::as_str), Some("loaded"));
    assert!(snap.get("evicted_stale").and_then(Json::as_i64).unwrap() > 0);
    // The edited loop is now a recurrence: the verdict must be fresh, not
    // the stale persisted "parallel".
    let v = s.verdicts_json();
    let loops = v.get("loops").and_then(Json::as_arr).unwrap();
    let inc = loops
        .iter()
        .find(|l| l.get("loop").and_then(Json::as_str) == Some("inc/1"))
        .unwrap();
    assert_eq!(inc.get("parallel").and_then(Json::as_bool), Some(false));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Summaries persist procedure by procedure: after a restart, a `reload`
/// with a one-procedure data edit re-summarizes the edited procedure only
/// — its summary comes out equal, so its caller (keyed by that value), the
/// untouched leaf and liveness come out of `facts.snap` — and the session
/// answers what a fresh analysis of the edited text answers.
#[test]
fn reload_after_restart_resummarizes_only_the_dirty_cone() {
    let dir = scratch("restart_reload");
    drop(open(&dir));
    let edited = SRC.replace("q[i - 1] * 2", "q[i - 1] * 3");
    assert_ne!(edited, SRC);

    let mut s = open(&dir);
    let st = s.stats_json();
    assert_eq!(st.get("summarized").and_then(Json::as_i64), Some(0), "{st}");
    s.reload(&edited).unwrap();
    let st = s.stats_json();
    let count = |k| st.get(k).and_then(Json::as_i64).unwrap();
    assert_eq!(count("procs"), 3, "{st}");
    assert_eq!(count("summarized"), 1, "rec alone: {st}");
    assert_eq!(
        count("cache_hits"),
        2,
        "inc and main, from the snapshot: {st}"
    );
    let liveness = st.get("passes").and_then(|p| p.get("liveness"));
    let ran = liveness
        .and_then(|l| l.get("invocations"))
        .and_then(Json::as_i64);
    assert_eq!(ran, Some(0), "liveness, from the snapshot: {st}");

    let fresh_dir = scratch("restart_reload_fresh");
    let mut fresh = open_src(&edited, &fresh_dir);
    assert_eq!(s.analyze().to_string(), fresh.analyze().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}

/// A persisting `reload` appends its delta to the log like any other
/// checkpoint — a data edit recomputes one procedure's facts — and the log
/// is folded into a fresh base only by the directory's own rule: when its
/// records reach `max(COMPACT_MIN_LOG_BYTES, base)`.  Over 20 edits the
/// directory holds the two files and the log stays under that bound; a
/// restart over it is warm, and its next reload re-summarizes only the
/// edited procedure.
#[test]
fn a_persisting_reload_appends_its_delta() {
    let dir = scratch("reload_appends");
    let edit = |k: usize| SRC.replace("q[i - 1] * 2", &format!("q[i - 1] * {}", k + 3));
    let size = |file: &str| std::fs::metadata(dir.join(file)).unwrap().len();
    let header = LOG_HEADER_LEN as u64;
    let counter = |s: &Session, k: &str| snapshot_stats(s).get(k).and_then(Json::as_i64).unwrap();
    let mut s = open(&dir);
    let mut compactions = 0;
    for k in 0..20 {
        let (base, log) = (size(SNAPSHOT_FILE), size(SNAPSHOT_LOG_FILE));
        let (appended, folded) = (counter(&s, "appended_bytes"), counter(&s, "compactions"));
        s.reload(&edit(k)).unwrap();
        let delta = (counter(&s, "appended_bytes") - appended) as u64;
        assert!(delta > 0, "reload {k} appended nothing");
        let records = log - header + delta;
        let due = records >= COMPACT_MIN_LOG_BYTES.max(base);
        let compacted = counter(&s, "compactions") - folded;
        assert_eq!(
            compacted, due as i64,
            "reload {k}: {records} bytes over a {base}-byte base"
        );
        if due {
            compactions += 1;
            assert_eq!(size(SNAPSHOT_LOG_FILE), header, "reload {k}");
        } else {
            assert_eq!(size(SNAPSHOT_FILE), base, "reload {k} rewrote the base");
            assert_eq!(size(SNAPSHOT_LOG_FILE), log + delta, "reload {k}");
        }
        let records = size(SNAPSHOT_LOG_FILE) - header;
        assert!(records < COMPACT_MIN_LOG_BYTES.max(size(SNAPSHOT_FILE)));
    }
    assert!(compactions > 0, "20 reloads never reached the threshold");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, [SNAPSHOT_FILE, SNAPSHOT_LOG_FILE]);
    drop(s);

    let mut s = open_src(&edit(19), &dir);
    let snap = snapshot_stats(&s);
    assert_eq!(snap.get("status").and_then(Json::as_str), Some("loaded"));
    assert_eq!(
        s.stats_json().get("summarized").and_then(Json::as_i64),
        Some(0)
    );
    s.reload(&edit(20)).unwrap();
    let st = s.stats_json();
    assert_eq!(st.get("summarized").and_then(Json::as_i64), Some(1), "{st}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt the snapshot in `mutate`, reopen, and require a clean cold start
/// with `snapshot: discarded` — identical verdicts, no warm hits.
fn corruption_case(name: &str, mutate: impl FnOnce(&mut Vec<u8>)) {
    let dir = scratch(name);
    drop(open(&dir));
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    mutate(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();

    let s = open(&dir);
    let snap = snapshot_stats(&s);
    assert_eq!(
        snap.get("status").and_then(Json::as_str),
        Some("discarded"),
        "{snap}"
    );
    assert_eq!(snap.get("warm_hits").and_then(Json::as_i64), Some(0));
    assert!(snap
        .get("warning")
        .and_then(Json::as_str)
        .unwrap()
        .contains("cold start"));
    // The cold analysis is complete and correct.
    let v = s.verdicts_json();
    let loops = v.get("loops").and_then(Json::as_arr).unwrap();
    assert_eq!(loops.len(), 3);
    // A later open loads the rewritten (healthy) snapshot again.
    drop(s);
    assert_current_versions(&dir);
    let s2 = open(&dir);
    assert_eq!(
        snapshot_stats(&s2).get("status").and_then(Json::as_str),
        Some("loaded")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both files of `dir` carry this build's format versions.
fn assert_current_versions(dir: &Path) {
    use suif_analysis::snapshot::{LOG_VERSION, SNAPSHOT_VERSION};
    let base = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    assert_eq!(base[8..12], SNAPSHOT_VERSION.to_le_bytes());
    let log = std::fs::read(dir.join(SNAPSHOT_LOG_FILE)).unwrap();
    assert_eq!(log[8..12], LOG_VERSION.to_le_bytes());
}

/// A crash mid-write leaves a torn file: truncation is detected.
#[test]
fn truncated_snapshot_cold_starts_cleanly() {
    corruption_case("truncate", |b| b.truncate(b.len() / 2));
}

/// Bit rot in the payload: the checksum catches it.
#[test]
fn bitflipped_snapshot_cold_starts_cleanly() {
    corruption_case("bitflip", |b| {
        let at = 36 + (b.len() - 36) / 2; // mid-payload, past the header
        b[at] ^= 0x40;
    });
}

/// A future (or garbage) format version is refused, not misparsed.
#[test]
fn version_bumped_snapshot_cold_starts_cleanly() {
    corruption_case("version", |b| b[8] = b[8].wrapping_add(1));
}

/// A snapshot from the previous format (version 7: a run's carried
/// dependences without their kinds) is discarded for a clean cold start,
/// never misread, and the directory is rewritten in this build's format.
#[test]
fn old_version_snapshot_cold_starts_cleanly() {
    corruption_case("old-version", |b| {
        b[8..12].copy_from_slice(&7u32.to_le_bytes());
    });
}

/// A log from the previous format (version 5) over a valid base does not
/// replay: the base alone warms the open, what only the log held is
/// recomputed to the same answer, and the open folds the pair afresh.
#[test]
fn old_version_log_is_ignored_and_folded_away() {
    let dir = scratch("old_log");
    let (cold_slice, cold_advisory) = {
        let mut s = open(&dir);
        let _ = s.guru_json();
        let sl = s.slice_json("rec/1").unwrap();
        // The open computed every slice table; the advisories are the facts
        // left for a query to compute, and so to append to the log.
        let adv = s.advisory_json();
        s.checkpoint_json().unwrap();
        (sl, adv)
    };
    let log_path = dir.join(SNAPSHOT_LOG_FILE);
    let mut log = std::fs::read(&log_path).unwrap();
    assert!(log.len() > suif_analysis::snapshot::LOG_HEADER_LEN);
    log[8..12].copy_from_slice(&5u32.to_le_bytes());
    std::fs::write(&log_path, &log).unwrap();

    let mut s = open(&dir);
    let snap = snapshot_stats(&s);
    assert_eq!(
        snap.get("status").and_then(Json::as_str),
        Some("loaded"),
        "{snap}"
    );
    assert!(snap.get("warm_hits").and_then(Json::as_i64).unwrap() > 0);
    assert_eq!(
        std::fs::read(&log_path).unwrap().len(),
        suif_analysis::snapshot::LOG_HEADER_LEN,
        "the open folded instead of appending to a log it could not read"
    );
    assert_eq!(
        format!("{cold_slice}"),
        format!("{}", s.slice_json("rec/1").unwrap())
    );
    assert_eq!(format!("{cold_advisory}"), format!("{}", s.advisory_json()));
    s.checkpoint_json().unwrap();
    drop(s);
    assert_current_versions(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-append leaves a torn last log record: the valid prefix
/// still replays (warm answers survive), the torn suffix is dropped, and
/// the open folds everything into a freshly rebound base+log pair.
#[test]
fn torn_log_record_keeps_valid_prefix() {
    let dir = scratch("torn_log");
    {
        let mut s = open(&dir);
        let _ = s.guru_json();
        let _ = s.slice_json("rec/1").unwrap();
        let _ = s.advisory_json();
        s.checkpoint_json().unwrap();
    }
    let log_path = dir.join(SNAPSHOT_LOG_FILE);
    let log = std::fs::read(&log_path).unwrap();
    assert!(
        log.len() > suif_analysis::snapshot::LOG_HEADER_LEN,
        "advisory facts appended as log records (len {})",
        log.len()
    );
    // Tear the final record a few bytes short of complete.
    std::fs::write(&log_path, &log[..log.len() - 5]).unwrap();

    let s = open(&dir);
    let snap = snapshot_stats(&s);
    assert_eq!(
        snap.get("status").and_then(Json::as_str),
        Some("loaded"),
        "{snap}"
    );
    assert!(snap.get("warm_hits").and_then(Json::as_i64).unwrap() > 0);
    // Anything torn away was recomputed, never misread.
    let v = s.verdicts_json();
    assert_eq!(v.get("loops").and_then(Json::as_arr).unwrap().len(), 3);
    // The damage forced a full rewrite at open: the log is a bare header
    // bound to the fresh base again, not an append onto the torn tail.
    assert_eq!(
        std::fs::read(&log_path).unwrap().len(),
        suif_analysis::snapshot::LOG_HEADER_LEN
    );
    drop(s);
    let s2 = open(&dir);
    assert_eq!(
        snapshot_stats(&s2).get("status").and_then(Json::as_str),
        Some("loaded")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between compaction's two atomic writes leaves a fresh base
/// beside the previous log, which is bound to the *old* base checksum:
/// the stale log must be ignored (never replayed over the wrong image),
/// answers come from the new base alone, and the next open rebinds the
/// pair.
#[test]
fn mid_compaction_crash_ignores_stale_log() {
    let dir = scratch("mid_compaction");
    {
        let mut s = open(&dir);
        let _ = s.guru_json();
        let _ = s.slice_json("rec/1").unwrap();
        let _ = s.advisory_json();
        s.checkpoint_json().unwrap();
    }
    let base_path = dir.join(SNAPSHOT_FILE);
    let log_path = dir.join(SNAPSHOT_LOG_FILE);
    let base = std::fs::read(&base_path).unwrap();
    let old_log = std::fs::read(&log_path).unwrap();
    assert!(old_log.len() > suif_analysis::snapshot::LOG_HEADER_LEN);
    // Replay compaction's first half only: fold base+log into a new base
    // image, then "crash" before the log reset.
    let img = suif_analysis::snapshot::merge_image(&base, Some(&old_log[..])).unwrap();
    let folded = suif_analysis::Snapshot::new(img.facts).encode();
    assert_ne!(folded, base, "folding the log must change the base image");
    std::fs::write(&base_path, &folded).unwrap();

    let s = open(&dir);
    let snap = snapshot_stats(&s);
    assert_eq!(
        snap.get("status").and_then(Json::as_str),
        Some("loaded"),
        "{snap}"
    );
    assert!(snap.get("warm_hits").and_then(Json::as_i64).unwrap() > 0);
    // The folded base already held every fact the stale log would have
    // contributed: the open recomputes nothing.
    let st = s.stats_json();
    for pass in ["classify", "summarize", "liveness"] {
        let p = st.get("passes").unwrap().get(pass).unwrap();
        assert_eq!(
            p.get("invocations").and_then(Json::as_i64),
            Some(0),
            "{pass}: {st}"
        );
    }
    // And the pair is rebound: the log is a bare header over the new base.
    assert_eq!(
        std::fs::read(&log_path).unwrap().len(),
        suif_analysis::snapshot::LOG_HEADER_LEN
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wire-level `checkpoint` command works end to end, and a second
/// daemon over the same persist dir reports the warm start in `stats`.
#[test]
fn daemon_checkpoint_and_warm_restart_over_the_wire() {
    let dir = scratch("daemon");
    let src_line = SRC.replace('\n', "\\n");
    let run = |dir: &Path| -> Vec<Json> {
        let mut d = Daemon::for_state(ServiceState::new(ServiceOptions {
            workers: 1,
            persist_dir: Some(dir.to_path_buf()),
            ..ServiceOptions::default()
        }));
        let input = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            format_args!(r#"{{"cmd":"load","text":"{src_line}"}}"#),
            r#"{"cmd":"guru"}"#,
            r#"{"cmd":"checkpoint"}"#,
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"quit"}"#
        );
        let mut out = Vec::new();
        d.serve(BufReader::new(input.as_bytes()), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect()
    };

    let first = run(&dir);
    assert_eq!(first.len(), 5);
    for r in &first {
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    }
    assert!(first[2].get("facts").and_then(Json::as_i64).unwrap() > 0);
    let snap = first[3].get("snapshot").unwrap();
    assert_eq!(snap.get("status").and_then(Json::as_str), Some("none"));

    // "Kill" the daemon (drop) and restart over the same persist dir.
    let second = run(&dir);
    let snap = second[3].get("snapshot").unwrap();
    assert_eq!(snap.get("status").and_then(Json::as_str), Some("loaded"));
    assert!(snap.get("warm_hits").and_then(Json::as_i64).unwrap() > 0);
    // Identical guru payload across the restart, `rendered` included.
    assert_eq!(format!("{}", first[1]), format!("{}", second[1]));
    let execution = second[3].get("execution").unwrap();
    assert_eq!(execution.get("reused").and_then(Json::as_bool), Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}
