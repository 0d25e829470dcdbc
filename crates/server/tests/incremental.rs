//! Incremental-equivalence property: for any generated MiniF program and
//! any edit, `reload` + `analyze` on a warm session answers exactly what a
//! fresh analysis of the edited source answers — the fact store may only
//! change *what is recomputed*, never *what is computed*.

use proptest::prelude::*;
use suif_server::json::Json;
use suif_server::{Session, SessionConfig};

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

fn fresh_verdicts(src: &str) -> Json {
    let mut s = Session::open_cfg(src, Default::default(), SessionConfig::default()).unwrap();
    s.analyze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reload_plus_analyze_equals_fresh_analysis(
        consts in prop::collection::vec(-4i64..5, 1..5),
        edit_at in 0usize..5,
        delta in 1i64..4,
    ) {
        let edit_at = edit_at % consts.len();
        let mut edited = consts.clone();
        // Guaranteed change; may flip elementwise <-> recurrence.
        edited[edit_at] += delta;

        let base_src = gen_src(&consts);
        let edited_src = gen_src(&edited);

        let mut session =
            Session::open_cfg(&base_src, Default::default(), SessionConfig::default()).unwrap();
        session.reload(&edited_src).unwrap();
        let warm = session.analyze();

        let fresh = fresh_verdicts(&edited_src);
        prop_assert_eq!(
            warm.to_string(),
            fresh.to_string(),
            "incremental reload diverged from fresh analysis"
        );

        // The warm analyze right after the reload touches nothing.
        prop_assert_eq!(session.last_stats.summarized(), 0);

        // The reload itself reused every unedited leaf (same statement
        // structure, so no id shifts; only f{edit_at} and main are dirty).
        prop_assert!(session.generation == 2);
    }

    #[test]
    fn single_proc_edit_dirties_only_its_cone(
        consts in prop::collection::vec(0i64..8, 2..5),
        edit_at in 0usize..5,
    ) {
        let edit_at = edit_at % consts.len();
        let mut edited = consts.clone();
        edited[edit_at] += 2; // keeps even/odd, so statement shape is stable

        let mut session =
            Session::open_cfg(&gen_src(&consts), Default::default(), SessionConfig::default())
                .unwrap();
        session.reload(&gen_src(&edited)).unwrap();

        if consts[edit_at] == edited[edit_at] {
            // (unreachable: delta is fixed nonzero)
            prop_assert_eq!(session.last_stats.summarized(), 0);
        } else {
            // Dirty cone = the edited leaf.  Its constant is no section,
            // so its summary comes out equal and `main`, keyed by that
            // summary's value, is served with every other leaf.
            prop_assert_eq!(session.last_stats.summarized(), 1);
            prop_assert_eq!(
                session.last_stats.summary_hits() as usize,
                consts.len()
            );
        }
    }
}

/// A snapshot holds each fact key at most once, and facts persisted after
/// a user assertion carry assertion-marked input hashes: a clean restart
/// without the assertion must evict them as stale rather than serve
/// assertion-tainted answers.
#[test]
fn restart_after_assert_and_checkpoint_equals_fresh_analysis() {
    let dir = std::env::temp_dir().join(format!("suif_persist_{}_assert_ckpt", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let src = gen_src(&[1, 3, 5]);
    let fresh = fresh_verdicts(&src);

    let mut s = Session::open_cfg(
        &src,
        Default::default(),
        SessionConfig {
            persist: Some(suif_analysis::PersistDir::new(&dir)),
            ..SessionConfig::default()
        },
    )
    .unwrap();
    s.guru_json();
    s.checkpoint_json().unwrap();
    // The auto-saved snapshot now holds facts whose hashes fold the
    // assertion epoch.
    let r = s.assert_json("main/9", "b", true);
    assert_eq!(
        r.get("assertion").and_then(Json::as_str),
        Some("consistent")
    );
    s.checkpoint_json().unwrap();
    drop(s); // clean shutdown: final snapshot write

    // The persisted file decodes cleanly and holds each fact key at most
    // once.
    let bytes = std::fs::read(dir.join(suif_server::SNAPSHOT_FILE)).unwrap();
    let snap = suif_analysis::Snapshot::decode(&bytes).unwrap();
    assert_eq!(snap.undecodable, 0);
    assert!(!snap.facts.is_empty());
    let dedup: std::collections::BTreeSet<_> = snap.facts.iter().map(|f| f.key).collect();
    assert_eq!(dedup.len(), snap.facts.len(), "duplicate persisted keys");

    // Restart over the same dir *without* the assertion: the reopened
    // session must answer exactly what a fresh analysis answers —
    // assertion-marked facts evict on their hash instead of loading.
    let mut s2 = Session::open_cfg(
        &src,
        Default::default(),
        SessionConfig {
            persist: Some(suif_analysis::PersistDir::new(&dir)),
            ..SessionConfig::default()
        },
    )
    .unwrap();
    let st = s2.stats_json();
    let snapj = st.get("snapshot").unwrap();
    assert_eq!(snapj.get("status").and_then(Json::as_str), Some("loaded"));
    assert!(
        snapj.get("evicted_stale").and_then(Json::as_i64).unwrap() > 0,
        "assertion-epoch facts must be evicted: {st}"
    );
    assert_eq!(
        s2.analyze().to_string(),
        fresh.to_string(),
        "restart after assert+checkpoint diverged from fresh analysis"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
