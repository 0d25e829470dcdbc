//! The assertion regression corpus, `tests/regressions/assert/`: programs on
//! which a user assertion once answered wrong, each with the answers the
//! assertion checker (§2.8) and `certify` must give over the protocol.

use std::path::Path;
use suif_server::json::Json;
use suif_server::{Session, SessionConfig};

fn source(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions/assert");
    std::fs::read_to_string(path.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn session(source: &str) -> Session {
    Session::open_cfg(source, Default::default(), SessionConfig::default()).expect("loads")
}

fn text<'j>(reply: &'j Json, key: &str) -> &'j str {
    reply.get(key).and_then(Json::as_str).unwrap_or_default()
}

/// `main/1` carries an anti dependence on `a` only.  Independence is
/// refuted by the dependence the profiling run observed; privatization is
/// not — it removes anti dependences — but the loop's result needs the
/// values of `a` its last iterations leave, and certification shows the
/// output departing from the sequential run's.
#[test]
fn an_anti_dependence_refutes_independence_and_certify_shows_the_lost_result() {
    let src = source("anti-dependence.mf");

    let reply = session(&src).assert_json("main/1", "a", true);
    assert_eq!(text(&reply, "assertion"), "contradicted", "{reply}");
    let detail = text(&reply, "detail");
    assert!(
        detail.contains("loop-carried anti dependence on `a`"),
        "{detail}"
    );

    let mut s = session(&src);
    let reply = s.assert_json("main/1", "a", false);
    assert_eq!(text(&reply, "assertion"), "consistent", "{reply}");
    let reply = s.certify_json(Some("main/1"), 4, 1).expect("certifies");
    let [entry] = reply.get("loops").and_then(Json::as_arr).expect("loops") else {
        panic!("one loop: {reply}");
    };
    assert_eq!(entry.get("parallel").and_then(Json::as_bool), Some(true));
    assert_eq!(entry.get("race_free").and_then(Json::as_bool), Some(true));
    assert_eq!(
        entry.get("result_matches").and_then(Json::as_bool),
        Some(false),
        "{entry}"
    );
    assert_eq!(
        reply.get("result_matches").and_then(Json::as_bool),
        Some(false)
    );
    let line = entry.get("first_diverging_line").expect("a diverging line");
    assert_eq!(line.get("index").and_then(Json::as_i64), Some(0), "{line}");
    assert_eq!(
        (text(line, "sequential"), text(line, "schedule")),
        ("2002", "1000")
    );
    let stats = s.stats_json();
    let certification = stats.get("certification").expect("certification");
    assert_eq!(
        certification.get("diverging").and_then(Json::as_i64),
        Some(4),
        "{certification}"
    );
}

/// The first diverging line of a one-loop `certify` of `main/1` under the
/// `private` assertion: (sequential, schedule).
fn diverging(s: &mut Session) -> (String, String) {
    assert_eq!(
        text(&s.assert_json("main/1", "a", false), "assertion"),
        "consistent"
    );
    let reply = s.certify_json(Some("main/1"), 2, 1).expect("certifies");
    let entry = &reply.get("loops").and_then(Json::as_arr).expect("loops")[0];
    let line = entry.get("first_diverging_line").expect("a diverging line");
    (
        text(line, "sequential").into(),
        text(line, "schedule").into(),
    )
}

/// A later `certify` of the same program is judged against the sequential
/// capture the session kept from the first; a reload drops it, so an edit
/// to what the program prints shows on the sequential side.
#[test]
fn the_kept_sequential_capture_serves_only_its_program() {
    let src = source("anti-dependence.mf");
    let mut s = session(&src);
    let want = ("2002".to_string(), "1000".to_string());
    assert_eq!(diverging(&mut s), want);
    assert_eq!(diverging(&mut s), want, "the kept capture");
    let edited = src.replace("print a[1000]", "print a[1000] + 1");
    s.reload(&edited).expect("reloads");
    let want = ("2003".to_string(), "1001".to_string());
    assert_eq!(diverging(&mut s), want, "after the reload");
}
