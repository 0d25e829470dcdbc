//! Multi-tenant daemon semantics: concurrent sessions over one process-wide
//! content-addressed fact tier.
//!
//! Three properties matter and each gets a test: **sharing** (the second
//! session to load a program recomputes nothing — every fact arrives from
//! the tier), **isolation** (one tenant's assertion never changes what
//! another tenant observes; the other tenant's verdicts stay bit-identical
//! to a fresh single-tenant run), and **service behavior over real TCP**
//! (concurrent clients, distinct session ids, no cross-talk, graceful
//! `shutdown`).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use suif_server::json::Json;
use suif_server::{serve_listener, Daemon, ServiceOptions, ServiceState, Session, SessionConfig};

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

/// The MDG kernel shape from the paper: `main/1000` is sequential until the
/// user asserts `rl` privatizable, which flips it parallel.
const MDG_LIKE: &str = r#"program mdgkern
const nmol = 40
proc main() {
  real rs[9], rl[14], a[nmol]
  real cut2, acc
  int i, k, kc
  cut2 = 30.0
  acc = 0
  do 5 i = 1, nmol {
    a[i] = i * 0.7
  }
  do 1000 i = 1, nmol {
    kc = 0
    do 1110 k = 1, 9 {
      rs[k] = a[i] + k
      if rs[k] > cut2 { kc = kc + 1 }
    }
    do 1130 k = 2, 5 {
      if rs[k + 4] <= cut2 { rl[k + 4] = rs[k + 4] }
    }
    if kc == 0 {
      do 1140 k = 11, 14 {
        acc = acc + rl[k - 5]
      }
    }
  }
  print acc
}
"#;

/// Minimal JSON string escaping for request payloads.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn req(d: &mut Daemon, line: &str) -> Json {
    let (resp, _) = d.handle_line(line);
    resp
}

fn load_line(src: &str) -> String {
    format!(r#"{{"cmd":"load","text":"{}"}}"#, escape(src))
}

/// `parallel` flag of a named loop in a `loops` array.
fn loop_parallel(resp: &Json, name: &str) -> Option<bool> {
    resp.get("loops")
        .and_then(Json::as_arr)?
        .iter()
        .find(|l| l.get("loop").and_then(Json::as_str) == Some(name))?
        .get("parallel")
        .and_then(Json::as_bool)
}

#[test]
fn second_session_shares_every_fact() {
    let state = ServiceState::new(ServiceOptions {
        workers: 1,
        ..ServiceOptions::default()
    });
    let mut a = Daemon::for_state(state.clone());
    let ra = req(&mut a, &load_line(SRC));
    assert_eq!(ra.get("ok").and_then(Json::as_bool), Some(true), "{ra}");
    let computed_a = ra
        .get("facts")
        .unwrap()
        .get("computed")
        .and_then(Json::as_i64)
        .unwrap();
    assert!(computed_a > 0, "first tenant computes cold: {ra}");

    // The second tenant loads the same program concurrently-in-spirit:
    // every fact — summaries, liveness, classifications, carried deps —
    // must arrive from the shared tier with ZERO pass invocations.
    let mut b = Daemon::for_state(state.clone());
    let rb = req(&mut b, &load_line(SRC));
    assert_eq!(rb.get("ok").and_then(Json::as_bool), Some(true), "{rb}");
    let facts = rb.get("facts").unwrap();
    assert_eq!(
        facts.get("computed").and_then(Json::as_i64),
        Some(0),
        "second session recomputed something: {rb}"
    );
    let shared = facts.get("shared").and_then(Json::as_i64).unwrap();
    assert!(shared > 0, "facts must come from the tier: {rb}");
    let passes = rb.get("passes").unwrap();
    // Summaries are shared procedure by procedure.
    let summarize = passes.get("summarize").unwrap();
    assert_eq!(
        summarize.get("shared").and_then(Json::as_i64),
        rb.get("procs").and_then(Json::as_i64),
        "one tier hit per procedure: {rb}"
    );
    assert_eq!(rb.get("procs").and_then(Json::as_i64), Some(3), "{rb}");
    for pass in ["summarize", "classify"] {
        if let Some(p) = passes.get(pass) {
            assert_eq!(
                p.get("invocations").and_then(Json::as_i64),
                Some(0),
                "{pass} ran in the second session: {rb}"
            );
        }
    }

    // Same verdicts, and the tier accounted the traffic.
    let va = req(&mut a, r#"{"cmd":"analyze"}"#);
    let vb = req(&mut b, r#"{"cmd":"analyze"}"#);
    assert_eq!(
        format!("{}", va.get("loops").unwrap()),
        format!("{}", vb.get("loops").unwrap())
    );
    let tier = state.tier().stats();
    assert!(tier.hits > 0, "tier hit counter: {tier:?}");
    assert!(tier.inserts > 0, "tier insert counter: {tier:?}");
}

#[test]
fn assertions_stay_session_private() {
    let state = ServiceState::new(ServiceOptions {
        workers: 1,
        ..ServiceOptions::default()
    });
    let mut a = Daemon::for_state(state.clone());
    let mut b = Daemon::for_state(state.clone());
    let ra = req(&mut a, &load_line(MDG_LIKE));
    assert_eq!(ra.get("ok").and_then(Json::as_bool), Some(true), "{ra}");
    let rb = req(&mut b, &load_line(MDG_LIKE));
    assert_eq!(rb.get("ok").and_then(Json::as_bool), Some(true), "{rb}");

    // Baseline: main/1000 is sequential for everyone (the rl dependence).
    let va = req(&mut a, r#"{"cmd":"analyze"}"#);
    assert_eq!(loop_parallel(&va, "main/1000"), Some(false));

    // Tenant A asserts rl privatizable: its own loop flips parallel.
    let r = req(
        &mut a,
        r#"{"cmd":"assert","loop":"main/1000","var":"rl","kind":"private"}"#,
    );
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    assert_eq!(
        loop_parallel(&r, "main/1000"),
        Some(true),
        "assertion must flip A's verdict: {r}"
    );

    // Tenant B must not observe A's assertion — and its verdicts must be
    // bit-identical to a fresh single-tenant analysis of the same source.
    let vb = req(&mut b, r#"{"cmd":"analyze"}"#);
    assert_eq!(
        loop_parallel(&vb, "main/1000"),
        Some(false),
        "A's assertion leaked into B: {vb}"
    );
    let fresh = Session::open_cfg(MDG_LIKE, Default::default(), SessionConfig::default()).unwrap();
    assert_eq!(
        format!("{}", vb.get("loops").unwrap()),
        format!("{}", fresh.verdicts_json().get("loops").unwrap()),
        "tenant B diverged from a fresh single-tenant run"
    );

    // A third tenant arriving AFTER the assertion sees clean facts too:
    // assertion-tainted classifications were never published to the tier.
    let mut c = Daemon::for_state(state.clone());
    let rc = req(&mut c, &load_line(MDG_LIKE));
    assert_eq!(rc.get("ok").and_then(Json::as_bool), Some(true), "{rc}");
    let vc = req(&mut c, r#"{"cmd":"analyze"}"#);
    assert_eq!(
        loop_parallel(&vc, "main/1000"),
        Some(false),
        "A's asserted verdict leaked into the tier: {vc}"
    );
    assert_eq!(
        format!("{}", vc.get("loops").unwrap()),
        format!("{}", fresh.verdicts_json().get("loops").unwrap())
    );
}

/// What a `reload` computes is assertion-free whatever the session asserted
/// before it, so all of it — the classifications and the instrumented run
/// too — reaches the tier: the next tenant to load the edited text
/// classifies nothing and interprets nothing.
#[test]
fn reload_after_assert_publishes_the_rebuilt_facts() {
    let state = ServiceState::new(ServiceOptions {
        workers: 1,
        ..ServiceOptions::default()
    });
    let mut a = Daemon::for_state(state.clone());
    let ra = req(&mut a, &load_line(MDG_LIKE));
    assert_eq!(ra.get("ok").and_then(Json::as_bool), Some(true), "{ra}");
    let r = req(
        &mut a,
        r#"{"cmd":"assert","loop":"main/1000","var":"rl","kind":"private"}"#,
    );
    assert_eq!(loop_parallel(&r, "main/1000"), Some(true), "{r}");

    let edited = MDG_LIKE.replace("cut2 = 30.0", "cut2 = 31.5");
    assert_ne!(edited, MDG_LIKE);
    let reload = format!(r#"{{"cmd":"reload","text":"{}"}}"#, escape(&edited));
    let rr = req(&mut a, &reload);
    assert_eq!(rr.get("ok").and_then(Json::as_bool), Some(true), "{rr}");
    let ran = rr.get("passes").unwrap().get("execute").unwrap();
    assert_eq!(ran.get("invocations").and_then(Json::as_i64), Some(1));
    // The reload dropped the assertion with the old program.
    let va = req(&mut a, r#"{"cmd":"analyze"}"#);
    assert_eq!(loop_parallel(&va, "main/1000"), Some(false), "{va}");

    let mut b = Daemon::for_state(state.clone());
    let rb = req(&mut b, &load_line(&edited));
    assert_eq!(rb.get("ok").and_then(Json::as_bool), Some(true), "{rb}");
    let passes = rb.get("passes").unwrap();
    for pass in ["execute", "classify", "summarize", "liveness"] {
        let invocations = passes.get(pass).and_then(|p| p.get("invocations"));
        assert_eq!(
            invocations.and_then(Json::as_i64).unwrap_or(0),
            0,
            "{pass} ran again in the second session: {rb}"
        );
    }
    let execution = rb.get("execution").unwrap();
    assert_eq!(
        execution.get("reused").and_then(Json::as_bool),
        Some(true),
        "the second session interpreted the program again: {rb}"
    );
    assert_eq!(
        rb.get("facts")
            .unwrap()
            .get("computed")
            .and_then(Json::as_i64),
        Some(0),
        "{rb}"
    );

    // A reload whose build fails — here the edited program runs out of
    // bounds — keeps the session, its assertion and its taint: what the
    // session classifies next under assertions stays out of the tier.
    let r = req(
        &mut b,
        r#"{"cmd":"assert","loop":"main/1000","var":"rl","kind":"private"}"#,
    );
    assert_eq!(loop_parallel(&r, "main/1000"), Some(true), "{r}");
    let broken = edited.replace("real rs[9]", "real rs[8]");
    let reload = format!(r#"{{"cmd":"reload","text":"{}"}}"#, escape(&broken));
    let bad = req(&mut b, &reload);
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
    assert!(format!("{bad}").contains("runtime error"), "{bad}");
    let vb = req(&mut b, r#"{"cmd":"analyze"}"#);
    assert_eq!(loop_parallel(&vb, "main/1000"), Some(true), "{vb}");
    let inserts = |d: &mut Daemon| {
        let st = req(d, r#"{"cmd":"stats"}"#);
        let tier = st.get("tier").expect("a shared tier");
        tier.get("inserts").and_then(Json::as_i64).unwrap()
    };
    let before = inserts(&mut b);
    let r = req(
        &mut b,
        r#"{"cmd":"assert","loop":"main/1000","var":"rs","kind":"private"}"#,
    );
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let st = req(&mut b, r#"{"cmd":"stats"}"#);
    let computed = st.get("facts").unwrap().get("computed");
    assert!(computed.and_then(Json::as_i64).unwrap() > 0, "{st}");
    assert_eq!(inserts(&mut b), before, "asserted facts reached the tier");
}

/// The assertion taint goes up before the reanalysis, not after it: what the
/// *first* assertion of a session makes it classify is that tenant's opinion
/// like every later one's, and none of it reaches the tier.  A refused
/// assertion leaves the session clean, and so does the next `reload`.
#[test]
fn first_assert_publishes_nothing() {
    let state = ServiceState::new(ServiceOptions {
        workers: 1,
        ..ServiceOptions::default()
    });
    let mut a = Daemon::for_state(state.clone());
    let r = req(&mut a, &load_line(MDG_LIKE));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let inserts = |d: &mut Daemon| {
        let st = req(d, r#"{"cmd":"stats"}"#);
        let tier = st.get("tier").expect("a shared tier");
        tier.get("inserts").and_then(Json::as_i64).unwrap()
    };
    let loaded = inserts(&mut a);
    assert!(loaded > 0, "the load published nothing");

    // Refused: the session stays assertion-free, and what it computes next
    // (the advisories are demanded on first query) is still published.
    let r = req(
        &mut a,
        r#"{"cmd":"assert","loop":"main/1000","var":"nosuch","kind":"private"}"#,
    );
    assert_eq!(
        r.get("assertion").and_then(Json::as_str),
        Some("contradicted"),
        "{r}"
    );
    assert_eq!(inserts(&mut a), loaded);
    let r = req(&mut a, r#"{"cmd":"advisory"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let advised = inserts(&mut a);
    assert!(advised > loaded, "a refused assertion tainted the session");

    let r = req(
        &mut a,
        r#"{"cmd":"assert","loop":"main/1000","var":"rl","kind":"private"}"#,
    );
    assert_eq!(loop_parallel(&r, "main/1000"), Some(true), "{r}");
    let st = req(&mut a, r#"{"cmd":"stats"}"#);
    let computed = st.get("facts").unwrap().get("computed");
    assert!(computed.and_then(Json::as_i64).unwrap() > 0, "{st}");
    assert_eq!(
        inserts(&mut a),
        advised,
        "the first assertion's facts reached the tier"
    );

    let edited = MDG_LIKE.replace("cut2 = 30.0", "cut2 = 31.5");
    let reload = format!(r#"{{"cmd":"reload","text":"{}"}}"#, escape(&edited));
    let r = req(&mut a, &reload);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    assert!(
        inserts(&mut a) > advised,
        "the reload published nothing: {r}"
    );
}

/// One line-delimited JSON client over a real socket.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let conn = TcpStream::connect(addr).unwrap();
        Client {
            reader: BufReader::new(conn.try_clone().unwrap()),
            writer: conn,
        }
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        Json::parse(resp.trim()).unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"))
    }
}

#[test]
fn tcp_concurrent_tenants_and_graceful_shutdown() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let state = ServiceState::new(ServiceOptions {
        workers: 1,
        ..ServiceOptions::default()
    });
    let st = state.clone();
    let server = std::thread::spawn(move || serve_listener(listener, st));

    // Concurrent tenants: each loads and analyzes over its own connection.
    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let r = c.roundtrip(&load_line(SRC));
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
                let session = r.get("session").and_then(Json::as_i64).unwrap();
                let v = c.roundtrip(r#"{"cmd":"analyze"}"#);
                assert_eq!(v.get("session").and_then(Json::as_i64), Some(session));
                let loops = format!("{}", v.get("loops").unwrap());
                let q = c.roundtrip(r#"{"cmd":"quit"}"#);
                assert_eq!(q.get("ok").and_then(Json::as_bool), Some(true));
                (session, loops)
            })
        })
        .collect();
    let results: Vec<(i64, String)> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    let mut ids: Vec<i64> = results.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3, "every connection gets its own session id");
    assert!(
        results.windows(2).all(|w| w[0].1 == w[1].1),
        "tenants disagree on verdicts: {results:?}"
    );

    // A late tenant answers entirely from the shared tier.
    let mut late = Client::connect(addr);
    let r = late.roundtrip(&load_line(SRC));
    assert_eq!(
        r.get("facts")
            .unwrap()
            .get("computed")
            .and_then(Json::as_i64),
        Some(0),
        "late tenant recomputed facts: {r}"
    );
    let stats = late.roundtrip(r#"{"cmd":"stats"}"#);
    let tier = stats.get("tier").unwrap();
    assert!(tier.get("hits").and_then(Json::as_i64).unwrap() > 0);

    // Graceful shutdown: the issuing connection gets an acknowledgment, the
    // acceptor drains, and the server thread returns.
    let r = late.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    assert_eq!(r.get("shutdown").and_then(Json::as_bool), Some(true));
    server.join().unwrap().unwrap();
    assert!(state.shutting_down());
}

/// The thread census reads `/proc`, so it is Linux-only.
#[cfg(target_os = "linux")]
mod census {
    use super::*;

    /// `Threads:` of `/proc/<pid>/status`.
    fn os_threads(pid: u32) -> usize {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
        let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
        line["Threads:".len()..].trim().parse().unwrap()
    }

    /// Kills the daemon if the test unwinds before its `shutdown`: the child
    /// holds the test's stderr open, which would hang the harness.
    struct KillOnDrop(std::process::Child);

    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    /// A daemon's thread count is the reactor plus `--workers`, and nothing a
    /// client sends moves it: no command spawns, so the count read right after
    /// every reply is the start-up count.  A `corpus` command's private pool
    /// exists only while the command runs.
    #[test]
    fn thread_census_is_the_reactor_plus_workers() {
        use std::process::{Command, Stdio};
        const WORKERS: usize = 3;
        let child = Command::new(env!("CARGO_BIN_EXE_suif-explorer"))
            .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "3"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut child = KillOnDrop(child);
        let mut banner = String::new();
        BufReader::new(child.0.stdout.take().unwrap())
            .read_line(&mut banner)
            .unwrap();
        let addr: std::net::SocketAddr = banner
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .parse()
            .unwrap();
        let pid = child.0.id();
        // The banner comes before the pool; the first reply comes after it.
        let mut probe = Client::connect(addr);
        probe.roundtrip(r#"{"cmd":"stats"}"#);
        // The reactor runs on the main thread; there is no listener thread.
        let census = 1 + WORKERS;
        assert_eq!(os_threads(pid), census, "at start-up");

        let script = [
            load_line(MDG_LIKE),
            r#"{"cmd":"guru"}"#.to_string(),
            r#"{"cmd":"slice","loop":"main/1000"}"#.to_string(),
            r#"{"cmd":"assert","loop":"main/1000","var":"rl","kind":"private"}"#.to_string(),
            r#"{"cmd":"advisory"}"#.to_string(),
            r#"{"cmd":"analyze"}"#.to_string(),
            r#"{"cmd":"certify","loop":"main/1000","schedules":2}"#.to_string(),
        ];
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let script = script.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    for line in &script {
                        let r = c.roundtrip(line);
                        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
                        assert_eq!(os_threads(pid), census, "after {line}");
                    }
                    c
                })
            })
            .collect();
        // The sessions stay open: a resident session owns no thread either.
        let mut clients: Vec<Client> = clients.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(os_threads(pid), census, "with four sessions resident");

        let r = clients[0].roundtrip(r#"{"cmd":"corpus","gen":20,"workers":2}"#);
        let summary = r.get("summary").unwrap_or_else(|| panic!("{r}"));
        assert_eq!(summary.get("ok").and_then(Json::as_i64), Some(20), "{r}");
        // The run joined its pool before it answered; a joined thread may take
        // a moment more to leave the process table.
        let t0 = std::time::Instant::now();
        while os_threads(pid) != census && t0.elapsed().as_secs() < 5 {
            std::thread::yield_now();
        }
        assert_eq!(os_threads(pid), census, "after a corpus run");

        let r = clients[0].roundtrip(r#"{"cmd":"shutdown"}"#);
        assert_eq!(r.get("shutdown").and_then(Json::as_bool), Some(true), "{r}");
        assert!(child.0.wait().unwrap().success());
    }
}
