//! End-to-end protocol round trip: spawn the real `suif-explorer serve`
//! binary, speak line-delimited JSON over its stdio, and check every
//! response.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use suif_server::json::Json;

const SRC: &str = "program t
proc inc(real q[*], int n) {
 int i
 do 1 i = 1, n {
  q[i] = q[i] + 1
 }
}
proc main() {
 real b[8]
 int i
 do 2 i = 1, 8 {
  b[i] = i
 }
 call inc(b, 8)
 print b[3]
}";

/// Minimal JSON string escaping for request payloads.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

struct Client {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Requests sent so far, by `cmd` (lines that are not JSON objects
    /// with a `cmd` are not commands).
    sent: BTreeMap<String, i64>,
}

impl Client {
    fn spawn() -> Client {
        let mut child = Command::new(env!("CARGO_BIN_EXE_suif-explorer"))
            .args(["serve", "--workers", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn suif-explorer serve");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Client {
            child,
            stdin,
            stdout,
            sent: BTreeMap::new(),
        }
    }

    fn request(&mut self, line: &str) -> Json {
        if let Some(cmd) = Json::parse(line).ok().and_then(|v| {
            let cmd = v.get("cmd").and_then(Json::as_str)?;
            Some(cmd.to_string())
        }) {
            *self.sent.entry(cmd).or_default() += 1;
        }
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().unwrap();
        let mut resp = String::new();
        self.stdout.read_line(&mut resp).expect("read response");
        Json::parse(resp.trim()).unwrap_or_else(|e| panic!("bad response {resp:?}: {e:?}"))
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn daemon_protocol_round_trip() {
    let mut c = Client::spawn();

    // Querying before load is a clean protocol error.
    let r = c.request(r#"{"cmd":"analyze"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
    assert!(r.get("error").and_then(Json::as_str).is_some());

    // Load: stats payload, everything summarized once.
    let r = c.request(&format!(r#"{{"cmd":"load","text":"{}"}}"#, escape(SRC)));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    assert_eq!(r.get("summarized").and_then(Json::as_i64), Some(2));
    assert_eq!(r.get("generation").and_then(Json::as_i64), Some(1));
    // ... and the program interpreted once, as a fact of its own pass.
    let execute_row = |r: &Json| {
        let row = r.get("passes").and_then(|p| p.get("execute")).cloned();
        let row = row.unwrap_or_else(|| panic!("no passes.execute in {r}"));
        assert!(row.get("secs").and_then(Json::as_f64).is_some(), "{row}");
        let count = |k| row.get(k).and_then(Json::as_i64).unwrap();
        (count("invocations"), count("reused"), count("shared"))
    };
    let execution = |r: &Json| {
        let e = r.get("execution").expect("execution object");
        assert!(e.get("secs").and_then(Json::as_f64).is_some(), "{e}");
        (
            e.get("ops").and_then(Json::as_i64).unwrap(),
            e.get("reused").and_then(Json::as_bool).unwrap(),
        )
    };
    assert_eq!(execute_row(&r), (1, 0, 0));
    let (first_ops, reused) = execution(&r);
    assert!(first_ops > 0 && !reused, "{r}");
    // The opening analysis's kernel counters, the approximation events
    // among them; witness hits are a part of the quick satisfiability
    // answers.
    let poly = r
        .get("poly")
        .unwrap_or_else(|| panic!("no poly object: {r}"));
    let counter = |k: &str| {
        let n = poly.get(k).and_then(Json::as_i64);
        n.unwrap_or_else(|| panic!("no poly.{k}: {poly}"))
    };
    for k in [
        "gcd_rejects",
        "interval_rejects",
        "fm_runs",
        "subscript_rejects",
        "approximations",
        "disjunct_widenings",
        "subtract_giveups",
    ] {
        counter(k);
    }
    assert!(counter("witness_sats") <= counter("quick_sats"), "{poly}");

    // Analyze: both loops parallel.
    let r = c.request(r#"{"cmd":"analyze"}"#);
    let loops = r.get("loops").and_then(Json::as_arr).expect("loops");
    assert_eq!(loops.len(), 2);
    for l in loops {
        assert_eq!(l.get("parallel").and_then(Json::as_bool), Some(true), "{l}");
    }

    // Warm analyze: every fact served from the store, both procedures'
    // summaries among them.
    let r = c.request(r#"{"cmd":"stats"}"#);
    assert_eq!(r.get("summarized").and_then(Json::as_i64), Some(0), "{r}");
    assert_eq!(r.get("cache_hits").and_then(Json::as_i64), Some(2), "{r}");
    assert!(r.get("cache_entries").is_none(), "{r}");
    assert!(r.get("passes").and_then(|p| p.get("total")).is_some());
    let classify = r.get("passes").and_then(|p| p.get("classify")).unwrap();
    assert_eq!(classify.get("invocations").and_then(Json::as_i64), Some(0));
    assert_eq!(classify.get("reused").and_then(Json::as_i64), Some(2));
    let facts = r.get("facts").expect("facts object");
    assert_eq!(facts.get("computed").and_then(Json::as_i64), Some(0), "{r}");
    assert!(facts.get("ratio").and_then(Json::as_f64).unwrap() > 0.99);
    assert!(r.get("prove_empty").is_none(), "no emptiness memo: {r}");

    // The process's own memory sits beside the tier's ledger, in
    // `stats.service` and in a corpus reply's summary (where /proc exists).
    let process_memory = |process: Option<&Json>| {
        let on_linux = cfg!(target_os = "linux");
        let Some(p) = process else {
            assert!(!on_linux, "no process object on Linux");
            return;
        };
        let rss = p.get("rss_bytes").and_then(Json::as_i64).unwrap();
        let peak = p.get("peak_rss_bytes").and_then(Json::as_i64).unwrap();
        assert!(peak >= rss && rss > 0, "{p}");
    };
    process_memory(r.get("service").and_then(|s| s.get("process")));
    let r = c.request(r#"{"cmd":"corpus","gen":2}"#);
    let summary = r.get("summary").unwrap_or_else(|| panic!("{r}"));
    assert_eq!(summary.get("ok").and_then(Json::as_i64), Some(2), "{r}");
    process_memory(summary.get("process"));

    // Assert on one loop: checked, applied, loops refreshed.
    let r = c.request(r#"{"cmd":"assert","loop":"main/2","var":"b","kind":"independent"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    assert_eq!(
        r.get("assertion").and_then(Json::as_str),
        Some("consistent"),
        "{r}"
    );
    assert!(r.get("warnings").and_then(Json::as_arr).is_some());

    // Advisories answer on demand.
    let r = c.request(r#"{"cmd":"advisory"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    assert!(r.get("contractions").and_then(Json::as_arr).is_some());
    assert!(r.get("decomp_conflicts").and_then(Json::as_arr).is_some());
    assert!(r.get("splits").and_then(Json::as_arr).is_some());

    // Guru and codeview render.
    let r = c.request(r#"{"cmd":"guru"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    assert!(r.get("coverage").and_then(Json::as_f64).is_some());
    let r = c.request(r#"{"cmd":"codeview"}"#);
    assert!(r.get("view").and_then(Json::as_str).unwrap().contains("do"));

    // Slice of a clean loop reports zero slices; unknown loops error.
    let r = c.request(r#"{"cmd":"slice","loop":"main/2"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(r.get("slices").and_then(Json::as_i64), Some(0));
    let r = c.request(r#"{"cmd":"slice","loop":"nope/1"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));

    // Reload an edited main: the leaf `inc` stays cached.
    let edited = SRC.replace("print b[3]", "print b[4]");
    let r = c.request(&format!(
        r#"{{"cmd":"reload","text":"{}"}}"#,
        escape(&edited)
    ));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    assert_eq!(r.get("generation").and_then(Json::as_i64), Some(2));
    assert_eq!(r.get("summarized").and_then(Json::as_i64), Some(1), "{r}");
    assert_eq!(r.get("cache_hits").and_then(Json::as_i64), Some(1), "{r}");
    // An unseen text: interpreted.
    assert_eq!(execute_row(&r), (1, 0, 0));
    assert!(!execution(&r).1, "{r}");

    // Back to the first text: its run is still in the tier, so nothing is
    // interpreted and `execution` describes the run that produced the fact.
    let r = c.request(&format!(r#"{{"cmd":"reload","text":"{}"}}"#, escape(SRC)));
    assert_eq!(r.get("generation").and_then(Json::as_i64), Some(3), "{r}");
    assert_eq!(execute_row(&r), (0, 0, 1));
    assert_eq!(execution(&r), (first_ops, true));

    // Malformed input answers, then quit closes cleanly.
    let r = c.request("this is not json");
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));

    // Every command sent so far has its execute-time histogram: one count
    // per request, error replies included (the query before `load`, the
    // unknown loop), and ordered percentiles.  This `stats` counts the
    // requests before it, not itself.
    let sent = c.sent.clone();
    let r = c.request(r#"{"cmd":"stats"}"#);
    let latency = r.get("service").and_then(|s| s.get("latency"));
    let Some(Json::Obj(latency)) = latency else {
        panic!("no service.latency object: {r}");
    };
    let counted: BTreeMap<String, i64> = latency
        .iter()
        .map(|(cmd, h)| (cmd.clone(), h.get("count").and_then(Json::as_i64).unwrap()))
        .collect();
    assert_eq!(counted, sent, "{r}");
    for (cmd, h) in latency {
        let us = |k| h.get(k).and_then(Json::as_f64).unwrap();
        let (p50, p90, p99) = (us("p50_us"), us("p90_us"), us("p99_us"));
        assert!(0.0 < p50 && p50 <= p90 && p90 <= p99, "{cmd}: {h}");
    }
    let r = c.request(r#"{"cmd":"quit"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    let status = c.child.wait().expect("daemon exit");
    assert!(status.success());
}

/// `schedules` outside `1..=MAX_CERTIFY_SCHEDULES` is a protocol error (2³²
/// once read as zero schedules and a race-free verdict without a run), and
/// `stats.certification` counts how the schedules rode the scout, the same
/// way each time.
#[test]
fn certify_bounds_its_schedules_and_counts_the_rides() {
    let mut c = Client::spawn();
    let r = c.request(&format!(r#"{{"cmd":"load","text":"{}"}}"#, escape(SRC)));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let max = i64::from(suif_parallel::MAX_CERTIFY_SCHEDULES);
    for bad in [0, 1 << 32, (1 << 32) - 1, max + 1] {
        let r = c.request(&format!(r#"{{"cmd":"certify","schedules":{bad}}}"#));
        assert_eq!(
            r.get("ok").and_then(Json::as_bool),
            Some(false),
            "{bad}: {r}"
        );
        let e = r.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(e.contains("schedules"), "{bad}: {r}");
    }
    let counters = |c: &mut Client| {
        let r = c.request(r#"{"cmd":"stats"}"#);
        let cert = r.get("certification").cloned();
        let cert = cert.unwrap_or_else(|| panic!("no certification: {r}"));
        let n = |k| cert.get(k).and_then(Json::as_i64).unwrap();
        [
            n("schedules_run"),
            n("invocations"),
            n("joined"),
            n("overlaid"),
            n("diverged"),
            n("shared"),
        ]
    };
    assert_eq!(
        counters(&mut c),
        [0; 6],
        "a refused request certifies nothing"
    );
    let r = c.request(r#"{"cmd":"certify","schedules":2}"#);
    let loops = r.get("loops").and_then(Json::as_arr).expect("loops");
    assert!(
        loops
            .iter()
            .all(|l| l.get("race_free") == Some(&Json::Bool(true))),
        "{r}"
    );
    for l in loops {
        let n = |k| l.get(k).and_then(Json::as_i64).expect(k);
        assert_eq!((n("joined"), n("shared")), (2, 1), "{l}");
        let alone = l.get("alone_secs").and_then(Json::as_f64);
        assert_eq!(alone, Some(0.0), "no schedule left the scout: {l}");
    }
    let once = counters(&mut c);
    // Two DOALL loops, each invoked once, under two schedules: every
    // invocation leaves the state the sequential run has, so every
    // schedule rides the scout on, with nothing overlaid, and the second
    // schedule of each loop takes the first one's race-free run.
    assert_eq!(once, [4, 4, 4, 0, 0, 2]);
    c.request(r#"{"cmd":"certify","schedules":2}"#);
    assert_eq!(counters(&mut c), once.map(|n| 2 * n));
}

/// `reply` with the Guru's wall-clock figure (`(~… ms)`) left out.
fn mask_wall_clock(reply: &str) -> String {
    let (mut out, mut rest) = (String::new(), reply);
    while let Some(at) = rest.find("(~") {
        out.push_str(&rest[..at + 2]);
        rest = &rest[at + 2..];
        rest = &rest[rest.find(" ms)").expect("a wall-clock figure")..];
    }
    out + rest
}

/// A reload whose edit no branch, bound, subscript or divisor reads reuses
/// the run: nothing is interpreted, the static passes stop at the edited
/// procedure, and what the session answers equals what a fresh daemon
/// answers on the edited text.  An edit to a bound interprets again and
/// reruns liveness.
#[test]
fn a_data_edit_reload_reuses_the_run() {
    let demo = include_str!("../../../docs/samples/demo.mf");
    let data_edit = demo.replacen("t[j] = col[j] * 0.25", "t[j] = col[j] * 0.2512", 1);
    let bound_edit = demo.replacen("do 20 j = 1, m", "do 20 j = 2, m", 1);
    assert!(data_edit != demo && bound_edit != demo);
    let open = |cmd: &str, text: &str| format!(r#"{{"cmd":"{cmd}","text":"{}"}}"#, escape(text));
    // `(passes.execute.invocations, execution.reused)` of an open.
    let run = |r: &Json| {
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        let passes = r.get("passes").and_then(|p| p.get("execute"));
        let invocations = passes
            .and_then(|e| e.get("invocations"))
            .and_then(Json::as_i64);
        let reused = r.get("execution").and_then(|e| e.get("reused"));
        (
            invocations.unwrap(),
            reused.and_then(Json::as_bool).unwrap(),
        )
    };
    let answers = |c: &mut Client| -> Vec<String> {
        [
            r#"{"cmd":"guru"}"#,
            r#"{"cmd":"analyze"}"#,
            r#"{"cmd":"slice","loop":"smooth/21"}"#,
        ]
        .iter()
        .map(|q| mask_wall_clock(&c.request(q).to_string()))
        .collect()
    };

    // `passes.<pass>.invocations` of an open; a pass with no traffic is
    // left out of `passes`, and ran zero times.
    let ran = |r: &Json, pass: &str| {
        let p = r.get("passes").and_then(|p| p.get(pass));
        p.and_then(|p| p.get("invocations"))
            .and_then(Json::as_i64)
            .unwrap_or(0)
    };

    let mut c = Client::spawn();
    assert_eq!(run(&c.request(&open("load", demo))), (1, false));
    let data = c.request(&open("reload", &data_edit));
    assert_eq!(run(&data), (0, true));
    // Early cutoff: `smooth`'s summary comes out equal, so the reload
    // re-summarizes `smooth` alone, keeps liveness, and recomputes the
    // tables and verdicts of `smooth`'s two loops only.
    assert_eq!(ran(&data, "summarize"), 1, "{data}");
    assert_eq!(ran(&data, "liveness"), 0, "{data}");
    assert_eq!(ran(&data, "deps"), 2, "{data}");
    assert_eq!(ran(&data, "classify"), 2, "{data}");
    let reused = answers(&mut c);

    let mut fresh = Client::spawn();
    assert_eq!(run(&fresh.request(&open("load", &data_edit))), (1, false));
    assert_eq!(reused, answers(&mut fresh));

    let bound = c.request(&open("reload", &bound_edit));
    assert_eq!(run(&bound), (1, false));
    assert_eq!(
        ran(&bound, "liveness"),
        1,
        "a bound edit changes a section: {bound}"
    );
}

#[test]
fn daemon_protocol_over_tcp() {
    use std::net::TcpStream;

    let mut child = Command::new(env!("CARGO_BIN_EXE_suif-explorer"))
        .args(["serve", "--workers", "1", "--tcp", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn tcp daemon");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut request = |line: &str| -> Json {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        Json::parse(resp.trim()).unwrap()
    };

    let r = request(&format!(r#"{{"cmd":"load","text":"{}"}}"#, escape(SRC)));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let r = request(r#"{"cmd":"analyze"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    let r = request(r#"{"cmd":"quit"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));

    let _ = child.kill();
    let _ = child.wait();
}
