//! Evented-transport behavior over real TCP sockets: one reactor thread
//! multiplexing every connection, with command execution offloaded to the
//! worker pool.
//!
//! Covered here, each by a test:
//! * **robustness** — malformed JSON lines answer per-line errors and keep
//!   the session alive; oversize lines are discarded with an error; a
//!   byte-at-a-time (slow-loris) client never stalls a fast sibling;
//! * **pipelining** — many requests in one write and the `batch` command
//!   both reply strictly in request order with matching ids;
//! * **lifecycle** — a half-written line at `shutdown` does not wedge the
//!   reactor; `shutdown` takes effect at once, not at the next heartbeat;
//!   hundreds of idle connections ride on the one event thread;
//! * **equivalence** — `analyze`/`guru`/`slice` over the reactor transport
//!   are bit-identical to driving `Daemon::handle_line` directly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use suif_server::json::Json;
use suif_server::{serve_listener, Daemon, ServiceOptions, ServiceState};

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

/// Minimal JSON string escaping for request payloads.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn load_line(src: &str) -> String {
    format!(r#"{{"cmd":"load","text":"{}"}}"#, escape(src))
}

/// Bind a listener and run the reactor on a background thread.
fn spawn_server() -> (
    std::net::SocketAddr,
    Arc<ServiceState>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let state = ServiceState::new(ServiceOptions {
        workers: 1,
        ..ServiceOptions::default()
    });
    let st = state.clone();
    let server = std::thread::spawn(move || serve_listener(listener, st));
    (addr, state, server)
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

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> Json {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        Json::parse(resp.trim()).unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"))
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn shutdown(addr: std::net::SocketAddr) {
    let mut c = Client::connect(addr);
    let r = c.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
}

#[test]
fn malformed_lines_answer_errors_and_keep_the_session_alive() {
    let (addr, _state, server) = spawn_server();
    let mut c = Client::connect(addr);

    // Garbage interleaved with real work: every line (valid or not) gets
    // exactly one response, and the session state survives the garbage.
    let r = c.roundtrip(&load_line(SRC));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let session = r.get("session").and_then(Json::as_i64).unwrap();

    for garbage in [
        "this is not json",
        r#"{"cmd":"#,
        r#"{"no_cmd_field":1}"#,
        r#"{"cmd":"frobnicate"}"#,
        "[1,2,3]",
    ] {
        let e = c.roundtrip(garbage);
        assert!(
            e.get("error").and_then(Json::as_str).is_some(),
            "garbage line must answer an error object: {e}"
        );
    }

    // Same connection, same session: the loaded program is still resident.
    let v = c.roundtrip(r#"{"cmd":"analyze"}"#);
    assert_eq!(v.get("session").and_then(Json::as_i64), Some(session));
    assert!(v.get("loops").is_some(), "session died after garbage: {v}");

    shutdown(addr);
    server.join().unwrap().unwrap();
}

#[test]
fn oversize_line_is_discarded_with_an_error_and_connection_survives() {
    let (addr, _state, server) = spawn_server();
    let mut c = Client::connect(addr);

    // A line past the 4 MiB cap: the decoder discards it in streaming
    // fashion (never buffering the whole thing) and answers one error.
    let huge = "x".repeat(5 * 1024 * 1024);
    c.writer.write_all(huge.as_bytes()).unwrap();
    c.writer.write_all(b"\n").unwrap();
    c.writer.flush().unwrap();
    let e = c.recv();
    let msg = e.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(msg.contains("exceeds"), "want oversize error, got {e}");

    // The connection is still usable afterwards.
    let r = c.roundtrip(&load_line(SRC));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");

    shutdown(addr);
    server.join().unwrap().unwrap();
}

#[test]
fn pipelined_lines_and_batch_reply_in_request_order() {
    let (addr, _state, server) = spawn_server();
    let mut c = Client::connect(addr);

    // Many request lines in ONE write; replies must come back in order.
    let mut payload = String::new();
    payload.push_str(&load_line(SRC));
    payload.push('\n');
    payload.push_str("{\"cmd\":\"analyze\",\"id\":\"first\"}\n");
    payload.push_str("{\"cmd\":\"guru\",\"id\":\"second\"}\n");
    payload.push_str("{\"cmd\":\"stats\",\"id\":\"third\"}\n");
    c.writer.write_all(payload.as_bytes()).unwrap();
    c.writer.flush().unwrap();

    let r = c.recv();
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    for want in ["first", "second", "third"] {
        let r = c.recv();
        assert_eq!(
            r.get("id").and_then(Json::as_str),
            Some(want),
            "pipelined replies out of order: {r}"
        );
    }

    // Job coalescing, read from `stats.service.reactor.offloaded` (every
    // read is itself one offloaded job): serial round trips offload a job
    // each, while lines pipelined in one write are dispatched as whole
    // inbox batches.
    fn offloaded(c: &mut Client) -> i64 {
        let v = c.roundtrip(r#"{"cmd":"stats"}"#);
        let reactor = v.get("service").unwrap().get("reactor").unwrap();
        reactor.get("offloaded").and_then(Json::as_i64).unwrap()
    }
    let j0 = offloaded(&mut c);
    for _ in 0..8 {
        c.roundtrip(r#"{"cmd":"stats"}"#);
    }
    let j1 = offloaded(&mut c);
    let burst: String = (0..32)
        .map(|i| format!("{{\"cmd\":\"stats\",\"id\":{i}}}\n"))
        .collect();
    c.writer.write_all(burst.as_bytes()).unwrap();
    c.writer.flush().unwrap();
    for i in 0..32 {
        assert_eq!(c.recv().get("id").and_then(Json::as_i64), Some(i));
    }
    let j2 = offloaded(&mut c);
    let (serial_jobs, pipelined_jobs) = (j1 - j0, j2 - j1);
    assert!(serial_jobs >= 8, "serial must offload per command");
    assert!(
        pipelined_jobs < serial_jobs,
        "pipelining must coalesce jobs: {pipelined_jobs} for 32 commands vs {serial_jobs} for 8"
    );

    // The batch command: one request line, one reply line per element,
    // in element order, each tagged with its id (default = index).
    let batch = r#"{"cmd":"batch","requests":[
        {"cmd":"analyze","id":"a"},
        {"cmd":"nonsense"},
        {"cmd":"slice","loop":"rec/1","id":"s"},
        {"cmd":"stats"}
    ]}"#
    .replace('\n', "");
    c.send(&batch);
    let r1 = c.recv();
    assert_eq!(r1.get("id").and_then(Json::as_str), Some("a"));
    assert!(r1.get("loops").is_some(), "{r1}");
    let r2 = c.recv();
    assert_eq!(
        r2.get("id").and_then(Json::as_i64),
        Some(1),
        "default id is the index: {r2}"
    );
    assert!(
        r2.get("error").is_some(),
        "bad element answers per-item error: {r2}"
    );
    let r3 = c.recv();
    assert_eq!(r3.get("id").and_then(Json::as_str), Some("s"));
    let r4 = c.recv();
    assert_eq!(r4.get("id").and_then(Json::as_i64), Some(3));
    assert!(r4.get("service").is_some(), "{r4}");
    let batch_jobs = offloaded(&mut c) - j2;
    assert!(
        batch_jobs <= 2,
        "a batch frame must execute as one offloaded job: {batch_jobs}"
    );

    shutdown(addr);
    server.join().unwrap().unwrap();
}

#[test]
fn slow_loris_client_never_stalls_a_fast_sibling() {
    let (addr, _state, server) = spawn_server();

    // The fast client sets up a session first.
    let mut fast = Client::connect(addr);
    let r = fast.roundtrip(&load_line(SRC));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");

    // The slow client dribbles an `analyze` request one byte at a time.
    let mut slow = Client::connect(addr);
    let r = slow.roundtrip(&load_line(SRC));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let request = b"{\"cmd\":\"analyze\"}\n";
    let mut stalls = 0u32;
    for &b in request.iter() {
        slow.writer.write_all(&[b]).unwrap();
        slow.writer.flush().unwrap();
        // Between bytes, the fast client must keep getting answers
        // promptly — the reactor never blocks on the slow reader.
        let t0 = Instant::now();
        let v = fast.roundtrip(r#"{"cmd":"stats"}"#);
        assert!(v.get("service").is_some(), "{v}");
        if t0.elapsed() > Duration::from_millis(500) {
            stalls += 1;
        }
    }
    assert_eq!(stalls, 0, "fast client stalled behind the slow-loris one");

    // Once the last byte lands, the slow client gets its answer.
    let v = slow.recv();
    assert!(v.get("loops").is_some(), "{v}");

    shutdown(addr);
    server.join().unwrap().unwrap();
}

#[test]
fn half_written_line_at_shutdown_does_not_wedge_the_reactor() {
    let (addr, _state, server) = spawn_server();

    // A client leaves a partial frame in the decoder: no newline, ever.
    let mut partial = TcpStream::connect(addr).unwrap();
    partial.write_all(br#"{"cmd":"analy"#).unwrap();
    partial.flush().unwrap();

    // Another connection (also mid-session) issues shutdown.  The reactor
    // must drain and return even though the partial line never completes —
    // if it wedges, this join hangs and the test times out.
    let mut c = Client::connect(addr);
    let r = c.roundtrip(&load_line(SRC));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let r = c.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert_eq!(r.get("shutdown").and_then(Json::as_bool), Some(true), "{r}");
    server.join().unwrap().unwrap();

    // The half-open connection is closed out from under the client.
    let mut rest = Vec::new();
    let _ = partial.read_to_end(&mut rest);
}

#[test]
fn shutdown_after_a_command_never_waits_for_the_heartbeat() {
    // The reactor must leave its loop as soon as the `shutdown` job's
    // completion is handled, not when it next happens to wake: a worker
    // rings the doorbell before its job counts as finished, so an exit
    // test on the pool's counters can lose that race and sleep out the
    // 5 s heartbeat.
    for round in 0..50 {
        let (addr, _state, server) = spawn_server();
        let mut c = Client::connect(addr);
        let r = c.roundtrip(&load_line(SRC));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        let r = c.roundtrip(r#"{"cmd":"shutdown"}"#);
        assert_eq!(r.get("shutdown").and_then(Json::as_bool), Some(true), "{r}");
        let t0 = Instant::now();
        server.join().unwrap().unwrap();
        let waited = t0.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "round {round}: serve_listener returned {waited:?} after the shutdown reply"
        );
    }
}

#[test]
fn idle_connections_multiplex_on_the_one_reactor_thread() {
    let (addr, _state, server) = spawn_server();
    const IDLE: usize = 256;

    // Open a pile of idle sessions that never send a byte...
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();

    // ...and one active client that still gets prompt service.
    let mut c = Client::connect(addr);
    let r = c.roundtrip(&load_line(SRC));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");

    // The reactor accepts asynchronously; poll stats until all are in.
    let deadline = Instant::now() + Duration::from_secs(10);
    let reactor = loop {
        let v = c.roundtrip(r#"{"cmd":"stats"}"#);
        let svc = v.get("service").unwrap();
        let reactor = svc.get("reactor").unwrap().clone();
        let live = reactor.get("connections").and_then(Json::as_i64).unwrap();
        if live >= (IDLE + 1) as i64 {
            break reactor;
        }
        assert!(
            Instant::now() < deadline,
            "reactor accepted only {live}/{} connections",
            IDLE + 1
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let backend = reactor.get("backend").and_then(Json::as_str).unwrap();
    assert_ne!(backend, "inactive", "reactor backend must be live");
    assert!(
        reactor
            .get("peak_connections")
            .and_then(Json::as_i64)
            .unwrap()
            >= (IDLE + 1) as i64
    );

    // All those sockets live on ONE event thread: the worker pool stays at
    // its small fixed size no matter how many connections are held.
    let v = c.roundtrip(r#"{"cmd":"stats"}"#);
    let workers = v.get("service").unwrap().get("workers").unwrap().clone();
    let count = workers.get("count").and_then(Json::as_i64).unwrap();
    assert!(
        count < IDLE as i64 / 8,
        "worker pool must not scale with connections: {count}"
    );

    shutdown(addr);
    server.join().unwrap().unwrap();
    drop(idle);
}

/// Strip the one wall-clock-derived field (guru's `rendered` report embeds
/// a per-iteration millisecond estimate) so the rest compares bit-exactly.
fn scrub(j: Json) -> Json {
    match j {
        Json::Obj(m) => Json::Obj(
            m.into_iter()
                .filter(|(k, _)| k != "rendered")
                .map(|(k, v)| (k, scrub(v)))
                .collect(),
        ),
        Json::Arr(a) => Json::Arr(a.into_iter().map(scrub).collect()),
        other => other,
    }
}

#[test]
fn reactor_transport_is_bit_identical_to_direct_dispatch() {
    // Drive the same command sequence through (a) the evented TCP
    // transport and (b) Daemon::handle_line directly, on separate fresh
    // states, and require byte-identical responses (modulo wall-clock
    // timing fields, which differ run to run even on one transport).
    let commands = [
        r#"{"cmd":"analyze"}"#.to_string(),
        r#"{"cmd":"guru"}"#.to_string(),
        r#"{"cmd":"slice","loop":"rec/1"}"#.to_string(),
        r#"{"cmd":"assert","loop":"rec/1","var":"q","kind":"independent"}"#.to_string(),
        r#"{"cmd":"analyze"}"#.to_string(),
    ];

    let (addr, _state, server) = spawn_server();
    let mut c = Client::connect(addr);
    let r = c.roundtrip(&load_line(SRC));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let over_tcp: Vec<String> = commands
        .iter()
        .map(|l| scrub(c.roundtrip(l)).to_string())
        .collect();
    shutdown(addr);
    server.join().unwrap().unwrap();

    let state = ServiceState::new(ServiceOptions {
        workers: 1,
        ..ServiceOptions::default()
    });
    let mut d = Daemon::for_state(state);
    let (r, _) = d.handle_line(&load_line(SRC));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let direct: Vec<String> = commands
        .iter()
        .map(|l| {
            let (resp, _) = d.handle_line(l);
            scrub(resp).to_string()
        })
        .collect();

    assert_eq!(over_tcp, direct, "transport changed observable behavior");
}
