//! The daemon loop: line-delimited JSON requests over stdio or TCP.
//!
//! A daemon process hosts one [`ServiceState`] — the process-wide
//! content-addressed fact tier, the shared command worker pool, and the
//! admission counters — and any number of concurrent
//! [`Daemon`] instances, one per connection.  Each connection holds at most
//! one [`Session`]; sessions are thin overlays over the shared tier, so the
//! second tenant to load a program the first already analyzed recomputes
//! nothing.  The tier outlives sessions: a `load` after a `quit` or
//! reconnect still reuses every fact whose content hash matches.
//!
//! # The evented transport
//!
//! Over TCP the daemon is a **reactor**: one event thread multiplexes every
//! connection over nonblocking sockets through [`crate::reactor::Poller`]
//! (epoll on Linux, `poll(2)` elsewhere).  The reactor only moves bytes —
//! it reads chunks into each connection's [`FrameDecoder`], flushes each
//! connection's bounded write queue, and never parses or executes a
//! command itself.  Complete frames are handed to the shared
//! [`ExecutorService`] worker pool: the connection's [`Daemon`] value moves
//! into the job, executes the queued frames in order, and comes back
//! through a completion queue plus a [`crate::reactor::WakePipe`] ring —
//! which is what lets the event thread block indefinitely (no read
//! timeouts, no polling) without missing work finished elsewhere.
//!
//! Per-connection ordering is strict: at most one job per connection is in
//! flight, and a job executes its frames sequentially, so responses are
//! written in request order even when the client pipelines many lines (or
//! a `batch` request) in one write.  Cross-connection progress is the
//! worker pool's: a long `analyze` on one session occupies one worker
//! while another session's `stats` answers on a second — the reactor
//! thread itself is never blocked by either.
//!
//! Backpressure is per-connection: a client that stops reading fills its
//! bounded write queue, which pauses *its* reads (and frame dispatch)
//! until the queue drains — without stalling anyone else.  A command that
//! panics costs its own connection only: the job catches the unwind, the
//! client gets `{"ok":false,"error":"internal error: …"}` and is closed,
//! the session is dropped, and the worker and every sibling carry on.  A
//! dropped connection detaches its session; `shutdown` checkpoints the
//! shared tier, closes the listener, finishes already-queued commands,
//! flushes, and drains both the reactor and the workers.

use crate::corpus::panic_message;
use crate::json::Json;
use crate::latency::LatencyStats;
use crate::proto::{
    err_response, ok_response, request_id, Frame, FrameDecoder, Request, MAX_LINE_BYTES,
};
use crate::reactor::{Event, Interest, Poller, WakePipe};
use crate::session::{process_json, Session, SessionConfig};
use std::collections::VecDeque;
use std::io::{self, BufRead, Read, Write};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use suif_analysis::{ExecutorService, PersistDir, SharedFactTier};

/// Everything that shapes a daemon service, across all its sessions.
#[derive(Clone, Debug, Default)]
pub struct ServiceOptions {
    /// Fact-snapshot directory; the shared tier warm-starts from (and
    /// checkpoints to) `<dir>/facts.snap` when set.
    pub persist_dir: Option<PathBuf>,
    /// Default base seed for `certify` requests that don't carry one.
    pub certify_seed: u64,
    /// Max concurrently loaded sessions; further `load`s are rejected at
    /// admission (0 = unlimited).
    pub max_sessions: usize,
    /// Byte budget for the process-wide shared fact tier (`None` =
    /// unbounded).
    pub shared_budget: Option<usize>,
    /// Byte budget for each session's private fact overlay (`None` =
    /// unbounded).
    pub session_budget: Option<usize>,
    /// Command-pool workers (`--workers`; `0` = one per core, floor 2):
    /// the pool that executes connection jobs, and the daemon's only
    /// threads besides the reactor.
    pub workers: usize,
}

/// Process-wide state shared by every connection of a daemon: the
/// content-addressed fact tier and the session registry.
pub struct ServiceState {
    tier: Arc<SharedFactTier>,
    /// The one owner of `--persist-dir`, handed to every session.
    persist: Option<Arc<PersistDir>>,
    certify_seed: u64,
    session_budget: Option<usize>,
    max_sessions: usize,
    /// Currently loaded sessions (admission-controlled).
    active_sessions: AtomicUsize,
    /// Fresh sessions admitted over the service lifetime.
    admitted: AtomicU64,
    /// `load`s rejected at admission over the service lifetime.
    rejected: AtomicU64,
    /// Monotone session-id source; every connection gets one.
    next_session_id: AtomicU64,
    /// Set by `shutdown`; the reactor drains and exits once it is up.
    shutdown: AtomicBool,
    /// Shared command workers: connection jobs execute here so the reactor
    /// thread never blocks on analysis.
    workers: ExecutorService,
    /// Reactor transport counters (see [`ReactorStats`]).
    reactor: ReactorStats,
    /// Execute time of every dispatched request, per command.
    latency: LatencyStats,
}

/// Transport counters of the evented reactor, reported under
/// `stats.service.reactor`.
#[derive(Default)]
struct ReactorStats {
    /// Readiness backend in use (`"epoll"` or `"poll"`); unset
    /// until a reactor starts (stdio-only daemons never set it).
    backend: OnceLock<&'static str>,
    /// Connections currently registered with the reactor.
    connections: AtomicUsize,
    /// High-water mark of concurrently registered connections.
    peak_connections: AtomicUsize,
    /// Connections accepted over the service lifetime.
    accepted: AtomicU64,
    /// `Poller::wait` returns (event-loop iterations).
    polls: AtomicU64,
    /// Wake-pipe rings observed (worker completions signalled).
    wakeups: AtomicU64,
    /// Frame batches offloaded to the worker pool.
    offloaded: AtomicU64,
    /// Oversize request lines rejected (length-capped framing).
    oversize: AtomicU64,
}

impl ServiceState {
    /// Build the shared state of a new service.
    pub fn new(options: ServiceOptions) -> Arc<ServiceState> {
        Arc::new(ServiceState {
            tier: Arc::new(SharedFactTier::with_budget(options.shared_budget)),
            persist: options.persist_dir.map(PersistDir::new),
            certify_seed: options.certify_seed,
            session_budget: options.session_budget,
            max_sessions: options.max_sessions,
            active_sessions: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            next_session_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            workers: ExecutorService::new(options.workers),
            reactor: ReactorStats::default(),
            latency: LatencyStats::default(),
        })
    }

    /// The process-wide content-addressed fact tier.
    pub fn tier(&self) -> &Arc<SharedFactTier> {
        &self.tier
    }

    /// Whether a `shutdown` request has been received.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The owner of the persist directory, when persistence is on.
    pub fn persist(&self) -> Option<&Arc<PersistDir>> {
        self.persist.as_ref()
    }

    /// Fold the shared tier into a fresh base image
    /// with an empty log bound to it.  A directory no session opened is
    /// read first, so folding never drops an image nobody looked at.
    /// Returns `(facts, bytes)` written, or `None` without persistence.
    pub fn checkpoint(&self) -> io::Result<Option<(usize, usize)>> {
        let Some(dir) = &self.persist else {
            return Ok(None);
        };
        dir.warm_tier(&self.tier);
        let w = dir.checkpoint(|| self.tier.export(), true)?;
        Ok(Some((w.delta_facts, w.bytes)))
    }

    /// Reserve a session slot, or fail when the registry is full.
    fn try_admit(&self) -> bool {
        if self.max_sessions == 0 {
            self.active_sessions.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        loop {
            let cur = self.active_sessions.load(Ordering::SeqCst);
            if cur >= self.max_sessions {
                return false;
            }
            if self
                .active_sessions
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Release a previously reserved session slot.
    fn release_session(&self) {
        self.active_sessions.fetch_sub(1, Ordering::SeqCst);
    }

    /// The `service` object merged into `stats` responses.
    fn service_json(&self) -> Json {
        let r = &self.reactor;
        let mut fields = vec![
            (
                "sessions",
                Json::int(self.active_sessions.load(Ordering::SeqCst) as i64),
            ),
            (
                "admitted",
                Json::int(self.admitted.load(Ordering::SeqCst) as i64),
            ),
            (
                "rejected",
                Json::int(self.rejected.load(Ordering::SeqCst) as i64),
            ),
            ("max_sessions", Json::int(self.max_sessions as i64)),
            (
                "reactor",
                Json::obj([
                    (
                        "backend",
                        Json::str(*r.backend.get().unwrap_or(&"inactive")),
                    ),
                    (
                        "connections",
                        Json::int(r.connections.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "peak_connections",
                        Json::int(r.peak_connections.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "accepted",
                        Json::int(r.accepted.load(Ordering::Relaxed) as i64),
                    ),
                    ("polls", Json::int(r.polls.load(Ordering::Relaxed) as i64)),
                    (
                        "wakeups",
                        Json::int(r.wakeups.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "offloaded",
                        Json::int(r.offloaded.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "oversize",
                        Json::int(r.oversize.load(Ordering::Relaxed) as i64),
                    ),
                ]),
            ),
            (
                "workers",
                Json::obj([
                    ("count", Json::int(self.workers.workers() as i64)),
                    ("submitted", Json::int(self.workers.submitted() as i64)),
                    ("completed", Json::int(self.workers.completed() as i64)),
                    ("pending", Json::int(self.workers.pending() as i64)),
                ]),
            ),
            ("latency", self.latency.to_json()),
        ];
        fields.extend(process_json().map(|p| ("process", p)));
        Json::obj(fields)
    }
}

/// One connection's view of the service: a session slot plus the shared
/// [`ServiceState`].
pub struct Daemon {
    state: Arc<ServiceState>,
    /// This connection's registry id, echoed in every response.
    session_id: u64,
    session: Option<Session>,
    /// Default base seed for `certify` requests without one.
    certify_seed: u64,
}

impl Daemon {
    /// A single-tenant daemon with `workers` command-pool workers (`0` =
    /// one per core, floor 2) and no persistence.
    pub fn new(workers: usize) -> Daemon {
        Daemon::for_state(ServiceState::new(ServiceOptions {
            workers,
            ..ServiceOptions::default()
        }))
    }

    /// A daemon for one connection of a multi-tenant service, registered
    /// under a fresh session id.
    pub fn for_state(state: Arc<ServiceState>) -> Daemon {
        let session_id = state.next_session_id.fetch_add(1, Ordering::SeqCst) + 1;
        let certify_seed = state.certify_seed;
        Daemon {
            state,
            session_id,
            session: None,
            certify_seed,
        }
    }

    /// Set the default base seed used by `certify` requests without an
    /// explicit `seed` field (the `--certify-seed` CLI flag).
    pub fn set_certify_seed(&mut self, seed: u64) {
        self.certify_seed = seed;
    }

    /// Open a session for `text` over the shared tier.
    fn open_session(&self, text: &str) -> Result<Session, String> {
        Session::open_cfg(
            text,
            Default::default(),
            SessionConfig {
                persist: self.state.persist.clone(),
                tier: Some(self.state.tier.clone()),
                budget: self.state.session_budget,
                session_id: self.session_id,
                ..SessionConfig::default()
            },
        )
    }

    /// Admission-controlled `load`: a connection without a session must win
    /// a registry slot first; replacing an already loaded session keeps the
    /// slot it holds.
    fn load_into_session(&mut self, text: &str) -> Result<Json, String> {
        let fresh = self.session.is_none();
        if fresh && !self.state.try_admit() {
            self.state.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(format!(
                "session limit reached ({} active, max {}); retry later",
                self.state.active_sessions.load(Ordering::SeqCst),
                self.state.max_sessions
            ));
        }
        match self.open_session(text) {
            Ok(s) => {
                if fresh {
                    self.state.admitted.fetch_add(1, Ordering::SeqCst);
                }
                let stats = s.stats_json();
                self.session = Some(s);
                Ok(stats)
            }
            Err(e) => {
                if fresh {
                    self.state.release_session();
                }
                Err(e)
            }
        }
    }

    /// Close this connection's session, if it has one, and give its
    /// admission slot back; the facts it published stay in the shared tier.
    fn drop_session(&mut self) {
        if self.session.take().is_some() {
            self.state.release_session();
        }
    }

    fn with_session<R>(&mut self, f: impl FnOnce(&mut Session) -> R) -> Result<R, String> {
        match self.session.as_mut() {
            Some(s) => Ok(f(s)),
            None => Err("no program loaded (send {\"cmd\":\"load\",\"text\":…} first)".into()),
        }
    }

    /// Stamp this connection's session id into a response object.
    fn tag(&self, resp: Json) -> Json {
        match resp {
            Json::Obj(mut m) => {
                m.insert("session".into(), Json::int(self.session_id as i64));
                Json::Obj(m)
            }
            other => other,
        }
    }

    /// Handle one request line; returns the response and whether to close.
    /// A `batch` line produces several responses — this compatibility shim
    /// returns only the last; pipelining callers use
    /// [`Daemon::handle_request`].
    pub fn handle_line(&mut self, line: &str) -> (Json, bool) {
        let (mut responses, close) = self.handle_request(line);
        let last = responses
            .pop()
            .unwrap_or_else(|| self.tag(ok_response(Json::obj([]))));
        (last, close)
    }

    /// Handle one request line, producing every response line it owes (one
    /// for a plain request, one per sub-request for `batch`) and whether
    /// the connection should close afterwards.  A request carrying an `id`
    /// gets it echoed in its response.
    pub fn handle_request(&mut self, line: &str) -> (Vec<Json>, bool) {
        let v = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => return (vec![self.tag(err_response(&e.to_string()))], false),
        };
        let id = request_id(&v);
        match Request::from_value(&v) {
            Err(e) => (vec![with_id(self.tag(err_response(&e.0)), id)], false),
            Ok(Request::Batch { items }) => {
                let mut out = Vec::with_capacity(items.len());
                let mut close = false;
                for item in items {
                    // A `quit`/`shutdown` inside the batch stops execution,
                    // but every remaining element still gets its reply (the
                    // client counted on one response per sub-request).
                    if close {
                        out.push(with_id(
                            self.tag(err_response("connection closing")),
                            Some(item.id),
                        ));
                        continue;
                    }
                    let resp = match item.req {
                        Err(e) => self.tag(err_response(&e.0)),
                        Ok(req) => {
                            let (resp, c) = self.dispatch(*req);
                            close |= c;
                            resp
                        }
                    };
                    out.push(with_id(resp, Some(item.id)));
                }
                (out, close)
            }
            Ok(req) => {
                let (resp, close) = self.dispatch(req);
                (vec![with_id(resp, id)], close)
            }
        }
    }

    /// Handle one decoded transport frame (the reactor path): a line frames
    /// a request, an oversize marker answers with a protocol error, and a
    /// blank line answers nothing — in all cases the connection survives.
    pub fn handle_frame(&mut self, frame: &Frame) -> (Vec<Json>, bool) {
        match frame {
            Frame::Line(l) if l.trim().is_empty() => (Vec::new(), false),
            Frame::Line(l) => self.handle_request(l),
            Frame::Oversize(dropped) => (
                vec![self.tag(err_response(&format!(
                    "request line exceeds {MAX_LINE_BYTES} bytes ({dropped} discarded)"
                )))],
                false,
            ),
        }
    }

    /// Execute a batch of decoded frames in order, serializing the response
    /// lines.  Stops at the first close-triggering frame (`quit`,
    /// `shutdown`); later frames are dropped — the connection is closing.
    pub fn run_frames(&mut self, frames: &[Frame]) -> (Vec<u8>, bool) {
        let mut out = Vec::new();
        for f in frames {
            let (responses, close) = self.handle_frame(f);
            for r in responses {
                out.extend_from_slice(r.to_string().as_bytes());
                out.push(b'\n');
            }
            if close {
                return (out, true);
            }
        }
        (out, false)
    }

    /// Execute one parsed request, timing it into `stats.service.latency`
    /// (a `stats` reply counts the requests before it); returns the tagged
    /// response and whether the connection should close.
    fn dispatch(&mut self, req: Request) -> (Json, bool) {
        let (cmd, t0) = (req.name(), Instant::now());
        let out = self.execute(req);
        self.state.latency.record(cmd, t0.elapsed());
        out
    }

    fn execute(&mut self, req: Request) -> (Json, bool) {
        #[cfg(test)]
        if matches!(&req, Request::Slice { loop_name } if loop_name == tests::PANIC_LOOP) {
            panic!("injected test panic");
        }
        let result: Result<Json, String> = match req {
            Request::Load { text } => self.load_into_session(&text),
            Request::Reload { text } => match self.session.as_mut() {
                // A reload without a session is just a load.
                None => self.load_into_session(&text),
                Some(s) => s.reload(&text).map(|()| s.stats_json()),
            },
            Request::Analyze => self.with_session(|s| s.analyze()),
            Request::Guru => self.with_session(|s| s.guru_json()),
            Request::Slice { loop_name } => self
                .with_session(|s| s.slice_json(&loop_name))
                .and_then(|r| r),
            Request::Assert {
                loop_name,
                var,
                independent,
            } => self.with_session(|s| s.assert_json(&loop_name, &var, independent)),
            Request::Certify {
                loop_name,
                schedules,
                seed,
            } => {
                let seed = seed.unwrap_or(self.certify_seed);
                self.with_session(|s| {
                    s.certify_json(loop_name.as_deref(), schedules.unwrap_or(4), seed)
                })
                .and_then(|r| r)
            }
            Request::Corpus {
                programs,
                gen,
                seed_base,
                workers,
                max_program_bytes,
            } => {
                // Service-level: no session required, and the run fans out
                // on its OWN pool — this command may itself be executing on
                // a shared-pool worker, and two concurrent corpus commands
                // fanning into the shared pool could deadlock waiting for
                // each other's jobs.
                let mut entries: Vec<crate::corpus::CorpusEntry> = programs
                    .into_iter()
                    .map(|(name, source)| crate::corpus::CorpusEntry { name, source })
                    .collect();
                entries.extend(crate::corpus::generated_entries(gen, seed_base));
                let opts = crate::corpus::CorpusOptions {
                    workers,
                    session_budget: self.state.session_budget,
                    max_program_bytes,
                    inject_panic: None,
                };
                let run = crate::corpus::run_corpus(entries, &opts, &self.state.tier, |_| {});
                Ok(Json::obj([
                    ("summary", run.summary.to_json(&self.state.tier)),
                    (
                        "reports",
                        Json::Arr(run.reports.iter().map(|r| r.to_json()).collect()),
                    ),
                ]))
            }
            Request::Advisory => self.with_session(|s| s.advisory_json()),
            Request::Codeview => self.with_session(|s| s.codeview_json()),
            Request::Stats => self.with_session(|s| s.stats_json()).map(|st| match st {
                Json::Obj(mut m) => {
                    m.insert("service".into(), self.state.service_json());
                    Json::Obj(m)
                }
                other => other,
            }),
            Request::Checkpoint => self.with_session(|s| s.checkpoint_json()).and_then(|r| r),
            Request::Quit => return (self.tag(ok_response(Json::obj([]))), true),
            Request::Shutdown => {
                // Flag first, so the acceptor and sibling connections start
                // winding down while we checkpoint.
                self.state.shutdown.store(true, Ordering::SeqCst);
                let mut fields = vec![("shutdown", Json::Bool(true))];
                match self.state.checkpoint() {
                    Ok(Some((facts, bytes))) => fields.push((
                        "checkpoint",
                        Json::obj([
                            ("facts", Json::int(facts as i64)),
                            ("bytes", Json::int(bytes as i64)),
                        ]),
                    )),
                    Ok(None) => {}
                    Err(e) => fields.push(("checkpoint_error", Json::str(e.to_string()))),
                }
                return (self.tag(ok_response(Json::obj(fields))), true);
            }
            Request::Batch { .. } => {
                // Batches are expanded by `handle_request`; one reaching the
                // single-request dispatcher is a protocol error (nesting).
                return (self.tag(err_response("batch may not nest")), false);
            }
        };
        match result {
            Ok(payload) => (self.tag(ok_response(payload)), false),
            Err(msg) => (self.tag(err_response(&msg)), false),
        }
    }

    /// Serve one connection: read request lines from `input`, write the
    /// response line(s) each owes to `output`, until `quit` or EOF.  The
    /// stdio transport supports `batch` pipelining too.  A panicking
    /// command costs its session, not the loop: the session it unwound
    /// through is not trusted again, the client gets an error line and the
    /// next `load` starts afresh.
    pub fn serve(&mut self, input: impl BufRead, output: &mut impl Write) -> io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let ran = catch_unwind(AssertUnwindSafe(|| self.handle_request(&line)));
            let (responses, quit) = ran.unwrap_or_else(|payload| {
                let why = format!("internal error: {}", panic_message(&*payload));
                self.drop_session();
                (vec![self.tag(err_response(&why))], false)
            });
            for resp in responses {
                writeln!(output, "{resp}")?;
            }
            output.flush()?;
            if quit {
                break;
            }
        }
        Ok(())
    }
}

/// Echo a request `id` into its response object (no-op without one).
fn with_id(resp: Json, id: Option<Json>) -> Json {
    match (resp, id) {
        (Json::Obj(mut m), Some(id)) => {
            m.insert("id".into(), id);
            Json::Obj(m)
        }
        (resp, _) => resp,
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.drop_session();
    }
}

/// Serve on stdin/stdout until `quit` or EOF (budgets and admission
/// control apply to the one stdio session too).
pub fn serve_stdio_with(options: ServiceOptions) -> io::Result<()> {
    let mut daemon = Daemon::for_state(ServiceState::new(options));
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    daemon.serve(stdin.lock(), &mut stdout)
}

/// Serve on a TCP listener: a single reactor thread multiplexing every
/// connection over a shared [`ServiceState`].  The fact tier persists
/// across connections and is shared between concurrent ones.
/// Prints `listening on <addr>` to stdout once bound (bind to port 0 to
/// let the OS pick).  Returns after a `shutdown` request has drained every
/// connection and worker.
pub fn serve_tcp_with(addr: &str, options: ServiceOptions) -> io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    println!("listening on {}", listener.local_addr()?);
    io::stdout().flush()?;
    serve_listener(listener, ServiceState::new(options))
}

/// Per-connection bounded write queue: past this many unflushed response
/// bytes the reactor pauses the connection's reads (and frame dispatch)
/// until the client drains — backpressure instead of unbounded buffering.
const OUTBUF_LIMIT: usize = 1 << 20;

/// Frames queued per connection before reads pause (a pipelining client
/// cannot out-run the workers into unbounded memory).
const INBOX_LIMIT: usize = 4096;

/// Reactor poll tokens: the listener, the worker doorbell, then
/// connections at `slot + TOKEN_BASE`.
const LISTENER_TOKEN: usize = 0;
const WAKE_TOKEN: usize = 1;
const TOKEN_BASE: usize = 2;

/// Defensive poll timeout (ms).  Every state change rings the wake pipe or
/// arrives as socket readiness, so this fires only if a wakeup is lost to
/// a bug — a liveness backstop, not a polling interval.
const HEARTBEAT_MS: i32 = 5000;

/// One finished connection job, travelling worker → reactor.
struct Completion {
    slot: usize,
    /// Slot-reuse guard: stale completions for a closed connection are
    /// discarded (their `daemon` drop releases the session).
    generation: u64,
    /// The connection's daemon, checked back in — `None` when the job
    /// panicked: the worker dropped it (session torn down, admission slot
    /// released) and `close` is set.
    daemon: Option<Daemon>,
    /// Serialized response lines, in request order.
    bytes: Vec<u8>,
    /// The job executed `quit` or `shutdown`, or panicked: flush, then
    /// close.
    close: bool,
}

/// One multiplexed connection's reactor-side state.
struct Conn {
    stream: std::net::TcpStream,
    fd: crate::reactor::RawFd,
    peer: String,
    generation: u64,
    decoder: FrameDecoder,
    /// Decoded frames awaiting execution, in arrival order.
    inbox: VecDeque<Frame>,
    /// The connection's daemon; `None` while a worker job holds it.
    daemon: Option<Daemon>,
    /// Pending response bytes (`outpos..` unwritten).
    outbuf: Vec<u8>,
    outpos: usize,
    /// Readiness the poller currently watches for this socket.
    interest: Interest,
    /// EOF seen (or a fatal read error): no more input will arrive.
    read_closed: bool,
    /// Flush what is owed, then tear down (after `quit`/`shutdown`).
    closing: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.outpos
    }

    /// Push response bytes, compacting the consumed prefix.
    fn queue_out(&mut self, bytes: &[u8]) {
        if self.outpos > 0 && self.outpos == self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
        }
        self.outbuf.extend_from_slice(bytes);
    }

    /// Nonblocking flush.  Returns `false` on a fatal write error (peer
    /// gone): the connection is unsalvageable.
    fn flush_out(&mut self) -> bool {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return false,
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.outpos == self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
        }
        true
    }

    /// Nonblocking read into the frame decoder.  Returns `false` on a
    /// fatal read error.
    fn read_ready(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return true;
                }
                Ok(n) => {
                    self.decoder.feed(&chunk[..n]);
                    // Level-triggered readiness will call again for the
                    // rest; cap one connection's share of the loop.
                    if n < chunk.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.read_closed = true;
                    return false;
                }
            }
        }
    }

    /// Whether reads should stay paused: the peer isn't draining responses
    /// or has pipelined far ahead of the workers.
    fn throttled(&self) -> bool {
        self.pending_out() > OUTBUF_LIMIT || self.inbox.len() > INBOX_LIMIT
    }

    /// The readiness this connection should be watched for right now.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.read_closed && !self.closing && !self.throttled(),
            writable: self.pending_out() > 0,
        }
    }

    /// This connection owes or expects nothing more — safe to tear down.
    fn drained(&self, inflight: bool) -> bool {
        !inflight
            && self.inbox.is_empty()
            && self.pending_out() == 0
            && (self.closing || self.read_closed)
    }
}

/// The reactor event loop of [`serve_tcp_with`], over an already bound
/// listener and shared state (tests bind their own listener to learn the
/// port, then drive this directly).  One thread, nonblocking sockets,
/// indefinite blocking waits; all command execution happens on
/// [`ServiceState`]'s worker pool and returns through the wake pipe.
pub fn serve_listener(listener: std::net::TcpListener, state: Arc<ServiceState>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    let _ = state.reactor.backend.set(poller.backend_name());
    let wake = WakePipe::new()?;
    let waker = wake.waker();
    let completions: Arc<Mutex<VecDeque<Completion>>> = Arc::new(Mutex::new(VecDeque::new()));

    let listener_fd = listener.as_raw_fd();
    poller.register(listener_fd, LISTENER_TOKEN, Interest::READ)?;
    poller.register(wake.read_fd(), WAKE_TOKEN, Interest::READ)?;

    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();
    let mut inflight: Vec<bool> = Vec::new();
    // Jobs submitted whose completion has not been popped yet.  The exit
    // test reads this, not the pool's counters: a worker rings the wake
    // pipe before the pool counts its job as finished, so the reactor could
    // see the ring, find the pool still busy, and sleep out the heartbeat.
    let mut jobs_out = 0usize;
    let mut generation: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let mut listening = true;

    macro_rules! teardown {
        ($slot:expr) => {{
            if let Some(conn) = conns[$slot].take() {
                let _ = poller.deregister(conn.fd);
                state.reactor.connections.fetch_sub(1, Ordering::Relaxed);
                free_slots.push($slot);
                // Dropping `conn` drops its Daemon (if checked in) and the
                // socket; a Daemon still out on a worker comes back as a
                // stale-generation completion and is dropped there.
            }
        }};
    }

    loop {
        state.reactor.polls.fetch_add(1, Ordering::Relaxed);
        poller.wait(&mut events, HEARTBEAT_MS)?;

        let mut touched: Vec<usize> = Vec::new();
        for ev in events.iter() {
            match ev.token {
                LISTENER_TOKEN => {
                    // Accept every pending connection (level-triggered, but
                    // draining now saves wait round-trips).
                    loop {
                        match listener.accept() {
                            Ok((stream, peer)) => {
                                if state.shutting_down() {
                                    drop(stream);
                                    continue;
                                }
                                stream.set_nonblocking(true)?;
                                let _ = stream.set_nodelay(true);
                                let slot = free_slots.pop().unwrap_or_else(|| {
                                    conns.push(None);
                                    inflight.push(false);
                                    conns.len() - 1
                                });
                                generation += 1;
                                let token = slot + TOKEN_BASE;
                                let fd = stream.as_raw_fd();
                                let daemon = Daemon::for_state(state.clone());
                                if poller.register(fd, token, Interest::READ).is_err() {
                                    // Registration failure (fd pressure):
                                    // refuse this connection, keep serving.
                                    eprintln!("warning: register {peer} failed; refusing");
                                    free_slots.push(slot);
                                    continue;
                                }
                                conns[slot] = Some(Conn {
                                    stream,
                                    fd,
                                    peer: peer.to_string(),
                                    generation,
                                    decoder: FrameDecoder::default(),
                                    inbox: VecDeque::new(),
                                    daemon: Some(daemon),
                                    outbuf: Vec::new(),
                                    outpos: 0,
                                    interest: Interest::READ,
                                    read_closed: false,
                                    closing: false,
                                });
                                inflight[slot] = false;
                                state.reactor.accepted.fetch_add(1, Ordering::Relaxed);
                                let live =
                                    state.reactor.connections.fetch_add(1, Ordering::Relaxed) + 1;
                                state
                                    .reactor
                                    .peak_connections
                                    .fetch_max(live, Ordering::Relaxed);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => {
                                // Transient accept failure (EMFILE under fd
                                // pressure): log and move on; level-triggered
                                // readiness will retry.
                                eprintln!("warning: accept failed: {e}");
                                break;
                            }
                        }
                    }
                }
                WAKE_TOKEN => {
                    let drained = wake.drain();
                    state
                        .reactor
                        .wakeups
                        .fetch_add(drained as u64, Ordering::Relaxed);
                }
                token => {
                    let slot = token - TOKEN_BASE;
                    let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                        continue;
                    };
                    let mut dead = false;
                    if ev.readable || ev.hangup {
                        dead |= !conn.read_ready();
                        while let Some(frame) = conn.decoder.next_frame() {
                            if matches!(frame, Frame::Oversize(_)) {
                                state.reactor.oversize.fetch_add(1, Ordering::Relaxed);
                            }
                            conn.inbox.push_back(frame);
                        }
                    }
                    if ev.writable {
                        dead |= !conn.flush_out();
                    }
                    if ev.hangup && conn.pending_out() == 0 && conn.inbox.is_empty() {
                        // Peer is gone and nothing is owed: don't wait for
                        // a read to confirm.
                        conn.read_closed = true;
                    }
                    if dead {
                        eprintln!(
                            "warning: connection {}: peer lost; session detached",
                            conn.peer
                        );
                        teardown!(slot);
                    } else {
                        touched.push(slot);
                    }
                }
            }
        }

        // Worker completions: check the daemon back in, queue its response
        // bytes, and flush opportunistically.
        loop {
            let done = completions.lock().unwrap().pop_front();
            let Some(done) = done else { break };
            jobs_out -= 1;
            let Some(conn) = conns.get_mut(done.slot).and_then(Option::as_mut) else {
                continue; // connection died mid-job; Daemon drops here
            };
            if conn.generation != done.generation {
                continue; // slot was reused; stale Daemon drops here
            }
            inflight[done.slot] = false;
            conn.daemon = done.daemon;
            conn.closing |= done.close;
            conn.queue_out(&done.bytes);
            if !conn.flush_out() {
                eprintln!(
                    "warning: connection {}: peer lost; session detached",
                    conn.peer
                );
                teardown!(done.slot);
                continue;
            }
            touched.push(done.slot);
        }

        // On shutdown: stop accepting and stop reading; queued commands
        // still run and their responses still flush.
        if state.shutting_down() && listening {
            let _ = poller.deregister(listener_fd);
            listening = false;
            for (slot, conn) in conns.iter().enumerate() {
                if conn.is_some() {
                    touched.push(slot);
                }
            }
        }

        // Dispatch: every connection with queued frames and a checked-in
        // daemon sends ONE job (its whole current inbox) to the pool.
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            if state.shutting_down() {
                conn.read_closed = true;
            }
            if !inflight[slot] && !conn.closing && !conn.inbox.is_empty() {
                if let Some(mut daemon) = conn.daemon.take() {
                    let frames: Vec<Frame> = conn.inbox.drain(..).collect();
                    let gen = conn.generation;
                    let completions = Arc::clone(&completions);
                    let waker = waker.clone();
                    inflight[slot] = true;
                    jobs_out += 1;
                    state.reactor.offloaded.fetch_add(1, Ordering::Relaxed);
                    state.workers.submit(move || {
                        // A panicking command must still produce its
                        // completion, or `jobs_out` and `inflight[slot]`
                        // never clear and a later `shutdown` waits forever.
                        // The session it unwound through is not trusted
                        // again: answer an error, close the connection.
                        let ran = catch_unwind(AssertUnwindSafe(|| daemon.run_frames(&frames)));
                        let (daemon, bytes, close) = match ran {
                            Ok((bytes, close)) => (Some(daemon), bytes, close),
                            Err(payload) => {
                                let why = format!("internal error: {}", panic_message(&*payload));
                                let line = format!("{}\n", daemon.tag(err_response(&why)));
                                drop(daemon);
                                (None, line.into_bytes(), true)
                            }
                        };
                        completions.lock().unwrap().push_back(Completion {
                            slot,
                            generation: gen,
                            daemon,
                            bytes,
                            close,
                        });
                        waker.wake();
                    });
                }
            }
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.drained(inflight[slot]) {
                teardown!(slot);
                continue;
            }
            let want = conn.desired_interest();
            if want != conn.interest {
                conn.interest = want;
                let _ = poller.modify(conn.fd, slot + TOKEN_BASE, want);
            }
        }

        if state.shutting_down() && conns.iter().all(Option::is_none) && jobs_out == 0 {
            break;
        }
    }

    // Final checkpoint over everything the drained sessions published (the
    // `shutdown` command itself already checkpointed; this catches facts
    // published by commands that were still queued behind it).
    if let Err(e) = state.checkpoint() {
        eprintln!("warning: final checkpoint failed: {e}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const SRC: &str = "program t\\nproc main() {\\n real a[10]\\n int i\\n do 1 i = 1, 10 {\\n  a[i] = i\\n }\\n print a[5]\\n}";

    fn req(daemon: &mut Daemon, line: &str) -> Json {
        let (resp, _) = daemon.handle_line(line);
        resp
    }

    #[test]
    fn daemon_round_trip() {
        let mut d = Daemon::new(1);
        // Queries before load fail cleanly.
        let r = req(&mut d, r#"{"cmd":"analyze"}"#);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));

        let r = req(&mut d, &format!(r#"{{"cmd":"load","text":"{SRC}"}}"#));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        assert_eq!(r.get("summarized").and_then(Json::as_i64), Some(1));
        // Every response carries this connection's session id.
        assert_eq!(r.get("session").and_then(Json::as_i64), Some(1));

        let r = req(&mut d, r#"{"cmd":"analyze"}"#);
        let loops = r.get("loops").and_then(Json::as_arr).unwrap();
        assert_eq!(loops[0].get("parallel").and_then(Json::as_bool), Some(true));

        // Warm re-analysis: every fact reused, the one procedure's summary
        // served by the store.
        let r = req(&mut d, r#"{"cmd":"stats"}"#);
        assert_eq!(r.get("summarized").and_then(Json::as_i64), Some(0));
        assert_eq!(r.get("cache_hits").and_then(Json::as_i64), Some(1));
        let facts = r.get("facts").unwrap();
        assert_eq!(facts.get("computed").and_then(Json::as_i64), Some(0));
        assert!(facts.get("reused").and_then(Json::as_i64).unwrap() > 0);
        // Multi-tenant bookkeeping rides along even single-tenant.
        let service = r.get("service").unwrap();
        assert_eq!(service.get("sessions").and_then(Json::as_i64), Some(1));
        assert_eq!(service.get("admitted").and_then(Json::as_i64), Some(1));
        assert!(r.get("tier").is_some(), "shared-tier stats present");

        // Assertions and advisories answer over the wire.
        let r = req(
            &mut d,
            r#"{"cmd":"assert","loop":"main/1","var":"a","kind":"independent"}"#,
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        assert!(r.get("assertion").and_then(Json::as_str).is_some());
        let r = req(&mut d, r#"{"cmd":"advisory"}"#);
        assert!(r.get("contractions").and_then(Json::as_arr).is_some());

        // Certification over the wire: a DOALL certifies race-free, the
        // single-loop report is mirrored at the top level, and the staged
        // polyhedral counters ride along (with the run counted in stats).
        let r = req(
            &mut d,
            r#"{"cmd":"certify","loop":"main/1","schedules":2,"seed":7}"#,
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        assert_eq!(r.get("loop").and_then(Json::as_str), Some("main/1"));
        assert_eq!(r.get("schedules_run").and_then(Json::as_i64), Some(2));
        assert_eq!(
            r.get("races").and_then(Json::as_arr).map(|a| a.len()),
            Some(0)
        );
        let entry = &r.get("loops").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(entry.get("race_free").and_then(Json::as_bool), Some(true));
        assert!(entry.get("iterations").and_then(Json::as_i64).unwrap() >= 10);
        assert!(r.get("poly").unwrap().get("approximations").is_some());
        let r = req(&mut d, r#"{"cmd":"certify","loop":"nope"}"#);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let r = req(&mut d, r#"{"cmd":"stats"}"#);
        let cert = r.get("certification").unwrap();
        assert_eq!(cert.get("loops_certified").and_then(Json::as_i64), Some(1));
        assert_eq!(cert.get("schedules_run").and_then(Json::as_i64), Some(2));
        assert_eq!(cert.get("races_found").and_then(Json::as_i64), Some(0));

        // A checkpoint without --persist-dir is a clean protocol error.
        let r = req(&mut d, r#"{"cmd":"checkpoint"}"#);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        assert!(r
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("persist-dir"));

        // Parse errors and unknown commands answer, not crash.
        let r = req(&mut d, "garbage");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let (_, quit) = d.handle_line(r#"{"cmd":"quit"}"#);
        assert!(quit);
    }

    #[test]
    fn serve_loop_over_buffers() {
        let mut d = Daemon::new(1);
        let input = format!(
            "{}\n{}\n{}\n",
            format_args!(r#"{{"cmd":"load","text":"{SRC}"}}"#),
            r#"{"cmd":"guru"}"#,
            r#"{"cmd":"quit"}"#
        );
        let mut out = Vec::new();
        d.serve(io::BufReader::new(input.as_bytes()), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            let v = Json::parse(l).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{l}");
        }
    }

    #[test]
    fn admission_control_rejects_past_cap_and_recovers() {
        let state = ServiceState::new(ServiceOptions {
            workers: 1,
            max_sessions: 1,
            ..ServiceOptions::default()
        });
        let mut a = Daemon::for_state(state.clone());
        let mut b = Daemon::for_state(state.clone());
        assert_ne!(a.session_id, b.session_id, "distinct registry entries");

        let load = format!(r#"{{"cmd":"load","text":"{SRC}"}}"#);
        let r = req(&mut a, &load);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");

        // The registry is full: the second tenant's load is rejected with a
        // clean protocol error and counted.
        let r = req(&mut b, &load);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        assert!(r
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("session limit"));
        assert_eq!(state.rejected.load(Ordering::SeqCst), 1);

        // Replacing the loaded session keeps the held slot (no self-eviction).
        let r = req(&mut a, &load);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");

        // Dropping the holder frees the slot for the waiting tenant.
        drop(a);
        assert_eq!(state.active_sessions.load(Ordering::SeqCst), 0);
        let r = req(&mut b, &load);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        assert_eq!(state.admitted.load(Ordering::SeqCst), 2);
    }

    /// `slice` of this loop name panics in `dispatch` under `cfg(test)`.
    pub(super) const PANIC_LOOP: &str = "__panic__";

    /// One blocking client of an in-process `serve_listener`.
    struct Client(io::BufReader<std::net::TcpStream>);

    impl Client {
        fn connect(addr: std::net::SocketAddr) -> Client {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(20)))
                .unwrap();
            Client(io::BufReader::new(stream))
        }

        /// Send one request line; `None` once the daemon closed the socket.
        fn request(&mut self, line: &str) -> Option<Json> {
            writeln!(self.0.get_mut(), "{line}").unwrap();
            self.reply()
        }

        fn reply(&mut self) -> Option<Json> {
            let mut buf = String::new();
            match self.0.read_line(&mut buf).unwrap() {
                0 => None,
                _ => Some(Json::parse(&buf).unwrap()),
            }
        }
    }

    #[test]
    fn panicking_command_closes_only_its_connection() {
        let state = ServiceState::new(ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        });
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let state = state.clone();
            std::thread::spawn(move || serve_listener(listener, state))
        };
        let load = format!(r#"{{"cmd":"load","text":"{SRC}"}}"#);
        let mut victim = Client::connect(addr);
        let mut sibling = Client::connect(addr);
        for c in [&mut victim, &mut sibling] {
            let r = c.request(&load).unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        }
        let before = sibling.request(r#"{"cmd":"analyze"}"#).unwrap();
        assert_eq!(state.active_sessions.load(Ordering::SeqCst), 2);

        // The panic becomes an error line on its own connection, which is
        // then closed; its session is gone and its admission slot released.
        let r = victim
            .request(&format!(r#"{{"cmd":"slice","loop":"{PANIC_LOOP}"}}"#))
            .unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{r}");
        assert_eq!(
            r.get("error").and_then(Json::as_str),
            Some("internal error: injected test panic")
        );
        assert!(victim.reply().is_none(), "the connection is closed");
        assert_eq!(state.active_sessions.load(Ordering::SeqCst), 1);

        // The sibling's answers do not move.
        let after = sibling.request(r#"{"cmd":"analyze"}"#).unwrap();
        assert_eq!(before.to_string(), after.to_string());

        // Nothing is stranded: `shutdown` drains at once.
        let t0 = std::time::Instant::now();
        let r = sibling.request(r#"{"cmd":"shutdown"}"#).unwrap();
        assert_eq!(r.get("shutdown").and_then(Json::as_bool), Some(true));
        server.join().unwrap().unwrap();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "shutdown took {:?}",
            t0.elapsed()
        );
    }

    /// The stdio loop has one session and no connection to close: the
    /// panic costs the session, and the loop keeps reading.
    #[test]
    fn panicking_command_costs_the_stdio_session_not_the_loop() {
        let state = ServiceState::new(ServiceOptions {
            workers: 1,
            max_sessions: 1,
            ..ServiceOptions::default()
        });
        let mut d = Daemon::for_state(state.clone());
        let load = format!(r#"{{"cmd":"load","text":"{SRC}"}}"#);
        let input = format!(
            "{load}
{}
{}
{load}
{}
{}
",
            format_args!(r#"{{"cmd":"slice","loop":"{PANIC_LOOP}","id":7}}"#),
            r#"{"cmd":"analyze"}"#,
            r#"{"cmd":"analyze"}"#,
            r#"{"cmd":"quit"}"#
        );
        let mut out = Vec::new();
        d.serve(io::BufReader::new(input.as_bytes()), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let replies: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(replies.len(), 6, "every line after the panic is answered");
        let ok = |r: &Json| r.get("ok").and_then(Json::as_bool);
        assert_eq!(ok(&replies[0]), Some(true), "{}", replies[0]);
        assert_eq!(ok(&replies[1]), Some(false));
        assert_eq!(
            replies[1].get("error").and_then(Json::as_str),
            Some("internal error: injected test panic")
        );
        assert_eq!(
            replies[1].get("session").and_then(Json::as_i64),
            replies[0].get("session").and_then(Json::as_i64)
        );
        // The poisoned session is gone, its slot with it ...
        assert_eq!(ok(&replies[2]), Some(false));
        let why = replies[2].get("error").and_then(Json::as_str).unwrap();
        assert!(why.contains("no program loaded"), "{why}");
        // ... so under `max_sessions: 1` the reload below is admitted.
        assert_eq!(ok(&replies[3]), Some(true), "{}", replies[3]);
        assert_eq!(ok(&replies[4]), Some(true), "{}", replies[4]);
        assert_eq!(ok(&replies[5]), Some(true));
        drop(d);
        assert_eq!(state.active_sessions.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn shutdown_flags_service_and_closes() {
        let state = ServiceState::new(ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        });
        let mut d = Daemon::for_state(state.clone());
        let (r, quit) = d.handle_line(r#"{"cmd":"shutdown"}"#);
        assert!(quit, "shutdown closes the issuing connection");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("shutdown").and_then(Json::as_bool), Some(true));
        assert!(state.shutting_down());
    }
}
