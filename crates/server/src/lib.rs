//! suif-server: a persistent analysis daemon for the SUIF Explorer
//! reproduction.
//!
//! The paper's Explorer is interactive — the user asks the Guru for targets,
//! slices a dependence, asserts a fact, and re-checks — so the analysis must
//! be resident: parse once, analyze once, then answer queries and re-analyze
//! only what an edit dirtied. This crate provides that long-lived session
//! behind the `suif-explorer serve` subcommand, speaking line-delimited JSON
//! over stdio or TCP.

//! Over TCP the daemon is multi-tenant and **evented**: a single reactor
//! thread (see [`reactor`]) multiplexes every connection over nonblocking
//! sockets — epoll on Linux, `poll(2)` elsewhere — while command execution
//! is offloaded to a shared worker pool and completions return through a
//! wakeup pipe.  All sessions share a process-wide content-addressed fact
//! tier (see [`daemon::ServiceState`]), with per-session and shared byte
//! budgets, admission control, and per-connection bounded
//! write queues for backpressure.  Clients may pipeline: many request
//! lines per write, a `batch` command with ordered per-id replies, or both.

pub mod corpus;
pub mod daemon;
pub mod json;
mod latency;
pub mod proto;
pub mod reactor;
pub mod session;

pub use corpus::{
    analyze_single, generated_entries, run_corpus, CorpusEntry, CorpusOptions, CorpusRun,
    CorpusSummary, ProgramReport, VerdictRecord, DEFAULT_MAX_PROGRAM_BYTES,
};
pub use daemon::{
    serve_listener, serve_stdio_with, serve_tcp_with, Daemon, ServiceOptions, ServiceState,
};
pub use proto::{Frame, FrameDecoder, MAX_LINE_BYTES};
pub use reactor::{Interest, Poller, WakePipe};
pub use session::{Session, SessionConfig, SnapshotReport};
pub use suif_analysis::snapshot::{SNAPSHOT_FILE, SNAPSHOT_LOG_FILE};
