//! The client side of the benchmark: the release `suif-explorer serve`
//! daemon as a child process, and one blocking TCP connection to it.
//!
//! The load is a closed loop from one thread: [`Client::request`] writes a
//! line and returns only when the reply line has been read, and no
//! workload holds more than one connection with a request in flight.

use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One operation (a spawn, a request, a wait for exit) may take this long;
/// past it the operation is counted as failed instead of hanging the run.
pub const OP_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a daemon that has answered `shutdown` gets to exit by itself.
pub const EXIT_GRACE: Duration = Duration::from_millis(250);

/// How a daemon's process ended after `shutdown`.
#[derive(PartialEq, Eq)]
pub enum Exit {
    Clean,
    /// Still running after [`EXIT_GRACE`] (or never answered); killed by
    /// the drop guard.
    Killed,
}

/// Operations attempted and failed over one run.  A reference check is
/// an operation too.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count a failure; the first twenty are also explained on stderr.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAILED: {note}");
        }
    }

    /// Count one reference check; `what` is evaluated only on a mismatch.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }
}

/// How a daemon is started: the shipped defaults plus what a run needs.
pub struct DaemonSpec<'a> {
    pub bin: &'a Path,
    pub persist_dir: Option<&'a Path>,
    pub certify_seed: Option<u64>,
    /// Start the daemon under `taskset`, confined to one CPU.
    pub one_cpu: bool,
}

/// The first CPU this process may run on (`Cpus_allowed_list`).
fn first_allowed_cpu() -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let first: String = list
        .trim()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    if first.is_empty() {
        return Err(format!("cannot read a CPU from `{}`", list.trim()));
    }
    Ok(first)
}

/// A running daemon child.  Dropping it kills the process and waits for
/// it, so no exit path of the benchmark leaves a daemon behind.
pub struct DaemonProc {
    child: Child,
    pub addr: SocketAddr,
}

impl DaemonProc {
    /// Start `suif-explorer serve --tcp 127.0.0.1:0` and wait for its
    /// `listening on <addr>` line.
    pub fn spawn(spec: &DaemonSpec<'_>) -> Result<DaemonProc, String> {
        let mut cmd = if spec.one_cpu {
            let mut cmd = Command::new("taskset");
            cmd.arg("-c").arg(first_allowed_cpu()?).arg(spec.bin);
            cmd
        } else {
            Command::new(spec.bin)
        };
        cmd.args(["serve", "--tcp", "127.0.0.1:0"]);
        if let Some(dir) = spec.persist_dir {
            cmd.arg("--persist-dir").arg(dir);
        }
        if let Some(seed) = spec.certify_seed {
            cmd.arg("--certify-seed").arg(seed.to_string());
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The read happens on a helper thread so a daemon that never binds
        // times out instead of blocking the run; killing the child ends the
        // read with EOF, so the thread always finishes.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let got = BufReader::new(stdout).read_line(&mut line).map(|_| line);
            let _ = tx.send(got);
        });
        let first = rx.recv_timeout(OP_TIMEOUT);
        let mut proc = DaemonProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = match first {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(format!("daemon stdout: {e}")),
            Err(_) => {
                proc.kill();
                let _ = reader.join();
                return Err("daemon did not report its address in time".into());
            }
        };
        let _ = reader.join();
        proc.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected first line from daemon: {line:?}"))?;
        Ok(proc)
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Ask the daemon to checkpoint and stop through `client`, a connection
    /// the episode already holds, and wait [`EXIT_GRACE`] for the process.
    /// The reply comes after the checkpoint is on disk, so a daemon that is
    /// still running after the grace period is killed: the reactor decides
    /// to exit only once its worker pool reports nothing pending, a worker
    /// rings the reactor before its job is counted as done, and when the
    /// reactor loses that race it sleeps until its 5 s heartbeat.
    pub fn shutdown(mut self, mut client: Client, tally: &mut Tally) -> Exit {
        if client.request(r#"{"cmd":"shutdown"}"#, tally).is_none() {
            return Exit::Killed;
        }
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    tally.check(status.success(), || format!("daemon exited with {status}"));
                    return Exit::Clean;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => return Exit::Killed,
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One TCP connection, one session.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Set by the first transport error or timeout: the framing is lost,
    /// so every later request on this connection fails at once.
    broken: bool,
    /// Bytes of every reply line read, for `server.reply_bytes_per_cmd`.
    pub reply_bytes: u64,
    /// The last exchange, from the first request byte written to the
    /// reply's newline read; decoding the reply is not in it.
    pub last_rtt: Duration,
}

impl Client {
    pub fn connect(addr: SocketAddr, tally: &mut Tally) -> Option<Client> {
        tally.attempted += 1;
        let open = || -> std::io::Result<Client> {
            let conn = TcpStream::connect_timeout(&addr, OP_TIMEOUT)?;
            // Request lines are small writes; with Nagle on, each round trip
            // would wait for the delayed ACK and measure the TCP stack.
            conn.set_nodelay(true)?;
            conn.set_read_timeout(Some(OP_TIMEOUT))?;
            conn.set_write_timeout(Some(OP_TIMEOUT))?;
            Ok(Client {
                reader: BufReader::new(conn.try_clone()?),
                writer: conn,
                broken: false,
                reply_bytes: 0,
                last_rtt: Duration::ZERO,
            })
        };
        match open() {
            Ok(c) => Some(c),
            Err(e) => {
                tally.fail(format!("connect {addr}: {e}"));
                None
            }
        }
    }

    /// Send one request line and wait for its reply.  `None` — and one
    /// failed operation — for a transport error, a timeout, an unparsable
    /// reply, or a reply with `"ok":false`.
    pub fn request(&mut self, line: &str, tally: &mut Tally) -> Option<Json> {
        match self.exchange(line, tally) {
            Some(reply) if reply.get("ok").and_then(Json::as_bool) == Some(true) => Some(reply),
            Some(reply) => {
                tally.fail(format!("{}: error reply {reply}", cmd_of(line)));
                None
            }
            None => None,
        }
    }

    /// [`Client::request`] without the `ok` test, for probes that expect
    /// an error reply.
    pub fn exchange(&mut self, line: &str, tally: &mut Tally) -> Option<Json> {
        tally.attempted += 1;
        if self.broken {
            tally.fail(format!("{}: connection already failed", cmd_of(line)));
            return None;
        }
        let mut round_trip = || -> Result<Json, String> {
            let mut framed = Vec::with_capacity(line.len() + 1);
            framed.extend_from_slice(line.as_bytes());
            framed.push(b'\n');
            let mut reply = String::new();
            let sent = Instant::now();
            self.writer.write_all(&framed).map_err(|e| e.to_string())?;
            let n = self
                .reader
                .read_line(&mut reply)
                .map_err(|e| e.to_string())?;
            self.last_rtt = sent.elapsed();
            if n == 0 {
                return Err("connection closed".into());
            }
            self.reply_bytes += n as u64;
            Json::parse(reply.trim_end()).map_err(|e| format!("bad reply: {e}"))
        };
        match round_trip() {
            Ok(reply) => Some(reply),
            Err(e) => {
                self.broken = true;
                tally.fail(format!("{}: {e}", cmd_of(line)));
                None
            }
        }
    }
}

/// The `cmd` of a request line, for failure messages.
fn cmd_of(line: &str) -> &str {
    line.split("\"cmd\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("request")
}

/// A directory under the run's work directory, removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(work: &Path, name: &str) -> Result<TempDir, String> {
        let path = work.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
