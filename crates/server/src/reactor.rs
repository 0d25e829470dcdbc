//! The reactor's readiness layer: a poller over nonblocking file
//! descriptors plus a self-wake pipe, with no dependencies beyond the libc
//! the platform already links.
//!
//! The daemon's evented transport (see [`crate::daemon`]) multiplexes every
//! TCP session on **one** event thread.  That thread must block until
//! something happens — a socket became readable, a write queue drained, a
//! worker finished an offloaded command — and the only portable way to
//! block on *all* of those at once is the operating system's readiness
//! API.  This module wraps it two ways, picked at runtime:
//!
//! * **epoll** (Linux, the default): `epoll_create1`/`epoll_ctl`/
//!   `epoll_wait` through direct `extern "C"` bindings — the symbols live
//!   in the libc every Linux Rust binary already links, so no crate
//!   dependency is added.  Level-triggered, O(ready) wakeups, comfortably
//!   holds thousands of idle registrations.
//! * **poll** (any Unix): a `poll(2)` sweep over the registered set.
//!   O(registered) per wait, but portable to every Unix and still a single
//!   blocking call — the fallback when epoll is unavailable.
//!
//! There is no non-Unix backend: the transport needs a real readiness API.
//!
//! The [`WakePipe`] is the worker half's doorbell: completion of an
//! offloaded command pushes a result onto a queue and writes one byte into
//! the pipe, which the poller reports like any other readable fd.  This is
//! what lets the event thread block *indefinitely* (no 100 ms polling
//! timeouts) without missing work finished on another thread.

#![allow(clippy::needless_range_loop)]

use std::io;

#[cfg(not(unix))]
compile_error!("the reactor transport needs a Unix readiness API (epoll or poll(2))");

/// The fd type registered with the poller.
pub use std::os::unix::io::RawFd;

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd has bytes (or an accepted connection, or EOF) to read.
    pub readable: bool,
    /// The fd can accept more written bytes.
    pub writable: bool,
    /// Peer hangup or error; treat as readable-to-EOF.
    pub hangup: bool,
}

/// Which readiness to watch a registration for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

// ---------------------------------------------------------------------------
// Raw libc bindings (Unix).  The build environment has no registry access,
// so these symbols are declared by hand; they resolve against the platform
// libc that every Rust Unix binary links anyway.
// ---------------------------------------------------------------------------

mod sys {
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::RawFd;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 0o4000;

    /// `struct epoll_event`; packed on x86-64 (kernel UAPI), natural
    /// alignment elsewhere.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }

    pub fn set_nonblocking(fd: RawFd) -> std::io::Result<()> {
        unsafe {
            let flags = fcntl(fd, F_GETFL, 0);
            if flags < 0 {
                return Err(std::io::Error::last_os_error());
            }
            if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
                return Err(std::io::Error::last_os_error());
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The wake pipe
// ---------------------------------------------------------------------------

/// A self-wake channel: the reactor registers the read end in its poller;
/// any thread holding a [`Waker`] can make the next (or current) `wait`
/// return by writing one byte.
pub struct WakePipe {
    fds: std::sync::Arc<PipeFds>,
}

/// Both ends of the pipe, closed together when the [`WakePipe`] and every
/// [`Waker`] are gone: a worker that rings after the reactor has left its
/// loop writes into a pipe nobody reads, never into a closed (and possibly
/// reused) descriptor.
struct PipeFds {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        // Both ends nonblocking: a full pipe must never block a worker
        // (one pending byte is enough to wake), and the drain must never
        // block the reactor.
        sys::set_nonblocking(fds[0])?;
        sys::set_nonblocking(fds[1])?;
        Ok(WakePipe {
            fds: std::sync::Arc::new(PipeFds {
                read_fd: fds[0],
                write_fd: fds[1],
            }),
        })
    }

    /// The fd the reactor registers for readability.
    pub fn read_fd(&self) -> RawFd {
        self.fds.read_fd
    }

    /// A clonable handle worker threads use to ring the doorbell.
    pub fn waker(&self) -> Waker {
        Waker {
            fds: self.fds.clone(),
        }
    }

    /// Consume every pending wake byte (called by the reactor when the
    /// read end reports readable).  Returns how many bytes were drained.
    pub fn drain(&self) -> usize {
        let mut total = 0usize;
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe {
                sys::read(
                    self.fds.read_fd,
                    buf.as_mut_ptr() as *mut std::os::raw::c_void,
                    buf.len(),
                )
            };
            if n <= 0 {
                return total;
            }
            total += n as usize;
            if (n as usize) < buf.len() {
                return total;
            }
        }
    }
}

impl Drop for PipeFds {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

/// The writable half of a [`WakePipe`], safe to share across worker
/// threads.  Writes are fire-and-forget: a full pipe already guarantees a
/// pending wakeup, so `EAGAIN` is success.
#[derive(Clone)]
pub struct Waker {
    fds: std::sync::Arc<PipeFds>,
}

impl Waker {
    pub fn wake(&self) {
        let b = [1u8];
        unsafe {
            sys::write(
                self.fds.write_fd,
                b.as_ptr() as *const std::os::raw::c_void,
                1,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The poller
// ---------------------------------------------------------------------------

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll { epfd: RawFd },
    Poll {
        /// Registered fds in stable order: `(fd, token, interest)`.
        regs: Vec<(RawFd, usize, Interest)>,
    },
}

/// The readiness poller behind the reactor: register nonblocking fds under
/// integer tokens, then block in [`Poller::wait`] until at least one is
/// ready (or the wake pipe rings).
pub struct Poller {
    backend: Backend,
    name: &'static str,
}

impl Poller {
    /// Build the best poller for this platform: epoll on Linux (`poll(2)`
    /// if `epoll_create1` fails), `poll(2)` elsewhere on Unix.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `epoll_create1` takes no pointers; failure is the
            // negative return handled below.
            let epfd = unsafe { sys::epoll_create1(0) };
            if epfd >= 0 {
                return Ok(Poller {
                    backend: Backend::Epoll { epfd },
                    name: "epoll",
                });
            }
            // epoll failed (exotic container seccomp?): fall through to
            // the portable backend rather than refusing to serve.
        }
        Ok(Poller {
            backend: Backend::Poll { regs: Vec::new() },
            name: "poll",
        })
    }

    /// Which backend this poller runs (`"epoll"` or `"poll"`); surfaced in
    /// `stats.service.reactor`.
    pub fn backend_name(&self) -> &'static str {
        self.name
    }

    /// Watch `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.set(fd, token, interest, true)
    }

    /// Change the interest set of an already registered fd.
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.set(fd, token, interest, false)
    }

    /// Watch `fd` under `token` for `interest`, as a `new` registration or
    /// in place of its current one.
    fn set(&mut self, fd: RawFd, token: usize, interest: Interest, new: bool) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let op = if new {
                    sys::EPOLL_CTL_ADD
                } else {
                    sys::EPOLL_CTL_MOD
                };
                let mut ev = sys::EpollEvent {
                    events: epoll_mask(interest),
                    data: token as u64,
                };
                if unsafe { sys::epoll_ctl(*epfd, op, fd, &mut ev) } < 0 {
                    return Err(io::Error::last_os_error());
                }
            }
            Backend::Poll { regs } => match regs.iter_mut().find(|r| r.0 == fd) {
                Some(r) => *r = (fd, token, interest),
                None => regs.push((fd, token, interest)),
            },
        }
        Ok(())
    }

    /// Stop watching `fd` (must be called before the fd is closed).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut ev = sys::EpollEvent { events: 0, data: 0 };
                // Pre-2.6.9 kernels required a non-null event for DEL; pass
                // one unconditionally.  A racing close makes DEL fail with
                // EBADF/ENOENT — already gone is fine.
                unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
                Ok(())
            }
            Backend::Poll { regs } => {
                regs.retain(|(f, _, _)| *f != fd);
                Ok(())
            }
        }
    }

    /// Block until at least one registered fd is ready or `timeout_ms`
    /// elapses (`-1` = block indefinitely).  Ready fds are appended to
    /// `events` (cleared first); returns the count.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                const CAP: usize = 256;
                let mut raw = [sys::EpollEvent { events: 0, data: 0 }; CAP];
                let n = loop {
                    let n =
                        unsafe { sys::epoll_wait(*epfd, raw.as_mut_ptr(), CAP as i32, timeout_ms) };
                    if n >= 0 {
                        break n as usize;
                    }
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                };
                for ev in raw.iter().take(n) {
                    let bits = ev.events;
                    events.push(Event {
                        token: ev.data as usize,
                        readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                        hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
                    });
                }
                Ok(events.len())
            }
            Backend::Poll { regs } => {
                let mut fds: Vec<sys::PollFd> = regs
                    .iter()
                    .map(|(fd, _, i)| sys::PollFd {
                        fd: *fd,
                        events: (if i.readable { sys::POLLIN } else { 0 })
                            | (if i.writable { sys::POLLOUT } else { 0 }),
                        revents: 0,
                    })
                    .collect();
                let n = loop {
                    let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                    if n >= 0 {
                        break n as usize;
                    }
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                };
                if n > 0 {
                    for (i, pfd) in fds.iter().enumerate() {
                        let r = pfd.revents;
                        if r != 0 {
                            events.push(Event {
                                token: regs[i].1,
                                readable: r & sys::POLLIN != 0,
                                writable: r & sys::POLLOUT != 0,
                                hangup: r & (sys::POLLHUP | sys::POLLERR) != 0,
                            });
                        }
                    }
                }
                Ok(events.len())
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_mask(i: Interest) -> u32 {
    (if i.readable {
        sys::EPOLLIN | sys::EPOLLRDHUP
    } else {
        0
    }) | (if i.writable { sys::EPOLLOUT } else { 0 })
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd } = self.backend {
            unsafe {
                sys::close(epfd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn poller(force_poll: bool) -> Poller {
        if force_poll {
            // Build the portable backend directly rather than mutating the
            // process environment (tests run concurrently).
            Poller {
                backend: Backend::Poll { regs: Vec::new() },
                name: "poll",
            }
        } else {
            Poller::new().unwrap()
        }
    }

    fn readiness_round_trip(mut p: Poller) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        p.register(listener.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a zero-timeout wait reports nothing.
        assert_eq!(p.wait(&mut events, 0).unwrap(), 0);

        let mut client = TcpStream::connect(addr).unwrap();
        let n = p.wait(&mut events, 2000).unwrap();
        assert!(n >= 1, "listener must report readable");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let (mut conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        p.register(conn.as_raw_fd(), 9, Interest::READ).unwrap();
        client.write_all(b"hi").unwrap();
        let n = p.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
        let mut buf = [0u8; 8];
        assert_eq!(conn.read(&mut buf).unwrap(), 2);

        // Write interest on an empty socket buffer reports writable.
        p.modify(conn.as_raw_fd(), 9, Interest::BOTH).unwrap();
        let n = p.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 9 && e.writable));

        // Peer close reports readable (EOF) and/or hangup.
        drop(client);
        let n = p.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        assert!(events
            .iter()
            .any(|e| e.token == 9 && (e.readable || e.hangup)));

        p.deregister(conn.as_raw_fd()).unwrap();
        p.deregister(listener.as_raw_fd()).unwrap();
        assert_eq!(p.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn default_backend_readiness() {
        readiness_round_trip(poller(false));
    }

    #[test]
    fn portable_poll_backend_readiness() {
        readiness_round_trip(poller(true));
    }

    #[test]
    fn wake_pipe_rings_and_drains() {
        let mut p = poller(false);
        let pipe = WakePipe::new().unwrap();
        p.register(pipe.read_fd(), 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        assert_eq!(p.wait(&mut events, 0).unwrap(), 0, "quiet before wake");

        let waker = pipe.waker();
        let t = std::thread::spawn(move || waker.wake());
        let n = p.wait(&mut events, 2000).unwrap();
        t.join().unwrap();
        assert!(n >= 1, "wake byte must interrupt the wait");
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        assert!(pipe.drain() >= 1);
        // Drained: the next zero-timeout wait is quiet again.
        assert_eq!(p.wait(&mut events, 0).unwrap(), 0);

        // Many wakes coalesce without blocking the writers.
        let w = pipe.waker();
        for _ in 0..100_000 {
            w.wake();
        }
        assert!(p.wait(&mut events, 2000).unwrap() >= 1);
        assert!(pipe.drain() > 0);
    }
}
