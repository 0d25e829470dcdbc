//! Happens-before race detection over vector clocks.
//!
//! The certifying parallel executor (`suif_parallel::certify`) models a
//! `DOALL` loop as a fork/join region: a parent logical thread forks one
//! logical thread per iteration, every iteration runs concurrently with all
//! others, and the parent joins them at loop exit.  This module implements
//! the generic happens-before machinery for that structure — vector clocks
//! per logical thread, fork/join edges, release/acquire edges through locks
//! — and a shadow-memory detector in the Djit+ style: per address it keeps
//! the last-write epoch and a bounded set of concurrent read epochs, and
//! reports the **first conflicting access pair** with source locations.
//!
//! Addresses at or beyond the `shared_limit` (the thread-private tail of a
//! worker's [`crate::machine::MemStore::View`]) are thread-private by
//! construction and are never recorded.  The detector is plain data with no
//! synchronization of its own: the certifier owns one per loop invocation
//! and feeds it from the one thread that steps every worker.

use std::collections::HashMap;
use suif_ir::{StmtId, VarId};

/// A vector clock: component `t` counts the events of logical thread `t`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock(Vec<u32>);

impl VectorClock {
    /// The zero clock.
    pub fn new() -> VectorClock {
        VectorClock(Vec::new())
    }

    /// Component `t` (0 when never touched).
    pub fn get(&self, t: usize) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn set(&mut self, t: usize, v: u32) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] = v;
    }

    /// Pointwise maximum (the join of two clocks).
    pub fn merge(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (k, &v) in other.0.iter().enumerate() {
            if self.0[k] < v {
                self.0[k] = v;
            }
        }
    }
}

/// An epoch: one event of one logical thread, `(thread, clock)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Epoch {
    /// Logical thread.
    pub thread: usize,
    /// That thread's own clock component at the event.
    pub clock: u32,
}

impl Epoch {
    /// Does this epoch happen-before (or equal) the point described by `vc`?
    pub fn happens_before(&self, vc: &VectorClock) -> bool {
        self.clock <= vc.get(self.thread)
    }
}

/// Whether an access reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A memory read.
    Read,
    /// A memory write.
    Write,
}

/// One recorded memory access, with its source location.
#[derive(Clone, Copy, Debug)]
pub struct AccessInfo {
    /// Logical thread (for loop certification: 0 is the parent, `k + 1` is
    /// iteration `k`).
    pub thread: usize,
    /// Variable through which the cell was accessed.
    pub var: VarId,
    /// Source line of the accessing statement.
    pub line: u32,
    /// Statement id of the accessing statement.
    pub stmt: StmtId,
    /// Read or write.
    pub kind: AccessKind,
}

/// A detected race: two concurrent conflicting accesses to one address.
#[derive(Clone, Debug)]
pub struct Race {
    /// The memory address both accesses touched.
    pub addr: usize,
    /// The earlier access (in the interleaved execution order).
    pub first: AccessInfo,
    /// The later access.
    pub second: AccessInfo,
}

impl Race {
    /// `"write-write"` or `"read-write"` label for reports.
    pub fn kind(&self) -> &'static str {
        match (self.first.kind, self.second.kind) {
            (AccessKind::Write, AccessKind::Write) => "write-write",
            _ => "read-write",
        }
    }
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} race at addr {}: thread {} line {} vs thread {} line {}",
            self.kind(),
            self.addr,
            self.first.thread,
            self.first.line,
            self.second.thread,
            self.second.line
        )
    }
}

/// Shadow state per address: the last write epoch plus up to two concurrent
/// read epochs.  Two reads are enough: a later write conflicts with *some*
/// unordered read iff it conflicts with one of any two reads from distinct
/// threads (at most one of them can share the writer's thread).
#[derive(Clone, Debug, Default)]
struct Shadow {
    write: Option<(Epoch, AccessInfo)>,
    reads: Vec<(Epoch, AccessInfo)>,
}

/// The happens-before detector.
pub struct RaceDetector {
    clocks: Vec<VectorClock>,
    locks: HashMap<usize, VectorClock>,
    shadow: HashMap<usize, Shadow>,
    shared_limit: usize,
    races: Vec<Race>,
    /// Total shared accesses examined.
    pub accesses: u64,
    max_races: usize,
}

impl RaceDetector {
    /// A detector over `threads` logical threads; addresses `>= shared_limit`
    /// are thread-private and ignored.  Every thread starts with its own
    /// component at 1 (so epochs are never the zero clock).
    pub fn new(threads: usize, shared_limit: usize) -> RaceDetector {
        let mut clocks = Vec::with_capacity(threads);
        for t in 0..threads {
            let mut c = VectorClock::new();
            c.set(t, 1);
            clocks.push(c);
        }
        RaceDetector {
            clocks,
            locks: HashMap::new(),
            shadow: HashMap::new(),
            shared_limit,
            races: Vec::new(),
            accesses: 0,
            max_races: 64,
        }
    }

    fn epoch(&self, t: usize) -> Epoch {
        Epoch {
            thread: t,
            clock: self.clocks[t].get(t),
        }
    }

    /// Fork edge: everything `parent` did so far happens-before `child`.
    pub fn fork(&mut self, parent: usize, child: usize) {
        let pc = self.clocks[parent].clone();
        self.clocks[child].merge(&pc);
        let inc = self.clocks[parent].get(parent) + 1;
        self.clocks[parent].set(parent, inc);
    }

    /// Join edge: everything `child` did happens-before `parent` afterwards.
    pub fn join(&mut self, parent: usize, child: usize) {
        let cc = self.clocks[child].clone();
        self.clocks[parent].merge(&cc);
        let inc = self.clocks[child].get(child) + 1;
        self.clocks[child].set(child, inc);
    }

    /// Release edge: thread `t` releases lock `l`.
    pub fn release(&mut self, t: usize, l: usize) {
        let entry = self.locks.entry(l).or_default();
        entry.merge(&self.clocks[t]);
        let inc = self.clocks[t].get(t) + 1;
        self.clocks[t].set(t, inc);
    }

    /// Acquire edge: thread `t` acquires lock `l`.
    pub fn acquire(&mut self, t: usize, l: usize) {
        if let Some(lc) = self.locks.get(&l) {
            let lc = lc.clone();
            self.clocks[t].merge(&lc);
        }
    }

    /// Record one access and check it against the shadow state.  Returns the
    /// race this access completes, if any (also appended to [`Self::races`]).
    pub fn on_access(
        &mut self,
        thread: usize,
        var: VarId,
        addr: usize,
        stmt: StmtId,
        line: u32,
        kind: AccessKind,
    ) -> Option<Race> {
        if addr >= self.shared_limit || self.races.len() >= self.max_races {
            return None;
        }
        self.accesses += 1;
        let me = self.epoch(thread);
        let info = AccessInfo {
            thread,
            var,
            line,
            stmt,
            kind,
        };
        let vc = self.clocks[thread].clone();
        let shadow = self.shadow.entry(addr).or_default();
        let mut found: Option<Race> = None;
        // Write/write and read-after-write conflicts.
        if let Some((we, winfo)) = &shadow.write {
            if we.thread != thread && !we.happens_before(&vc) {
                found = Some(Race {
                    addr,
                    first: *winfo,
                    second: info,
                });
            }
        }
        match kind {
            AccessKind::Read => {
                // Keep at most two unordered read epochs from distinct
                // threads; drop reads ordered before this one.
                shadow.reads.retain(|(e, _)| !e.happens_before(&vc));
                if !shadow.reads.iter().any(|(e, _)| e.thread == thread) && shadow.reads.len() < 2 {
                    shadow.reads.push((me, info));
                } else if let Some(slot) = shadow.reads.iter_mut().find(|(e, _)| e.thread == thread)
                {
                    *slot = (me, info);
                }
            }
            AccessKind::Write => {
                // Write-after-read conflicts.
                if found.is_none() {
                    for (re, rinfo) in &shadow.reads {
                        if re.thread != thread && !re.happens_before(&vc) {
                            found = Some(Race {
                                addr,
                                first: *rinfo,
                                second: info,
                            });
                            break;
                        }
                    }
                }
                shadow.reads.clear();
                shadow.write = Some((me, info));
            }
        }
        if let Some(r) = &found {
            self.races.push(r.clone());
        }
        found
    }

    /// All races recorded so far (bounded by an internal cap).
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// The first conflicting access pair, if any.
    pub fn first_race(&self) -> Option<&Race> {
        self.races.first()
    }

    /// Consume the detector, returning the recorded races.
    pub fn into_races(self) -> Vec<Race> {
        self.races
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> VarId {
        VarId(n)
    }

    fn s(n: u32) -> StmtId {
        StmtId(n)
    }

    #[test]
    fn concurrent_write_write_is_a_race() {
        let mut d = RaceDetector::new(3, 100);
        d.fork(0, 1);
        d.fork(0, 2);
        assert!(d
            .on_access(1, v(0), 5, s(1), 10, AccessKind::Write)
            .is_none());
        let r = d
            .on_access(2, v(0), 5, s(2), 11, AccessKind::Write)
            .expect("race");
        assert_eq!(r.kind(), "write-write");
        assert_eq!(r.first.line, 10);
        assert_eq!(r.second.line, 11);
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn fork_and_join_order_accesses() {
        let mut d = RaceDetector::new(2, 100);
        // Parent writes before the fork: ordered.
        d.on_access(0, v(0), 7, s(1), 1, AccessKind::Write);
        d.fork(0, 1);
        assert!(d.on_access(1, v(0), 7, s(2), 2, AccessKind::Read).is_none());
        // Child writes; after the join the parent may read race-free.
        d.on_access(1, v(0), 7, s(3), 3, AccessKind::Write);
        d.join(0, 1);
        assert!(d.on_access(0, v(0), 7, s(4), 4, AccessKind::Read).is_none());
        assert!(d.races().is_empty());
    }

    #[test]
    fn unjoined_child_write_races_with_parent_read() {
        let mut d = RaceDetector::new(2, 100);
        d.fork(0, 1);
        d.on_access(1, v(0), 3, s(1), 5, AccessKind::Write);
        let r = d
            .on_access(0, v(0), 3, s(2), 6, AccessKind::Read)
            .expect("race");
        assert_eq!(r.kind(), "read-write");
    }

    #[test]
    fn lock_release_acquire_creates_order() {
        let mut d = RaceDetector::new(3, 100);
        d.fork(0, 1);
        d.fork(0, 2);
        d.acquire(1, 0);
        d.on_access(1, v(0), 9, s(1), 1, AccessKind::Write);
        d.release(1, 0);
        d.acquire(2, 0);
        assert!(
            d.on_access(2, v(0), 9, s(2), 2, AccessKind::Write)
                .is_none(),
            "lock-ordered writes must not race"
        );
        d.release(2, 0);
        // A third access without the lock still races with the second write.
        d.fork(0, 1); // parent clock moves, but thread 1 is still unordered
        let r = d.on_access(1, v(0), 9, s(3), 3, AccessKind::Write);
        assert!(r.is_some(), "unlocked write must race");
    }

    #[test]
    fn write_after_unordered_read_is_a_race() {
        let mut d = RaceDetector::new(3, 100);
        d.fork(0, 1);
        d.fork(0, 2);
        d.on_access(1, v(0), 4, s(1), 1, AccessKind::Read);
        let r = d
            .on_access(2, v(0), 4, s(2), 2, AccessKind::Write)
            .expect("race");
        assert_eq!(r.kind(), "read-write");
        assert_eq!(r.first.thread, 1);
        assert_eq!(r.second.thread, 2);
    }

    #[test]
    fn two_reads_then_write_catches_either_read() {
        // Reads by threads 1 and 2, then a write by thread 2: the write is
        // ordered after its own read but not after thread 1's.
        let mut d = RaceDetector::new(3, 100);
        d.fork(0, 1);
        d.fork(0, 2);
        d.on_access(1, v(0), 4, s(1), 1, AccessKind::Read);
        d.on_access(2, v(0), 4, s(2), 2, AccessKind::Read);
        let r = d
            .on_access(2, v(0), 4, s(3), 3, AccessKind::Write)
            .expect("race with thread 1's read");
        assert_eq!(r.first.thread, 1);
    }

    #[test]
    fn private_tail_addresses_are_ignored() {
        let mut d = RaceDetector::new(3, 10);
        d.fork(0, 1);
        d.fork(0, 2);
        d.on_access(1, v(0), 10, s(1), 1, AccessKind::Write);
        assert!(d
            .on_access(2, v(0), 10, s(2), 2, AccessKind::Write)
            .is_none());
        assert_eq!(d.accesses, 0);
    }

    #[test]
    fn same_thread_accesses_never_race() {
        let mut d = RaceDetector::new(2, 100);
        d.fork(0, 1);
        d.on_access(1, v(0), 5, s(1), 1, AccessKind::Write);
        assert!(d
            .on_access(1, v(0), 5, s(2), 2, AccessKind::Write)
            .is_none());
        assert!(d.on_access(1, v(0), 5, s(3), 3, AccessKind::Read).is_none());
    }
}
