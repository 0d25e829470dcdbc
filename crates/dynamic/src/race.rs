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
//! The shadow is dense: one cell per address of the shared segment, in a
//! `Vec` indexed by address, allocated when the detector is built.  The
//! certifier builds one detector per schedule and [`RaceDetector::reset`]s
//! it at every invocation of the target loop.  Each cell is stamped with the
//! invocation (a generation number) that last wrote it, and a cell stamped
//! with an older generation reads as empty, so a reset clears nothing.
//!
//! Addresses at or beyond the shadow's length (the thread-private tail of a
//! worker's [`crate::machine::MemStore::View`]) are thread-private by
//! construction and are never recorded.  The detector is plain data with no
//! synchronization of its own: the certifier feeds it from the one thread
//! that steps every worker.

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

/// An access as a shadow cell keeps it: its epoch is `(info.thread, clock)`,
/// the accessing thread's own clock component at the access.
#[derive(Clone, Copy, Debug)]
struct Stamp {
    clock: u32,
    info: AccessInfo,
}

impl Stamp {
    /// Does this access happen-before (or equal) the point described by `vc`?
    fn happens_before(&self, vc: &VectorClock) -> bool {
        self.clock <= vc.get(self.info.thread)
    }
}

/// Shadow state per address: the last write plus up to two concurrent reads,
/// oldest first.  Two reads are enough: a later write conflicts with *some*
/// unordered read iff it conflicts with one of any two reads from distinct
/// threads (at most one of them can share the writer's thread).
#[derive(Clone, Copy, Debug, Default)]
struct Shadow {
    /// The invocation this state belongs to; under any other it is empty.
    generation: u32,
    write: Option<Stamp>,
    reads: [Option<Stamp>; 2],
}

/// The happens-before detector.
pub struct RaceDetector {
    clocks: Vec<VectorClock>,
    locks: HashMap<usize, VectorClock>,
    /// One cell per shared address.
    shadow: Vec<Shadow>,
    /// The current invocation; never 0, which fresh cells carry.
    generation: u32,
    races: Vec<Race>,
    /// Shared accesses examined since the last reset.
    pub accesses: u64,
    max_races: usize,
}

impl RaceDetector {
    /// A detector over `threads` logical threads; addresses `>= shared_limit`
    /// are thread-private and ignored.  Every thread starts with its own
    /// component at 1 (so epochs are never the zero clock).
    pub fn new(threads: usize, shared_limit: usize) -> RaceDetector {
        let mut d = RaceDetector {
            clocks: Vec::new(),
            locks: HashMap::new(),
            shadow: vec![Shadow::default(); shared_limit],
            generation: 0,
            races: Vec::new(),
            accesses: 0,
            max_races: 64,
        };
        d.reset(threads);
        d
    }

    /// Start over with `threads` logical threads, as if freshly built: no
    /// shadow state, no lock clocks, no races, no accesses counted.  The
    /// shadow is cleared by moving to the next generation, not by a write
    /// per cell.
    pub fn reset(&mut self, threads: usize) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: a cell stamped long ago could read as current.
            self.shadow.fill(Shadow::default());
            self.generation = 1;
        }
        self.clocks.resize_with(threads, VectorClock::new);
        for (t, c) in self.clocks.iter_mut().enumerate() {
            c.0.clear();
            c.set(t, 1);
        }
        self.locks.clear();
        self.races.clear();
        self.accesses = 0;
    }

    /// Fork edge: everything `parent` did so far happens-before `child`.
    pub fn fork(&mut self, parent: usize, child: usize) {
        let pc = std::mem::take(&mut self.clocks[parent]);
        self.clocks[child].merge(&pc);
        self.clocks[parent] = pc;
        let inc = self.clocks[parent].get(parent) + 1;
        self.clocks[parent].set(parent, inc);
    }

    /// Join edge: everything `child` did happens-before `parent` afterwards.
    pub fn join(&mut self, parent: usize, child: usize) {
        let cc = std::mem::take(&mut self.clocks[child]);
        self.clocks[parent].merge(&cc);
        self.clocks[child] = cc;
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
            self.clocks[t].merge(lc);
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
        if addr >= self.shadow.len() || self.races.len() >= self.max_races {
            return None;
        }
        self.accesses += 1;
        let vc = &self.clocks[thread];
        let info = AccessInfo {
            thread,
            var,
            line,
            stmt,
            kind,
        };
        let me = Stamp {
            clock: vc.get(thread),
            info,
        };
        let cell = &mut self.shadow[addr];
        if cell.generation != self.generation {
            *cell = Shadow {
                generation: self.generation,
                ..Shadow::default()
            };
        }
        let race_with = |earlier: &Stamp| {
            (earlier.info.thread != thread && !earlier.happens_before(vc)).then(|| Race {
                addr,
                first: earlier.info,
                second: info,
            })
        };
        // Write/write and read-after-write conflicts.
        let mut found = cell.write.as_ref().and_then(race_with);
        match kind {
            AccessKind::Read => {
                // Keep at most two unordered reads from distinct threads, in
                // arrival order; drop reads ordered before this one.
                let mut kept = cell
                    .reads
                    .into_iter()
                    .flatten()
                    .filter(|r| !r.happens_before(vc));
                let mut reads = [kept.next(), kept.next()];
                match reads.iter_mut().flatten().find(|r| r.info.thread == thread) {
                    Some(mine) => *mine = me,
                    None => {
                        if let Some(free) = reads.iter_mut().find(|r| r.is_none()) {
                            *free = Some(me);
                        }
                    }
                }
                cell.reads = reads;
            }
            AccessKind::Write => {
                // Write-after-read conflicts.
                if found.is_none() {
                    found = cell.reads.iter().flatten().find_map(race_with);
                }
                cell.reads = [None; 2];
                cell.write = Some(me);
            }
        }
        if let Some(r) = &found {
            self.races.push(r.clone());
        }
        found
    }

    /// The races recorded since the last reset (at most 64: once the cap is
    /// reached, accesses are neither checked nor counted until the reset).
    pub fn races(&self) -> &[Race] {
        &self.races
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
    fn a_reset_forgets_the_previous_invocations_accesses() {
        let mut d = RaceDetector::new(3, 100);
        d.fork(0, 1);
        d.fork(0, 2);
        d.on_access(1, v(0), 8, s(1), 1, AccessKind::Write);
        d.on_access(2, v(0), 9, s(1), 1, AccessKind::Read);
        d.reset(3);
        d.fork(0, 1);
        d.fork(0, 2);
        // Unordered with both accesses above, had they been in this
        // invocation.
        assert!(d.on_access(2, v(0), 8, s(2), 2, AccessKind::Read).is_none());
        assert!(d
            .on_access(1, v(0), 9, s(2), 2, AccessKind::Write)
            .is_none());
        assert!(d.races().is_empty());
        assert_eq!(d.accesses, 2);
        // Within the invocation the shadow still works.
        let r = d
            .on_access(1, v(0), 8, s(3), 3, AccessKind::Write)
            .expect("race with this invocation's read");
        assert_eq!((r.first.thread, r.first.line), (2, 2));
    }

    #[test]
    fn the_race_cap_resets_per_invocation() {
        let racy_invocation = |d: &mut RaceDetector| {
            d.fork(0, 1);
            d.fork(0, 2);
            for addr in 0..100 {
                d.on_access(1, v(0), addr, s(1), 1, AccessKind::Write);
                d.on_access(2, v(0), addr, s(2), 2, AccessKind::Write);
            }
        };
        let mut d = RaceDetector::new(3, 100);
        racy_invocation(&mut d);
        assert_eq!(d.races().len(), 64);
        // Counting stops with the cap: 64 racing pairs and nothing after.
        assert_eq!(d.accesses, 128);
        assert_eq!(d.races()[63].addr, 63);
        d.reset(3);
        assert!(d.races().is_empty());
        racy_invocation(&mut d);
        assert_eq!((d.races().len(), d.accesses), (64, 128));
        assert_eq!(d.races()[0].addr, 0);
    }

    #[test]
    fn a_reset_resizes_the_thread_set() {
        let mut d = RaceDetector::new(2, 10);
        d.reset(5);
        for k in 1..5 {
            d.fork(0, k);
        }
        d.on_access(3, v(0), 1, s(1), 1, AccessKind::Write);
        assert!(d.on_access(4, v(0), 1, s(1), 1, AccessKind::Read).is_some());
        d.reset(2);
        d.fork(0, 1);
        assert!(d.on_access(1, v(0), 1, s(1), 1, AccessKind::Read).is_none());
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
