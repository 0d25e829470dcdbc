//! Race detection for certified loops.
//!
//! The certifying parallel executor (`suif_parallel::certify`) runs each
//! iteration of a `DOALL` loop as its own logical thread, with no
//! happens-before edge between any two of them.  So two accesses to one
//! cell race exactly when they come from different iterations and at least
//! one of them writes: that is the one rule this detector applies.  Per
//! address it keeps the last write and up to two reads since it, and for
//! each access that conflicts with one of those reports the **conflicting
//! access pair**, with source locations, in the order the interleaving
//! produced them.
//!
//! The shadow is dense: one cell per address of the shared segment, in a
//! `Vec` indexed by address, allocated when the detector is built.  The
//! certifier [`RaceDetector::reset`]s its detector at every invocation of a
//! target loop.  Each cell is stamped with the
//! invocation (a generation number) that last wrote it, and a cell stamped
//! with an older generation reads as empty, so a reset clears nothing.
//!
//! Addresses at or beyond the shadow's length (the thread-private tail of a
//! worker's [`crate::machine::MemStore::View`]) are thread-private by
//! construction and are never recorded.  The detector is plain data with no
//! synchronization of its own: the certifier feeds it from the one thread
//! that steps every worker.

use suif_ir::{StmtId, VarId};

/// The races one invocation records: once it has this many, the detector
/// neither checks nor counts accesses until the next [`RaceDetector::reset`].
/// It caps one *invocation*; `suif_parallel::certify::MAX_REPORTED_RACES`
/// caps the races one *schedule* lists over all its invocations, while the
/// schedule's `race_count` adds up to this many per invocation.
pub const MAX_INVOCATION_RACES: usize = 64;

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
    /// Logical thread: for loop certification, `k + 1` is iteration `k`.
    /// Thread 0 is the code around the loop, whose accesses the certifier
    /// never reports, so no recorded access carries it.
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

/// A detected race: two conflicting accesses to one address from different
/// threads.
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

/// Shadow state per address: the last write plus up to two reads since it,
/// from distinct threads, oldest first.  Two reads are enough: a later
/// write races some read since the last write iff it races one of any two
/// reads from distinct threads (at most one of them can be the writer's).
#[derive(Clone, Copy, Debug, Default)]
struct Shadow {
    /// The invocation this state belongs to; under any other it is empty.
    generation: u32,
    write: Option<AccessInfo>,
    reads: [Option<AccessInfo>; 2],
}

/// The race detector of one certification call.
pub struct RaceDetector {
    /// One cell per shared address.
    shadow: Vec<Shadow>,
    /// The current invocation; never 0, which fresh cells carry.
    generation: u32,
    races: Vec<Race>,
    /// Shared accesses examined since the last reset.
    pub accesses: u64,
}

impl RaceDetector {
    /// A detector whose addresses `>= shared_len` are thread-private and
    /// ignored.
    pub fn new(shared_len: usize) -> RaceDetector {
        RaceDetector {
            shadow: vec![Shadow::default(); shared_len],
            generation: 1,
            races: Vec::new(),
            accesses: 0,
        }
    }

    /// Start over, as if freshly built: no shadow state, no races, no
    /// accesses counted.  The shadow is cleared by moving to the next
    /// generation, not by a write per cell.
    pub fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: a cell stamped long ago could read as current.
            self.shadow.fill(Shadow::default());
            self.generation = 1;
        }
        self.races.clear();
        self.accesses = 0;
    }

    /// Record one access by `thread` and check it against the shadow state:
    /// an earlier access to `addr` races it iff another thread made it and
    /// one of the two writes.  A race found is appended to [`Self::races`].
    // Inlined across crates: the certifier calls it once per access.
    #[inline]
    pub fn on_access(
        &mut self,
        thread: usize,
        var: VarId,
        addr: usize,
        stmt: StmtId,
        line: u32,
        kind: AccessKind,
    ) {
        if addr >= self.shadow.len() || self.races.len() >= MAX_INVOCATION_RACES {
            return;
        }
        self.accesses += 1;
        let me = AccessInfo {
            thread,
            var,
            line,
            stmt,
            kind,
        };
        let cell = &mut self.shadow[addr];
        if cell.generation != self.generation {
            *cell = Shadow {
                generation: self.generation,
                ..Shadow::default()
            };
        }
        let other = |a: &AccessInfo| a.thread != thread;
        // Write/write and read-after-write conflicts first.
        let mut found = cell.write.filter(other);
        match kind {
            AccessKind::Read => {
                // This thread's earlier read is superseded; the others keep
                // arrival order, and this one takes a slot if one is free.
                let mut kept = cell.reads.into_iter().flatten().filter(other).chain([me]);
                cell.reads = [kept.next(), kept.next()];
            }
            AccessKind::Write => {
                // Write-after-read conflicts.
                found = found.or_else(|| cell.reads.into_iter().flatten().find(other));
                cell.reads = [None; 2];
                cell.write = Some(me);
            }
        }
        if let Some(first) = found {
            self.races.push(Race {
                addr,
                first,
                second: me,
            });
        }
    }

    /// The races recorded since the last reset, in the order they were met
    /// (at most [`MAX_INVOCATION_RACES`]).
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

    /// `(first thread, first line, second thread, second line)` of a race.
    fn pair(r: &Race) -> (usize, u32, usize, u32) {
        (r.first.thread, r.first.line, r.second.thread, r.second.line)
    }

    #[test]
    fn concurrent_write_write_is_a_race() {
        let mut d = RaceDetector::new(100);
        d.on_access(1, v(0), 5, s(1), 10, AccessKind::Write);
        assert!(d.races().is_empty());
        d.on_access(2, v(0), 5, s(2), 11, AccessKind::Write);
        let [r] = d.races() else {
            panic!("one race: {:?}", d.races())
        };
        assert_eq!(r.kind(), "write-write");
        assert_eq!(pair(r), (1, 10, 2, 11));
    }

    #[test]
    fn write_after_unordered_read_is_a_race() {
        let mut d = RaceDetector::new(100);
        d.on_access(1, v(0), 4, s(1), 1, AccessKind::Read);
        d.on_access(2, v(0), 4, s(2), 2, AccessKind::Write);
        let [r] = d.races() else {
            panic!("one race: {:?}", d.races())
        };
        assert_eq!(r.kind(), "read-write");
        assert_eq!(pair(r), (1, 1, 2, 2));
    }

    #[test]
    fn two_reads_then_write_catches_either_read() {
        // Reads by threads 1 and 2, then a write by thread 2: its own read
        // does not race it, thread 1's does.
        let mut d = RaceDetector::new(100);
        d.on_access(1, v(0), 4, s(1), 1, AccessKind::Read);
        d.on_access(2, v(0), 4, s(2), 2, AccessKind::Read);
        d.on_access(2, v(0), 4, s(3), 3, AccessKind::Write);
        let [r] = d.races() else {
            panic!("one race: {:?}", d.races())
        };
        assert_eq!(pair(r), (1, 1, 2, 3));
    }

    #[test]
    fn a_cell_keeps_two_readers_in_arrival_order_and_drops_a_third() {
        let mut d = RaceDetector::new(100);
        for t in 1..=3 {
            d.on_access(t, v(0), 6, s(1), t as u32, AccessKind::Read);
        }
        assert!(d.races().is_empty(), "reads never race reads");
        // Thread 1's own read does not race its write; the second reader's
        // does, and thread 3's read was never kept.
        d.on_access(1, v(0), 6, s(2), 9, AccessKind::Write);
        let [r] = d.races() else {
            panic!("one race: {:?}", d.races())
        };
        assert_eq!(pair(r), (2, 2, 1, 9));
    }

    #[test]
    fn private_tail_addresses_are_ignored() {
        let mut d = RaceDetector::new(10);
        d.on_access(1, v(0), 10, s(1), 1, AccessKind::Write);
        d.on_access(2, v(0), 10, s(2), 2, AccessKind::Write);
        assert!(d.races().is_empty());
        assert_eq!(d.accesses, 0);
    }

    #[test]
    fn a_reset_forgets_the_previous_invocations_accesses() {
        let mut d = RaceDetector::new(100);
        d.on_access(1, v(0), 8, s(1), 1, AccessKind::Write);
        d.on_access(2, v(0), 9, s(1), 1, AccessKind::Read);
        d.reset();
        // From other threads than the accesses above, had they been in this
        // invocation.
        d.on_access(2, v(0), 8, s(2), 2, AccessKind::Read);
        d.on_access(1, v(0), 9, s(2), 2, AccessKind::Write);
        assert!(d.races().is_empty());
        assert_eq!(d.accesses, 2);
        // Within the invocation the shadow still works.
        d.on_access(1, v(0), 8, s(3), 3, AccessKind::Write);
        let [r] = d.races() else {
            panic!("one race: {:?}", d.races())
        };
        assert_eq!(pair(r), (2, 2, 1, 3));
    }

    #[test]
    fn the_race_cap_resets_per_invocation() {
        let racy_invocation = |d: &mut RaceDetector| {
            for addr in 0..100 {
                d.on_access(1, v(0), addr, s(1), 1, AccessKind::Write);
                d.on_access(2, v(0), addr, s(2), 2, AccessKind::Write);
            }
        };
        let mut d = RaceDetector::new(100);
        racy_invocation(&mut d);
        assert_eq!(d.races().len(), MAX_INVOCATION_RACES);
        // Counting stops with the cap: 64 racing pairs and nothing after.
        assert_eq!(d.accesses, 128);
        assert_eq!(d.races()[63].addr, 63);
        d.reset();
        assert!(d.races().is_empty());
        racy_invocation(&mut d);
        assert_eq!((d.races().len(), d.accesses), (64, 128));
        assert_eq!(d.races()[0].addr, 0);
    }

    #[test]
    fn same_thread_accesses_never_race() {
        let mut d = RaceDetector::new(100);
        d.on_access(1, v(0), 5, s(1), 1, AccessKind::Write);
        d.on_access(1, v(0), 5, s(2), 2, AccessKind::Write);
        d.on_access(1, v(0), 5, s(3), 3, AccessKind::Read);
        assert!(d.races().is_empty());
        assert_eq!(d.accesses, 3);
    }
}
