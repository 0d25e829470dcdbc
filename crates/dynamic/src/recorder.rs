//! The dependence recorder.  The Dynamic Dependence Analyzer (§2.5.2) and
//! the certifier's race detector (§2.8) ask one question — did another
//! iteration of this loop touch this cell, one of the two accesses a
//! write? — and this module answers it for both (`docs/dynamic.md`).
//!
//! Per address a cell keeps the last write and up to two reads since it.
//! One clock stamps every access (0: an empty slot), and a *frame* is
//! one loop invocation: the stamp it was entered at and the one its running
//! iteration began at.  Stamp `s` is another iteration of frame `L` iff
//! `s ≥ L.entered` and `s ∉ [L.iter_start, now]`.  The profiling run
//! ([`DynDepAnalyzer`]) keeps a frame per active loop and ticks a 32-bit
//! clock at each entry and iteration; the certifier ([`RaceDetector`]) one
//! per invocation, stamps race-model thread `t` `entered + t` and sets
//! `iter_start = now` to the access's stamp.  A read keeps the reads that
//! are another iteration, then itself if a slot is free; a write empties
//! them.  Every hit is flow, anti or output ([`DepKind`]) in sequential
//! order: by stamp in the profiling run, by iteration in the certifier
//! ([`Race::dep`]).

use crate::machine::Hooks;
use std::collections::{HashMap, HashSet};
use suif_ir::{StmtId, VarId};

/// The kind of a carried dependence: which of its accesses writes, in
/// sequential order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// A write, then a read of what it wrote.
    Flow,
    /// A read, then a write over what it read.
    Anti,
    /// Two writes.
    Output,
}

impl DepKind {
    /// From whether the earlier and the later access write.
    fn between(first: bool, then: bool) -> DepKind {
        match (first, then) {
            (true, false) => DepKind::Flow,
            (false, true) => DepKind::Anti,
            _ => DepKind::Output,
        }
    }

    /// Its bit in a set of kinds ([`DynDepReport::deps`]).
    pub fn bit(self) -> u8 {
        1 << self as u8
    }

    /// `"flow"`, `"anti"` or `"output"`.
    pub fn name(self) -> &'static str {
        ["flow", "anti", "output"][self as usize]
    }
}

/// An access as a cell keeps it: its stamp (0 in an empty slot) and what
/// else the recorder reports of it.
#[derive(Clone, Copy, Default)]
struct Slot<T, X>(T, X);

/// The last write to an address and up to two reads since it.
#[derive(Clone, Copy, Default)]
struct Cell<T, X> {
    write: Slot<T, X>,
    reads: [Slot<T, X>; 2],
}

/// One loop invocation: the clock when it was entered and when its running
/// iteration began.
struct Frame {
    entered: u64,
    iter_start: u64,
}

impl<T: Copy + Default + Into<u64>, X: Copy + Default> Cell<T, X> {
    /// Record `me`, a write iff `writes`, and hand `hit` each kept access of
    /// another iteration (the write, then the reads oldest first), whether
    /// it wrote and the outermost of `frames` it is another iteration of.
    #[inline]
    fn record(
        &mut self,
        me: Slot<T, X>,
        writes: bool,
        frames: &[Frame],
        mut hit: impl FnMut(usize, Slot<T, X>, bool),
    ) {
        let (outer, inner) = (frames[0].entered, frames[frames.len() - 1].iter_start);
        let at = |a: &Slot<T, X>| {
            let (s, now): (u64, u64) = (a.0.into(), me.0.into());
            if s < outer || (inner..=now).contains(&s) {
                return None;
            }
            let mut open = frames.iter().take_while(|f| s >= f.entered);
            open.position(|f| s < f.iter_start || s > now)
        };
        if let Some(l) = at(&self.write) {
            hit(l, self.write, true);
        }
        if writes {
            for r in self.reads {
                if let Some(l) = at(&r) {
                    hit(l, r, false);
                }
            }
            self.write = me;
            self.reads = Default::default();
        } else {
            self.reads = match self.reads.map(|r| at(&r).map(|_| r)) {
                [Some(a), Some(b)] => [a, b],
                [Some(kept), None] | [None, Some(kept)] => [kept, me],
                [None, None] => [me, Slot::default()],
            };
        }
    }
}

// ----- the profiling run -------------------------------------------------

/// Configuration of the profiling run's recorder.
#[derive(Clone, Debug, Default)]
pub struct DynDepConfig {
    /// Variables whose accesses are ignored (the induction variables).
    pub ignore_vars: HashSet<VarId>,
    /// Stop recording after this many iterations of a loop invocation, to
    /// its end (§2.5.2 "can skip batches of iterations"; `None`: never).
    pub max_iterations_per_invocation: Option<u64>,
}

/// The Dynamic Dependence Analyzer, a [`crate::Machine`]'s hooks.  A read
/// after a write of its own iteration reports no flow dependence.
pub struct DynDepAnalyzer {
    /// `ignore_vars` as a dense per-[`VarId`] table.
    ignored: Vec<bool>,
    cap: Option<u64>,
    /// Active loops, outermost first, and each one's iterations begun.
    frames: Vec<Frame>,
    loops: Vec<(StmtId, u64)>,
    /// Ticks at every loop entry and iteration, and stops at `u32::MAX`.
    clock: u32,
    shadow: Vec<Cell<u32, ()>>,
    /// Per variable, the loops it carried a dependence at and the kinds.
    seen: Vec<Vec<(StmtId, u8)>>,
    /// Depth of the loop whose iteration cap suspended recording.
    suspended_at: Option<usize>,
}

impl DynDepAnalyzer {
    /// Fresh analyzer.
    pub fn new(config: DynDepConfig) -> DynDepAnalyzer {
        let vars = config.ignore_vars.iter().map(|v| v.0 as usize);
        let mut ignored = vec![false; vars.clone().max().map_or(0, |top| top + 1)];
        vars.for_each(|v| ignored[v] = true);
        DynDepAnalyzer {
            ignored,
            cap: config.max_iterations_per_invocation,
            frames: Vec::new(),
            loops: Vec::new(),
            clock: 0,
            shadow: Vec::new(),
            seen: Vec::new(),
            suspended_at: None,
        }
    }

    /// Nothing is recorded outside every loop: no later frame counts those
    /// stamps, or the ones they would replace, as another iteration.
    #[inline]
    fn record(&mut self, var: VarId, addr: usize, writes: bool) {
        let v = var.0 as usize;
        let ignored = self.ignored.get(v) == Some(&true);
        if ignored || self.frames.is_empty() || self.suspended_at.is_some() {
            return;
        }
        if self.shadow.len() <= addr {
            self.shadow.resize(addr + 1, Cell::default());
        }
        if self.seen.len() <= v {
            self.seen.resize_with(v + 1, Vec::new);
        }
        let (loops, seen) = (&self.loops, &mut self.seen[v]);
        let me = Slot(self.clock, ());
        self.shadow[addr].record(me, writes, &self.frames, |l, _, wrote| {
            let (stmt, bit) = (loops[l].0, DepKind::between(wrote, writes).bit());
            match seen.iter_mut().find(|(s, _)| *s == stmt) {
                Some((_, kinds)) => *kinds |= bit,
                None => seen.push((stmt, bit)),
            }
        });
    }

    /// Finish and extract the report.
    pub fn report(self) -> DynDepReport {
        let mut deps: HashMap<StmtId, HashMap<VarId, u8>> = HashMap::new();
        for (v, loops) in self.seen.into_iter().enumerate() {
            for (stmt, kinds) in loops {
                deps.entry(stmt).or_default().insert(VarId(v as u32), kinds);
            }
        }
        DynDepReport { deps }
    }
}

impl Hooks for DynDepAnalyzer {
    fn loop_enter(&mut self, stmt: StmtId, _ops: u64) {
        self.clock = self.clock.saturating_add(1);
        let at = u64::from(self.clock);
        self.frames.push(Frame {
            entered: at,
            iter_start: at,
        });
        self.loops.push((stmt, 0));
    }

    fn loop_iter(&mut self, _stmt: StmtId, _iter: i64) {
        self.clock = self.clock.saturating_add(1);
        let depth = self.frames.len() - 1;
        self.frames[depth].iter_start = u64::from(self.clock);
        self.loops[depth].1 += 1;
        if self.suspended_at.is_none() && self.cap.is_some_and(|cap| self.loops[depth].1 > cap) {
            self.suspended_at = Some(depth);
        }
    }

    fn loop_exit(&mut self, _stmt: StmtId, _ops: u64) {
        self.frames.pop();
        self.loops.pop();
        if self.suspended_at == Some(self.frames.len()) {
            self.suspended_at = None;
        }
    }

    fn load(&mut self, var: VarId, addr: usize) {
        self.record(var, addr, false);
    }

    fn store(&mut self, var: VarId, addr: usize) {
        self.record(var, addr, true);
    }
}

/// Result of a profiling run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DynDepReport {
    /// Loop → variable → the kinds of carried dependence seen on it, as a
    /// set of [`DepKind::bit`]s.
    pub deps: HashMap<StmtId, HashMap<VarId, u8>>,
}

impl DynDepReport {
    /// Variables seen carrying a `kind` dependence at the loop.
    pub fn vars(&self, stmt: StmtId, kind: DepKind) -> impl Iterator<Item = VarId> + '_ {
        let vars = self.deps.get(&stmt).into_iter().flatten();
        vars.filter(move |(_, &k)| k & kind.bit() != 0)
            .map(|(&v, _)| v)
    }

    /// Variables seen carrying a flow dependence at the loop: the Guru's
    /// column keeps §2.5.2's flow-only meaning.
    pub fn dep_vars(&self, stmt: StmtId) -> impl Iterator<Item = VarId> + '_ {
        self.vars(stmt, DepKind::Flow)
    }

    /// Did the loop carry an observed flow dependence?
    pub fn has_dep(&self, stmt: StmtId) -> bool {
        self.dep_vars(stmt).next().is_some()
    }

    /// This report without the `(loop, var)` pairs of `ignore`.
    pub fn ignoring(mut self, ignore: &HashSet<(StmtId, VarId)>) -> DynDepReport {
        self.deps.retain(|&stmt, vars| {
            vars.retain(|&v, _| !ignore.contains(&(stmt, v)));
            !vars.is_empty()
        });
        self
    }
}

// ----- the certifier -----------------------------------------------------

/// The races one invocation records: past them the detector neither checks
/// nor counts accesses until the next [`RaceDetector::reset`].
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
    /// Logical thread: `k + 1` is iteration `k`.  Thread 0 is the code
    /// around the loop, which the certifier never records.
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

/// A detected race: two accesses to one address from different iterations,
/// one of them a write.
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

    /// The dependence the race is in sequential order, where the lower
    /// iteration's access comes first.
    pub fn dep(&self) -> DepKind {
        let (a, b) = (self.first, self.second);
        let (a, b) = if a.thread < b.thread { (a, b) } else { (b, a) };
        DepKind::between(a.kind == AccessKind::Write, b.kind == AccessKind::Write)
    }
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (a, b) = (self.first, self.second);
        write!(f, "{} race at addr {}: ", self.kind(), self.addr)?;
        write!(
            f,
            "thread {} line {} vs thread {} line {}",
            a.thread, a.line, b.thread, b.line
        )
    }
}

/// The race detector of one certification call: plain data, fed from the
/// one thread that steps every worker.
pub struct RaceDetector {
    /// One cell per shared address; an access keeps var, stmt and line.
    shadow: Vec<Cell<u64, [u32; 3]>>,
    /// Thread 0's stamp in the running invocation.
    entered: u64,
    /// The highest stamp given out.
    clock: u64,
    races: Vec<Race>,
    /// Shared accesses examined since the last reset.
    pub accesses: u64,
}

impl RaceDetector {
    /// A detector that ignores addresses `>= shared_len` (thread-private).
    pub fn new(shared_len: usize) -> RaceDetector {
        RaceDetector {
            shadow: vec![Cell::default(); shared_len],
            entered: 1,
            clock: 1,
            races: Vec::new(),
            accesses: 0,
        }
    }

    /// Start over: a clock bump puts every stamp given out before the frame.
    pub fn reset(&mut self) {
        self.clock += 1;
        self.entered = self.clock;
        self.races.clear();
        self.accesses = 0;
    }

    /// Record one access by `thread` and append the first race it makes
    /// with a kept access to [`Self::races`].
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
        let (entered, now) = (self.entered, self.entered + thread as u64);
        self.clock = self.clock.max(now);
        let writes = kind == AccessKind::Write;
        let me = Slot(now, [var.0, stmt.0, line]);
        let mut found = None;
        let frame = [Frame {
            entered,
            iter_start: now,
        }];
        self.shadow[addr].record(me, writes, &frame, |_, a, wrote| {
            found.get_or_insert((a, wrote));
        });
        let info = |Slot(stamp, [var, stmt, line]): Slot<u64, [u32; 3]>, writes: bool| AccessInfo {
            thread: (stamp - entered) as usize,
            var: VarId(var),
            line,
            stmt: StmtId(stmt),
            kind: [AccessKind::Read, AccessKind::Write][usize::from(writes)],
        };
        if let Some((a, wrote)) = found {
            let (first, second) = (info(a, wrote), info(me, writes));
            self.races.push(Race {
                addr,
                first,
                second,
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
    use crate::machine::Machine;
    use suif_ir::{parse_program, Program, RegionTree};

    // ----- the profiling run ---------------------------------------------

    fn analyze(src: &str, config: DynDepConfig) -> (Program, RegionTree, DynDepReport) {
        let p = parse_program(src).unwrap();
        let tree = RegionTree::build(&p);
        let mut dd = DynDepAnalyzer::new(config);
        {
            let mut m = Machine::new(&p, &mut dd).unwrap();
            m.run().unwrap();
        }
        let rep = dd.report();
        (p, tree, rep)
    }

    fn loop_stmt(tree: &RegionTree, name: &str) -> suif_ir::StmtId {
        tree.loops.iter().find(|l| l.name == name).unwrap().stmt
    }

    /// The variables of `p` named in `names`, seen carrying `kind` at `l`.
    fn named(p: &Program, rep: &DynDepReport, l: StmtId, kind: DepKind) -> Vec<String> {
        let mut names: Vec<String> = rep.vars(l, kind).map(|v| p.var(v).name.clone()).collect();
        names.sort();
        names
    }

    #[test]
    fn the_cells_are_small() {
        assert_eq!(std::mem::size_of::<Cell<u32, ()>>(), 12);
        assert_eq!(std::mem::size_of::<Cell<u64, [u32; 3]>>(), 72);
    }

    /// A clock at `u32::MAX` stays there: every later access reads as the
    /// running iteration, so nothing new is reported and nothing wraps.
    #[test]
    fn the_clock_saturates_and_then_reports_nothing_new() {
        let mut dd = DynDepAnalyzer::new(DynDepConfig::default());
        dd.clock = u32::MAX - 3;
        dd.loop_enter(s(1), 0);
        dd.loop_iter(s(1), 1);
        dd.store(v(1), 0);
        dd.loop_iter(s(1), 2);
        dd.load(v(1), 0);
        dd.store(v(2), 1);
        dd.loop_iter(s(1), 3);
        dd.load(v(2), 1);
        dd.loop_exit(s(1), 0);
        assert_eq!(dd.clock, u32::MAX);
        let rep = dd.report();
        let kinds = |var| {
            rep.deps
                .get(&s(1))
                .and_then(|vars| vars.get(&v(var)))
                .copied()
        };
        assert_eq!(
            kinds(1),
            Some(DepKind::Flow.bit()),
            "seen before the clock stopped"
        );
        assert_eq!(kinds(2), None, "unseen after");
    }

    #[test]
    fn independent_loop_has_no_deps() {
        let (_, tree, rep) = analyze(
            "program t\nproc main() {\n real a[10]\n int i\n do 1 i = 1, 10 {\n a[i] = i\n }\n}",
            DynDepConfig::default(),
        );
        assert!(!rep.has_dep(loop_stmt(&tree, "main/1")));
        assert!(rep.deps.is_empty(), "{:?}", rep.deps);
    }

    #[test]
    fn recurrence_is_detected() {
        let (p, tree, rep) = analyze(
            "program t\nproc main() {\n real a[10]\n int i\n a[1] = 1\n do 1 i = 2, 10 {\n a[i] = a[i - 1] + 1\n }\n}",
            DynDepConfig::default(),
        );
        let l = loop_stmt(&tree, "main/1");
        assert!(rep.has_dep(l));
        let a = p.var_by_name("main", "a").unwrap();
        assert!(rep.dep_vars(l).any(|v| v == a));
    }

    #[test]
    fn same_iteration_write_then_read_is_private() {
        // tmp written then read in each iteration — privatizable, no flow
        // dependence; its writes in every iteration are output dependences.
        let (p, tree, rep) = analyze(
            "program t\nproc main() {\n real tmp[4], out[10]\n int i, j\n do 1 i = 1, 10 {\n do 2 j = 1, 4 {\n tmp[j] = i * j\n }\n do 3 j = 1, 4 {\n out[i] = out[i] + tmp[j]\n }\n }\n}",
            DynDepConfig {
                ignore_vars: HashSet::from([VarId(2), VarId(3)]),
                ..DynDepConfig::default()
            },
        );
        let l = loop_stmt(&tree, "main/1");
        assert!(!rep.has_dep(l));
        assert_eq!(named(&p, &rep, l, DepKind::Output), ["tmp"]);
        // Each read of tmp[j] in main/3 precedes the next outer iteration's
        // write of it.
        assert_eq!(named(&p, &rep, l, DepKind::Anti), ["tmp"]);
    }

    #[test]
    fn read_before_write_within_iteration_is_carried() {
        // tmp read BEFORE being written each iteration: the value flows from
        // the previous iteration — privatization illegal, dep expected.
        let (_, tree, rep) = analyze(
            "program t\nproc main() {\n real tmp, out[10]\n int i\n tmp = 0\n do 1 i = 1, 10 {\n out[i] = tmp\n tmp = i\n }\n}",
            DynDepConfig::default(),
        );
        assert!(rep.has_dep(loop_stmt(&tree, "main/1")));
    }

    #[test]
    fn an_anti_dependence_is_not_a_flow_dependence() {
        // Read a[i+1], write a[i]: the read comes first, one iteration
        // before the write.
        let (p, tree, rep) = analyze(
            "program t\nproc main() {\n real a[12]\n int i\n do 1 i = 1, 10 {\n a[i] = a[i + 1]\n }\n}",
            DynDepConfig::default(),
        );
        let l = loop_stmt(&tree, "main/1");
        assert!(!rep.has_dep(l));
        assert_eq!(named(&p, &rep, l, DepKind::Anti), ["a"]);
        assert!(named(&p, &rep, l, DepKind::Output).is_empty());
    }

    #[test]
    fn a_reduction_is_dropped_after_the_run() {
        let src =
            "program t\nproc main() {\n real s\n int i\n s = 0\n do 1 i = 1, 10 {\n s = s + i\n }\n print s\n}";
        let (p, tree, rep) = analyze(src, DynDepConfig::default());
        let l = loop_stmt(&tree, "main/1");
        assert!(rep.has_dep(l), "sum recurrence should be seen");
        assert_eq!(named(&p, &rep, l, DepKind::Flow), ["s"]);
        assert_eq!(named(&p, &rep, l, DepKind::Output), ["s"]);
        // Each read of s is followed by its own iteration's write, which
        // empties the reads before the next iteration writes.
        assert!(named(&p, &rep, l, DepKind::Anti).is_empty());
        let s = p.var_by_name("main", "s").unwrap();
        assert!(rep.ignoring(&HashSet::from([(l, s)])).deps.is_empty());
    }

    #[test]
    fn deps_through_procedure_calls() {
        // The callee writes a common array the next iteration reads.
        let (_, tree, rep) = analyze(
            r#"program t
proc produce(int i) {
  common /c/ real buf[16]
  buf[i] = i
}
proc main() {
  common /c/ real buf[16]
  real acc
  int i
  acc = 0
  do 1 i = 2, 10 {
    acc = acc + buf[i - 1]
    call produce(i)
  }
  print acc
}
"#,
            DynDepConfig::default(),
        );
        assert!(rep.has_dep(loop_stmt(&tree, "main/1")));
    }

    #[test]
    fn cross_invocation_writes_do_not_count() {
        // Each outer iteration, inner loop 2 fully writes b, then inner loop
        // 3 reads it.  The write precedes the read within the same outer
        // iteration, so b carries no flow dependence at the outer loop; the
        // reads in loop 3 see writes from a *different invocation* of loop
        // 2, which must not be misattributed either.  Only acc (a scalar
        // read-modify-write) genuinely carries a flow at the outer loop.
        let (p, tree, rep) = analyze(
            "program t\nproc main() {\n real b[4]\n real acc\n int i, j\n acc = 0\n do 1 i = 1, 6 {\n do 2 j = 1, 4 {\n b[j] = i * j\n }\n do 3 j = 1, 4 {\n acc = acc + b[j]\n }\n }\n print acc\n}",
            DynDepConfig::default(),
        );
        let outer = loop_stmt(&tree, "main/1");
        let read_loop = loop_stmt(&tree, "main/3");
        let b = p.var_by_name("main", "b").unwrap();
        let acc = p.var_by_name("main", "acc").unwrap();
        let outer_vars: Vec<_> = rep.dep_vars(outer).collect();
        assert!(outer_vars.contains(&acc));
        assert!(!outer_vars.contains(&b), "b falsely carried at outer loop");
        // The read loop carries only acc (its own reduction), never b.
        assert!(!rep.vars(read_loop, DepKind::Flow).any(|v| v == b));
        assert!(!rep.vars(read_loop, DepKind::Anti).any(|v| v == b));
    }

    #[test]
    fn sampling_caps_tracking() {
        let src = "program t\nproc main() {\n real a[12]\n int i\n do 1 i = 1, 10 {\n if i == 9 {\n a[1] = a[2]\n }\n if i == 8 {\n a[2] = 1\n }\n }\n}";
        let cfg = DynDepConfig {
            max_iterations_per_invocation: Some(3),
            ..DynDepConfig::default()
        };
        // Dep appears only between iterations 8 and 9 — sampling misses it.
        let (_, tree, rep) = analyze(src, cfg);
        assert!(!rep.has_dep(loop_stmt(&tree, "main/1")));
        // Without sampling it is caught.
        let (_, tree2, rep2) = analyze(src, DynDepConfig::default());
        assert!(rep2.has_dep(loop_stmt(&tree2, "main/1")));
    }

    // ----- the certifier -------------------------------------------------

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
        assert_eq!(r.dep(), DepKind::Output);
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
        assert_eq!(r.dep(), DepKind::Anti);
    }

    #[test]
    fn a_race_is_in_sequential_order_by_iteration() {
        // Iteration 4 reads before iteration 2 writes: in sequential order
        // the write comes first, a flow dependence.
        let mut d = RaceDetector::new(100);
        d.on_access(5, v(0), 4, s(1), 1, AccessKind::Read);
        d.on_access(3, v(0), 4, s(2), 2, AccessKind::Write);
        let [r] = d.races() else {
            panic!("one race: {:?}", d.races())
        };
        assert_eq!((r.kind(), r.dep()), ("read-write", DepKind::Flow));
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
