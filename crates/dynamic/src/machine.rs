//! The MiniF interpreter.
//!
//! One [`Machine`] executes one thread of control over the program's
//! lowered [`Code`]: a program counter, an operand stack, a loop-control
//! stack and a call-return stack, advanced one instruction at a time by
//! [`Machine::step`] — there is no other way an instruction runs.  The
//! `suif-parallel` crate forks additional machines over a
//! [`MemStore::View`] of the main machine's memory ([`Machine::fork_view`])
//! to execute compiler-parallelized loops — on worker threads for speed, or
//! stepped in turn on one thread ([`Machine::step_with`]) for race
//! certification.  The safety contract for that sharing is documented on
//! [`MemStore`], and every raw-pointer operation stays in this file.  A
//! machine that owns its memory can also be stopped at a loop's head or
//! exit ([`Machine::run_to`]) and copied into a [`Checkpoint`], from which
//! any number of machines continue the run ([`Machine::resume`]), and
//! compared with one ([`Machine::differences`]).  [`Machine::run_to`] also
//! stops before an instruction that touches a watched cell, whose accesses
//! [`Machine::accesses`] names without running it.

use crate::code::{Code, Dim, DoLoop, Inst};
use crate::layout::{Layout, LayoutError};
use crate::recorder::AccessKind;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;
use suif_ir::ast::{BinOp, Intrinsic, UnaryOp};
use suif_ir::{Extent, Program, StmtId, Type, VarId};

/// A runtime failure.
#[derive(Debug, Clone)]
pub struct RuntimeError {
    /// Description.
    pub message: String,
    /// Source line (0 when unknown).
    pub line: u32,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RuntimeError {}

fn rerr<T>(line: u32, msg: impl Into<String>) -> Result<T, RuntimeError> {
    Err(RuntimeError {
        message: msg.into(),
        line,
    })
}

/// Instrumentation callbacks (the Execution Analyzers implement this).
///
/// The interpreter does **not** fire `load`/`store` for loop-induction-
/// variable updates or parameter-slot copies (those are runtime-internal),
/// but does fire them for the caller-side effects of copy-in/copy-out.
///
/// `Send` because a forked worker machine may travel to a thread of its own
/// together with the hooks it reports to.
pub trait Hooks: Send {
    /// A statement is about to execute.
    fn on_stmt(&mut self, _id: StmtId, _line: u32) {}
    /// A `do` loop was entered; `ops` is the machine's virtual-op counter.
    fn loop_enter(&mut self, _stmt: StmtId, _ops: u64) {}
    /// A new iteration begins with induction value `iter`.
    fn loop_iter(&mut self, _stmt: StmtId, _iter: i64) {}
    /// The loop finished; `ops` is the virtual-op counter at exit.
    fn loop_exit(&mut self, _stmt: StmtId, _ops: u64) {}
    /// A memory cell was read through variable `var`.
    fn load(&mut self, _var: VarId, _addr: usize) {}
    /// A memory cell was written through variable `var`.
    fn store(&mut self, _var: VarId, _addr: usize) {}
}

/// No-op hooks.
pub struct NoHooks;
impl Hooks for NoHooks {}

/// Two analyzers over one run: every callback goes to `A`, then to `B`.
impl<A: Hooks, B: Hooks> Hooks for (A, B) {
    fn on_stmt(&mut self, id: StmtId, line: u32) {
        self.0.on_stmt(id, line);
        self.1.on_stmt(id, line);
    }
    fn loop_enter(&mut self, stmt: StmtId, ops: u64) {
        self.0.loop_enter(stmt, ops);
        self.1.loop_enter(stmt, ops);
    }
    fn loop_iter(&mut self, stmt: StmtId, iter: i64) {
        self.0.loop_iter(stmt, iter);
        self.1.loop_iter(stmt, iter);
    }
    fn loop_exit(&mut self, stmt: StmtId, ops: u64) {
        self.0.loop_exit(stmt, ops);
        self.1.loop_exit(stmt, ops);
    }
    fn load(&mut self, var: VarId, addr: usize) {
        self.0.load(var, addr);
        self.1.load(var, addr);
    }
    fn store(&mut self, var: VarId, addr: usize) {
        self.0.store(var, addr);
        self.1.store(var, addr);
    }
}

/// Memory backing a machine.
///
/// # Safety contract for `View`
///
/// A `View` aliases another machine's memory through a raw pointer.  The
/// parallel runtime only creates views for loops the compiler (or the user,
/// via checked assertions) proved free of cross-iteration conflicts, with
/// all conflicting variables redirected into the view's `private` tail.
/// This mirrors how a real SPMD runtime executes compiler-parallelized
/// Fortran: data-race freedom is an analysis *result*, not a type-system
/// guarantee.  Tests validate parallel results against sequential runs.
///
/// [`Machine::fork_view`] is the only constructor of a `View`.  Its caller
/// must not touch the forking machine while a view is alive and must drop
/// every view before the forking machine goes away.  There are two callers,
/// both in `suif-parallel`: `fork_join` spawns its workers as scoped threads
/// and joins them all before it returns; the certifier makes, steps and
/// drops its views inside one call on one thread.  The certifier also runs
/// loops nobody proved anything about — that is its job — and may: it steps
/// one view at a time, so conflicting accesses are ordered by its scheduler
/// and never race physically.
pub enum MemStore {
    /// Machine-owned memory.
    Owned(Vec<Value>),
    /// A shared view of another machine's memory plus a private tail.
    View {
        /// Base of the shared segment.
        base: *mut Value,
        /// Length of the shared segment; private addresses start here.
        len: usize,
        /// Thread-private cells (privatized variables, reduction copies).
        private: Vec<Value>,
    },
}

// SAFETY: see the `View` contract above — views are only sent to scoped
// worker threads whose writes the parallelizer proved disjoint.
unsafe impl Send for MemStore {}

impl MemStore {
    fn load(&self, addr: usize) -> Option<Value> {
        match self {
            MemStore::Owned(v) => v.get(addr).copied(),
            MemStore::View { base, len, private } => {
                if addr < *len {
                    // SAFETY: within the shared segment per the View contract.
                    Some(unsafe { *base.add(addr) })
                } else {
                    private.get(addr - len).copied()
                }
            }
        }
    }

    fn store(&mut self, addr: usize, val: Value) -> bool {
        match self {
            MemStore::Owned(v) => match v.get_mut(addr) {
                Some(slot) => {
                    *slot = val;
                    true
                }
                None => false,
            },
            MemStore::View { base, len, private } => {
                if addr < *len {
                    // SAFETY: see the View contract.
                    unsafe { *base.add(addr) = val };
                    true
                } else {
                    match private.get_mut(addr - *len) {
                        Some(slot) => {
                            *slot = val;
                            true
                        }
                        None => false,
                    }
                }
            }
        }
    }

    /// Total addressable length.
    pub fn len(&self) -> usize {
        match self {
            MemStore::Owned(v) => v.len(),
            MemStore::View { len, private, .. } => len + private.len(),
        }
    }

    /// True when no cells exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Base-table entry of an array formal outside its activation.
const UNBOUND: usize = usize::MAX;

/// A handler consulted before each `do` loop executes; used by the parallel
/// runtime to take over loops the compiler parallelized.  Returning `None`
/// lets the machine run the loop sequentially.  The machine only borrows its
/// handler, so the caller reads the handler's results after [`Machine::run`].
pub trait LoopHandler: Send {
    /// Offered the loop after its statement was counted and announced and
    /// before its bounds are evaluated; may execute it entirely.
    fn on_loop(
        &mut self,
        machine: &mut Machine<'_>,
        lp: DoLoop,
    ) -> Option<Result<(), RuntimeError>>;
}

/// An active sequential `do` loop: the control values live here, not in the
/// induction variable's cell, so the body cannot redirect the loop.
#[derive(Clone, Copy, PartialEq)]
struct LoopFrame {
    i: i64,
    hi: i64,
    step: i64,
}

/// A machine's state at one point of a run, owned: its memory, base table,
/// program counter, the three stacks, op counter and budget, how much of
/// the input it has read and how many lines it has printed.
/// [`Machine::checkpoint`] takes one and [`Machine::resume`] continues from
/// it, as often as wanted: each machine resumed from it does what the
/// checkpointed one would have done.  The printed lines themselves stay with
/// the run that printed them, so a checkpoint costs nothing per line: a
/// resumed machine's `output` holds the lines it prints, after
/// [`Machine::printed`] lines that came before.
#[derive(Clone)]
pub struct Checkpoint {
    code: Arc<Code>,
    memory: Vec<Value>,
    base: Vec<usize>,
    pc: usize,
    stack: Vec<Value>,
    loops: Vec<LoopFrame>,
    calls: Vec<usize>,
    ops: u64,
    max_ops: u64,
    /// Lines printed before the first of `output`.
    printed: usize,
    /// Lines the checkpointed machine printed itself: none when it went on
    /// running ([`Machine::checkpoint`]), all of its own when it was done
    /// ([`Machine::into_checkpoint`]).
    output: Vec<String>,
    input: Arc<[f64]>,
    /// Input values read.
    read: usize,
}

impl Checkpoint {
    /// The virtual-op counter at the checkpoint.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Write memory directly, as [`Machine::poke`] does: a machine resumed
    /// from the checkpoint starts with `val` at `addr`.
    pub fn poke(&mut self, addr: usize, val: Value) -> bool {
        match self.memory.get_mut(addr) {
            Some(slot) => {
                *slot = val;
                true
            }
            None => false,
        }
    }
}

/// Where [`Machine::run_to`] stopped.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// The next instruction is the head of this loop, which `stop`
    /// accepted: its statement has been counted and announced, its handler
    /// not yet offered it.
    Head(DoLoop),
    /// The next instruction is the first after the `exit` loop.
    Exit,
    /// The next instruction is a loop back-edge or a call entry — the two
    /// places the op budget is checked — with more than `limit` ops
    /// counted.  Nothing of it has run.
    Limit,
    /// The next instruction reads or writes a cell that `watched` marks
    /// ([`Machine::accesses`]).  Nothing of it has run.
    Touch,
    /// The program has ended.
    End,
}

/// The interpreter: explicit state over a shared, immutable [`Code`].
/// [`Machine::step`] is the one place an instruction executes.
pub struct Machine<'a> {
    /// The program being executed.
    pub program: &'a Program,
    code: Arc<Code>,
    mem: MemStore,
    /// Base address of every variable, indexed by [`VarId`]: the static
    /// layout, with array formals patched at call entry (MiniF rejects
    /// recursion, so a formal has at most one live binding) and privatized
    /// variables redirected once, in [`Machine::fork_view`].
    base: Vec<usize>,
    hooks: &'a mut dyn Hooks,
    handler: Option<&'a mut dyn LoopHandler>,
    /// Index of the next instruction.
    pc: usize,
    /// Operand stack; empty between statements.
    stack: Vec<Value>,
    /// Loop-control stack, innermost last.
    loops: Vec<LoopFrame>,
    /// Call-return stack: where each active call continues.
    calls: Vec<usize>,
    ops: u64,
    max_ops: u64,
    /// Captured `print` output, one line per statement: what this machine
    /// printed, after [`Machine::printed`] lines of the run it resumed.
    pub output: Vec<String>,
    /// Lines printed before the first of `output`.
    printed: usize,
    /// The `read` input, of which the first `read` values are consumed.
    input: Arc<[f64]>,
    read: usize,
}

impl<'a> Machine<'a> {
    /// Lower `program` and build a machine with fresh memory.
    pub fn new(program: &'a Program, hooks: &'a mut dyn Hooks) -> Result<Machine<'a>, LayoutError> {
        Ok(Machine::with_code(
            program,
            Arc::new(Code::lower(program)?),
            hooks,
        ))
    }

    /// Build a machine with fresh memory over `code`, which must be
    /// [`Code::lower`] of this `program`: several runs of one program lower
    /// it once.
    pub fn with_code(
        program: &'a Program,
        code: Arc<Code>,
        hooks: &'a mut dyn Hooks,
    ) -> Machine<'a> {
        let layout = &code.layout;
        let base = (0..program.vars.len() as u32)
            .map(|v| layout.base_of(VarId(v)).unwrap_or(UNBOUND))
            .collect();
        Machine {
            program,
            mem: MemStore::Owned(layout.fresh_memory()),
            base,
            pc: code.main as usize,
            code,
            hooks,
            handler: None,
            stack: Vec::new(),
            loops: Vec::new(),
            calls: Vec::new(),
            ops: 0,
            max_ops: u64::MAX,
            output: Vec::new(),
            printed: 0,
            input: Arc::new([]),
            read: 0,
        }
    }

    /// Supply `read` input values.
    pub fn set_input(&mut self, input: Vec<f64>) {
        self.input = input.into();
        self.read = 0;
    }

    /// Install a loop handler (parallel runtime hook).
    pub fn set_handler(&mut self, h: &'a mut dyn LoopHandler) {
        self.handler = Some(h);
    }

    /// Bound the run: once more than `max_ops` virtual ops are counted, the
    /// next loop back-edge or call entry fails.  Straight-line cost is
    /// bounded by the program's size, so those two checks bound every run.
    /// Unlimited unless set.
    pub fn set_max_ops(&mut self, max_ops: u64) {
        self.max_ops = max_ops;
    }

    /// Restart the virtual-op counter at `ops`.  A run resumed from another
    /// run's checkpoint keeps its own count: the budget checks and the
    /// budget [`Machine::fork_view`] hands a worker then fall where they
    /// would have in that run.
    pub fn set_ops(&mut self, ops: u64) {
        self.ops = ops;
    }

    /// The lowered program this machine executes.
    pub fn code(&self) -> &Arc<Code> {
        &self.code
    }

    /// The storage layout.
    pub fn layout(&self) -> &Layout {
        &self.code.layout
    }

    /// Virtual-operation counter (deterministic cost metric).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Lines printed before the first of [`Machine::output`]: by the run a
    /// resumed machine continues, up to its checkpoint.  Zero for a machine
    /// that started at `main`.
    pub fn printed(&self) -> usize {
        self.printed
    }

    /// Length of the shared segment — all of memory for a machine that owns
    /// it.  A worker view's private tail starts at this address.
    pub fn shared_len(&self) -> usize {
        match &self.mem {
            MemStore::Owned(v) => v.len(),
            MemStore::View { len, .. } => *len,
        }
    }

    /// Fork a worker machine over a shared view of this machine's memory.
    /// The worker shares this machine's code, starts with its current base
    /// table, zero ops against what is left of this machine's op budget
    /// (so a loop forked near the end of a run cannot spend a fresh one),
    /// no input and no loop handler (nested
    /// parallel loops run sequentially inside it); `private` is its
    /// thread-private tail and `overrides` — offsets into that tail, rebased
    /// here past shared memory — redirect privatized variables into it.
    ///
    /// The returned machine aliases this one's memory: see the `View`
    /// contract on [`MemStore`] for what the caller owes.
    pub fn fork_view<'b>(
        &mut self,
        overrides: &HashMap<VarId, usize>,
        private: Vec<Value>,
        hooks: &'b mut dyn Hooks,
    ) -> Machine<'b>
    where
        'a: 'b,
    {
        let (base, len) = match &mut self.mem {
            MemStore::Owned(v) => (v.as_mut_ptr(), v.len()),
            // Nested views share the same underlying segment; private
            // tails are not re-shared.
            MemStore::View { base, len, .. } => (*base, *len),
        };
        let mut table = self.base.clone();
        for (&v, &offset) in overrides {
            table[v.0 as usize] = offset + len;
        }
        Machine {
            program: self.program,
            code: Arc::clone(&self.code),
            mem: MemStore::View { base, len, private },
            base: table,
            hooks,
            handler: None,
            pc: self.code.main as usize,
            stack: Vec::new(),
            loops: Vec::new(),
            calls: Vec::new(),
            ops: 0,
            max_ops: self.max_ops.saturating_sub(self.ops),
            output: Vec::new(),
            printed: 0,
            input: Arc::new([]),
            read: 0,
        }
    }

    /// The private tail of a `View` machine (worker results), if any.
    pub fn into_private(self) -> Vec<Value> {
        match self.mem {
            MemStore::View { private, .. } => private,
            MemStore::Owned(_) => Vec::new(),
        }
    }

    /// Read memory directly (no hooks).
    pub fn peek(&self, addr: usize) -> Option<Value> {
        self.mem.load(addr)
    }

    /// Write memory directly (no hooks).
    pub fn poke(&mut self, addr: usize, val: Value) -> bool {
        self.mem.store(addr, val)
    }

    /// Run the whole program from `main`.
    pub fn run(&mut self) -> Result<(), RuntimeError> {
        self.pc = self.code.main as usize;
        self.stack.clear();
        self.loops.clear();
        self.calls.clear();
        while self.step()? {}
        Ok(())
    }

    /// Run on from where the machine stands to the end of the program:
    /// [`Machine::run`] without going back to `main`'s entry.
    pub fn finish(&mut self) -> Result<(), RuntimeError> {
        while self.step()? {}
        Ok(())
    }

    /// Run on until the next instruction is the first after the loop
    /// `exit`, the head of a loop `stop` accepts, a budget check taken with
    /// more than `limit` ops counted, or one that reads or writes a cell
    /// `watched` marks, and say which ([`Stop`]), in that order of
    /// precedence; or until the program has ended.  An empty `watched`
    /// watches nothing and costs nothing; else it covers the machine's
    /// memory.  A machine already standing at a stop stays there.  MiniF
    /// has no recursion, so a machine inside `exit` reaches the instruction
    /// after it only by leaving the loop.
    pub fn run_to(
        &mut self,
        exit: Option<&DoLoop>,
        limit: u64,
        watched: &[bool],
        mut stop: impl FnMut(&DoLoop) -> bool,
    ) -> Result<Stop, RuntimeError> {
        let exit = exit.map_or(usize::MAX, |lp| lp.next as usize + 1);
        loop {
            if self.pc == exit {
                return Ok(Stop::Exit);
            }
            match self.code.insts[self.pc] {
                Inst::DoHead { lp, .. } => {
                    let lp = self.code.loops[lp as usize];
                    if stop(&lp) {
                        return Ok(Stop::Head(lp));
                    }
                }
                Inst::DoNext(_) | Inst::Call { .. } if self.ops > limit => {
                    return Ok(Stop::Limit);
                }
                _ => {}
            }
            if !watched.is_empty() {
                let mut touched = false;
                self.accesses(|addr, _| touched |= watched[addr]);
                if touched {
                    return Ok(Stop::Touch);
                }
            }
            if !self.step()? {
                return Ok(Stop::End);
            }
        }
    }

    /// This machine's state, owned (see [`Checkpoint`]).  The machine must
    /// own its memory: a worker view cannot be checkpointed.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            code: Arc::clone(&self.code),
            memory: self.owned_memory().clone(),
            base: self.base.clone(),
            pc: self.pc,
            stack: self.stack.clone(),
            loops: self.loops.clone(),
            calls: self.calls.clone(),
            ops: self.ops,
            max_ops: self.max_ops,
            printed: self.printed + self.output.len(),
            output: Vec::new(),
            input: Arc::clone(&self.input),
            read: self.read,
        }
    }

    /// [`Machine::checkpoint`] without the copy, for a machine that is done.
    pub fn into_checkpoint(self) -> Checkpoint {
        let MemStore::Owned(memory) = self.mem else {
            panic!("a worker view cannot be checkpointed");
        };
        Checkpoint {
            code: self.code,
            memory,
            base: self.base,
            pc: self.pc,
            stack: self.stack,
            loops: self.loops,
            calls: self.calls,
            ops: self.ops,
            max_ops: self.max_ops,
            printed: self.printed,
            output: self.output,
            input: self.input,
            read: self.read,
        }
    }

    /// How `at` differs from this machine, both of one run over the same
    /// input (one resumed from a checkpoint of the other, say): `None` when
    /// their threads differ, so that neither goes on to do what the other
    /// would; else the cells where `at`'s memory differs, [`Value`] by
    /// [`Value`] and bit for bit (so `-0.0` is not `0.0`), with `at`'s
    /// values, by address.  The thread is the program counter, the operand,
    /// loop and call stacks, the input read, the lines printed — compared
    /// from the later of the two machines' [`Machine::printed`] on, as
    /// neither holds the lines before — and the base table's live entries.
    /// An array formal's binding is live while its procedure is on the call
    /// stack; outside it, the next call binds it again before any use.  The
    /// op counter and budget are not compared.  The machine must own its
    /// memory.
    pub fn differences(&self, at: &Checkpoint) -> Option<Vec<(usize, Value)>> {
        let from = self.printed.max(at.printed);
        let same_thread = self.pc == at.pc
            && self.calls == at.calls
            && self.loops == at.loops
            && same_values(&self.stack, &at.stack)
            && self.read == at.read
            && self.printed + self.output.len() == at.printed + at.output.len()
            && self.output[from - self.printed..] == at.output[from - at.printed..]
            && self.same_live_bindings(&at.base);
        same_thread.then(|| {
            let memory = self.owned_memory();
            assert_eq!(memory.len(), at.memory.len(), "one program's memory");
            let mut cells = Vec::new();
            let mut from = 0;
            while let Some(k) = memory[from..]
                .iter()
                .zip(&at.memory[from..])
                .position(|(x, y)| !same_value(x, y))
            {
                cells.push((from + k, at.memory[from + k]));
                from += k + 1;
            }
            cells
        })
    }

    /// True when `base` binds every variable as this machine does, but for
    /// array formals of procedures not on the call stack.
    fn same_live_bindings(&self, base: &[usize]) -> bool {
        if self.base == base {
            return true;
        }
        let mut active = vec![false; self.program.procedures.len()];
        active[self.program.main.0 as usize] = true;
        for &resume in &self.calls {
            if let Inst::Call { callee, .. } = self.code.insts[resume - 1] {
                active[callee.0 as usize] = true;
            }
        }
        let layout = &self.code.layout;
        (0..base.len()).all(|v| {
            let var = VarId(v as u32);
            self.base[v] == base[v]
                || (layout.base_of(var).is_none() && !active[self.program.var(var).proc.0 as usize])
        })
    }

    fn owned_memory(&self) -> &Vec<Value> {
        match &self.mem {
            MemStore::Owned(memory) => memory,
            MemStore::View { .. } => panic!("a worker view cannot be checkpointed"),
        }
    }

    /// Continue from `at`, a checkpoint of a run that continues this
    /// machine's run from where it stands, keeping its hooks and handler:
    /// its state becomes `at`'s, and its output its own lines before `at`'s
    /// followed by the lines `at` holds.
    pub fn restore(&mut self, at: Checkpoint) {
        let before = at.printed.checked_sub(self.printed);
        let before = before
            .filter(|&n| n <= self.output.len())
            .expect("a checkpoint of this run");
        self.output.truncate(before);
        self.output.extend(at.output);
        self.code = at.code;
        self.mem = MemStore::Owned(at.memory);
        self.base = at.base;
        self.pc = at.pc;
        self.stack = at.stack;
        self.loops = at.loops;
        self.calls = at.calls;
        self.ops = at.ops;
        self.max_ops = at.max_ops;
        self.input = at.input;
        self.read = at.read;
    }

    /// A machine that continues `program`'s run from `at`, reporting to
    /// `hooks`, with no loop handler.  `at` must come from a machine of this
    /// `program`.
    pub fn resume(program: &'a Program, at: Checkpoint, hooks: &'a mut dyn Hooks) -> Machine<'a> {
        Machine {
            program,
            code: at.code,
            mem: MemStore::Owned(at.memory),
            base: at.base,
            hooks,
            handler: None,
            pc: at.pc,
            stack: at.stack,
            loops: at.loops,
            calls: at.calls,
            ops: at.ops,
            max_ops: at.max_ops,
            printed: at.printed,
            output: at.output,
            input: at.input,
            read: at.read,
        }
    }

    /// Evaluate the `(lo, hi, step)` bounds of `lp` in the current frame
    /// (used by the parallel runtime before forking), counting their ops and
    /// firing their loads as a sequential entry of the loop would.
    pub fn eval_do_bounds(&mut self, lp: &DoLoop) -> Result<(i64, i64, i64), RuntimeError> {
        let resume = std::mem::replace(&mut self.pc, lp.head as usize);
        while self.pc != lp.enter as usize {
            self.step()?;
        }
        self.pc = resume;
        self.pop_bounds(lp)
    }

    /// Run the body of `lp` once, in the current frame, for induction value
    /// `i`: what a worker does for each iteration it owns.  No loop hook
    /// fires and the loop's own control is not involved.
    pub fn run_iteration(&mut self, lp: &DoLoop, i: i64) -> Result<(), RuntimeError> {
        self.begin_iteration(lp, i)?;
        while self.in_iteration(lp) {
            self.step()?;
        }
        Ok(())
    }

    /// The first half of [`Machine::run_iteration`], for a caller that steps
    /// the body itself: write `i` into the induction variable and stand at
    /// the first instruction of `lp`'s body.
    pub fn begin_iteration(&mut self, lp: &DoLoop, i: i64) -> Result<(), RuntimeError> {
        self.set_scalar_raw(lp.var, Value::Int(i), lp.line)?;
        self.pc = lp.enter as usize + 1;
        Ok(())
    }

    /// True until the iteration begun by [`Machine::begin_iteration`] has
    /// run the last instruction of `lp`'s body.
    pub fn in_iteration(&self, lp: &DoLoop) -> bool {
        self.pc != lp.next as usize
    }

    /// Number of iterations for bounds `(lo, hi, step)` (Fortran trip count).
    pub fn trip_count(lo: i64, hi: i64, step: i64) -> i64 {
        if step > 0 {
            (hi - lo).div_euclid(step) + 1
        } else {
            (lo - hi).div_euclid(-step) + 1
        }
        .max(0)
    }

    /// Execute one instruction; `Ok(false)` once `main` has returned.
    #[inline(always)]
    pub fn step(&mut self) -> Result<bool, RuntimeError> {
        self.exec(None)
    }

    /// [`Machine::step`] with this one instruction's callbacks going to
    /// `hooks` instead of the machine's own.  A caller that advances several
    /// machines in turn lends each step the one observer it owns and reads
    /// it between steps, which hooks the machine holds would not allow.
    pub fn step_with(&mut self, hooks: &mut dyn Hooks) -> Result<bool, RuntimeError> {
        self.exec(Some(hooks))
    }

    /// The one place an instruction executes.  Both callers pass a constant
    /// `lent`, so after inlining [`sink`] is no choice at all.
    #[inline(always)]
    fn exec(&mut self, mut lent: Option<&mut dyn Hooks>) -> Result<bool, RuntimeError> {
        let inst = self.code.insts[self.pc];
        self.pc += 1;
        match inst {
            Inst::Stmt { id, line, ops } => {
                self.ops += u64::from(ops);
                sink(self.hooks, &mut lent).on_stmt(id, line);
            }
            Inst::Int(v) => self.stack.push(Value::Int(v)),
            Inst::Real(v) => self.stack.push(Value::Real(v)),
            Inst::LoadScalar(var) => {
                let addr = self.base[var.0 as usize];
                let val = self.mem_load(addr, 0)?;
                sink(self.hooks, &mut lent).load(var, addr);
                self.stack.push(val);
            }
            Inst::LoadElem { var, dims, rank } => {
                let addr = self.pop_element_addr(var, dims, rank, 0)?;
                let val = self.mem_load(addr, 0)?;
                sink(self.hooks, &mut lent).load(var, addr);
                self.stack.push(val);
            }
            Inst::Unary(op) => {
                let v = self.pop();
                self.stack.push(match op {
                    UnaryOp::Neg => match v {
                        Value::Int(x) => Value::Int(x.wrapping_neg()),
                        Value::Real(x) => Value::Real(-x),
                    },
                    UnaryOp::Not => Value::Int(if v.truthy() { 0 } else { 1 }),
                });
            }
            Inst::Binary(op) => {
                let r = self.pop();
                let l = self.pop();
                self.stack.push(eval_binop(op, l, r)?);
            }
            Inst::BinaryInt(op, r) => {
                let l = self.pop();
                self.stack.push(eval_binop(op, l, Value::Int(r))?);
            }
            Inst::BinaryReal(op, r) => {
                let l = self.pop();
                self.stack.push(eval_binop(op, l, Value::Real(r))?);
            }
            Inst::AndThen { target, ops } => {
                if self.pop().truthy() {
                    self.ops += u64::from(ops);
                } else {
                    self.stack.push(Value::Int(0));
                    self.pc = target as usize;
                }
            }
            Inst::OrElse { target, ops } => {
                if self.pop().truthy() {
                    self.stack.push(Value::Int(1));
                    self.pc = target as usize;
                } else {
                    self.ops += u64::from(ops);
                }
            }
            Inst::Truthy => {
                let v = self.pop();
                self.stack.push(Value::Int(if v.truthy() { 1 } else { 0 }));
            }
            Inst::Intrinsic(which) => {
                let b = if which.arity() == 2 {
                    self.pop()
                } else {
                    Value::Int(0)
                };
                let a = self.pop();
                self.stack.push(eval_intrinsic(which, a, b)?);
            }
            Inst::StoreScalar { var, line, ty } => {
                let val = self.pop();
                let addr = self.base[var.0 as usize];
                self.mem_store(addr, convert(val, ty), line)?;
                sink(self.hooks, &mut lent).store(var, addr);
            }
            Inst::StoreElem {
                var,
                dims,
                line,
                rank,
                ty,
            } => {
                let addr = self.pop_element_addr(var, dims, rank, line)?;
                let val = self.pop();
                self.mem_store(addr, convert(val, ty), line)?;
                sink(self.hooks, &mut lent).store(var, addr);
            }
            Inst::ReadInput { line } => match self.input.get(self.read) {
                Some(&raw) => {
                    self.read += 1;
                    self.stack.push(Value::Real(raw));
                }
                None => return rerr(line, "read: input exhausted"),
            },
            Inst::Print { n } => {
                let at = self.stack.len() - n as usize;
                let parts: Vec<String> = self.stack[at..].iter().map(Value::to_string).collect();
                self.stack.truncate(at);
                self.output.push(parts.join(" "));
            }
            Inst::Jump(target) => self.pc = target as usize,
            Inst::JumpIfFalse(target) => {
                if !self.pop().truthy() {
                    self.pc = target as usize;
                }
            }
            Inst::DoHead { lp, ops } => {
                if let Some(h) = self.handler.take() {
                    let lp = self.code.loops[lp as usize];
                    let taken = h.on_loop(self, lp);
                    self.handler = Some(h);
                    if let Some(result) = taken {
                        self.pc = lp.next as usize + 1;
                        return result.map(|()| true);
                    }
                }
                self.ops += u64::from(ops);
            }
            Inst::DoEnter(lp) => {
                let lp = self.code.loops[lp as usize];
                let (lo, hi, step) = self.pop_bounds(&lp)?;
                sink(self.hooks, &mut lent).loop_enter(lp.stmt, self.ops);
                self.loops.push(LoopFrame { i: lo, hi, step });
                self.iterate(&lp, lent)?;
            }
            Inst::DoNext(lp) => {
                let lp = self.code.loops[lp as usize];
                self.check_budget(lp.line)?;
                let frame = self.loops.last_mut().expect("inside the loop");
                frame.i += frame.step;
                self.iterate(&lp, lent)?;
            }
            Inst::WholeAddr { var, line } => {
                let base = self.array_base(var, line)?;
                self.stack.push(Value::Int(base as i64));
            }
            Inst::PartAddr {
                var,
                dims,
                line,
                rank,
            } => {
                let addr = self.pop_element_addr(var, dims, rank, line)?;
                self.stack.push(Value::Int(addr as i64));
            }
            Inst::Bind(formal) => {
                let addr = self.pop().as_int() as usize;
                self.base[formal.0 as usize] = addr;
            }
            Inst::ArgScalar { var, line } => {
                let addr = self.base[var.0 as usize];
                sink(self.hooks, &mut lent).load(var, addr);
                let val = self.mem_load(addr, line)?;
                self.stack.push(val);
            }
            Inst::Call { callee, line } => {
                // The actuals were evaluated in the caller's frame; only now
                // do the callee's scalar slots change.
                let callee = callee.0 as usize;
                let n = self.code.procs[callee].scalars.len();
                let at = self.stack.len() - n;
                for k in 0..n {
                    let (formal, ty) = self.code.procs[callee].scalars[k];
                    let val = convert(self.stack[at + k], ty);
                    self.mem_store(self.base[formal.0 as usize], val, line)?;
                }
                self.stack.truncate(at);
                self.check_budget(line)?;
                self.calls.push(self.pc);
                self.pc = self.code.procs[callee].entry as usize;
            }
            Inst::CopyOut {
                formal,
                actual,
                line,
            } => {
                // The hook names the formal: the analyzers map addresses,
                // not names.
                let val = self.mem_load(self.base[formal.0 as usize], line)?;
                let addr = self.base[actual.0 as usize];
                self.mem_store(addr, val, line)?;
                sink(self.hooks, &mut lent).store(formal, addr);
            }
            Inst::Return => match self.calls.pop() {
                Some(resume) => self.pc = resume,
                None => {
                    // `main` returned: stay here, so a further step halts too.
                    self.pc -= 1;
                    return Ok(false);
                }
            },
        }
        Ok(true)
    }

    /// Name the cells the next instruction reads and writes, reads first,
    /// without running it: the accesses [`Machine::step`] reports to the
    /// `load` / `store` hooks, and those no hook hears — the adjustable
    /// extents an address reads, a call's stores into its scalar formals
    /// and a loop's stores into its induction variable.  An instruction
    /// that fails names every read it may make, and no write it would not
    /// make.
    pub fn accesses(&self, mut visit: impl FnMut(usize, AccessKind)) {
        let scalar = |var: VarId| self.base[var.0 as usize];
        match self.code.insts[self.pc] {
            Inst::LoadScalar(var) | Inst::ArgScalar { var, .. } => {
                visit(scalar(var), AccessKind::Read);
            }
            Inst::LoadElem { var, dims, rank } => {
                self.element_accesses(var, dims, rank, Some(AccessKind::Read), &mut visit);
            }
            Inst::StoreElem {
                var, dims, rank, ..
            } => self.element_accesses(var, dims, rank, Some(AccessKind::Write), &mut visit),
            Inst::PartAddr {
                var, dims, rank, ..
            } => self.element_accesses(var, dims, rank, None, &mut visit),
            Inst::StoreScalar { var, .. } => visit(scalar(var), AccessKind::Write),
            Inst::CopyOut { formal, actual, .. } => {
                visit(scalar(formal), AccessKind::Read);
                visit(scalar(actual), AccessKind::Write);
            }
            Inst::Call { callee, .. } => {
                for &(formal, _) in &self.code.procs[callee.0 as usize].scalars {
                    visit(scalar(formal), AccessKind::Write);
                }
            }
            Inst::DoEnter(lp) => {
                let lp = self.code.loops[lp as usize];
                // `pop_bounds` refuses a zero step before the store.
                let zero_step = lp.has_step && self.stack.last().is_some_and(|s| s.as_int() == 0);
                if !zero_step {
                    visit(scalar(lp.var), AccessKind::Write);
                }
            }
            // The budget check comes before the store.
            Inst::DoNext(lp) if self.ops <= self.max_ops => {
                visit(scalar(self.code.loops[lp as usize].var), AccessKind::Write);
            }
            _ => {}
        }
    }

    /// [`Machine::accesses`] of an instruction that addresses an element of
    /// `var` with the `rank` subscripts on top of the stack: the adjustable
    /// extents it reads, then the element, when it accesses one (`kind`)
    /// and its address is in bounds.
    fn element_accesses(
        &self,
        var: VarId,
        dims: u32,
        rank: u8,
        kind: Option<AccessKind>,
        visit: &mut impl FnMut(usize, AccessKind),
    ) {
        let dims = &self.code.dims[dims as usize..][..rank as usize];
        for dim in dims {
            if let Dim::Adjustable(extent) = *dim {
                visit(self.base[extent.0 as usize], AccessKind::Read);
            }
        }
        let subs = &self.stack[self.stack.len() - rank as usize..];
        if let (Some(kind), Ok(addr)) = (kind, self.element_addr(var, dims, subs, 0)) {
            visit(addr, kind);
        }
    }

    #[inline(always)]
    fn pop(&mut self) -> Value {
        self.stack.pop().expect("lowered code balances the stack")
    }

    /// The evaluated bounds of `lp`, which its bound expressions left on
    /// the stack.
    fn pop_bounds(&mut self, lp: &DoLoop) -> Result<(i64, i64, i64), RuntimeError> {
        let step = if lp.has_step { self.pop().as_int() } else { 1 };
        let hi = self.pop().as_int();
        let lo = self.pop().as_int();
        if step == 0 {
            return rerr(lp.line, "do loop with zero step");
        }
        Ok((lo, hi, step))
    }

    /// Begin the iteration the innermost loop frame stands at, or leave the
    /// loop.  Either way the control variable gets the frame's value —
    /// Fortran DO semantics: after the loop it holds the first value that
    /// failed the test (`lo` for zero-trip loops).
    #[inline(always)]
    fn iterate(
        &mut self,
        lp: &DoLoop,
        mut lent: Option<&mut dyn Hooks>,
    ) -> Result<(), RuntimeError> {
        let LoopFrame { i, hi, step } = *self.loops.last().expect("inside the loop");
        // The resolver admits only `int` scalars as control variables.
        self.mem_store(self.base[lp.var.0 as usize], Value::Int(i), lp.line)?;
        if (step > 0 && i <= hi) || (step < 0 && i >= hi) {
            sink(self.hooks, &mut lent).loop_iter(lp.stmt, i);
            self.pc = lp.enter as usize + 1;
        } else {
            self.loops.pop();
            sink(self.hooks, &mut lent).loop_exit(lp.stmt, self.ops);
            self.pc = lp.next as usize + 1;
        }
        Ok(())
    }

    #[inline(always)]
    fn check_budget(&self, line: u32) -> Result<(), RuntimeError> {
        if self.ops > self.max_ops {
            return rerr(line, format!("op budget of {} exhausted", self.max_ops));
        }
        Ok(())
    }

    // ----- addressing ------------------------------------------------

    /// Base address of an array variable: static, bound or privatized.
    pub fn array_base(&self, v: VarId, line: u32) -> Result<usize, RuntimeError> {
        match self.base[v.0 as usize] {
            UNBOUND => rerr(
                line,
                format!("array `{}` has no binding", self.program.var(v).name),
            ),
            b => Ok(b),
        }
    }

    /// Read a scalar's cell as an integer without firing hooks (adjustable
    /// extents).
    fn scalar_int(&self, v: VarId, line: u32) -> Result<i64, RuntimeError> {
        Ok(self.mem_load(self.base[v.0 as usize], line)?.as_int())
    }

    /// Pop `rank` subscripts and return the address of that element of
    /// `var` (1-based, column-major), with bounds checks.
    #[inline(always)]
    fn pop_element_addr(
        &mut self,
        var: VarId,
        dims: u32,
        rank: u8,
        line: u32,
    ) -> Result<usize, RuntimeError> {
        let at = self.stack.len() - rank as usize;
        let dims = &self.code.dims[dims as usize..][..rank as usize];
        let addr = self.element_addr(var, dims, &self.stack[at..], line)?;
        self.stack.truncate(at);
        Ok(addr)
    }

    /// The address of `var[subs]` under the shape `dims`.
    #[inline(always)]
    fn element_addr(
        &self,
        var: VarId,
        dims: &[Dim],
        subs: &[Value],
        line: u32,
    ) -> Result<usize, RuntimeError> {
        let base = self.array_base(var, line)?;
        let mut linear: i64 = 0;
        let mut mult: i64 = 1;
        for (k, (dim, sub)) in dims.iter().zip(subs).enumerate() {
            let i = sub.as_int();
            let (extent, stride) = match *dim {
                Dim::Folded { extent, stride } => (Some(extent), stride),
                Dim::Const(e) => (Some(e), mult),
                Dim::Adjustable(v) => (Some(self.scalar_int(v, line)?), mult),
                // `*` extent: no upper bound; must be the last dimension.
                Dim::Assumed => (None, mult),
            };
            if i < 1 {
                return Err(self.subscript_error(var, k, i, None, line));
            }
            if let Some(e) = extent {
                if i > e {
                    return Err(self.subscript_error(var, k, i, Some(e), line));
                }
                mult = mult.wrapping_mul(e);
            }
            linear += (i - 1) * stride;
        }
        let addr = base as i64 + linear;
        if addr < 0 || (addr as usize) >= self.mem.len() {
            return rerr(
                line,
                format!(
                    "access to `{}` out of memory bounds",
                    self.program.var(var).name
                ),
            );
        }
        Ok(addr as usize)
    }

    #[cold]
    fn subscript_error(
        &self,
        var: VarId,
        k: usize,
        i: i64,
        extent: Option<i64>,
        line: u32,
    ) -> RuntimeError {
        let name = &self.program.var(var).name;
        RuntimeError {
            message: match extent {
                None => format!("subscript {} of `{name}` is {i} (< 1)", k + 1),
                Some(e) => format!("subscript {} of `{name}` is {i} (> extent {e})", k + 1),
            },
            line,
        }
    }

    /// Number of elements of an array in the current frame, if computable
    /// (adjustable extents are evaluated; `*` extents yield `None`).
    pub fn array_elem_count(&self, var: VarId, line: u32) -> Result<Option<i64>, RuntimeError> {
        let mut n = 1i64;
        for d in &self.program.var(var).dims {
            let e = match d {
                Extent::Const(c) => *c,
                Extent::Var(v) => self.scalar_int(*v, line)?,
                Extent::Star => return Ok(None),
            };
            n = n.saturating_mul(e.max(0));
        }
        Ok(Some(n))
    }

    // ----- loads/stores ----------------------------------------------

    #[inline(always)]
    fn mem_load(&self, addr: usize, line: u32) -> Result<Value, RuntimeError> {
        match self.mem.load(addr) {
            Some(v) => Ok(v),
            None => rerr(line, format!("load out of bounds at {addr}")),
        }
    }

    #[inline(always)]
    fn mem_store(&mut self, addr: usize, val: Value, line: u32) -> Result<(), RuntimeError> {
        if self.mem.store(addr, val) {
            Ok(())
        } else {
            rerr(line, format!("store out of bounds at {addr}"))
        }
    }

    /// Write a scalar without firing hooks (runtime-internal writes:
    /// induction variables, parameter slots, privatization setup).
    pub fn set_scalar_raw(&mut self, v: VarId, val: Value, line: u32) -> Result<(), RuntimeError> {
        let ty = self.program.var(v).ty;
        self.mem_store(self.base[v.0 as usize], convert(val, ty), line)
    }
}

/// Equal, value by value and bit for bit.
fn same_values(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_value(x, y))
}

/// Equal, bit for bit.
pub fn same_value(x: &Value, y: &Value) -> bool {
    match (x, y) {
        (Value::Int(p), Value::Int(q)) => p == q,
        (Value::Real(p), Value::Real(q)) => p.to_bits() == q.to_bits(),
        _ => false,
    }
}

/// The hooks a step reports to: the ones lent to it, else the machine's own.
#[inline(always)]
fn sink<'s>(own: &'s mut dyn Hooks, lent: &'s mut Option<&mut dyn Hooks>) -> &'s mut dyn Hooks {
    match lent {
        Some(hooks) => &mut **hooks,
        None => own,
    }
}

#[inline(always)]
fn convert(v: Value, ty: Type) -> Value {
    match ty {
        Type::Int => Value::Int(v.as_int()),
        Type::Real => Value::Real(v.as_real()),
    }
}

#[inline(always)]
fn eval_binop(op: BinOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
    use BinOp::*;
    let both_int = l.is_int() && r.is_int();
    Ok(match op {
        Add | Sub | Mul | Div | Rem => {
            if both_int {
                let (a, b) = (l.as_int(), r.as_int());
                match op {
                    Add => Value::Int(a.wrapping_add(b)),
                    Sub => Value::Int(a.wrapping_sub(b)),
                    Mul => Value::Int(a.wrapping_mul(b)),
                    Div => {
                        if b == 0 {
                            return rerr(0, "integer division by zero");
                        }
                        Value::Int(a.wrapping_div(b))
                    }
                    Rem => {
                        if b == 0 {
                            return rerr(0, "integer remainder by zero");
                        }
                        Value::Int(a.wrapping_rem(b))
                    }
                    _ => unreachable!(),
                }
            } else {
                let (a, b) = (l.as_real(), r.as_real());
                match op {
                    Add => Value::Real(a + b),
                    Sub => Value::Real(a - b),
                    Mul => Value::Real(a * b),
                    Div => Value::Real(a / b),
                    Rem => Value::Real(a % b),
                    _ => unreachable!(),
                }
            }
        }
        Lt | Le | Gt | Ge | Eq | Ne => {
            let c = if both_int {
                let (a, b) = (l.as_int(), r.as_int());
                match op {
                    Lt => a < b,
                    Le => a <= b,
                    Gt => a > b,
                    Ge => a >= b,
                    Eq => a == b,
                    Ne => a != b,
                    _ => unreachable!(),
                }
            } else {
                let (a, b) = (l.as_real(), r.as_real());
                match op {
                    Lt => a < b,
                    Le => a <= b,
                    Gt => a > b,
                    Ge => a >= b,
                    Eq => a == b,
                    Ne => a != b,
                    _ => unreachable!(),
                }
            };
            Value::Int(if c { 1 } else { 0 })
        }
        And | Or => unreachable!("handled with short-circuit"),
    })
}

/// Apply an intrinsic to its argument `a` (and `b`, for the binary ones).
#[inline(always)]
fn eval_intrinsic(which: Intrinsic, a: Value, b: Value) -> Result<Value, RuntimeError> {
    use Intrinsic::*;
    Ok(match which {
        Min | Max => {
            if a.is_int() && b.is_int() {
                let (x, y) = (a.as_int(), b.as_int());
                Value::Int(if which == Min { x.min(y) } else { x.max(y) })
            } else {
                let (x, y) = (a.as_real(), b.as_real());
                Value::Real(if which == Min { x.min(y) } else { x.max(y) })
            }
        }
        Abs => match a {
            Value::Int(v) => Value::Int(v.wrapping_abs()),
            Value::Real(v) => Value::Real(v.abs()),
        },
        Sqrt => Value::Real(a.as_real().sqrt()),
        Mod => {
            if a.is_int() && b.is_int() {
                if b.as_int() == 0 {
                    return rerr(0, "mod by zero");
                }
                Value::Int(a.as_int().wrapping_rem(b.as_int()))
            } else {
                Value::Real(a.as_real() % b.as_real())
            }
        }
        Sin => Value::Real(a.as_real().sin()),
        Cos => Value::Real(a.as_real().cos()),
        Exp => Value::Real(a.as_real().exp()),
        Log => Value::Real(a.as_real().ln()),
        Ifix => Value::Int(a.as_int()),
        Float => Value::Real(a.as_real()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use suif_ir::parse_program;

    /// Logs every callback with its arguments, in order, under a tag.
    struct Tagged(&'static str, Arc<Mutex<Vec<String>>>);
    impl Tagged {
        fn log(&self, what: String) {
            self.1.lock().unwrap().push(format!("{}:{what}", self.0));
        }
    }
    impl Hooks for Tagged {
        fn on_stmt(&mut self, id: StmtId, line: u32) {
            self.log(format!("stmt {} {line}", id.0));
        }
        fn loop_enter(&mut self, stmt: StmtId, ops: u64) {
            self.log(format!("enter {} {ops}", stmt.0));
        }
        fn loop_iter(&mut self, stmt: StmtId, iter: i64) {
            self.log(format!("iter {} {iter}", stmt.0));
        }
        fn loop_exit(&mut self, stmt: StmtId, ops: u64) {
            self.log(format!("exit {} {ops}", stmt.0));
        }
        fn load(&mut self, var: VarId, addr: usize) {
            self.log(format!("load {} {addr}", var.0));
        }
        fn store(&mut self, var: VarId, addr: usize) {
            self.log(format!("store {} {addr}", var.0));
        }
    }

    fn run_src(src: &str) -> (Vec<String>, u64) {
        let p = parse_program(src).unwrap();
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.run().unwrap_or_else(|e| panic!("{e}\n{src}"));
        (m.output.clone(), m.ops())
    }

    #[test]
    fn arithmetic_and_print() {
        let (out, ops) = run_src(
            "program t\nproc main() {\n real x\n int k\n k = 7 / 2\n x = 7 / 2.0\n print k, x\n}",
        );
        assert_eq!(out, vec!["3 3.5"]);
        assert!(ops > 0);
    }

    #[test]
    fn do_loop_sums() {
        let (out, _) = run_src(
            "program t\nproc main() {\n int i, s\n s = 0\n do i = 1, 10 {\n s = s + i\n }\n print s\n}",
        );
        assert_eq!(out, vec!["55"]);
    }

    #[test]
    fn do_loop_with_negative_step() {
        let (out, _) = run_src(
            "program t\nproc main() {\n int i, s\n s = 0\n do i = 10, 1, -2 {\n s = s + i\n }\n print s\n}",
        );
        assert_eq!(out, vec!["30"]); // 10+8+6+4+2
    }

    #[test]
    fn arrays_are_one_based_column_major() {
        let (out, _) = run_src(
            "program t\nproc main() {\n real a[2, 3]\n int i, j\n do i = 1, 2 {\n do j = 1, 3 {\n a[i, j] = i * 10 + j\n }\n }\n print a[1, 1], a[2, 3]\n}",
        );
        assert_eq!(out, vec!["11 23"]);
    }

    #[test]
    fn subarray_argument_passing() {
        // init(b[k], n) initializes b[k..k+n-1] — the Fig. 5-1 pattern.
        let (out, _) = run_src(
            "program t\nproc init(real q[*], int n) {\n int j\n do j = 1, n {\n q[j] = j\n }\n}\nproc main() {\n real b[10]\n call init(b[4], 3)\n print b[3], b[4], b[6], b[7]\n}",
        );
        assert_eq!(out, vec!["0 1 3 0"]);
    }

    #[test]
    fn scalar_copy_in_copy_out() {
        let (out, _) = run_src(
            "program t\nproc bump(int k) {\n k = k + 1\n}\nproc main() {\n int n\n n = 41\n call bump(n)\n print n\n call bump(n + 100)\n print n\n}",
        );
        // Expression args get no copy-out.
        assert_eq!(out, vec!["42", "42"]);
    }

    #[test]
    fn common_blocks_share_storage_across_procs() {
        let (out, _) = run_src(
            "program t\nproc set() {\n common /c/ real a[4]\n a[2] = 9.5\n}\nproc main() {\n common /c/ real x[2], real y[2]\n call set()\n print y[1] + x[1]\n}",
        );
        // set's a[2] is main's x[2]... wait: a[1..4] maps to x[1..2],y[1..2];
        // a[2] == x[2]. y[1] == a[3] == 0.
        assert_eq!(out, vec!["0"]);
    }

    #[test]
    fn common_block_overlap_elementwise() {
        let (out, _) = run_src(
            "program t\nproc set() {\n common /c/ real a[4]\n int i\n do i = 1, 4 {\n a[i] = i\n }\n}\nproc main() {\n common /c/ real x[2], real y[2]\n call set()\n print x[1], x[2], y[1], y[2]\n}",
        );
        assert_eq!(out, vec!["1 2 3 4"]);
    }

    #[test]
    fn adjustable_array_extents() {
        let (out, _) = run_src(
            "program t\nproc f(real a[n, m], int n, int m) {\n a[2, 3] = 7\n}\nproc main() {\n real b[6]\n int i\n call f(b, 2, 3)\n do i = 1, 6 {\n print b[i]\n }\n}",
        );
        // a[2,3] with extents (2,3) column-major = element (2-1) + 2*(3-1) = 5 → b[6].
        assert_eq!(out[5], "7");
        assert_eq!(out[4], "0");
    }

    #[test]
    fn bounds_violation_is_reported() {
        let p = parse_program("program t\nproc main() {\n real a[3]\n int i\n i = 4\n a[i] = 0\n}")
            .unwrap();
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        let e = m.run().unwrap_err();
        assert!(e.message.contains("extent"), "{e}");
    }

    #[test]
    fn short_circuit_guards_out_of_bounds() {
        let (out, _) = run_src(
            "program t\nproc main() {\n real a[3]\n int k\n k = 9\n if k <= 3 && a[k] > 0 {\n print 1\n } else {\n print 0\n }\n}",
        );
        assert_eq!(out, vec!["0"]);
    }

    #[test]
    fn read_consumes_input() {
        let p = parse_program(
            "program t\nproc main() {\n int n\n real x\n read n\n read x\n print n, x\n}",
        )
        .unwrap();
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.set_input(vec![5.0, 2.5]);
        m.run().unwrap();
        assert_eq!(m.output, vec!["5 2.5"]);
    }

    #[test]
    fn intrinsics() {
        let (out, _) = run_src(
            "program t\nproc main() {\n print min(3, 5), max(2.0, 7.0), abs(-4), sqrt(9.0), mod(7, 3)\n}",
        );
        assert_eq!(out, vec!["3 7 4 3 1"]);
    }

    /// Integer arithmetic wraps, as `+ - *` always did: `i64::MIN / -1`
    /// and its relatives are values, not panics, in debug and release alike.
    #[test]
    fn integer_overflow_wraps_in_every_operator() {
        let (out, _) = run_src(
            "program t\nproc main() {\n int a, b\n a = 4611686018427387904 * 2\n b = 0 - 1\n print a / b, a % b, mod(a, b), -a, abs(a)\n}",
        );
        let min = i64::MIN;
        assert_eq!(out, vec![format!("{min} 0 0 {min} {min}")]);
    }

    #[test]
    fn paired_hooks_call_first_then_second() {
        let p = parse_program(
            "program t\nproc main() {\n int i, s\n s = 0\n do i = 1, 2 {\n s = s + i\n }\n}",
        )
        .unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut pair = (Tagged("a", log.clone()), Tagged("b", log.clone()));
        Machine::new(&p, &mut pair).unwrap().run().unwrap();
        let log = log.lock().unwrap();
        // Every event reaches `a`, then `b` with the same arguments, before
        // the next event reaches either.
        assert_eq!(log.len() % 2, 0);
        for pair in log.chunks(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert_eq!(a.strip_prefix("a:"), b.strip_prefix("b:"), "{a} / {b}");
            assert!(a.starts_with("a:"), "{a}");
        }
        for callback in ["stmt", "enter", "iter", "exit", "load", "store"] {
            let tag = format!("a:{callback} ");
            assert!(log.iter().any(|e| e.starts_with(&tag)), "no {callback}");
        }
    }

    #[test]
    fn op_budget_stops_a_runaway_loop_at_its_back_edge() {
        let p = parse_program(
            "program t\nproc main() {\n int i, s\n s = 0\n do i = 1, 2000000000 {\n s = s + i\n s = s - 1\n }\n print s\n}",
        )
        .unwrap();
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.set_max_ops(10_000);
        let e = m.run().unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (5, "op budget of 10000 exhausted")
        );
        // One iteration is 2 statements of 4 ops: the check at the back-edge
        // lets the counter pass the budget by less than that.
        assert!(m.ops() > 10_000 && m.ops() <= 10_000 + 8, "{}", m.ops());
        assert!(m.output.is_empty());
    }

    #[test]
    fn op_budget_stops_a_runaway_call_chain_at_a_call_entry() {
        // No back-edge is reached before the budget is spent: `work` runs
        // straight-line code, and the unrolled calls are what repeats.
        let calls = "  call work(s)\n".repeat(64);
        let src = format!(
            "program t\nproc work(int s) {{\n s = s + 1\n s = s + 1\n}}\nproc main() {{\n int s\n s = 0\n{calls} print s\n}}"
        );
        let p = parse_program(&src).unwrap();
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.set_max_ops(100);
        let e = m.run().unwrap_err();
        assert_eq!(e.message, "op budget of 100 exhausted");
        assert!((9..9 + 64).contains(&e.line), "line {}", e.line);
        assert!(m.ops() <= 100 + 9, "{}", m.ops());
    }

    #[test]
    fn a_sufficient_op_budget_changes_nothing() {
        let src = "program t\nproc f(real q[*], int n) {\n int j\n do j = 1, n {\n q[j] = q[j] + j\n }\n}\nproc main() {\n real b[6]\n int i\n do i = 1, 3 {\n call f(b[i], 4)\n }\n print b[3], b[6]\n}";
        let p = parse_program(src).unwrap();
        let run = |budget: Option<u64>| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut events = Tagged("", log.clone());
            let mut m = Machine::new(&p, &mut events).unwrap();
            if let Some(b) = budget {
                m.set_max_ops(b);
            }
            let result = m.run().map_err(|e| e.to_string());
            let events = log.lock().unwrap().clone();
            (result, m.ops(), m.output.clone(), events)
        };
        let unlimited = run(None);
        assert_eq!(unlimited.0, Ok(()));
        let ops = unlimited.1;
        assert_eq!(
            run(Some(ops)),
            unlimited,
            "a budget of exactly the run's ops"
        );
        assert_eq!(run(Some(u64::MAX - 1)), unlimited);
        assert!(run(Some(ops / 2)).0.is_err());
    }

    #[test]
    fn a_checkpoint_carries_its_budget_into_the_resumed_run() {
        let p = parse_program(
            "program t\nproc main() {\n int i, s\n s = 0\n do i = 1, 2000000000 {\n s = s + i\n }\n}",
        )
        .unwrap();
        let mut hooks = NoHooks;
        let mut scout = Machine::new(&p, &mut hooks).unwrap();
        scout.set_max_ops(10_000);
        assert!(matches!(
            scout.run_to(None, u64::MAX, &[], |_| true),
            Ok(Stop::Head(_))
        ));
        let at = scout.checkpoint();
        let mut hooks = NoHooks;
        let mut resumed = Machine::resume(&p, at, &mut hooks);
        let e = resumed.run().unwrap_err();
        assert_eq!(e.message, "op budget of 10000 exhausted");
    }

    #[test]
    fn a_forked_worker_spends_only_what_is_left_of_the_budget() {
        let p = parse_program(
            "program t\nproc main() {\n int i, s\n s = 0\n do i = 1, 2000000000 {\n s = s + i\n }\n}",
        )
        .unwrap();
        let mut hooks = NoHooks;
        let mut parent = Machine::new(&p, &mut hooks).unwrap();
        parent.set_max_ops(10_000);
        assert!(matches!(
            parent.run_to(None, u64::MAX, &[], |_| true),
            Ok(Stop::Head(_))
        ));
        let left = 10_000 - parent.ops();
        assert!(left < 10_000, "the parent spent ops before the head");
        let mut worker_hooks = NoHooks;
        let mut worker = parent.fork_view(&HashMap::new(), Vec::new(), &mut worker_hooks);
        let e = worker.run().unwrap_err();
        assert_eq!(e.message, format!("op budget of {left} exhausted"));
        assert!(
            worker.ops() > left && worker.ops() <= left + 8,
            "{}",
            worker.ops()
        );
    }

    #[test]
    fn run_to_stops_before_an_exit_a_head_and_a_budget_check() {
        let p = parse_program(
            "program t\nproc main() {\n int i, s\n s = 0\n do i = 1, 3 {\n s = s + i\n }\n do i = 1, 2 {\n s = s * 2\n }\n print s\n}",
        )
        .unwrap();
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        let Ok(Stop::Head(first)) = m.run_to(None, u64::MAX, &[], |_| true) else {
            panic!("no head");
        };
        // Standing at a stop, the machine stays there.
        assert!(
            matches!(m.run_to(None, u64::MAX, &[], |_| true), Ok(Stop::Head(lp)) if lp.stmt == first.stmt)
        );
        // The first loop's exit is the second loop's head: the exit wins.
        assert!(matches!(
            m.run_to(Some(&first), u64::MAX, &[], |_| true),
            Ok(Stop::Head(_))
        ));
        m.step().unwrap();
        assert!(matches!(
            m.run_to(Some(&first), u64::MAX, &[], |_| true),
            Ok(Stop::Exit)
        ));
        let Ok(Stop::Head(second)) = m.run_to(None, u64::MAX, &[], |_| true) else {
            panic!("no second head");
        };
        assert_ne!(second.stmt, first.stmt);
        // A limit already passed stops the machine at the back-edge, before
        // the budget check that the same limit as a budget fails.
        let at = m.checkpoint();
        let limit = m.ops();
        assert!(matches!(
            m.run_to(None, limit, &[], |_| false),
            Ok(Stop::Limit)
        ));
        let mut hooks = NoHooks;
        let mut budgeted = Machine::resume(&p, at, &mut hooks);
        budgeted.set_max_ops(limit);
        let e = budgeted.finish().unwrap_err();
        assert_eq!((e.line, budgeted.ops()), (8, m.ops()));
        assert!(matches!(
            m.run_to(None, u64::MAX, &[], |_| false),
            Ok(Stop::End)
        ));
        assert_eq!(m.output, vec!["24"]);
    }

    #[test]
    fn differences_compare_the_thread_and_name_the_cells_that_differ() {
        let p = parse_program(
            "program t\nproc main() {\n real a[3], x\n int i\n read x\n a[1] = 0.0\n do i = 1, 3 {\n a[i] = a[i] + i\n }\n print a[3]\n}",
        )
        .unwrap();
        let mut hooks = NoHooks;
        let mut m = Machine::new(&p, &mut hooks).unwrap();
        m.set_input(vec![1.0, 2.0]);
        assert!(matches!(
            m.run_to(None, u64::MAX, &[], |_| true),
            Ok(Stop::Head(_))
        ));
        let at = m.checkpoint();
        let a = (0..p.vars.len() as u32)
            .map(VarId)
            .find(|&v| p.var(v).name == "a");
        let cell = m.array_base(a.unwrap(), 0).unwrap();
        assert!(matches!(m.peek(cell), Some(Value::Real(x)) if x.to_bits() == 0));
        // `m` against a run resumed from its checkpoint and edited.
        let edited = |edit: &dyn Fn(&mut Machine<'_>)| {
            let mut hooks = NoHooks;
            let mut other = Machine::resume(&p, at.clone(), &mut hooks);
            edit(&mut other);
            m.differences(&other.into_checkpoint())
        };
        assert!(matches!(edited(&|_| {}).as_deref(), Some([])));
        assert!(
            matches!(edited(&|m| m.set_ops(m.ops() + 7)).as_deref(), Some([])),
            "ops are not compared"
        );
        let negative_zero = edited(&|m| assert!(m.poke(cell, Value::Real(-0.0))));
        assert!(
            matches!(negative_zero.as_deref(), Some(&[(c, Value::Real(x))]) if c == cell && x.to_bits() == (-0.0f64).to_bits()),
            "-0.0 is a cell that differs"
        );
        assert!(
            edited(&|m| m.output.push(String::new())).is_none(),
            "output"
        );
        assert!(
            edited(&|m| m.set_input(vec![1.0, 2.0])).is_none(),
            "input read"
        );
        assert!(edited(&|m| assert!(m.step().unwrap())).is_none(), "pc");
    }

    #[test]
    fn mdg_style_conditional_flow() {
        // The Fig. 4-3 pattern: RL[6:9] written under one condition, read
        // under a stronger one.
        let src = r#"program t
proc main() {
  real rs[9], rl[14]
  int k, kc, i
  real cut2, acc
  cut2 = 5.0
  acc = 0
  do 1000 i = 1, 3 {
    kc = 0
    do 1110 k = 1, 9 {
      rs[k] = i * k
      if rs[k] > cut2 { kc = kc + 1 }
    }
    if kc != 9 {
      do 1130 k = 2, 5 {
        if rs[k + 4] <= cut2 { rl[k + 4] = rs[k + 4] * 2 }
      }
      if kc == 0 {
        do 1140 k = 11, 14 {
          acc = acc + rl[k - 5]
        }
      }
    }
  }
  print acc
}
"#;
        let (out, _) = run_src(src);
        // i=1: rs[k]=k, kc=4 (rs 6..9 > 5) → writes rl for rs[k+4]<=5 i.e. none... rs[6..9]=6..9>5 so no rl writes, kc!=0 so no reads.
        // i=2: rs=2k, kc = #(2k>5) = k>=3 → 7; no reads.
        // i=3: rs=3k, kc = #(3k>5)=k>=2 → 8; no reads.
        // acc stays 0.
        assert_eq!(out, vec!["0"]);
    }
}
