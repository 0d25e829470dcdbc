//! The MiniF interpreter.
//!
//! One [`Machine`] executes one thread of control.  The `suif-parallel`
//! crate forks additional machines over a [`MemStore::View`] of the main
//! machine's memory ([`Machine::fork_view`]) to execute compiler-parallelized
//! loops — the safety contract for that sharing is documented on
//! [`MemStore`], and every raw-pointer operation stays in this file.

use crate::layout::{Layout, LayoutError};
use crate::value::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use suif_ir::ast::{BinOp, Intrinsic, UnaryOp};
use suif_ir::{Arg, Expr, Extent, ProcId, Program, Ref, Stmt, StmtId, Type, VarId};

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
/// `Send` because a forked worker machine travels to its thread together
/// with the hooks it reports to.
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
/// every view before the forking machine goes away; `suif-parallel`'s
/// `fork_join` — the one caller — spawns its workers as scoped threads and
/// joins them all before it returns.
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

/// Subscript lists up to this rank are evaluated into a stack buffer.
const INLINE_RANK: usize = 4;

/// [`Machine::bindings`] entry of an array formal outside its activation.
const UNBOUND: usize = usize::MAX;

/// A handler consulted before each `do` loop executes; used by the parallel
/// runtime to take over loops the compiler parallelized.  Returning `None`
/// lets the machine run the loop sequentially.  The machine only borrows its
/// handler, so the caller reads the handler's results after [`Machine::run`].
pub trait LoopHandler: Send {
    /// Offered the loop (always a [`Stmt::Do`]); may execute it entirely.
    fn on_loop(
        &mut self,
        machine: &mut Machine<'_>,
        do_stmt: &Stmt,
    ) -> Option<Result<(), RuntimeError>>;
}

/// The interpreter.
pub struct Machine<'a> {
    /// The program being executed.
    pub program: &'a Program,
    layout: Arc<Layout>,
    mem: MemStore,
    /// Array-parameter bindings: formal → base address of its element 1,
    /// indexed by [`VarId`].  MiniF rejects recursion, so a formal has at
    /// most one live binding and no per-activation table is needed.
    bindings: Vec<usize>,
    /// Privatization overlay: redirects a variable's storage base.
    pub overrides: HashMap<VarId, usize>,
    hooks: &'a mut dyn Hooks,
    handler: Option<&'a mut dyn LoopHandler>,
    ops: u64,
    /// Captured `print` output, one line per statement.
    pub output: Vec<String>,
    input: VecDeque<f64>,
}

impl<'a> Machine<'a> {
    /// Build a machine with fresh memory.
    pub fn new(program: &'a Program, hooks: &'a mut dyn Hooks) -> Result<Machine<'a>, LayoutError> {
        let layout = Arc::new(Layout::build(program)?);
        let mem = MemStore::Owned(layout.fresh_memory());
        Ok(Machine {
            program,
            layout,
            mem,
            bindings: vec![UNBOUND; program.vars.len()],
            overrides: HashMap::new(),
            hooks,
            handler: None,
            ops: 0,
            output: Vec::new(),
            input: VecDeque::new(),
        })
    }

    /// Supply `read` input values.
    pub fn set_input(&mut self, input: Vec<f64>) {
        self.input = input.into();
    }

    /// Install a loop handler (parallel runtime hook).
    pub fn set_handler(&mut self, h: &'a mut dyn LoopHandler) {
        self.handler = Some(h);
    }

    /// The storage layout.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// Virtual-operation counter (deterministic cost metric).
    pub fn ops(&self) -> u64 {
        self.ops
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
    /// The worker starts with the current array-parameter bindings, zero
    /// ops, no input and no loop handler (nested parallel loops run
    /// sequentially inside it); `private` is its thread-private tail and
    /// `overrides` — offsets into that tail, rebased here past shared
    /// memory — redirect privatized variables into it.
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
        Machine {
            program: self.program,
            layout: Arc::clone(&self.layout),
            mem: MemStore::View { base, len, private },
            bindings: self.bindings.clone(),
            overrides: overrides.iter().map(|(&v, &o)| (v, o + len)).collect(),
            hooks,
            handler: None,
            ops: 0,
            output: Vec::new(),
            input: VecDeque::new(),
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
        let body = &self.program.proc(self.program.main).body;
        self.exec_body(body)
    }

    /// Execute a statement list in the current frame.
    pub fn exec_body(&mut self, body: &[Stmt]) -> Result<(), RuntimeError> {
        for s in body {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<(), RuntimeError> {
        self.ops += 1;
        self.hooks.on_stmt(s.id(), s.line());
        match s {
            Stmt::Assign { lhs, rhs, line, .. } => {
                let val = self.eval(rhs)?;
                self.store_ref(lhs, val, *line)
            }
            Stmt::Read { lhs, line, .. } => {
                let Some(raw) = self.input.pop_front() else {
                    return rerr(*line, "read: input exhausted");
                };
                self.store_ref(lhs, Value::Real(raw), *line)
            }
            Stmt::Print { args, .. } => {
                let mut parts = Vec::with_capacity(args.len());
                for a in args {
                    parts.push(self.eval(a)?.to_string());
                }
                self.output.push(parts.join(" "));
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_body(then_body)
                } else {
                    self.exec_body(else_body)
                }
            }
            Stmt::Do { .. } => {
                if let Some(h) = self.handler.take() {
                    let intercepted = h.on_loop(self, s);
                    self.handler = Some(h);
                    if let Some(res) = intercepted {
                        return res;
                    }
                }
                self.exec_do_sequential(s)
            }
            Stmt::Call {
                callee, args, line, ..
            } => self.exec_call(*callee, args, *line),
        }
    }

    /// Execute a `do` loop sequentially (also used by the parallel runtime
    /// for serial fallback by simply not intercepting).
    pub fn exec_do_sequential(&mut self, s: &Stmt) -> Result<(), RuntimeError> {
        let Stmt::Do {
            id,
            line,
            var,
            lo,
            hi,
            step,
            body,
            ..
        } = s
        else {
            return rerr(0, "exec_do_sequential on a non-loop");
        };
        let lo = self.eval(lo)?.as_int();
        let hi = self.eval(hi)?.as_int();
        let step = match step {
            Some(e) => self.eval(e)?.as_int(),
            None => 1,
        };
        if step == 0 {
            return rerr(*line, "do loop with zero step");
        }
        let ops0 = self.ops;
        self.hooks.loop_enter(*id, ops0);
        let mut i = lo;
        while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
            self.set_scalar_raw(*var, Value::Int(i), *line)?;
            self.hooks.loop_iter(*id, i);
            self.exec_body(body)?;
            i += step;
        }
        // Fortran DO semantics: after the loop the control variable holds
        // the first value that failed the test (`lo` for zero-trip loops).
        self.set_scalar_raw(*var, Value::Int(i), *line)?;
        let ops1 = self.ops;
        self.hooks.loop_exit(*id, ops1);
        Ok(())
    }

    /// Evaluate the `(lo, hi, step)` bounds of a `do` statement in the
    /// current frame (used by the parallel runtime before forking).
    pub fn eval_do_bounds(&mut self, s: &Stmt) -> Result<(i64, i64, i64), RuntimeError> {
        let Stmt::Do {
            lo, hi, step, line, ..
        } = s
        else {
            return rerr(0, "eval_do_bounds on a non-loop");
        };
        let lo = self.eval(lo)?.as_int();
        let hi = self.eval(hi)?.as_int();
        let step = match step {
            Some(e) => self.eval(e)?.as_int(),
            None => 1,
        };
        if step == 0 {
            return rerr(*line, "do loop with zero step");
        }
        Ok((lo, hi, step))
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

    fn exec_call(&mut self, callee: ProcId, args: &[Arg], line: u32) -> Result<(), RuntimeError> {
        let cproc = self.program.proc(callee);
        // Evaluate actuals in the caller frame, then populate the callee.
        // (Array formals bind at once: the caller cannot name them.)
        let mut scalar_inits: Vec<(VarId, Value)> = Vec::new();
        // Copy-out actions performed at return: (formal, actual address).
        let mut copy_out: Vec<(VarId, usize)> = Vec::new();
        for (k, arg) in args.iter().enumerate() {
            let formal = cproc.params[k];
            match arg {
                Arg::ArrayWhole(v) => {
                    self.bindings[formal.0 as usize] = self.array_base(*v, line)?;
                }
                Arg::ArrayPart { var, base } => {
                    self.bindings[formal.0 as usize] = self.element_addr_of(*var, base, line)?;
                }
                Arg::ScalarVar(v) => {
                    let addr = self.scalar_addr(*v, line)?;
                    self.hooks.load(*v, addr);
                    let val = self.mem_load(addr, line)?;
                    scalar_inits.push((formal, val));
                    // Copy-out only when the callee may modify the formal —
                    // otherwise Fortran by-reference semantics are unchanged
                    // and the write would fabricate output dependences.
                    if cproc.modified_params[k] {
                        copy_out.push((formal, addr));
                    }
                }
                Arg::Value(e) => {
                    let val = self.eval(e)?;
                    scalar_inits.push((formal, val));
                }
            }
        }
        for (formal, val) in scalar_inits {
            self.set_scalar_raw(formal, val, line)?;
        }
        let result = self.exec_body(&cproc.body);
        // Copy-out even on error paths would be wrong; only on success.
        if result.is_ok() {
            for (formal, actual_addr) in copy_out {
                let faddr = self.scalar_addr(formal, line)?;
                let val = self.mem_load(faddr, line)?;
                // Find the actual's variable for the hook: we only know the
                // address; hook with the formal id (the analyzer maps
                // addresses, not names).
                self.mem_store(actual_addr, val, line)?;
                self.hooks.store(formal, actual_addr);
            }
        }
        result
    }

    // ----- addressing ------------------------------------------------

    /// Static/overridden/bound base address of an array variable.
    pub fn array_base(&self, v: VarId, line: u32) -> Result<usize, RuntimeError> {
        if let Some(&b) = self.overrides.get(&v) {
            return Ok(b);
        }
        if let Some(b) = self.layout.base_of(v) {
            return Ok(b);
        }
        match self.bindings[v.0 as usize] {
            UNBOUND => rerr(
                line,
                format!("array `{}` has no binding", self.program.var(v).name),
            ),
            b => Ok(b),
        }
    }

    fn scalar_addr(&self, v: VarId, line: u32) -> Result<usize, RuntimeError> {
        if let Some(&b) = self.overrides.get(&v) {
            return Ok(b);
        }
        match self.layout.base_of(v) {
            Some(b) => Ok(b),
            None => rerr(
                line,
                format!("scalar `{}` has no storage", self.program.var(v).name),
            ),
        }
    }

    /// Evaluate one declared extent in the current frame.
    fn extent_value(&self, e: &Extent, line: u32) -> Result<Option<i64>, RuntimeError> {
        match e {
            Extent::Const(c) => Ok(Some(*c)),
            Extent::Star => Ok(None),
            Extent::Var(v) => {
                let addr = self.scalar_addr(*v, line)?;
                Ok(Some(self.mem_load(addr, line)?.as_int()))
            }
        }
    }

    /// Address of `var[subs]` (1-based, column-major), with bounds checks.
    pub fn element_addr(&self, var: VarId, subs: &[i64], line: u32) -> Result<usize, RuntimeError> {
        let info = self.program.var(var);
        let base = self.array_base(var, line)?;
        let mut linear: i64 = 0;
        let mut mult: i64 = 1;
        for (k, &i) in subs.iter().enumerate() {
            let ext = self.extent_value(&info.dims[k], line)?;
            if i < 1 {
                return rerr(
                    line,
                    format!("subscript {} of `{}` is {i} (< 1)", k + 1, info.name),
                );
            }
            if let Some(e) = ext {
                if i > e {
                    return rerr(
                        line,
                        format!(
                            "subscript {} of `{}` is {i} (> extent {e})",
                            k + 1,
                            info.name
                        ),
                    );
                }
                linear += (i - 1) * mult;
                mult *= e;
            } else {
                // `*` extent: no upper bound; must be the last dimension.
                linear += (i - 1) * mult;
            }
        }
        let addr = base as i64 + linear;
        if addr < 0 || (addr as usize) >= self.mem.len() {
            return rerr(
                line,
                format!("access to `{}` out of memory bounds", info.name),
            );
        }
        Ok(addr as usize)
    }

    /// Address of `var[subs]` with the subscripts still to evaluate: all of
    /// them first, left to right, then [`Machine::element_addr`]'s checks.
    fn element_addr_of(
        &mut self,
        var: VarId,
        subs: &[Expr],
        line: u32,
    ) -> Result<usize, RuntimeError> {
        let mut inline = [0i64; INLINE_RANK];
        let mut spilled;
        let vals: &mut [i64] = match inline.get_mut(..subs.len()) {
            Some(buf) => buf,
            None => {
                spilled = vec![0i64; subs.len()];
                &mut spilled
            }
        };
        for (val, e) in vals.iter_mut().zip(subs) {
            *val = self.eval(e)?.as_int();
        }
        self.element_addr(var, vals, line)
    }

    /// Number of elements of an array in the current frame, if computable
    /// (adjustable extents are evaluated; `*` extents yield `None`).
    pub fn array_elem_count(&self, var: VarId, line: u32) -> Result<Option<i64>, RuntimeError> {
        let info = self.program.var(var);
        let mut n = 1i64;
        for d in &info.dims {
            match self.extent_value(d, line)? {
                Some(e) => n = n.saturating_mul(e.max(0)),
                None => return Ok(None),
            }
        }
        Ok(Some(n))
    }

    // ----- loads/stores ----------------------------------------------

    fn mem_load(&self, addr: usize, line: u32) -> Result<Value, RuntimeError> {
        match self.mem.load(addr) {
            Some(v) => Ok(v),
            None => rerr(line, format!("load out of bounds at {addr}")),
        }
    }

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
        let addr = self.scalar_addr(v, line)?;
        self.mem_store(addr, convert(val, ty), line)
    }

    /// Read a scalar without firing hooks.
    pub fn get_scalar_raw(&self, v: VarId, line: u32) -> Result<Value, RuntimeError> {
        let addr = self.scalar_addr(v, line)?;
        self.mem_load(addr, line)
    }

    fn store_ref(&mut self, r: &Ref, val: Value, line: u32) -> Result<(), RuntimeError> {
        match r {
            Ref::Scalar(v) => {
                let ty = self.program.var(*v).ty;
                let addr = self.scalar_addr(*v, line)?;
                self.mem_store(addr, convert(val, ty), line)?;
                self.hooks.store(*v, addr);
                Ok(())
            }
            Ref::Element(v, subs) => {
                let ty = self.program.var(*v).ty;
                let addr = self.element_addr_of(*v, subs, line)?;
                self.mem_store(addr, convert(val, ty), line)?;
                self.hooks.store(*v, addr);
                Ok(())
            }
        }
    }

    // ----- expression evaluation ---------------------------------------

    /// Evaluate an expression in the current frame.
    pub fn eval(&mut self, e: &Expr) -> Result<Value, RuntimeError> {
        self.ops += 1;
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Real(v) => Ok(Value::Real(*v)),
            Expr::Scalar(v) => {
                let addr = self.scalar_addr(*v, 0)?;
                let val = self.mem_load(addr, 0)?;
                self.hooks.load(*v, addr);
                Ok(val)
            }
            Expr::Element(v, subs) => {
                let addr = self.element_addr_of(*v, subs, 0)?;
                let val = self.mem_load(addr, 0)?;
                self.hooks.load(*v, addr);
                Ok(val)
            }
            Expr::Unary(op, a) => {
                let v = self.eval(a)?;
                Ok(match op {
                    UnaryOp::Neg => match v {
                        Value::Int(x) => Value::Int(-x),
                        Value::Real(x) => Value::Real(-x),
                    },
                    UnaryOp::Not => Value::Int(if v.truthy() { 0 } else { 1 }),
                })
            }
            Expr::Binary(op, a, b) => {
                // Short-circuit logicals.
                match op {
                    BinOp::And => {
                        let l = self.eval(a)?;
                        if !l.truthy() {
                            return Ok(Value::Int(0));
                        }
                        let r = self.eval(b)?;
                        return Ok(Value::Int(if r.truthy() { 1 } else { 0 }));
                    }
                    BinOp::Or => {
                        let l = self.eval(a)?;
                        if l.truthy() {
                            return Ok(Value::Int(1));
                        }
                        let r = self.eval(b)?;
                        return Ok(Value::Int(if r.truthy() { 1 } else { 0 }));
                    }
                    _ => {}
                }
                let l = self.eval(a)?;
                let r = self.eval(b)?;
                eval_binop(*op, l, r)
            }
            Expr::Intrinsic(which, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                eval_intrinsic(*which, &vals)
            }
        }
    }
}

fn convert(v: Value, ty: Type) -> Value {
    match ty {
        Type::Int => Value::Int(v.as_int()),
        Type::Real => Value::Real(v.as_real()),
    }
}

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
                        Value::Int(a / b)
                    }
                    Rem => {
                        if b == 0 {
                            return rerr(0, "integer remainder by zero");
                        }
                        Value::Int(a % b)
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

fn eval_intrinsic(which: Intrinsic, vals: &[Value]) -> Result<Value, RuntimeError> {
    use Intrinsic::*;
    Ok(match which {
        Min | Max => {
            let (a, b) = (vals[0], vals[1]);
            if a.is_int() && b.is_int() {
                let (x, y) = (a.as_int(), b.as_int());
                Value::Int(if which == Min { x.min(y) } else { x.max(y) })
            } else {
                let (x, y) = (a.as_real(), b.as_real());
                Value::Real(if which == Min { x.min(y) } else { x.max(y) })
            }
        }
        Abs => match vals[0] {
            Value::Int(v) => Value::Int(v.abs()),
            Value::Real(v) => Value::Real(v.abs()),
        },
        Sqrt => Value::Real(vals[0].as_real().sqrt()),
        Mod => {
            let (a, b) = (vals[0], vals[1]);
            if a.is_int() && b.is_int() {
                if b.as_int() == 0 {
                    return rerr(0, "mod by zero");
                }
                Value::Int(a.as_int() % b.as_int())
            } else {
                Value::Real(a.as_real() % b.as_real())
            }
        }
        Sin => Value::Real(vals[0].as_real().sin()),
        Cos => Value::Real(vals[0].as_real().cos()),
        Exp => Value::Real(vals[0].as_real().exp()),
        Log => Value::Real(vals[0].as_real().ln()),
        Ifix => Value::Int(vals[0].as_int()),
        Float => Value::Real(vals[0].as_real()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

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

    #[test]
    fn paired_hooks_call_first_then_second() {
        use std::sync::{Arc, Mutex};
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
