//! The recursive AST walker that `suif_dynamic::Machine` was until it
//! became a stepping machine over lowered code — the reference side of
//! `tests/machine_oracle.rs`.
//!
//! Everything that executes is as it stood in `crates/dynamic/src/machine.rs`:
//! `exec_stmt` / `exec_body` / `exec_do_sequential` / `exec_call`, the
//! addressing (`overrides` → `Layout::base_of` → `bindings` on every access,
//! extents re-read per element), `eval` and the operator tables.  What is
//! gone is what a sequential reference has no use for: worker views
//! (`MemStore::View`, `fork_view`, `into_private` — memory is the owned
//! `Vec<Value>`), `poke`, and the helpers only the parallel runtime called
//! (`trip_count`, `array_elem_count`, `get_scalar_raw`).  The product's `Hooks`, `RuntimeError`, `Value`
//! and `Layout` are used as they are, so both sides report to the same
//! recorder.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use suif_dynamic::layout::{Layout, LayoutError};
use suif_dynamic::machine::{Hooks, RuntimeError};
use suif_dynamic::Value;
use suif_ir::ast::{BinOp, Intrinsic, UnaryOp};
use suif_ir::{Arg, Expr, Extent, ProcId, Program, Ref, Stmt, Type, VarId};

fn rerr<T>(line: u32, msg: impl Into<String>) -> Result<T, RuntimeError> {
    Err(RuntimeError {
        message: msg.into(),
        line,
    })
}

/// Machine-owned memory.
struct MemStore(Vec<Value>);

impl MemStore {
    fn load(&self, addr: usize) -> Option<Value> {
        self.0.get(addr).copied()
    }

    fn store(&mut self, addr: usize, val: Value) -> bool {
        match self.0.get_mut(addr) {
            Some(slot) => {
                *slot = val;
                true
            }
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.0.len()
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
        let mem = MemStore(layout.fresh_memory());
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

    /// Virtual-operation counter (deterministic cost metric).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Length of memory.
    pub fn shared_len(&self) -> usize {
        self.mem.len()
    }

    /// Read memory directly (no hooks).
    pub fn peek(&self, addr: usize) -> Option<Value> {
        self.mem.load(addr)
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
                        Value::Int(x) => Value::Int(x.wrapping_neg()),
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
            Value::Int(v) => Value::Int(v.wrapping_abs()),
            Value::Real(v) => Value::Real(v.abs()),
        },
        Sqrt => Value::Real(vals[0].as_real().sqrt()),
        Mod => {
            let (a, b) = (vals[0], vals[1]);
            if a.is_int() && b.is_int() {
                if b.as_int() == 0 {
                    return rerr(0, "mod by zero");
                }
                Value::Int(a.as_int().wrapping_rem(b.as_int()))
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
