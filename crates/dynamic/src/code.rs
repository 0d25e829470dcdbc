//! The lowered program: one flat instruction array for the whole program.
//!
//! [`Code::lower`] walks the resolved AST once and emits stack code in
//! evaluation order — operands left to right, then the operator — so the
//! [`Machine`](crate::machine::Machine) never sees a `Stmt` or an `Expr`.
//! Everything a node would look up at run time is resolved here: variables
//! are indices into the machine's base table, array shapes are slices of
//! `Code::dims` with the strides of constant-extent arrays folded, loops
//! are entries of `Code::loops`, and the virtual-op cost of every
//! expression node is summed into the instruction that opens its basic
//! block (`docs/dynamic.md`, "The machine").

use crate::layout::{Layout, LayoutError};
use suif_ir::ast::{BinOp, Intrinsic, UnaryOp};
use suif_ir::{Arg, Expr, Extent, ProcId, Program, Ref, Stmt, StmtId, Type, VarId};

/// One instruction.  Expression instructions pop their operands from the
/// operand stack and push their result; a statement leaves the stack as it
/// found it.  `line` fields are the line a failure is reported at.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Inst {
    /// A statement begins: add `ops` (the statement and every expression
    /// node it evaluates unconditionally), then `on_stmt`.
    Stmt { id: StmtId, line: u32, ops: u32 },
    /// Push an integer literal.
    Int(i64),
    /// Push a real literal.
    Real(f64),
    /// Push a scalar's value; fires `load`.
    LoadScalar(VarId),
    /// Pop `rank` subscripts, push the element; fires `load`.
    LoadElem { var: VarId, dims: u32, rank: u8 },
    /// Pop one value, push the operator's result.
    Unary(UnaryOp),
    /// Pop two values, push the operator's result (never `&&` / `||`).
    Binary(BinOp),
    /// [`Inst::Binary`] whose right operand is an integer literal.
    BinaryInt(BinOp, i64),
    /// [`Inst::Binary`] whose right operand is a real literal.
    BinaryReal(BinOp, f64),
    /// `l && r` after `l`: pop it; when false push 0 and jump to `target`,
    /// else add `ops` (the nodes of `r`) and fall into `r`'s code, which
    /// ends in [`Inst::Truthy`].
    AndThen { target: u32, ops: u32 },
    /// `l || r` after `l`: when true push 1 and jump, else as `AndThen`.
    OrElse { target: u32, ops: u32 },
    /// Replace the top of the stack by its truth value (0 or 1).
    Truthy,
    /// Pop the intrinsic's arguments, push its result.
    Intrinsic(Intrinsic),
    /// Pop a value into a scalar; fires `store`.
    StoreScalar { var: VarId, line: u32, ty: Type },
    /// Pop `rank` subscripts, then a value, into the element; fires `store`.
    StoreElem {
        var: VarId,
        dims: u32,
        line: u32,
        rank: u8,
        ty: Type,
    },
    /// Push the next `read` input value.
    ReadInput { line: u32 },
    /// Pop `n` values and append one output line.
    Print { n: u32 },
    /// Continue at the target.
    Jump(u32),
    /// Pop a value; continue at the target when it is false.
    JumpIfFalse(u32),
    /// The first instruction of loop `lp`'s bounds: offer the loop to the
    /// handler, then add `ops` (the nodes of the bound expressions).
    DoHead { lp: u32, ops: u32 },
    /// Pop the bounds of loop `lp`, fire `loop_enter`, begin the first
    /// iteration or leave.
    DoEnter(u32),
    /// The back-edge of loop `lp`: advance, begin the next iteration or
    /// leave.
    DoNext(u32),
    /// Push the base address of an array passed whole.
    WholeAddr { var: VarId, line: u32 },
    /// Pop `rank` subscripts, push the address of the element (a sub-array
    /// base); no hook fires.
    PartAddr {
        var: VarId,
        dims: u32,
        line: u32,
        rank: u8,
    },
    /// Pop an address and bind an array formal to it.
    Bind(VarId),
    /// Push the value of a scalar passed by name; fires `load`, costs no op.
    ArgScalar { var: VarId, line: u32 },
    /// Pop the scalar actuals into the callee's slots and enter it.
    Call { callee: ProcId, line: u32 },
    /// After the return: copy a modified scalar formal back to its actual;
    /// fires `store`.
    CopyOut {
        formal: VarId,
        actual: VarId,
        line: u32,
    },
    /// Leave the procedure; the program ends when `main` returns.
    Return,
}

/// The most dimensions an array may have (Fortran 77 allows 7).
const MAX_RANK: usize = u8::MAX as usize;

/// One declared array extent, as the address computation reads it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Dim {
    /// A dimension of an array whose extents are all constants: the stride
    /// (the product of the extents before it) is folded.
    Folded { extent: i64, stride: i64 },
    /// A constant extent beside an adjustable or assumed one.
    Const(i64),
    /// An adjustable extent, read from the scalar's cell on every access.
    Adjustable(VarId),
    /// `*`: no upper bound.
    Assumed,
}

/// A `do` loop of the lowered program: the handle a
/// [`LoopHandler`](crate::machine::LoopHandler) is offered and hands back
/// to the machine to evaluate the loop's bounds or run one iteration of its
/// body.
#[derive(Clone, Copy, Debug)]
pub struct DoLoop {
    /// The `do` statement.
    pub stmt: StmtId,
    /// Its induction variable.
    pub var: VarId,
    /// Its source line.
    pub line: u32,
    pub(crate) has_step: bool,
    /// Index of the loop's [`Inst::DoHead`]; the bound expressions follow.
    pub(crate) head: u32,
    /// Index of its [`Inst::DoEnter`]; the body starts right after.
    pub(crate) enter: u32,
    /// Index of its [`Inst::DoNext`]; the loop's exit is right after.
    pub(crate) next: u32,
}

/// What [`Inst::Call`] needs of a procedure.
#[derive(Clone, Debug)]
pub(crate) struct ProcCode {
    pub(crate) entry: u32,
    /// The scalar formals, in parameter order.
    pub(crate) scalars: Vec<(VarId, Type)>,
}

/// A program lowered for the [`Machine`](crate::machine::Machine).  Immutable
/// once built; a machine, the workers forked from it and every machine made
/// from it by [`Machine::with_code`](crate::machine::Machine::with_code)
/// share one `Arc<Code>`.
#[derive(Debug)]
pub struct Code {
    pub(crate) insts: Vec<Inst>,
    pub(crate) dims: Vec<Dim>,
    pub(crate) loops: Vec<DoLoop>,
    /// Index = `ProcId.0`.
    pub(crate) procs: Vec<ProcCode>,
    pub(crate) main: u32,
    pub(crate) layout: Layout,
}

impl Code {
    /// Lower `program`.  Fails when its storage cannot be laid out, or when
    /// an array has more dimensions than an instruction's `rank` can say.
    pub fn lower(program: &Program) -> Result<Code, LayoutError> {
        let layout = Layout::build(program)?;
        if let Some(v) = program.vars.iter().find(|v| v.dims.len() > MAX_RANK) {
            return Err(LayoutError(format!(
                "array `{}` has more than {MAX_RANK} dimensions",
                v.name
            )));
        }
        let mut l = Lowerer {
            program,
            insts: Vec::new(),
            dims: Vec::new(),
            shape_of: vec![None; program.vars.len()],
            loops: Vec::new(),
            carrier: 0,
        };
        let mut procs = Vec::with_capacity(program.procedures.len());
        for proc in &program.procedures {
            procs.push(ProcCode {
                entry: l.here(),
                scalars: proc
                    .params
                    .iter()
                    .map(|&v| (v, program.var(v)))
                    .filter(|(_, info)| !info.is_array())
                    .map(|(v, info)| (v, info.ty))
                    .collect(),
            });
            l.body(&proc.body);
            l.insts.push(Inst::Return);
        }
        Ok(Code {
            main: procs[program.main.0 as usize].entry,
            insts: l.insts,
            dims: l.dims,
            loops: l.loops,
            procs,
            layout,
        })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True for a program without instructions (there is none: every
    /// procedure ends in a return).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

struct Lowerer<'p> {
    program: &'p Program,
    insts: Vec<Inst>,
    dims: Vec<Dim>,
    /// Where each array's shape starts in `dims`, once an access needed it.
    shape_of: Vec<Option<u32>>,
    loops: Vec<DoLoop>,
    /// The instruction that pays for the expression nodes lowered next.
    carrier: usize,
}

impl Lowerer<'_> {
    fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Emit the instruction that opens a basic block and pays `ops` plus
    /// whatever [`Lowerer::tick`] adds while it is the carrier.
    fn open(&mut self, inst: Inst) -> usize {
        self.carrier = self.insts.len();
        self.insts.push(inst);
        self.carrier
    }

    /// One expression node: one virtual op, charged to the carrier.
    fn tick(&mut self) {
        match &mut self.insts[self.carrier] {
            Inst::Stmt { ops, .. }
            | Inst::AndThen { ops, .. }
            | Inst::OrElse { ops, .. }
            | Inst::DoHead { ops, .. } => *ops += 1,
            other => unreachable!("{other:?} carries no ops"),
        }
    }

    fn set_target(&mut self, at: usize) {
        let here = self.here();
        match &mut self.insts[at] {
            Inst::AndThen { target, .. }
            | Inst::OrElse { target, .. }
            | Inst::Jump(target)
            | Inst::JumpIfFalse(target) => *target = here,
            other => unreachable!("{other:?} has no target"),
        }
    }

    /// The shape of array `var`: `(start in dims, rank)`.
    fn shape(&mut self, var: VarId) -> (u32, u8) {
        let declared = &self.program.var(var).dims;
        let rank = u8::try_from(declared.len()).expect("`Code::lower` checked every rank");
        if let Some(start) = self.shape_of[var.0 as usize] {
            return (start, rank);
        }
        let start = self.dims.len() as u32;
        if let Some(extents) = Layout::const_extents(self.program, var) {
            let mut stride = 1i64;
            for extent in extents {
                self.dims.push(Dim::Folded { extent, stride });
                stride = stride.wrapping_mul(extent);
            }
        } else {
            self.dims.extend(declared.iter().map(|d| match d {
                Extent::Const(c) => Dim::Const(*c),
                Extent::Var(v) => Dim::Adjustable(*v),
                Extent::Star => Dim::Assumed,
            }));
        }
        self.shape_of[var.0 as usize] = Some(start);
        (start, rank)
    }

    fn body(&mut self, body: &[Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        let (id, line) = (s.id(), s.line());
        self.open(Inst::Stmt { id, line, ops: 1 });
        match s {
            Stmt::Assign { lhs, rhs, .. } => {
                self.expr(rhs);
                self.store(lhs, line);
            }
            Stmt::Read { lhs, .. } => {
                self.insts.push(Inst::ReadInput { line });
                self.store(lhs, line);
            }
            Stmt::Print { args, .. } => {
                self.exprs(args);
                self.insts.push(Inst::Print {
                    n: args.len() as u32,
                });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                self.expr(cond);
                let to_else = self.insts.len();
                self.insts.push(Inst::JumpIfFalse(0));
                self.body(then_body);
                if else_body.is_empty() {
                    self.set_target(to_else);
                } else {
                    let to_end = self.insts.len();
                    self.insts.push(Inst::Jump(0));
                    self.set_target(to_else);
                    self.body(else_body);
                    self.set_target(to_end);
                }
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                let lp = self.loops.len();
                let head = self.open(Inst::DoHead {
                    lp: lp as u32,
                    ops: 0,
                });
                self.expr(lo);
                self.expr(hi);
                if let Some(step) = step {
                    self.expr(step);
                }
                self.loops.push(DoLoop {
                    stmt: id,
                    var: *var,
                    line,
                    has_step: step.is_some(),
                    head: head as u32,
                    enter: self.here(),
                    next: 0,
                });
                self.insts.push(Inst::DoEnter(lp as u32));
                self.body(body);
                self.loops[lp].next = self.here();
                self.insts.push(Inst::DoNext(lp as u32));
            }
            Stmt::Call { callee, args, .. } => {
                let cproc = self.program.proc(*callee);
                let mut copy_out = Vec::new();
                for (arg, (&formal, &modified)) in args
                    .iter()
                    .zip(cproc.params.iter().zip(&cproc.modified_params))
                {
                    match arg {
                        Arg::ArrayWhole(v) => {
                            self.insts.push(Inst::WholeAddr { var: *v, line });
                            self.insts.push(Inst::Bind(formal));
                        }
                        Arg::ArrayPart { var, base } => {
                            self.exprs(base);
                            let (dims, rank) = self.shape(*var);
                            let var = *var;
                            self.insts.push(Inst::PartAddr {
                                var,
                                dims,
                                line,
                                rank,
                            });
                            self.insts.push(Inst::Bind(formal));
                        }
                        Arg::ScalarVar(v) => {
                            self.insts.push(Inst::ArgScalar { var: *v, line });
                            // Copy-out only when the callee may modify the
                            // formal — otherwise Fortran by-reference
                            // semantics are unchanged and the write would
                            // fabricate output dependences.
                            if modified {
                                copy_out.push(Inst::CopyOut {
                                    formal,
                                    actual: *v,
                                    line,
                                });
                            }
                        }
                        Arg::Value(e) => self.expr(e),
                    }
                }
                let callee = *callee;
                self.insts.push(Inst::Call { callee, line });
                self.insts.extend(copy_out);
            }
        }
    }

    /// The store that ends an assignment or a `read`: the value is on the
    /// stack, the subscripts go on top of it.
    fn store(&mut self, lhs: &Ref, line: u32) {
        let ty = self.program.var(lhs.var()).ty;
        match lhs {
            Ref::Scalar(v) => self.insts.push(Inst::StoreScalar { var: *v, line, ty }),
            Ref::Element(v, subs) => {
                self.exprs(subs);
                let (dims, rank) = self.shape(*v);
                let var = *v;
                self.insts.push(Inst::StoreElem {
                    var,
                    dims,
                    line,
                    rank,
                    ty,
                });
            }
        }
    }

    fn exprs(&mut self, es: &[Expr]) {
        for e in es {
            self.expr(e);
        }
    }

    fn expr(&mut self, e: &Expr) {
        self.tick();
        match e {
            Expr::Int(v) => self.insts.push(Inst::Int(*v)),
            Expr::Real(v) => self.insts.push(Inst::Real(*v)),
            Expr::Scalar(v) => self.insts.push(Inst::LoadScalar(*v)),
            Expr::Element(v, subs) => {
                self.exprs(subs);
                let (dims, rank) = self.shape(*v);
                self.insts.push(Inst::LoadElem {
                    var: *v,
                    dims,
                    rank,
                });
            }
            Expr::Unary(op, a) => {
                self.expr(a);
                self.insts.push(Inst::Unary(*op));
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                self.expr(a);
                let outer = self.carrier;
                let (target, ops) = (0, 0);
                let decide = self.open(match op {
                    BinOp::And => Inst::AndThen { target, ops },
                    _ => Inst::OrElse { target, ops },
                });
                self.expr(b);
                self.insts.push(Inst::Truthy);
                self.set_target(decide);
                // What follows the join is evaluated on both paths.
                self.carrier = outer;
            }
            Expr::Binary(op, a, b) => {
                self.expr(a);
                match **b {
                    // A literal costs its op like any node, but no dispatch.
                    Expr::Int(v) => {
                        self.tick();
                        self.insts.push(Inst::BinaryInt(*op, v));
                    }
                    Expr::Real(v) => {
                        self.tick();
                        self.insts.push(Inst::BinaryReal(*op, v));
                    }
                    _ => {
                        self.expr(b);
                        self.insts.push(Inst::Binary(*op));
                    }
                }
            }
            Expr::Intrinsic(which, args) => {
                self.exprs(args);
                self.insts.push(Inst::Intrinsic(*which));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    #[test]
    fn an_instruction_is_two_words() {
        assert!(std::mem::size_of::<Inst>() <= 16);
    }

    #[test]
    fn an_array_of_too_many_dimensions_is_refused() {
        let (extents, subs) = (vec!["1"; 256].join(", "), vec!["1"; 256].join(", "));
        let src = format!("program t\nproc main() {{\n real a[{extents}]\n a[{subs}] = 0\n}}");
        let e = Code::lower(&parse_program(&src).unwrap()).unwrap_err();
        assert!(e.0.contains("more than 255 dimensions"), "{e}");
    }

    #[test]
    fn ops_are_charged_to_the_block_that_evaluates_the_node() {
        let p = parse_program(
            "program t\nproc main() {\n int i, k\n real a[4, 2]\n do i = 1, 2 + 2 {\n if i > 1 && a[i, 1] > 0 || k == 0 {\n k = (i + 1) * 2\n }\n }\n}",
        )
        .unwrap();
        let code = Code::lower(&p).unwrap();
        let ops: Vec<u32> = code
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Stmt { ops, .. }
                | Inst::AndThen { ops, .. }
                | Inst::OrElse { ops, .. }
                | Inst::DoHead { ops, .. } => Some(*ops),
                _ => None,
            })
            .collect();
        // do: the statement, then 1 / 2 + 2; if: itself + `||` + `&&` +
        // `i > 1`, then `a[i, 1] > 0`, then `k == 0`; the assignment.
        assert_eq!(ops, vec![1, 4, 6, 5, 3, 6]);
        // a[4, 2] is all-constant: strides folded.
        assert!(matches!(
            code.dims[..],
            [
                Dim::Folded {
                    extent: 4,
                    stride: 1
                },
                Dim::Folded {
                    extent: 2,
                    stride: 4
                }
            ]
        ));
        assert_eq!(code.loops.len(), 1);
        let l = code.loops[0];
        assert!(matches!(code.insts[l.head as usize], Inst::DoHead { .. }));
        assert!(matches!(code.insts[l.enter as usize], Inst::DoEnter(0)));
        assert!(matches!(code.insts[l.next as usize], Inst::DoNext(0)));
    }
}
