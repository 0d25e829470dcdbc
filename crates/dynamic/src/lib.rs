//! Execution substrate for the SUIF Explorer reproduction: a MiniF
//! interpreter — [`code::Code::lower`] turns a program into one flat
//! instruction array, once, and [`machine::Machine`] is explicit state over
//! it (program counter, operand stack, loop-control stack, call-return
//! stack) advanced by [`machine::Machine::step`], the only way an
//! instruction runs (`docs/dynamic.md`, "The machine") — plus the two
//! *Execution Analyzers* of §2.5:
//!
//! * the **Loop Profile Analyzer** (§2.5.1) — per-loop execution time
//!   (virtual-op cost and wall clock), invocation counts, coverage and
//!   granularity metrics;
//! * the **Dynamic Dependence Analyzer** (§2.5.2) — the [`recorder`]'s
//!   profiling half: per address the last write and two reads since it,
//!   stamped by a logical clock and tested against the entry and
//!   iteration-start stamps of the active loops, reporting every carried
//!   dependence with its kind (flow, anti or output) while ignoring the
//!   compiler-recognized induction variables, and modelling privatization
//!   (a read preceded by a same-iteration write carries no flow).  Iteration
//!   batching (§2.5.2's second optimization) is supported through a
//!   sampling configuration.
//!
//! Both are [`machine::Hooks`], and hooks compose — `(A, B)` forwards every
//! callback to `A`, then `B` — so one interpreter pass serves both
//! analyzers: that is how the Explorer opens a program
//! (`docs/dynamic.md`, "The Execution Analyzers").  What that pass observed
//! is persisted and shared as a fact keyed on the program's control/address
//! skeleton, the input and `suif_analysis::execution::EXECUTE_VERSION`:
//! a change to what a run
//! *means* — an operation's cost, the order of the hooks, what either
//! analyzer records — must bump that constant, or old facts answer for the
//! new semantics.
//!
//! The interpreter uses Fortran-77 storage semantics: statically allocated
//! locals (SAVE semantics), common blocks as shared segments, by-reference
//! array arguments (including sub-array bases) and copy-in/copy-out scalars.
//! Because MiniF has only bounded `do` loops and an acyclic call graph,
//! every program terminates; what a run *costs* is not bounded by the
//! program's size — `do i = 1, 2000000000` is one line — so the machine
//! takes an op budget ([`machine::Machine::set_max_ops`], unlimited unless
//! set), checked at loop back-edges and call entries: the Explorer's run on
//! `load`, the certifier's scout and `run`'s measured runs set
//! [`MAX_EXECUTE_OPS`] (a forked worker gets what its parent has left of
//! it), and a program
//! that spends it fails like any other runtime error instead of holding a
//! daemon's worker.  Integer arithmetic wraps on overflow, so the only
//! arithmetic that fails is an integer division, remainder or `mod` by
//! zero.
//!
//! The [`machine::Machine`] exposes its extension points to the
//! `suif-parallel` crate, which owns the one fork/join loop runtime: a
//! borrowed *loop handler* that is offered every `do` loop as a
//! [`code::DoLoop`] handle and may take it over,
//! [`machine::Machine::eval_do_bounds`] and
//! [`machine::Machine::run_iteration`] over that handle,
//! [`machine::Machine::fork_view`], which forks a worker machine over a
//! shared view of this machine's memory and the same lowered code, and —
//! for a caller that advances several workers in turn on one thread —
//! [`machine::Machine::begin_iteration`] and
//! [`machine::Machine::step_with`], one instruction reporting to hooks the
//! caller lends it.  The certifier's scout also stops a run at a loop's
//! head or exit ([`machine::Machine::run_to`]), takes a
//! [`machine::Checkpoint`] at the head, resumes copies of the run from it
//! at the exit ([`machine::Machine::resume`]), asks which cells of a copy's
//! state there differ from its own ([`machine::Machine::differences`]), and
//! runs a copy that differs on alone ([`machine::Machine::finish`]).
//!
//! This crate also holds the two schedule-independent halves of the
//! **race-certification subsystem** (`docs/dynamic.md`): the [`recorder`]'s
//! certifier half, a detector of conflicting accesses from different
//! iterations, and [`sched`], a seeded adversarial scheduler.  The
//! certifying executor that feeds them lives in `suif_parallel::certify`,
//! beside the production executor it shares its loop layout, partition and
//! finalization with.
//!
//! ```
//! use suif_dynamic::machine::{Machine, NoHooks};
//! let program = suif_ir::parse_program(
//!     "program p\nproc main() {\n int i, s\n s = 0\n do i = 1, 10 {\n s = s + i\n }\n print s\n}",
//! ).unwrap();
//! let mut hooks = NoHooks;
//! let mut m = Machine::new(&program, &mut hooks).unwrap();
//! m.run().unwrap();
//! assert_eq!(m.output, vec!["55"]);
//! ```

#![warn(missing_docs)]

pub mod code;
pub mod layout;
pub mod machine;
pub mod profile;
pub mod recorder;
pub mod sched;
pub mod value;

pub use code::{Code, DoLoop};
pub use layout::{Layout, MAX_MEMORY_CELLS};
pub use machine::{Checkpoint, Hooks, Machine, MemStore, NoHooks, RuntimeError, Stop};
pub use profile::{LoopProfile, LoopProfiler, ProfileReport};
pub use recorder::{
    AccessInfo, AccessKind, DepKind, DynDepAnalyzer, DynDepConfig, DynDepReport, Race,
    RaceDetector, MAX_INVOCATION_RACES,
};
pub use sched::{AdversarialScheduler, SchedPolicy, SplitMix64};
pub use value::Value;

/// The op budget of a run made on a user's behalf: the Explorer's
/// instrumented run on `load`, the certifier's runs, and `run`'s
/// sequential and parallel measurements.  MiniF
/// programs terminate, but `do i = 1, 2000000000` is one line: without a
/// bound, a program opened on a shared daemon holds a worker for as long as
/// it likes.  2³² virtual ops is more than 300 times flo88 at
/// `Scale::Bench`, the largest program the repository ships, and tens of
/// seconds of interpretation.
pub const MAX_EXECUTE_OPS: u64 = 1 << 32;
