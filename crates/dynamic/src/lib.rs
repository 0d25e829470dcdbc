//! Execution substrate for the SUIF Explorer reproduction: a MiniF
//! interpreter plus the two *Execution Analyzers* of §2.5:
//!
//! * the **Loop Profile Analyzer** (§2.5.1) — per-loop execution time
//!   (virtual-op cost and wall clock), invocation counts, coverage and
//!   granularity metrics;
//! * the **Dynamic Dependence Analyzer** (§2.5.2) — shadow-memory tracking of
//!   the most recent write to every location (one logical-clock value per
//!   address, compared against the entry and iteration-start times of the
//!   active loops), reporting loop-carried flow dependences while ignoring
//!   compiler-recognized induction variables and reduction updates,
//!   ignoring anti-dependences, and modelling privatization (a read
//!   preceded by a same-iteration write carries no dependence).  Iteration
//!   batching (§2.5.2's second optimization) is supported through a
//!   sampling configuration.
//!
//! Both are [`machine::Hooks`], and hooks compose — `(A, B)` forwards every
//! callback to `A`, then `B` — so one interpreter pass serves both
//! analyzers: that is how the Explorer opens a program
//! (`docs/dynamic.md`, "The Execution Analyzers").  What that pass observed
//! is persisted and shared as a fact keyed on the program, the input and
//! `suif_analysis::execution::EXECUTE_VERSION`: a change to what a run
//! *means* — an operation's cost, the order of the hooks, what either
//! analyzer records — must bump that constant, or old facts answer for the
//! new semantics.
//!
//! The interpreter uses Fortran-77 storage semantics: statically allocated
//! locals (SAVE semantics), common blocks as shared segments, by-reference
//! array arguments (including sub-array bases) and copy-in/copy-out scalars.
//! Because MiniF has only bounded `do` loops and an acyclic call graph,
//! every program terminates; what a run *costs* is not bounded by the
//! program's size — `do i = 1, 2000000000` is one line — and the machine
//! has no fuel limit, so a daemon that runs tenants' programs on `load`
//! can be wedged by one (ROADMAP direction 2).
//!
//! The [`machine::Machine`] exposes two extension points to the
//! `suif-parallel` crate, which owns the one fork/join loop runtime: a
//! borrowed *loop handler* that may take over a `do` loop, and
//! [`machine::Machine::fork_view`], which forks a worker machine over a
//! shared view of this machine's memory.
//!
//! This crate also holds the two schedule-independent halves of the
//! **race-certification subsystem** (`docs/dynamic.md`): [`race`], a
//! happens-before / vector-clock race detector, and [`sched`], a seeded
//! adversarial scheduler.  The certifying executor that feeds them lives in
//! `suif_parallel::certify`, beside the production executor it shares its
//! fork/join with.
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

pub mod dyndep;
pub mod layout;
pub mod machine;
pub mod profile;
pub mod race;
pub mod sched;
pub mod value;

pub use dyndep::{DynDepAnalyzer, DynDepConfig, DynDepReport};
pub use layout::Layout;
pub use machine::{Hooks, Machine, MemStore, NoHooks, RuntimeError};
pub use profile::{LoopProfile, LoopProfiler, ProfileReport};
pub use race::{AccessInfo, AccessKind, Race, RaceDetector, VectorClock};
pub use sched::{AdversarialScheduler, SchedPolicy, SplitMix64};
pub use value::Value;
