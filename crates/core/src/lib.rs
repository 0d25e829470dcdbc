//! The SUIF Explorer (Ch. 2): an interactive, interprocedural parallelizer.
//!
//! This crate ties the whole reproduction together — the four components of
//! Fig. 2-2:
//!
//! 1. the **parallelizing compiler** (`suif-analysis`),
//! 2. the **Execution Analyzers** (`suif-dynamic`'s Loop Profile Analyzer and
//!    Dynamic Dependence Analyzer, §2.5),
//! 3. the **visualization** (a text codeview standing in for Rivet, §2.7),
//! 4. the **Parallelization Guru** (§2.6) with its coverage/granularity
//!    metrics, ranked target-loop list, slice presentation (Ch. 3), and the
//!    assertion checker (§2.8).
//!
//! The entry point is [`Explorer`]: it compiles, auto-parallelizes, profiles
//! a sequential run, runs the dynamic dependence analyzer (aware of the
//! compiler's reductions and induction variables), and then supports the
//! interactive cycle: inspect guru targets → view slices → assert → check →
//! re-parallelize.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod codeview;
pub mod explorer;
pub mod guru;

pub use checker::{check_assertion, CheckResult};
pub use codeview::{codeview, source_view};
pub use explorer::{ExecutionStats, Explorer, ExplorerError};
pub use guru::{GuruReport, TargetLoop};
