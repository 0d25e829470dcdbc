//! The SPMD parallel runtime (§4.5, §6.3).
//!
//! Executes loops the parallelizer proved parallel on worker threads over a
//! shared view of the interpreter's memory:
//!
//! * iterations are evenly block-divided between the workers ("the
//!   iterations of a parallel loop are evenly divided between the processors
//!   at the time the parallel loop is spawned", §4.5);
//! * only the outermost parallel loop runs in parallel (workers carry no
//!   loop handler, so nested parallel loops execute sequentially inside
//!   them);
//! * a run-time **serial fallback** suppresses parallel execution of loops
//!   whose iteration count is too small to amortize spawn overhead ("runs
//!   the loop sequentially if it is considered too fine-grained", §4.5);
//! * privatized variables (the plan's objects, the loop indices, and every
//!   local/scalar-parameter slot of procedures called from the body) are
//!   redirected into a thread-private memory tail;
//! * **parallel reductions** (§6.3) get per-thread private copies
//!   initialized to the operator identity, with the reduction region
//!   minimized to its constant bounds when the analysis derived them
//!   (§6.3.3), and a configurable finalization strategy: serialized
//!   post-join merging, or staggered per-section locking inside the workers
//!   (§6.3.4).
//!
//! All of that is one fork/join (`forkjoin.rs`: layout → `fork_join` →
//! `finalize`) with two users.  [`executor::ParallelExecutor`] runs planned
//! loops through it for speed; [`certify`] runs one target loop through it
//! for evidence, serializing the workers behind a token gate driven by
//! `suif-dynamic`'s adversarial scheduler and feeding every access to its
//! race detector.  Both are loop handlers the machine borrows; the fork/join
//! contract is described in `docs/dynamic.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod executor;
mod forkjoin;
pub mod measure;
pub mod plan;

pub use certify::{
    capture_sequential, certify_loop, CertOutcome, CertifyOptions, ExecutionCapture,
    LoopCertification, ScheduleReport,
};
pub use executor::{Finalization, ParallelExecutor, RunStats, RuntimeConfig, Schedule};
pub use measure::{
    measure_parallel, measure_sequential, parallel_ops, sequential_ops, Measurement,
};
pub use plan::{minimal_plan, ParallelPlans, PlanEntry, PlanReduction};
