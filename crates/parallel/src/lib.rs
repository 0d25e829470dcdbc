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
//! All of that exists once (`forkjoin.rs`: layout → workers over a
//! partition of the iterations → `finalize`) and has two users, which
//! differ in who advances the workers.  [`executor::ParallelExecutor`] runs
//! planned loops for speed: `fork_join` gives every worker an OS thread.
//! [`certify`] runs target loops for evidence: its workers are logical
//! threads that it steps in turn on the calling thread, `suif-dynamic`'s
//! adversarial scheduler choosing the next one between steps and its race
//! detector hearing every access; a sequential scout run carries every
//! schedule whose state agrees with its own between the invocations.  Both are loop handlers the machine
//! borrows; the contract is described in `docs/dynamic.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod executor;
mod forkjoin;
pub mod measure;
pub mod plan;

pub use certify::{
    capture_sequential, certify_from_main, certify_loop, certify_loops, CertOutcome,
    CertifyOptions, Divergence, ExecutionCapture, LoopCertification, ScheduleReport,
    MAX_CERTIFY_SCHEDULES,
};
pub use executor::{Finalization, ParallelExecutor, RunStats, RuntimeConfig, Schedule};
pub use measure::{
    measure_parallel, measure_sequential, parallel_ops, sequential_ops, Measurement,
};
pub use plan::{minimal_plan, ParallelPlans, PlanEntry, PlanReduction};
