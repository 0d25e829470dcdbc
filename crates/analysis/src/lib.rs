//! The interprocedural parallelization analyses of the SUIF Explorer
//! reproduction (Liao, CSL-TR-00-807, Ch. 2.4, 5 and 6):
//!
//! * **symbolic analysis** on scalar variables (constants, affine relations,
//!   loop invariants) — [`symenv`];
//! * **array data-flow analysis**: region-based, bottom-up `<R, E, W, M>`
//!   section summaries over sets of systems of linear inequalities —
//!   [`summarize`]; including the §5.2.2.3 enhancement that subtracts
//!   recurrence writes from upwards-exposed reads;
//! * **dependence and privatization tests** on per-iteration summaries —
//!   [`deps`];
//! * **reduction recognition** (scalar, regular array, sparse/indirect,
//!   interprocedural; `+`, `*`, `min`, `max`) integrated into the data-flow
//!   framework — [`reduction`];
//! * **interprocedural array liveness** — the two-phase (bottom-up +
//!   top-down) context- and flow-sensitive algorithm of §5.2, plus the 1-bit
//!   and flow-insensitive precision variants of §5.2.3 — [`liveness`];
//! * **transformations** enabled by liveness: array contraction (§5.6) and
//!   common-block live-range splitting (§5.5) — [`contract`] and [`split`];
//! * the **data-decomposition advisory** of §4.2.4/Fig. 4-6 (conflicting
//!   array partitionings across parallel loops) — [`decomp`];
//! * the **parallelization driver** producing per-loop verdicts, with the
//!   configuration toggles the evaluation ablates (reduction recognition
//!   on/off for Fig. 6-4, liveness variant for Figs. 5-7/5-8) and support
//!   for checked user assertions — [`parallelize`].
//!
//! Scalars are analyzed uniformly with arrays as single-cell sections, which
//! is how privatizable/reduction scalars, scalar dependences and scalar
//! liveness fall out of one framework.
//!
//! ```
//! use suif_analysis::{ParallelizeConfig, Parallelizer};
//! let program = suif_ir::parse_program(
//!     "program p\nproc main() {\n real s, a[100]\n int i\n do 1 i = 1, 100 {\n s = s + a[i]\n }\n print s\n}",
//! ).unwrap();
//! let pa = Parallelizer::analyze(&program, ParallelizeConfig::default());
//! let l = &pa.ctx.tree.loops[0];
//! assert!(pa.verdicts[&l.stmt].is_parallel()); // a scalar sum reduction
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod context;
pub mod decomp;
pub mod deps;
pub mod enhance;
pub mod execution;
pub mod liveness;
pub mod parallelize;
pub mod persist;
pub mod pipeline;
pub mod reduction;
pub mod summarize;
pub mod symenv;

pub mod contract;
pub mod snapshot;
pub mod split;
pub mod tier;

pub use cache::SummaryCache;
pub use context::{AnalysisCtx, ArrayKey};
pub use deps::{DepKind, DepTest};
pub use execution::{ExecutionFact, LoopExecution};
pub use liveness::{LivenessMode, LivenessResult};
pub use parallelize::{
    AnalyzeStats, Assertion, LoopCertInfo, LoopVerdict, ParallelizeConfig, Parallelizer, PassStat,
    ProgramAnalysis, ScheduleOptions, StaticDep, VarClass,
};
pub use persist::PersistDir;
pub use pipeline::{
    ExecutorService, ExportedFact, FactKey, FactStore, Pass, PassId, PassMetrics, Scope,
    StoreByteStats,
};
pub use reduction::RedOp;
pub use snapshot::{FactValue, Snapshot, SnapshotError, SNAPSHOT_VERSION};
pub use summarize::{ArrayDataFlow, LoopIterSummary, ProcFlow};
pub use tier::{SharedFactTier, TierStats};
