//! The instrumented run as a fact: what the two Execution Analyzers of
//! §2.5 observed in one sequential run of a program on one input.
//!
//! The *value*, its *key* and its *input hash* live here, beside the other
//! seven passes' — over `StmtId`/`VarId` only, so this crate needs no view
//! of the machine.  The *producer* (the pass whose `run` interprets the
//! program) lives in `suif-explorer`, where `suif-dynamic` is visible.

use crate::cache::Fnv128;
use crate::pipeline::{FactKey, PassId, Scope};
use std::collections::{BTreeMap, BTreeSet};
use suif_ir::{StmtId, VarId};

/// Version of what a run *means*: the machine's operation costs and hook
/// order, and what either analyzer records.  Folded into every
/// [`execute_hash`], so bumping it makes the facts of older builds miss.
pub const EXECUTE_VERSION: u32 = 1;

/// What the Loop Profile Analyzer saw of one loop (§2.5.1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopExecution {
    /// Times the loop was entered.
    pub invocations: u64,
    /// Iterations executed in total.
    pub iterations: u64,
    /// Inclusive virtual ops across invocations.
    pub total_ops: u64,
    /// Inclusive wall nanoseconds across invocations, of the producing run.
    pub total_nanos: u64,
    /// Loops observed dynamically enclosing this one at least once.
    pub dynamic_ancestors: BTreeSet<StmtId>,
}

/// One instrumented run: the plain data both analyzers produce.  The maps
/// are ordered, so the wire form ([`crate::snapshot`]) is canonical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutionFact {
    /// Virtual operations the machine executed.
    pub ops: u64,
    /// The profile's whole-run ops (the counter at the last loop exit).
    pub profiled_ops: u64,
    /// Whole-run wall nanoseconds of the producing run, both analyzers'
    /// bookkeeping included.
    pub nanos: u64,
    /// Per-loop profile, for every loop that executed.
    pub loops: BTreeMap<StmtId, LoopExecution>,
    /// Per loop, the variables seen carrying a flow dependence (§2.5.2).
    pub carried: BTreeMap<StmtId, BTreeSet<VarId>>,
}

/// Where the fact lives: one per program.
pub const EXECUTE_KEY: FactKey = FactKey {
    pass: PassId::Execute,
    scope: Scope::Program,
};

/// Input hash of the run's fact — the one definition the producing pass and
/// the warm-start validator ([`crate::Parallelizer::expected_fact_hashes`])
/// share.  `epoch_hash` ([`crate::ProgramAnalysis::epoch_hash`]) covers the
/// whole-program content, the analysis configuration and the resolved
/// assertion marks — everything the verdicts the dependence analyzer is
/// configured from derive from; `input` is what `read` statements consume,
/// hashed by bit pattern.
pub fn execute_hash(epoch_hash: u128, input: &[f64]) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(epoch_hash);
    h.write_u32(EXECUTE_VERSION);
    h.write(&(input.len() as u64).to_le_bytes());
    for x in input {
        h.write(&x.to_bits().to_le_bytes());
    }
    h.0
}
