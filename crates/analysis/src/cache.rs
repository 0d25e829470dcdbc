//! Content keys of procedures, programs and loops, and the 128-bit FNV-1a
//! they are folded with.
//!
//! [`crate::summarize::summarize_proc`] is a pure function of (procedure,
//! callee flows) — fresh symbols come from the procedure's own block and
//! array ids are interned eagerly in program order — so a
//! [`crate::ProcFlow`] can be reused across analysis runs whenever the
//! procedure's own region and what it reads of its callees are unchanged.
//!
//! A procedure's *content key* hashes its own region only: the body
//! (including its statement and variable ids, so edits that renumber ids
//! downstream soundly miss), the layouts of every variable it declares
//! together with the storage object each one interns to, and the full
//! common-block layout.  Its *interface key* is the part of that a caller
//! reads without the body: the variables (parameters first) with their
//! layouts and storage ids, the common layout, and which formals it may
//! modify.  Neither folds a callee:
//! the input hashes of the facts above the leaves fold the callees'
//! *value* hashes instead ([`crate::parallelize`]), so an edit re-summarizes
//! the edited procedures, everything whose ids shifted, and their callers
//! only as far as a summary changed value.

use crate::context::AnalysisCtx;
use crate::execution::Skeleton;
use std::collections::HashMap;
use suif_ir::{LoopInfo, ProcId};

/// 128-bit FNV-1a (shared with the pipeline's fact hashes).
#[derive(Clone, Copy)]
pub(crate) struct Fnv128(pub(crate) u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    pub(crate) fn new() -> Fnv128 {
        Fnv128(Self::OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold `bytes` eight at a time (one 128-bit multiply per word instead
    /// of per byte), mixing the length in last so `"ab" + "c"` and
    /// `"a" + "bc"` cannot collide via the padding-free tail.  NOT
    /// byte-compatible with [`Fnv128::write`]; used for bulk hashes of wire
    /// bytes (snapshot payload checksums and fact value hashes).
    pub(crate) fn write_words(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for w in &mut chunks {
            self.0 ^= u64::from_le_bytes(w.try_into().unwrap()) as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        for &b in chunks.remainder() {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self.0 ^= bytes.len() as u128;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    pub(crate) fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }
}

/// The interface and content keys of one procedure; `commons` is the
/// hash of the whole common-block layout.  Both are exact structural walks
/// ([`Skeleton::exact`]: every field, no literal masked).
fn proc_keys(ctx: &AnalysisCtx<'_>, pid: ProcId, commons: u128) -> (u128, u128) {
    let program = ctx.program;
    let proc = program.proc(pid);
    let mut w = Skeleton::exact(program);
    w.u32(pid.0);
    // Layout and storage identity of every variable the procedure sees,
    // parameters first.  `array_of` pins the interned id so a flow is never
    // replayed into a context that assigns the object a different id.
    for v in proc.all_vars() {
        w.u32(v.0);
        w.var(program.var(v));
        w.u32(ctx.array_of(v).0);
    }
    // Member offsets and block sizes shift sections even when the
    // procedure text is unchanged.
    w.h.write_u128(commons);
    // Which formals the procedure may modify: a caller's walk reads this
    // of the callee directly (copy-out kills), not through its summary.
    w.h.write_u32(proc.modified_params.len() as u32);
    for &m in &proc.modified_params {
        w.h.write(&[m as u8]);
    }
    let interface = w.h.0;
    // Body, parameter list, and ids: every `StmtId`, `VarId`, operator,
    // line and literal in the procedure.
    w.procedure(proc);
    (interface, w.h.0)
}

/// Every content key of one program.  They are a pure function of the
/// program text, so an analysis carries them
/// ([`crate::ProgramAnalysis::keys`]) and a re-analysis of the same program
/// reuses them instead of formatting and hashing every procedure again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramKeys {
    /// Every procedure's content key: its own region, no callee folded.
    pub procs: HashMap<ProcId, u128>,
    /// Every procedure's interface key: what a caller reads of it besides
    /// its summary (its variables, the common layout, and its
    /// `modified_params`).
    pub interfaces: HashMap<ProcId, u128>,
    /// Whole-program content key: the fold of every procedure's content key
    /// in bottom-up order.  Changes with any edit.
    pub program: u128,
    /// The program's control/address skeleton
    /// ([`crate::execution::skeleton_hash`]): its content with data-only
    /// literal values masked.
    pub skeleton: u128,
}

impl ProgramKeys {
    /// Derive the keys of `ctx`'s program.
    pub fn of(ctx: &AnalysisCtx<'_>) -> ProgramKeys {
        let mut w = Skeleton::exact(ctx.program);
        ctx.program.commons.iter().for_each(|c| w.common(c));
        let commons = w.h.0;
        let mut keys = ProgramKeys {
            procs: HashMap::new(),
            interfaces: HashMap::new(),
            program: 0,
            skeleton: crate::execution::skeleton_hash(ctx.program),
        };
        let mut h = Fnv128::new();
        for &pid in ctx.cg.bottom_up() {
            let (interface, content) = proc_keys(ctx, pid, commons);
            keys.procs.insert(pid, content);
            keys.interfaces.insert(pid, interface);
            h.write_u32(pid.0);
            h.write_u128(content);
        }
        keys.program = h.0;
        keys
    }

    /// Region-granular content key of one of the program's loops: the
    /// owning procedure's content key (which covers the loop body) plus the
    /// loop's identity within it.
    pub fn loop_key(&self, li: &LoopInfo) -> u128 {
        let mut h = Fnv128::new();
        h.write_u128(self.procs[&li.proc]);
        h.write_u32(li.stmt.0);
        h.write(li.name.as_bytes());
        h.0
    }
}

/// Ignored; kept while `perfbench/` is frozen; ROADMAP direction 0 deletes it together with the `cache` parameter.
#[derive(Default)]
pub struct SummaryCache;

impl SummaryCache {
    /// Ignored; kept while `perfbench/` is frozen; ROADMAP direction 0 deletes it together with the `cache` parameter.
    pub fn new() -> SummaryCache {
        SummaryCache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    fn keys_of(src: &str) -> (HashMap<String, u128>, suif_ir::Program) {
        let p = parse_program(src).unwrap();
        let keys = ProgramKeys::of(&AnalysisCtx::new(&p));
        let by_name = p
            .procedures
            .iter()
            .map(|pr| (pr.name.clone(), keys.procs[&pr.id]))
            .collect();
        (by_name, p)
    }

    #[test]
    fn key_is_stable_across_builds() {
        let src =
            "program t\nproc f(real q[*]) { q[1] = 0 }\nproc main() {\n real b[4]\n call f(b)\n}";
        let (k1, _p1) = keys_of(src);
        let (k2, _p2) = keys_of(src);
        assert_eq!(k1, k2);
    }

    #[test]
    fn editing_a_leaf_moves_its_own_key_only() {
        let base = "program t\nproc f(real q[*]) { q[1] = 0 }\nproc g(real q[*]) { q[2] = 0 }\nproc main() {\n real b[4]\n call f(b)\n call g(b)\n}";
        // Edit g's body; f precedes g in the source so its ids are unchanged.
        let edit = "program t\nproc f(real q[*]) { q[1] = 0 }\nproc g(real q[*]) { q[3] = 0 }\nproc main() {\n real b[4]\n call f(b)\n call g(b)\n}";
        let (k1, _) = keys_of(base);
        let (k2, _) = keys_of(edit);
        assert_eq!(k1["f"], k2["f"], "untouched leaf must keep its key");
        assert_ne!(k1["g"], k2["g"], "edited body must change the key");
        assert_eq!(
            k1["main"], k2["main"],
            "a caller's own region is unchanged: its summary's input hash \
             reads the callee's value, not its key"
        );
    }
}
