//! Content keys of procedures, programs and loops, and the 128-bit FNV-1a
//! they are folded with.
//!
//! [`crate::summarize::summarize_proc`] is a pure function of (procedure,
//! callee flows) — fresh symbols come from the procedure's own block and
//! array ids are interned eagerly in program order — so a
//! [`crate::ProcFlow`] can be reused across analysis runs whenever its
//! *content key* matches.  [`proc_key`] is the input hash of the
//! per-procedure `Summarize` fact; the [`crate::FactStore`] (and the tier
//! and snapshot behind it) is the one place flows are kept.
//!
//! The key hashes the procedure body (including its statement and variable
//! ids, so edits that renumber ids downstream soundly miss), the layouts of
//! every variable the procedure declares together with the storage object
//! each one interns to, the full common-block layout, and the keys of all
//! callees.  A `reload` therefore re-summarizes exactly the dirty cone: the
//! edited procedures, everything whose ids shifted, and their transitive
//! callers.

use crate::context::AnalysisCtx;
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
    /// byte-compatible with [`Fnv128::write`]; used for bulk integrity
    /// checksums (snapshot payloads), never for persisted fact hashes.
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

/// Content key of one procedure's flow under a given context.
///
/// `callee_keys` must already contain the key of every callee of `pid`
/// (guaranteed when keys are computed in bottom-up order).
pub fn proc_key(ctx: &AnalysisCtx<'_>, pid: ProcId, callee_keys: &HashMap<ProcId, u128>) -> u128 {
    let program = ctx.program;
    let proc = program.proc(pid);
    let mut h = Fnv128::new();
    h.write_u32(pid.0);
    // Body, parameter list, and ids — `Debug` covers every `StmtId`,
    // `VarId`, operator, and literal in the procedure.
    h.write(format!("{proc:?}").as_bytes());
    // Layout and storage identity of every variable the procedure sees.
    // `array_of` pins the interned id so a flow is never replayed into a
    // context that assigns the object a different id.
    for v in proc.all_vars() {
        h.write_u32(v.0);
        h.write(format!("{:?}", program.var(v)).as_bytes());
        h.write_u32(ctx.array_of(v).0);
    }
    // Whole common-block layout: member offsets and block sizes shift
    // sections even when the procedure text is unchanged.
    for c in &program.commons {
        h.write(format!("{c:?}").as_bytes());
    }
    // Callee flows, in call-site order.
    for &callee in ctx.cg.callees_of(pid) {
        h.write_u32(callee.0);
        h.write_u128(*callee_keys.get(&callee).expect("callee key computed first"));
    }
    h.0
}

/// Content keys of every procedure, computed in bottom-up order (so each
/// key sees its callees' keys).
pub fn all_proc_keys(ctx: &AnalysisCtx<'_>) -> HashMap<ProcId, u128> {
    let mut keys = HashMap::new();
    for &pid in ctx.cg.bottom_up() {
        let k = proc_key(ctx, pid, &keys);
        keys.insert(pid, k);
    }
    keys
}

/// Every content key of one program: [`all_proc_keys`] and their fold.
/// They are a pure function of the program text, so an analysis carries
/// them ([`crate::ProgramAnalysis::keys`]) and a re-analysis of the same
/// program reuses them instead of formatting and hashing every procedure
/// again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramKeys {
    /// Every procedure's key.
    pub procs: HashMap<ProcId, u128>,
    /// Whole-program content key: the fold of every procedure key in
    /// bottom-up order.  Changes exactly when some procedure's flow could
    /// change.
    pub program: u128,
}

impl ProgramKeys {
    /// Derive the keys of `ctx`'s program.
    pub fn of(ctx: &AnalysisCtx<'_>) -> ProgramKeys {
        let procs = all_proc_keys(ctx);
        let mut h = Fnv128::new();
        for &pid in ctx.cg.bottom_up() {
            h.write_u32(pid.0);
            h.write_u128(procs[&pid]);
        }
        ProgramKeys {
            procs,
            program: h.0,
        }
    }

    /// Region-granular content key of one of the program's loops: the
    /// owning procedure's key (which already covers the loop body and every
    /// callee transitively) plus the loop's identity within it.
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
        let ctx = AnalysisCtx::new(&p);
        let mut keys = HashMap::new();
        for &pid in ctx.cg.bottom_up() {
            let k = proc_key(&ctx, pid, &keys);
            keys.insert(pid, k);
        }
        let by_name = p
            .procedures
            .iter()
            .map(|pr| (pr.name.clone(), keys[&pr.id]))
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
    fn editing_a_leaf_invalidates_its_callers_only() {
        let base = "program t\nproc f(real q[*]) { q[1] = 0 }\nproc g(real q[*]) { q[2] = 0 }\nproc main() {\n real b[4]\n call f(b)\n call g(b)\n}";
        // Edit g's body; f precedes g in the source so its ids are unchanged.
        let edit = "program t\nproc f(real q[*]) { q[1] = 0 }\nproc g(real q[*]) { q[3] = 0 }\nproc main() {\n real b[4]\n call f(b)\n call g(b)\n}";
        let (k1, _) = keys_of(base);
        let (k2, _) = keys_of(edit);
        assert_eq!(k1["f"], k2["f"], "untouched leaf must keep its key");
        assert_ne!(k1["g"], k2["g"], "edited body must change the key");
        assert_ne!(k1["main"], k2["main"], "callers of the edit must miss");
    }
}
