//! Bit-identity oracle for the bottom-up `Summarize` walk: one pinned
//! digest over everything it produces and every loop verdict built on it.
//!
//! Per program the rendering is `fingerprint::df_fingerprint` (every
//! procedure summary, fresh-symbol range, statement summary, per-iteration
//! loop summary and plain closed loop summary, each map sorted by id), then
//! each loop's verdict `Debug` form in loop-name order.  The digest is FNV-1a
//! over the program names and renderings in a fixed order, so it is the same
//! on every host and every run.  Inputs: the 13 applications at
//! `Scale::Test` and at `Scale::Bench`, 300 `minif_gen` programs, and the
//! first 200 mutants of `source_mutants` that `parse_program` accepts.
//!
//! An optimization of the walk (a memo, a reordering, a cheaper operator)
//! must leave [`DIGEST`] where it is.  Fresh-symbol numbering shows in every
//! summary, so a memo that replayed a result which had drawn fresh symbols
//! moves it even where no verdict changes.
//!
//! [`SNAPSHOT_DIGEST`] pins the wire format over the same inputs: FNV-1a
//! over each program's `Snapshot::new(store.export()).encode()` bytes, in
//! the same order.  A codec change that moves a byte of `facts.snap` moves
//! it, so a refactor of the codec must leave it where it is.

mod fingerprint;
mod source_mutants;

use fingerprint::df_fingerprint;
use source_mutants::{applications, Mutants, SEED};
use suif_analysis::{FactStore, ParallelizeConfig, Parallelizer, Snapshot};
use suif_benchmarks::Scale;
use suif_ir::Program;

/// The digest the walk has produced since it was first pinned.
const DIGEST: u64 = 0x0a4a_8046_20ff_a9e1;

/// The digest of every program's encoded snapshot.
const SNAPSHOT_DIGEST: u64 = 0xc859_499a_c0fb_b566;

const GENERATED: u64 = 300;
const MUTANTS: usize = 200;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The data flow and the verdicts of one cold analysis, rendered, and the
/// snapshot bytes of every fact it stored.
fn render(program: &Program) -> (String, Vec<u8>) {
    let store = FactStore::new();
    let (pa, _) = Parallelizer::analyze_in(
        program,
        ParallelizeConfig::default(),
        &Default::default(),
        None,
        &store,
    );
    let mut loops: Vec<_> = pa.ctx.tree.loops.iter().collect();
    loops.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = df_fingerprint(&pa.df);
    for l in loops {
        out.push_str(&format!("\n{}: {:?}", l.name, pa.verdicts[&l.stmt]));
    }
    (out, Snapshot::new(store.export()).encode())
}

/// Every input as `(name, source)`, in digest order.
fn inputs() -> Vec<(String, String)> {
    let mut all = applications(Scale::Test);
    all.extend(applications(Scale::Bench));
    all.extend(
        (0..GENERATED).map(|s| (minif_gen::name_for_seed(s), minif_gen::source_for_seed(s))),
    );
    all.extend(
        Mutants::new(SEED)
            .filter(|m| suif_ir::parse_program(&m.text).is_ok())
            .take(MUTANTS)
            .map(|m| (m.label, m.text)),
    );
    all
}

#[test]
fn the_summarize_digest_is_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut snap = h;
    let mut n = 0;
    for (name, source) in inputs() {
        let program = suif_ir::parse_program(&source)
            .unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
        let (rendered, bytes) = render(&program);
        h = fnv(h, name.as_bytes());
        h = fnv(h, rendered.as_bytes());
        snap = fnv(snap, &bytes);
        n += 1;
    }
    assert_eq!(n, 26 + GENERATED as usize + MUTANTS);
    assert_eq!(
        h, DIGEST,
        "the Summarize facts or a verdict moved over {n} programs: digest {h:#018x}"
    );
    assert_eq!(
        snap, SNAPSHOT_DIGEST,
        "a snapshot byte moved over {n} programs: digest {snap:#018x}"
    );
}
