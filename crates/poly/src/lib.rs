//! Polyhedral math substrate for the SUIF Explorer reproduction.
//!
//! The SUIF parallelizer represents array accesses as *sets of systems of
//! linear inequalities* whose integer solutions are the accessed array
//! indices (Liao, CSL-TR-00-807 §2.4, §5.2.1).  This crate provides that
//! representation and the operations the analyses need:
//!
//! * [`LinExpr`] — affine expressions over [`Var`]s with `i64` coefficients,
//! * [`Constraint`] — `expr >= 0` / `expr == 0` constraints,
//! * [`Polyhedron`] — conjunctions of constraints with Fourier–Motzkin
//!   elimination, emptiness proofs, and containment tests,
//! * [`PolySet`] — finite unions of polyhedra (the paper's "sets of systems"),
//! * [`Section`] — an array-section descriptor: a [`PolySet`] over dimension
//!   variables `d0..dk` and free symbolic variables,
//! * [`SectionSummary`] — the `<R, E, W, M>` four-tuple of sections used by
//!   the array data-flow and liveness analyses (§5.2.1), together with the
//!   meet `∧` and transfer `T` operators of Fig. 5-2.
//!
//! All operations are *conservative*: may-information (R, E, W) only ever
//! over-approximates, and must-information (M) only ever under-approximates.
//! Fourier–Motzkin is performed over the rationals, which over-approximates
//! the integer projection; exact (unit-coefficient) projection is available
//! for must-sections via [`Polyhedron::project_exact`].
//!
//! ```
//! use suif_poly::{Constraint, LinExpr, Polyhedron, Var};
//! // Writes a(i), reads a(i-1): can two iterations i1 < i2 touch the same
//! // element?  { d0 == i1, d0 == i2 - 1, i1 < i2 } is satisfiable.
//! let d0 = LinExpr::var(Var::Dim(0));
//! let i1 = LinExpr::var(Var::Sym(1));
//! let i2 = LinExpr::var(Var::Sym(2));
//! let sys = Polyhedron::from_constraints([
//!     Constraint::eq(&d0, &i1),
//!     Constraint::eq(&d0, &i2.offset(-1)),
//!     Constraint::lt(&i1, &i2),
//! ]);
//! assert!(!sys.prove_empty()); // dependence!
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraint;
mod expr;
mod polyhedron;
mod polyset;
mod section;
mod summary;

pub use constraint::{Constraint, ConstraintKind};
pub use expr::{LinExpr, Var};
pub use polyhedron::{
    clear_prove_empty_cache, poly_stats, subscript_pair_disjoint, PolyStats, Polyhedron,
};
pub use polyset::{PolySet, PolySetPool};
pub use section::{ArrayId, Section};
pub use summary::{AccessSummary, SectionSummary};

/// Hard cap on the number of constraints a polyhedron may hold before
/// operations start to approximate (drop to a sound top/bottom value).
///
/// Fourier–Motzkin elimination is worst-case exponential; the paper notes the
/// same and keeps summaries merged "when no information is lost" (§5.2.1).
pub const MAX_CONSTRAINTS: usize = 160;

/// Hard cap on the number of disjuncts a [`PolySet`] may hold.
pub const MAX_DISJUNCTS: usize = 24;

/// Work budget for the constraint-distribution step of [`PolySet::subtract`]:
/// when `minuend constraints × subtrahend constraints` exceeds this, the
/// minuend disjunct is kept unchanged (sound over-approximation) instead of
/// being split into pieces each needing an emptiness proof.
pub const SUBTRACT_WORK_BUDGET: usize = 160;

/// Total emptiness-test budget for one [`PolySet::subtract`] call; past it
/// remaining minuend disjuncts are returned unchanged (sound
/// over-approximation).  Bounds the worst-case transfer-function cost on
/// loops whose exposed/must-write sets have many large disjuncts.
pub const SUBTRACT_TEST_BUDGET: isize = 1024;

thread_local! {
    static SUBTRACT_TEST_BUDGET_OVERRIDE: std::cell::Cell<Option<isize>> =
        const { std::cell::Cell::new(None) };
}

/// The effective per-call subtract test budget for this thread
/// ([`SUBTRACT_TEST_BUDGET`] unless overridden).
pub fn subtract_test_budget() -> isize {
    SUBTRACT_TEST_BUDGET_OVERRIDE
        .with(|c| c.get())
        .unwrap_or(SUBTRACT_TEST_BUDGET)
}

/// Override the subtract test budget on this thread (ablation/benchmark
/// support; `None` restores the default).  `isize::MAX` disables the budget.
pub fn set_subtract_test_budget(v: Option<isize>) {
    SUBTRACT_TEST_BUDGET_OVERRIDE.with(|c| c.set(v));
}
