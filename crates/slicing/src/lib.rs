//! Interprocedural program slicing for interactive parallelization (Ch. 3).
//!
//! * [`issa`] builds the **interprocedural SSA form** of §3.4: scalar values
//!   get SSA definitions with φ-nodes at branch joins and loop headers;
//!   arrays are monolithic values updated weakly (§3.4.2: "any reference to
//!   an array element accesses the entire array"); overlapping common-block
//!   members collapse into one *alias variable* per block; parameter passing
//!   is modelled copy-in/copy-out with explicit parameter-in values and
//!   return edges (§3.4.3).
//! * [`slicer`] implements the **demand-driven, context-sensitive slicing
//!   algorithm** of §3.5: *slice summaries* `⟨S, F⟩` (call subslice + upward
//!   formal dependences) computed with memoization and a fixed point over
//!   recurrences, a *hierarchical slice representation* (§3.5.4), program /
//!   data / control slices (§3.2.1), calling-context slices (`Cslice`), and
//!   the §3.6 pruning options (array-restricted and code-region-restricted).
//!
//! ```
//! use suif_slicing::{SliceKind, SliceOptions, Slicer};
//! let program = suif_ir::parse_program(
//!     "program p\nproc main() {\n int a, b, c\n a = 1\n b = 7\n c = a * 2\n print c\n}",
//! ).unwrap();
//! let mut slicer = Slicer::new(&program);
//! let print_stmt = program.proc_by_name("main").unwrap().body[3].id();
//! let c = program.var_by_name("main", "c").unwrap();
//! let slice = slicer
//!     .slice_use(print_stmt, c, SliceKind::Data, &SliceOptions::default())
//!     .unwrap();
//! assert!(slice.lines.contains(&4) && slice.lines.contains(&6)); // a = 1, c = a * 2
//! assert!(!slice.lines.contains(&5)); // b = 7 is irrelevant
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod issa;
pub mod slicer;

pub use issa::{Def, Issa, SliceVar, ValueId};
pub use slicer::{Slice, SliceKind, SliceOptions, Slicer};
