//! MiniF: a Fortran-semantics mini-language and program IR for the SUIF
//! Explorer reproduction.
//!
//! The SUIF Explorer evaluation (Liao, CSL-TR-00-807, Ch. 4–6) runs on
//! Fortran-77 scientific programs.  MiniF preserves the Fortran semantics
//! every analysis in the paper depends on, with a small brace-based syntax:
//!
//! * 1-based, column-major arrays with declared (possibly symbolic) extents;
//! * `COMMON` blocks declared per procedure, with *different shapes per
//!   procedure* (the aliasing that drives the liveness-based common-block
//!   splitting of §5.5);
//! * by-reference array arguments, including sub-array bases `a[k]`
//!   (the `CALL init(aif3(k1), …)` pattern of Fig. 5-1);
//! * copy-in/copy-out scalar arguments (§3.4.2);
//! * structured control flow only: `do` loops (with optional numeric labels,
//!   so loops are nameable as `proc/label` like the paper's `interf/1000`),
//!   `if/else`, `call`, assignment, `print`/`read` (I/O marks a loop
//!   unparallelizable, §2.6).
//!
//! # Example
//!
//! ```
//! let src = r#"
//! program demo
//! proc main() {
//!   real a[10]
//!   int i
//!   do 100 i = 1, 10 {
//!     a[i] = i * 2
//!   }
//!   print a[10]
//! }
//! "#;
//! let program = suif_ir::parse_program(src).unwrap();
//! assert_eq!(program.procedures.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod regions;
pub mod sema;
pub mod token;

pub use callgraph::{callees_of_loop, CallGraph};
pub use program::*;
pub use regions::{LoopInfo, RegionId, RegionKind, RegionTree};

/// Parse and resolve a MiniF source string into a checked [`Program`].
pub fn parse_program(src: &str) -> Result<Program, CompileError> {
    let tokens = lexer::lex(src).map_err(CompileError::Lex)?;
    let ast = parser::parse(&tokens).map_err(CompileError::Parse)?;
    sema::resolve(&ast, src).map_err(CompileError::Sema)
}

/// Any front-end failure.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Lexical error.
    Lex(lexer::LexError),
    /// Syntax error.
    Parse(parser::ParseError),
    /// Semantic (name/type/shape) error.
    Sema(sema::SemaError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "lex error: {e}"),
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Sema(e) => write!(f, "semantic error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}
