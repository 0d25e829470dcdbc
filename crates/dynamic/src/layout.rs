//! Static storage layout.
//!
//! Fortran-77 storage model: common blocks are shared segments; procedure
//! locals and scalar-parameter slots are statically allocated (SAVE
//! semantics — legal because MiniF rejects recursion).  Array parameters get
//! no storage of their own: they bind to a base address at call time.

use crate::value::Value;
use suif_ir::{Extent, Program, Type, VarId, VarKind};

/// The program-wide storage layout.
#[derive(Clone, Debug)]
pub struct Layout {
    /// Base address per variable; `None` for array parameters (bound at call
    /// time).
    base: Vec<Option<usize>>,
    /// Base address of each common block.
    pub common_base: Vec<usize>,
    /// Total number of cells.
    pub total: usize,
    /// Initial value per cell (typed zeros).
    init: Vec<Value>,
}

/// The most storage cells a program may declare: `real a[2000000000]` would
/// otherwise ask for gigabytes at its first run, and again for every
/// certified schedule.  19 times the largest benchmark application's.
pub const MAX_MEMORY_CELLS: usize = 1 << 20;

/// Layout construction failure (e.g. a local array with a non-constant
/// extent, which Fortran 77 does not allow either).
#[derive(Debug, Clone)]
pub struct LayoutError(pub String);

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "layout error: {}", self.0)
    }
}

impl Layout {
    /// Compute the layout for a program.
    pub fn build(program: &Program) -> Result<Layout, LayoutError> {
        let mut base: Vec<Option<usize>> = vec![None; program.vars.len()];
        let mut init: Vec<Value> = Vec::new();
        let mut next = 0usize;

        // Common blocks first.
        let mut common_base = Vec::new();
        for blk in &program.commons {
            let size = blk.size.max(0) as usize;
            common_base.push(claim(&mut next, size, &blk.name)?);
            // Element types may differ between views; initialize to Real
            // zeros and let views reinterpret (all cells are `Value`).
            init.extend(std::iter::repeat_n(Value::Real(0.0), size));
        }
        for (vi, info) in program.vars.iter().enumerate() {
            if let VarKind::Common { block, offset } = &info.kind {
                base[vi] = Some(common_base[block.0 as usize] + *offset as usize);
            }
        }

        // Locals and scalar-parameter slots.
        for proc in &program.procedures {
            for &v in proc.params.iter().chain(proc.locals.iter()) {
                let info = program.var(v);
                let vi = v.0 as usize;
                if info.is_array() {
                    match info.kind {
                        VarKind::Param { .. } => {
                            // bound at call time; no storage
                        }
                        _ => {
                            let Some(size) = info.const_size() else {
                                return Err(LayoutError(format!(
                                    "local array `{}` in `{}` must have constant extents",
                                    info.name, proc.name
                                )));
                            };
                            if size < 0 {
                                return Err(LayoutError(format!(
                                    "negative extent on `{}`",
                                    info.name
                                )));
                            }
                            base[vi] = Some(claim(&mut next, size as usize, &info.name)?);
                            let zero = zero_of(info.ty);
                            init.extend(std::iter::repeat_n(zero, size as usize));
                        }
                    }
                } else {
                    base[vi] = Some(claim(&mut next, 1, &info.name)?);
                    init.push(zero_of(info.ty));
                }
            }
        }

        Ok(Layout {
            base,
            common_base,
            total: next,
            init,
        })
    }

    /// Static base of a variable (`None` for array parameters).
    pub fn base_of(&self, v: VarId) -> Option<usize> {
        self.base[v.0 as usize]
    }

    /// Fresh memory initialized with typed zeros.
    pub fn fresh_memory(&self) -> Vec<Value> {
        self.init.clone()
    }

    /// The constant extents of a variable when all are constant.
    pub fn const_extents(program: &Program, v: VarId) -> Option<Vec<i64>> {
        program
            .var(v)
            .dims
            .iter()
            .map(|d| match d {
                Extent::Const(c) => Some(*c),
                _ => None,
            })
            .collect()
    }
}

/// The base of `size` cells of storage for `name`, placed at `next`, which
/// moves past them; refused when the program's storage would pass
/// [`MAX_MEMORY_CELLS`].
fn claim(next: &mut usize, size: usize, name: &str) -> Result<usize, LayoutError> {
    let base = *next;
    match base.checked_add(size) {
        Some(end) if end <= MAX_MEMORY_CELLS => {
            *next = end;
            Ok(base)
        }
        _ => Err(LayoutError(format!(
            "storage for `{name}` takes the program past {MAX_MEMORY_CELLS} cells"
        ))),
    }
}

fn zero_of(t: Type) -> Value {
    match t {
        Type::Int => Value::Int(0),
        Type::Real => Value::Real(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suif_ir::parse_program;

    #[test]
    fn lays_out_commons_and_locals() {
        let p = parse_program(
            "program t\nproc main() {\n common /c/ real a[10]\n real b[5]\n int n\n a[1] = 0\n call f()\n}\nproc f() {\n common /c/ real z[12]\n z[1] = 0\n}",
        )
        .unwrap();
        let l = Layout::build(&p).unwrap();
        let a = p.var_by_name("main", "a").unwrap();
        let z = p.var_by_name("f", "z").unwrap();
        // a and z share the common segment base.
        assert_eq!(l.base_of(a), l.base_of(z));
        assert_eq!(l.base_of(a), Some(0));
        // block size is max of views = 12.
        let b = p.var_by_name("main", "b").unwrap();
        assert_eq!(l.base_of(b), Some(12));
        assert_eq!(l.total, 12 + 5 + 1);
    }

    #[test]
    fn array_params_have_no_storage() {
        let p = parse_program(
            "program t\nproc f(real a[*], int n) { a[1] = n }\nproc main() {\n real b[4]\n call f(b, 1)\n}",
        )
        .unwrap();
        let l = Layout::build(&p).unwrap();
        let a = p.var_by_name("f", "a").unwrap();
        let n = p.var_by_name("f", "n").unwrap();
        assert_eq!(l.base_of(a), None);
        assert!(l.base_of(n).is_some());
    }

    #[test]
    fn rejects_symbolic_local_extent() {
        let p = parse_program(
            "program t\nproc f(int n) {\n real tmp[n]\n tmp[1] = 0\n}\nproc main() { call f(3) }",
        )
        .unwrap();
        assert!(Layout::build(&p).is_err());
    }
}
