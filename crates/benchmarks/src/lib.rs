//! MiniF reproductions of the benchmark applications of the SUIF Explorer
//! evaluation (Ch. 4–6).
//!
//! These are not the physics codes — they are kernels reproducing the *named
//! loops and dependence patterns* the evaluation discusses (see DESIGN.md's
//! substitution table):
//!
//! * [`mdg`](apps::mdg) — the `interf/1000` RL/KC/CUT2 conditional-privatization
//!   pattern (Fig. 4-3), interprocedural force-array reductions, fine-grain
//!   auto-parallel inner loops;
//! * [`hydro`](apps::hydro) — `vsetuv/85`'s conditionally-based `dkrc` ranges (Fig. 4-5),
//!   the `CALL init(aif3(k1), …)` sub-array pattern (Fig. 5-1), row/column
//!   loops with symbolic bounds from index arrays;
//! * [`arc3d`](apps::arc3d) — the `stepf3d/701` data-dependent `SN` scalar-privatization
//!   pattern (§4.4.1);
//! * [`flo88`](apps::flo88) — the `psmoo` recurrence (Fig. 5-4/5-11) with
//!   input-dependent bounds (`IE = IL + 1`, §4.4.1) and the
//!   contraction-ready constant-bound variant;
//! * [`hydro2d`](apps::hydro2d) — the `varh` common-block live-range-splitting pattern
//!   (Fig. 5-9) with five splittable blocks (Fig. 5-10);
//! * [`wave5`](apps::wave5) — many small liveness-privatizable loops whose parallel
//!   execution the runtime suppresses (§5.4);
//! * [`reductions`] — the reduction suite standing in for the SPEC92 / NAS /
//!   Perfect programs of Fig. 6-2/6-3 (`bdna`, `cgm`, `ora`, `mdljdp2`,
//!   `dyfesm`, `trfd`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod reductions;

/// How big to build a program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Small: fast enough for unit/integration tests.
    Test,
    /// Large: meaningful wall-clock for the speedup figures.
    Bench,
}

/// A user assertion a case study applies (kept string-typed so this crate
/// only depends on `suif-ir`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserAssertion {
    /// `true` = privatizable, `false` = independent.
    pub privatize: bool,
    /// Loop name (`proc/label`).
    pub loop_name: String,
    /// Variable name in the loop's procedure.
    pub var: String,
}

impl UserAssertion {
    /// Privatization assertion.
    pub fn priv_(loop_name: &str, var: &str) -> UserAssertion {
        UserAssertion {
            privatize: true,
            loop_name: loop_name.into(),
            var: var.into(),
        }
    }

    /// Independence assertion.
    pub fn indep(loop_name: &str, var: &str) -> UserAssertion {
        UserAssertion {
            privatize: false,
            loop_name: loop_name.into(),
            var: var.into(),
        }
    }
}

/// One benchmark program instance.
#[derive(Clone, Debug)]
pub struct BenchProgram {
    /// Program name.
    pub name: &'static str,
    /// One-line description (the Fig. 4-1 / 5-5 "program description").
    pub description: &'static str,
    /// MiniF source.
    pub source: String,
    /// `read` input values.
    pub input: Vec<f64>,
    /// The assertions the case-study user supplies (§4.1.4/§4.2.4).
    pub assertions: Vec<UserAssertion>,
}

impl BenchProgram {
    /// Parse the source.
    pub fn parse(&self) -> suif_ir::Program {
        suif_ir::parse_program(&self.source)
            .unwrap_or_else(|e| panic!("benchmark `{}` failed to parse: {e}", self.name))
    }

    /// Number of non-empty source lines (the "No. of lines" program-info
    /// column).
    pub fn num_lines(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }
}

/// The four Ch. 4 applications in paper order.
pub fn ch4_apps(scale: Scale) -> Vec<BenchProgram> {
    vec![
        apps::mdg(scale),
        apps::arc3d(scale),
        apps::hydro(scale),
        apps::flo88(scale, false),
    ]
}

/// The five Ch. 5 liveness-suite programs (Fig. 5-5 order).
pub fn ch5_apps(scale: Scale) -> Vec<BenchProgram> {
    vec![
        apps::hydro(scale),
        apps::flo88(scale, true),
        apps::arc3d(scale),
        apps::wave5(scale),
        apps::hydro2d(scale),
    ]
}

/// The Ch. 6 reduction suite.
pub fn ch6_apps(scale: Scale) -> Vec<BenchProgram> {
    reductions::suite(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_parse_and_run_shapes() {
        for scale in [Scale::Test] {
            for prog in ch4_apps(scale)
                .into_iter()
                .chain(ch5_apps(scale))
                .chain(ch6_apps(scale))
            {
                let p = prog.parse();
                assert!(!p.procedures.is_empty(), "{}", prog.name);
                assert!(prog.num_lines() > 12, "{} too small", prog.name);
            }
        }
    }
}
