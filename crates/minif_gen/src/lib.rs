//! Seeded MiniF program generator, shared by the property/certification
//! harnesses (`tests/prop_random_programs.rs`, `tests/certify_differential.rs`)
//! and the corpus driver (`suif-explorer corpus`).
//!
//! The generator produces small but structurally varied programs: nested
//! loops, conditionals, array/scalar assignments with in-bounds subscripts,
//! and reduction-style updates.  Control flow and subscripts depend only on
//! loop indices (never on data values), so the set of memory addresses a
//! program touches is schedule-independent — the property the certification
//! harness relies on when comparing interleavings.
//!
//! # Determinism
//!
//! Generation is a pure function of a `u64` seed: [`program_for_seed`] /
//! [`source_for_seed`] drive the proptest strategies with the vendored
//! shim's SplitMix64 stream seeded exactly (no wall clock, no ambient
//! randomness anywhere in the path), so a corpus materialized from a seed
//! range is bit-identical across machines and runs.  The proptest harnesses
//! consume the same strategies ([`gprogram`]) through their own per-test
//! streams — a generator fix propagates to both consumers.

#![forbid(unsafe_code)]

use proptest::prelude::*;

/// Array extent used throughout generated programs.
pub const N: i64 = 12;

#[derive(Clone, Debug)]
pub enum GExpr {
    Const(f64),
    Scalar(usize),     // s<k>
    Elem(usize, GSub), // a<k>[sub]
    Add(Box<GExpr>, Box<GExpr>),
    Mul(Box<GExpr>, f64),
}

#[derive(Clone, Debug)]
pub enum GSub {
    LoopVar,         // i (innermost loop var)
    LoopVarOff(i64), // clamped i + c
    Mixed(i64),      // mod(i * c, N) + 1
    Const(i64),
}

#[derive(Clone, Debug)]
pub enum GStmt {
    AssignScalar(usize, GExpr),
    AssignElem(usize, GSub, GExpr),
    Update(usize, GSub, GExpr), // a[sub] = a[sub] + e
    ScalarSum(usize, GExpr),    // s = s + e
    If(GSub, Vec<GStmt>),       // if a0[sub] >= 0 { .. } (always true: a0 >= 0)
    Loop(Vec<GStmt>),           // nested do over a fresh variable
}

pub fn gsub() -> impl Strategy<Value = GSub> {
    prop_oneof![
        Just(GSub::LoopVar),
        (1i64..=3).prop_map(GSub::LoopVarOff),
        (1i64..=7).prop_map(GSub::Mixed),
        (1i64..=N).prop_map(GSub::Const),
    ]
}

pub fn gexpr() -> impl Strategy<Value = GExpr> {
    let leaf = prop_oneof![
        (-4.0..4.0f64).prop_map(GExpr::Const),
        (0usize..3).prop_map(GExpr::Scalar),
        ((0usize..3), gsub()).prop_map(|(a, s)| GExpr::Elem(a, s)),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GExpr::Add(Box::new(a), Box::new(b))),
            (inner, -2.0..2.0f64).prop_map(|(a, c)| GExpr::Mul(Box::new(a), c)),
        ]
    })
}

pub fn gstmt(depth: u32) -> BoxedStrategy<GStmt> {
    let base = prop_oneof![
        ((0usize..3), gexpr()).prop_map(|(s, e)| GStmt::AssignScalar(s, e)),
        ((0usize..3), gsub(), gexpr()).prop_map(|(a, s, e)| GStmt::AssignElem(a, s, e)),
        ((0usize..3), gsub(), gexpr()).prop_map(|(a, s, e)| GStmt::Update(a, s, e)),
        ((0usize..3), gexpr()).prop_map(|(s, e)| GStmt::ScalarSum(s, e)),
    ];
    if depth == 0 {
        base.boxed()
    } else {
        prop_oneof![
            4 => base,
            1 => (gsub(), prop::collection::vec(gstmt(0), 1..3))
                .prop_map(|(s, body)| GStmt::If(s, body)),
            1 => prop::collection::vec(gstmt(0), 1..3)
                .prop_map(GStmt::Loop),
        ]
        .boxed()
    }
}

pub fn gprogram() -> impl Strategy<Value = Vec<Vec<GStmt>>> {
    // 1-3 top-level loops, each with 1-4 body statements.
    prop::collection::vec(prop::collection::vec(gstmt(1), 1..4), 1..3)
}

/// The program for one corpus seed: [`gprogram`] driven by a SplitMix64
/// stream seeded exactly with `seed`.  Pure — same seed, same program,
/// everywhere.
pub fn program_for_seed(seed: u64) -> Vec<Vec<GStmt>> {
    let mut rng = TestRng::from_seed(seed);
    gprogram().generate(&mut rng)
}

/// [`program_for_seed`] rendered to MiniF source.
pub fn source_for_seed(seed: u64) -> String {
    render_program(&program_for_seed(seed))
}

/// The canonical file-stem / report name of one corpus seed (`gen-<seed>`,
/// zero-padded so lexicographic order is seed order).
pub fn name_for_seed(seed: u64) -> String {
    format!("gen-{seed:08}")
}

fn render_sub(s: &GSub, var: &str) -> String {
    match s {
        GSub::LoopVar => var.to_string(),
        GSub::LoopVarOff(c) => format!("min({var} + {c}, {N})"),
        GSub::Mixed(c) => format!("mod({var} * {c}, {N}) + 1"),
        GSub::Const(c) => c.to_string(),
    }
}

fn render_expr(e: &GExpr, var: &str) -> String {
    match e {
        GExpr::Const(c) => format!("{c:.3}"),
        GExpr::Scalar(k) => format!("s{k}"),
        GExpr::Elem(a, s) => format!("a{a}[{}]", render_sub(s, var)),
        GExpr::Add(x, y) => format!("({} + {})", render_expr(x, var), render_expr(y, var)),
        GExpr::Mul(x, c) => format!("({} * {c:.3})", render_expr(x, var)),
    }
}

fn render_body(body: &[GStmt], var: &str, indent: usize, out: &mut String, label: &mut u32) {
    let pad = "  ".repeat(indent);
    for s in body {
        match s {
            GStmt::AssignScalar(k, e) => {
                out.push_str(&format!("{pad}s{k} = {}\n", render_expr(e, var)));
            }
            GStmt::AssignElem(a, sub, e) => {
                out.push_str(&format!(
                    "{pad}a{a}[{}] = {}\n",
                    render_sub(sub, var),
                    render_expr(e, var)
                ));
            }
            GStmt::Update(a, sub, e) => {
                let s = render_sub(sub, var);
                out.push_str(&format!(
                    "{pad}a{a}[{s}] = a{a}[{s}] + {}\n",
                    render_expr(e, var)
                ));
            }
            GStmt::ScalarSum(k, e) => {
                out.push_str(&format!("{pad}s{k} = s{k} + {}\n", render_expr(e, var)));
            }
            GStmt::If(sub, body) => {
                out.push_str(&format!(
                    "{pad}if abs(a0[{}]) >= 0.0 {{\n",
                    render_sub(sub, var)
                ));
                render_body(body, var, indent + 1, out, label);
                out.push_str(&format!("{pad}}}\n"));
            }
            GStmt::Loop(body) => {
                *label += 1;
                let inner = format!("j{label}");
                out.push_str(&format!(
                    "{pad}do {} {} = 1, {N} {{\n",
                    1000 + *label,
                    inner
                ));
                render_body(body, &inner, indent + 1, out, label);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

pub fn render_program(loops: &[Vec<GStmt>]) -> String {
    let mut out = String::new();
    out.push_str("program fuzz\n");
    out.push_str(&format!("const n = {N}\n"));
    out.push_str("proc main() {\n");
    out.push_str("  real a0[n], a1[n], a2[n]\n");
    out.push_str("  real s0, s1, s2\n");
    // Declare enough loop variables.
    let mut nloops = 0u32;
    fn count(body: &[GStmt], n: &mut u32) {
        for s in body {
            match s {
                GStmt::Loop(b) => {
                    *n += 1;
                    count(b, n);
                }
                GStmt::If(_, b) => count(b, n),
                _ => {}
            }
        }
    }
    for l in loops {
        nloops += 1;
        count(l, &mut nloops);
    }
    let vars: Vec<String> = (1..=nloops.max(1)).map(|k| format!("j{k}")).collect();
    out.push_str(&format!("  int i, {}\n", vars.join(", ")));
    // Initialize arrays deterministically.
    out.push_str("  do 1 i = 1, n {\n    a0[i] = sin(float(i) * 0.7)\n    a1[i] = cos(float(i) * 0.3)\n    a2[i] = float(i) * 0.1\n  }\n");
    let mut label = 0u32;
    for (k, l) in loops.iter().enumerate() {
        label += 1;
        let var = format!("j{label}");
        out.push_str(&format!("  do {} {} = 1, {N} {{\n", 100 + k, var));
        render_body(l, &var, 2, &mut out, &mut label);
        out.push_str("  }\n");
    }
    out.push_str("  print s0, s1, s2, a0[1], a1[5], a2[11]\n");
    out.push_str("}\n");
    out
}

/// Round for FP-reassociation tolerance.
pub fn canon(lines: &[String]) -> Vec<Vec<String>> {
    lines
        .iter()
        .map(|l| {
            l.split_whitespace()
                .map(|t| match t.parse::<f64>() {
                    Ok(0.0) => "0".to_string(),
                    Ok(v) => {
                        let mag = v.abs().log10().floor();
                        let scale = 10f64.powf(mag - 6.0);
                        format!("{:.4e}", (v / scale).round() * scale)
                    }
                    Err(_) => t.to_string(),
                })
                .collect()
        })
        .collect()
}

/// The shrunk counterexamples recorded in
/// `tests/prop_random_programs.proptest-regressions`, hand-translated into
/// the current `GStmt` shape.  Both harnesses replay these before generating
/// novel cases (the vendored proptest shim has no persistence of its own).
pub fn known_regressions() -> Vec<Vec<Vec<GStmt>>> {
    use GExpr::*;
    use GStmt::*;
    vec![
        // cc 1bcf75c9…: an If-guarded scalar sum over a2[i] followed by a
        // nested loop clobbering a2[2].
        vec![vec![
            If(
                GSub::LoopVar,
                vec![ScalarSum(
                    0,
                    Add(Box::new(Elem(2, GSub::LoopVar)), Box::new(Const(0.0))),
                )],
            ),
            Loop(vec![AssignElem(2, GSub::Const(2), Const(0.0))]),
        ]],
        // cc d92f2958…: a nested update/assign pair on a2, then a second
        // top-level loop mixing scalar flow with a Mixed-subscript read.
        vec![
            vec![Loop(vec![
                Update(2, GSub::Const(1), Const(0.0)),
                AssignElem(2, GSub::Const(7), Const(0.0)),
            ])],
            vec![
                If(
                    GSub::LoopVar,
                    vec![AssignScalar(
                        1,
                        Add(Box::new(Scalar(0)), Box::new(Const(0.0))),
                    )],
                ),
                AssignScalar(
                    0,
                    Mul(Box::new(Elem(2, GSub::Mixed(6))), 1.4011181564965163),
                ),
            ],
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_generation_is_deterministic() {
        for seed in [0u64, 1, 7, 0xdead_beef, u64::MAX] {
            assert_eq!(
                source_for_seed(seed),
                source_for_seed(seed),
                "seed {seed} must reproduce bit-identically"
            );
        }
    }

    #[test]
    fn distinct_seeds_vary() {
        let distinct: std::collections::HashSet<String> = (0..64).map(source_for_seed).collect();
        assert!(
            distinct.len() > 48,
            "seed range collapses to {} distinct programs",
            distinct.len()
        );
    }

    #[test]
    fn generated_sources_parse() {
        for seed in 0..32 {
            let src = source_for_seed(seed);
            suif_ir::parse_program(&src)
                .unwrap_or_else(|e| panic!("seed {seed} failed to parse: {e}\n{src}"));
        }
        for (i, case) in known_regressions().iter().enumerate() {
            let src = render_program(case);
            suif_ir::parse_program(&src)
                .unwrap_or_else(|e| panic!("regression {i} failed to parse: {e}\n{src}"));
        }
    }

    #[test]
    fn seed_names_sort_in_seed_order() {
        assert_eq!(name_for_seed(3), "gen-00000003");
        assert!(name_for_seed(9) < name_for_seed(10));
        assert!(name_for_seed(99) < name_for_seed(100));
    }
}
