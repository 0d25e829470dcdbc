//! `figures all --bench` against the committed dump, `docs/figures-latest.txt`
//! — the bit-identity oracle of every refactor, as a test instead of a diff
//! by hand.  Lines are compared token by token: a token that is a decimal
//! (`\d+\.\d+` — the wall-clock and speed-up columns, which move from host
//! to host) equals any other decimal; everything else — names, loop lists,
//! verdicts, integer counts, percentages — must be equal exactly.
//!
//! A debug build takes most of a minute over all 27 figures (the bench-scale
//! interpreter runs), so it checks Chapter 4's — the first ten of the dump —
//! and a release build (`cargo test --release`, CI's release job) all of
//! them.

use suif_bench::ALL_FIGURES;
use suif_benchmarks::Scale;

const GOLDEN: &str = include_str!("../docs/figures-latest.txt");

fn is_decimal(token: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    token
        .split_once('.')
        .is_some_and(|(int, frac)| digits(int) && digits(frac))
}

fn same_line(got: &str, want: &str) -> bool {
    let (mut got, mut want) = (got.split_whitespace(), want.split_whitespace());
    loop {
        match (got.next(), want.next()) {
            (None, None) => return true,
            (Some(g), Some(w)) if g == w || (is_decimal(g) && is_decimal(w)) => {}
            _ => return false,
        }
    }
}

#[test]
fn figures_match_the_committed_dump() {
    let ids = if cfg!(debug_assertions) {
        let chapter5 = ALL_FIGURES.iter().position(|id| *id == "fig5_5").unwrap();
        &ALL_FIGURES[..chapter5]
    } else {
        ALL_FIGURES
    };
    // What the `figures` binary prints for these ids.
    let mut printed = String::new();
    for id in ids {
        let text = suif_bench::render(id, Scale::Bench).unwrap();
        printed.push_str(&format!("=== {id} ===\n{text}\n"));
    }
    let mut golden = GOLDEN.lines();
    for (n, got) in printed.lines().enumerate() {
        let want = golden.next().unwrap_or("<end of the dump>");
        assert!(
            same_line(got, want),
            "docs/figures-latest.txt:{}:\n  rendered: {got}\n  dump:     {want}",
            n + 1
        );
    }
    let next_in_dump = ALL_FIGURES.get(ids.len()).map(|id| format!("=== {id} ==="));
    assert_eq!(golden.next(), next_in_dump.as_deref(), "the dump goes on");
}
