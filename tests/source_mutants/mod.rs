//! Seeded byte-level mutants of MiniF source text, shared by the source
//! fuzzer (`tests/source_fuzz.rs`) and the summary digest
//! (`tests/summary_digest.rs`).
//!
//! A mutant is a base program — one of the 13 applications at
//! `Scale::Test` or a `minif_gen` program — with one to four edits: a byte
//! deleted, a byte from [`ALPHABET`] inserted or written over another, or a
//! short span duplicated in place.  The stream is a pure function of its
//! seed, so the digest's "first 200 accepted mutants" never move unless
//! this file does.

#![allow(dead_code)]

use proptest::test_runner::TestRng;
use suif_benchmarks::{apps, ch4_apps, ch6_apps, Scale};

/// The bytes an edit writes: MiniF's letters, digits, operators,
/// brackets and separators.
pub const ALPHABET: &[u8] = b"adikmnprsx019 \n(){}[]+-*/=<>,.!&|";

/// Seed of the mutant stream both tests draw from.
pub const SEED: u64 = 0x5eed_50c3_0001;

/// The 13 multi-procedure applications (the four of Ch. 4, the three
/// Ch. 5 programs that are not also in Ch. 4, and the six of Ch. 6) as
/// `(name, source)`.
pub fn applications(scale: Scale) -> Vec<(String, String)> {
    let mut suite = ch4_apps(scale);
    suite.push(apps::flo88(scale, true));
    suite.push(apps::wave5(scale));
    suite.push(apps::hydro2d(scale));
    suite.extend(ch6_apps(scale));
    assert_eq!(suite.len(), 13);
    suite
        .into_iter()
        .map(|b| (b.name.to_string(), b.source))
        .collect()
}

/// One mutant: where it came from and its text.
pub struct Mutant {
    /// The base's name, and the edits applied to it.
    pub label: String,
    /// The base's source.
    pub base: String,
    /// The base is one of the 13 applications (not a `minif_gen` program).
    pub from_app: bool,
    /// The mutated source.
    pub text: String,
}

/// An endless, seeded stream of mutants: half from the applications, half
/// from `minif_gen` programs of random seeds.
pub struct Mutants {
    rng: TestRng,
    apps: Vec<(String, String)>,
}

impl Mutants {
    /// The stream from `seed`.
    pub fn new(seed: u64) -> Mutants {
        Mutants {
            rng: TestRng::from_seed(seed),
            apps: applications(Scale::Test),
        }
    }
}

impl Iterator for Mutants {
    type Item = Mutant;

    fn next(&mut self) -> Option<Mutant> {
        let rng = &mut self.rng;
        let from_app = rng.below(2) == 0;
        let (name, base) = if from_app {
            let (name, text) = &self.apps[rng.below(self.apps.len() as u64) as usize];
            (name.clone(), text.clone())
        } else {
            let seed = rng.below(1 << 20);
            (
                minif_gen::name_for_seed(seed),
                minif_gen::source_for_seed(seed),
            )
        };
        let mut bytes = base.clone().into_bytes();
        let mut label = name;
        for _ in 0..1 + rng.below(4) {
            label.push(' ');
            label.push_str(&edit(rng, &mut bytes));
        }
        Some(Mutant {
            label,
            base,
            from_app,
            text: String::from_utf8_lossy(&bytes).into_owned(),
        })
    }
}

/// Apply one random edit to `b`; returns what it did.
fn edit(rng: &mut TestRng, b: &mut Vec<u8>) -> String {
    let at = |rng: &mut TestRng, len: usize| rng.below(len as u64 + 1) as usize;
    let byte = |rng: &mut TestRng| ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
    match rng.below(4) {
        0 if !b.is_empty() => {
            let i = rng.below(b.len() as u64) as usize;
            b.remove(i);
            format!("del@{i}")
        }
        1 if !b.is_empty() => {
            let i = rng.below(b.len() as u64) as usize;
            b[i] = byte(rng);
            format!("set@{i}={:?}", b[i] as char)
        }
        2 if !b.is_empty() => {
            let from = rng.below(b.len() as u64) as usize;
            let to = (from + 1 + rng.below(16) as usize).min(b.len());
            let span = b[from..to].to_vec();
            b.splice(to..to, span);
            format!("dup@{from}..{to}")
        }
        _ => {
            let i = at(rng, b.len());
            let c = byte(rng);
            b.insert(i, c);
            format!("ins@{i}={:?}", c as char)
        }
    }
}
