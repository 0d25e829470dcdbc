//! The programs the workloads send, made from `--seed` and nothing else.
//!
//! The applications are the repository's own MiniF reproductions of the
//! paper's Ch. 4–6 codes (`suif-benchmarks`); the fleet is the seeded
//! `minif-gen` corpus, which the daemon generates itself from the
//! `seed_base` the request carries.

use crate::json::Json;
use suif_benchmarks::{apps, ch4_apps, ch6_apps, BenchProgram, Scale};

/// The four Ch. 4 applications, in paper order.
pub fn ch4(scale: Scale) -> Vec<BenchProgram> {
    ch4_apps(scale)
}

/// The 13 distinct hand-written applications of Ch. 4, 5 and 6 (the three
/// suites overlap in `hydro`, `arc3d` and `flo88`).
pub fn suite(scale: Scale) -> Vec<BenchProgram> {
    let mut all = ch4_apps(scale);
    all.push(apps::flo88(scale, true));
    all.push(apps::wave5(scale));
    all.push(apps::hydro2d(scale));
    all.extend(ch6_apps(scale));
    all
}

/// Where each Ch. 4 application is edited for `reload`: a literal inside a
/// leaf procedure that other procedures call, so the edit dirties that
/// procedure and its callers and leaves the rest of the program clean.
/// The text ends with the literal that gets one more digit.
const EDIT_SITES: [(&str, &str); 4] = [
    ("mdg", "f[3] = f[3] + g1 * 0.25"),
    ("arc3d", "t[j] = col[j] * 0.25"),
    ("hydro", "w[j] = w[j] * 0.9"),
    ("flo88", "w[i, j, k] = sin(float(i * 3 + j + k * 5) * 0.17"),
];

/// `bench.source` with one literal of one leaf procedure changed: the
/// digits appended to it come from the seed and the round, so no two
/// rounds of a run carry the same text.
pub fn edited(bench: &BenchProgram, seed: u64, round: u64) -> Result<String, String> {
    let (_, site) = EDIT_SITES
        .iter()
        .find(|(name, _)| *name == bench.name)
        .ok_or_else(|| format!("no edit site for `{}`", bench.name))?;
    if bench.source.matches(site).count() != 1 {
        return Err(format!(
            "edit site {site:?} must occur exactly once in `{}`",
            bench.name
        ));
    }
    let digits = 1 + seed % 9 + 10 * round;
    Ok(bench.source.replacen(site, &format!("{site}{digits}"), 1))
}

pub const GURU: &str = r#"{"cmd":"guru"}"#;
pub const ANALYZE: &str = r#"{"cmd":"analyze"}"#;
pub const ADVISORY: &str = r#"{"cmd":"advisory"}"#;
pub const CODEVIEW: &str = r#"{"cmd":"codeview"}"#;
pub const QUIT: &str = r#"{"cmd":"quit"}"#;

/// `{"cmd":"slice","loop":<name>}`.
pub fn slice_request(loop_name: &str) -> String {
    Json::obj([("cmd", Json::str("slice")), ("loop", Json::str(loop_name))]).to_string()
}

/// `{"cmd":"assert","loop":<name>,"var":<var>,"kind":…}`.
pub fn assert_request(loop_name: &str, var: &str, privatize: bool) -> String {
    let kind = if privatize { "private" } else { "independent" };
    Json::obj([
        ("cmd", Json::str("assert")),
        ("loop", Json::str(loop_name)),
        ("var", Json::str(var)),
        ("kind", Json::str(kind)),
    ])
    .to_string()
}

/// `{"cmd":<cmd>,"text":<source>}` for `load` and `reload`.
pub fn text_request(cmd: &'static str, source: &str) -> String {
    Json::obj([("cmd", Json::str(cmd)), ("text", Json::str(source))]).to_string()
}

/// One `corpus` command carrying `programs`, analyzed by one worker so the
/// reply time is the analyses' and not the pool's.
pub fn corpus_request(programs: &[BenchProgram]) -> String {
    let items = programs
        .iter()
        .map(|b| {
            Json::obj([
                ("name", Json::str(b.name)),
                ("text", Json::str(b.source.as_str())),
            ])
        })
        .collect();
    Json::obj([
        ("cmd", Json::str("corpus")),
        ("programs", Json::Arr(items)),
        ("workers", Json::int(1)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_thirteen_distinct_programs() {
        let names: std::collections::BTreeSet<_> =
            suite(Scale::Test).iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn every_ch4_app_has_a_parsable_one_literal_edit() {
        for scale in [Scale::Test, Scale::Bench] {
            for bench in ch4(scale) {
                let variant = edited(&bench, 7, 3).unwrap();
                assert_ne!(variant, edited(&bench, 7, 4).unwrap());
                assert_eq!(variant.len(), bench.source.len() + 2);
                suif_ir::parse_program(&variant).unwrap();
            }
        }
    }
}
