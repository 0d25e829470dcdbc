//! The committed reference every reply is checked against.
//!
//! `expected/<app>.txt` holds, per Ch. 4 application, the loops the
//! compiler parallelizes before and after the case study's assertions, the
//! Guru's target order, and each loop's certify verdict; they were reviewed
//! against `docs/figures-latest.txt` when this benchmark was defined.
//! `expected/digests.txt` holds the digest of the deterministic report core
//! of the 13-application suite and of the generated fleet at the seeds that
//! have one.  Nothing here is computed by the run that is being checked.

use crate::json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// What the reference says about one Ch. 4 application.
#[derive(Default, Debug)]
pub struct AppReference {
    pub parallel_before: BTreeSet<String>,
    pub parallel_after: BTreeSet<String>,
    /// Guru targets in rank order, at `Scale::Bench`.
    pub guru: Vec<String>,
    /// loop → (`parallel` | `serial`, `race_free` | `racy` | `unplannable`).
    pub certify: BTreeMap<String, (String, String)>,
}

#[derive(Debug)]
pub struct Reference {
    apps: BTreeMap<&'static str, AppReference>,
    pub suite_digest: String,
    /// seed → digest of the fleet's reports.
    fleet_digests: BTreeMap<u64, String>,
}

const APP_FILES: [(&str, &str); 4] = [
    ("mdg", include_str!("../expected/mdg.txt")),
    ("arc3d", include_str!("../expected/arc3d.txt")),
    ("hydro", include_str!("../expected/hydro.txt")),
    ("flo88", include_str!("../expected/flo88.txt")),
];
const DIGESTS: &str = include_str!("../expected/digests.txt");

/// Lines of a reference file as word lists, comments and blanks dropped.
fn records(text: &str) -> impl Iterator<Item = Vec<&str>> {
    text.lines()
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect()
        })
        .filter(|words: &Vec<&str>| !words.is_empty())
}

impl Reference {
    pub fn load() -> Result<Reference, String> {
        let mut apps = BTreeMap::new();
        for (name, text) in APP_FILES {
            let mut app = AppReference::default();
            for words in records(text) {
                let rest = || words[1..].iter().map(|w| w.to_string());
                match words[0] {
                    "parallel_before" => app.parallel_before = rest().collect(),
                    "parallel_after" => app.parallel_after = rest().collect(),
                    "guru" => app.guru = rest().collect(),
                    "certify" if words.len() == 4 => {
                        app.certify
                            .insert(words[1].into(), (words[2].into(), words[3].into()));
                    }
                    other => return Err(format!("expected/{name}.txt: bad record `{other}`")),
                }
            }
            apps.insert(name, app);
        }
        let mut suite_digest = None;
        let mut fleet_digests = BTreeMap::new();
        for words in records(DIGESTS) {
            match words[..] {
                ["suite", digest] => suite_digest = Some(digest.to_string()),
                ["fleet", seed, digest] => {
                    let seed = seed
                        .parse()
                        .map_err(|_| format!("expected/digests.txt: bad seed `{seed}`"))?;
                    fleet_digests.insert(seed, digest.to_string());
                }
                _ => return Err(format!("expected/digests.txt: bad record {words:?}")),
            }
        }
        Ok(Reference {
            apps,
            suite_digest: suite_digest.ok_or("expected/digests.txt: no `suite` record")?,
            fleet_digests,
        })
    }

    pub fn app(&self, name: &str) -> &AppReference {
        &self.apps[name]
    }

    /// The fleet digest recorded for `seed`; only some seeds have one.
    pub fn fleet_digest(&self, seed: u64) -> Option<&str> {
        self.fleet_digests.get(&seed).map(String::as_str)
    }
}

/// Names of the loops a `loops` array (of `load`/`analyze`/`assert`
/// replies) marks parallel.
pub fn parallel_set(reply: &Json) -> BTreeSet<String> {
    loops_of(reply)
        .iter()
        .filter(|l| l.get("parallel").and_then(Json::as_bool) == Some(true))
        .filter_map(|l| l.get("loop").and_then(Json::as_str).map(str::to_string))
        .collect()
}

pub fn loops_of(reply: &Json) -> &[Json] {
    reply.get("loops").and_then(Json::as_arr).unwrap_or(&[])
}

/// Guru target names in rank order.
pub fn guru_order(reply: &Json) -> Vec<String> {
    reply
        .get("targets")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|t| t.get("loop").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// A `guru` reply without the fields that differ between two correct
/// replies: the rendered table (it prints wall-clock granularity) and the
/// session id.
pub fn guru_core(reply: &Json) -> Json {
    match reply {
        Json::Obj(m) => {
            let mut m = m.clone();
            m.remove("rendered");
            m.remove("session");
            Json::Obj(m)
        }
        other => other.clone(),
    }
}

/// Digest of the deterministic core (`ProgramReport::deterministic_json`:
/// program, status, error, loops, parallel, sequential) of `corpus`
/// replies' reports.  Reports are folded in program-name order, so the
/// digest does not depend on the order the programs were submitted in.
#[derive(Default)]
pub struct ReportsDigest(Vec<(String, u64)>);

impl ReportsDigest {
    pub fn add(&mut self, reply: &Json) {
        for report in reply.get("reports").and_then(Json::as_arr).unwrap_or(&[]) {
            let Json::Obj(fields) = report else { continue };
            let mut hash = Fnv64::default();
            for (key, value) in fields {
                if matches!(
                    key.as_str(),
                    "program" | "status" | "error" | "loops" | "parallel" | "sequential"
                ) {
                    hash.write(key.as_bytes());
                    hash.write(b"=");
                    hash.write(value.to_string().as_bytes());
                    hash.write(b"\n");
                }
            }
            let name = report
                .get("program")
                .and_then(Json::as_str)
                .unwrap_or_default();
            self.0.push((name.to_string(), hash.0));
        }
    }

    pub fn programs(&self) -> usize {
        self.0.len()
    }

    pub fn hex(mut self) -> String {
        self.0.sort();
        let mut hash = Fnv64::default();
        for (name, report) in &self.0 {
            hash.write(name.as_bytes());
            hash.write(&report.to_le_bytes());
        }
        format!("{:016x}", hash.0)
    }
}

/// FNV-1a, written out so the digest does not depend on the standard
/// library's unspecified hasher.
struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_reference_parses() {
        let r = Reference::load().unwrap();
        for (name, _) in APP_FILES {
            let app = r.app(name);
            assert!(!app.parallel_before.is_empty(), "{name}");
            assert!(
                app.parallel_after.is_superset(&app.parallel_before),
                "{name}"
            );
            assert!(!app.guru.is_empty() && !app.certify.is_empty(), "{name}");
        }
    }

    #[test]
    fn digest_covers_only_the_deterministic_core() {
        let a = Json::parse(r#"{"reports":[{"program":"p","status":"ok","loops":[],"parallel":0,"sequential":0,"secs":0.5}]}"#).unwrap();
        let b = Json::parse(r#"{"reports":[{"program":"p","status":"ok","loops":[],"parallel":0,"sequential":0,"secs":0.7}]}"#).unwrap();
        let c = Json::parse(r#"{"reports":[{"program":"q","status":"ok","loops":[],"parallel":0,"sequential":0,"secs":0.5}]}"#).unwrap();
        let digest = |reply: &Json| {
            let mut d = ReportsDigest::default();
            d.add(reply);
            d.hex()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }
}
