//! Seeded fuzzing of the snapshot decoders.  A warm start frames
//! `facts.snap` and its log before the daemon answers, and a value decodes
//! at its first read, so those bytes are input like any other: neither the
//! framing nor a read may panic on them or misread them, and a damaged
//! value costs no more than its own recomputation.
//!
//! * **Round trip.**  Every fact of real analyses — the Ch. 4 applications
//!   opened in an `Explorer` (so the run's `Execute` fact is among them,
//!   with every advisory demanded) and 200 `minif_gen` programs — decodes
//!   from its encoding and re-encodes to the same bytes; every pass's
//!   output type is covered.
//! * **Mutated values.**  One fact's value bytes are mutated (bit flips,
//!   truncation, a length field set to `u32::MAX`, inserted bytes) and
//!   framed between two intact neighbours, and the file is re-checksummed.
//!   Three cases in four record the mutated bytes' own value hash, as a
//!   file re-checksummed after the damage would, so the value decoders —
//!   not a checksum — see the damage; one in four damages the recorded
//!   hash instead, which the first read catches.  `Snapshot::decode`
//!   frames the file and every value is read: the mutated entry decodes or
//!   reads as nothing, and both neighbours survive and decode.
//! * **Mutated values, read by a session.**  One program's whole image
//!   with one value mutated the same way is a persist directory a warm
//!   `Session` opens; it then answers `analyze`, `slice` of every loop,
//!   `advisory`, `certify` (whose plans read the data flow) and `assert`,
//!   and never panics.  Unless the mutated bytes decode to another
//!   well-formed fact — which the image records under its own hash, so a
//!   warm session may serve it — each reply equals a cold session's on the
//!   same text.
//! * **A wrong value hash.**  A persisted summary whose recorded value
//!   hash is damaged validates (its own input hash is intact), but every
//!   fact keyed by that value misses: the warm start recomputes them and
//!   lands on a fresh analysis's facts.
//! * **Mutated files.**  A real persist directory's base and log are
//!   mutated whole and read through `PersistDir`: the image loads or is
//!   discarded with a warning, and the directory takes a checkpoint after
//!   either.  When the image loads, a warm session on the program whose
//!   facts open the directory answers that script like a cold one too.
//!
//! A failing case is saved under `tests/regressions/snapshot/` — a value
//! case as `<hash>.snap`, a file or session case as a `<hash>/` persist
//! directory (holding the session's `program.mf`, whose warm session a
//! replay runs for panics only) — and every saved case is replayed before
//! novel cases are generated.  The seed is fixed;
//! `SUIF_SNAPSHOT_CASES` (default 1500) sets the number of mutated-value
//! cases, and the mutated-file and session cases are 2 in 25 of it each.

use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use suif_analysis::snapshot::{merge_image, to_bytes, SNAPSHOT_MAGIC};
use suif_analysis::{
    contract, decomp, split, ExportedFact, FactKey, FactStore, ParallelizeConfig, Parallelizer,
    PassId, PersistDir, ScheduleOptions, Scope, SharedFactTier, Snapshot, SNAPSHOT_VERSION,
};
use suif_benchmarks::{ch4_apps, Scale};
use suif_explorer::Explorer;
use suif_server::json::Json;
use suif_server::{Session, SessionConfig, SNAPSHOT_FILE, SNAPSHOT_LOG_FILE};

const SEED: u64 = 0x5eed_5a4b_0001;
const GENERATED: u64 = 200;

/// The program a saved session case opens, beside its persist files.
const PROGRAM_FILE: &str = "program.mf";

/// Mutated-value cases: `SUIF_SNAPSHOT_CASES`, default 1500.
fn value_cases() -> usize {
    match std::env::var("SUIF_SNAPSHOT_CASES") {
        Ok(v) => v.parse().expect("SUIF_SNAPSHOT_CASES must be a number"),
        Err(_) => 1500,
    }
}

fn regression_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions/snapshot")
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The payload checksum of the snapshot format: FNV-128 folded over
/// little-endian eight-byte words, then the tail bytes, then the length.
fn payload_checksum(payload: &[u8]) -> u128 {
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h: u128 = 0x6c62272e07bb014262b821756295c58d;
    let mut words = payload.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap()) as u128).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ b as u128).wrapping_mul(PRIME);
    }
    (h ^ payload.len() as u128).wrapping_mul(PRIME)
}

/// A whole snapshot file around `payload`, checksum recomputed.
fn frame_file(payload: &[u8]) -> Vec<u8> {
    let mut out = SNAPSHOT_MAGIC.to_vec();
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Where the recorded value hash sits in `f`'s framing ([`entry`]): the
/// first byte that moves when only the value hash does.
fn value_hash_at(f: &ExportedFact) -> usize {
    let other = ExportedFact {
        value_hash: !f.value_hash,
        ..f.clone()
    };
    let (head, moved) = (entry(f).0, entry(&other).0);
    (0..head.len()).find(|&i| head[i] != moved[i]).unwrap()
}

/// Record a value hash for `value`, the mutated bytes of `f`, in `head`,
/// `f`'s framing: three cases in four the bytes' own hash, as a file
/// re-checksummed after the damage would carry, so the value decoders see
/// it; one in four a damaged hash, which the first read catches.
fn record_value_hash(rng: &mut TestRng, f: &ExportedFact, head: &mut [u8], value: &[u8]) {
    let at = value_hash_at(f);
    let hash = &mut head[at..at + 16];
    match rng.below(4) {
        0 => hash.iter_mut().for_each(|b| *b ^= rng.below(256) as u8),
        _ => hash.copy_from_slice(&payload_checksum(value).to_le_bytes()),
    }
}

/// One fact's payload entry (everything after the payload's fact count),
/// split into its framing and its value bytes.
fn entry(f: &ExportedFact) -> (Vec<u8>, Vec<u8>) {
    let file = Snapshot::new(vec![f.clone()]).encode();
    let value = f.value.wire_bytes();
    let framed = &file[36 + 4..];
    let head = framed[..framed.len() - 4 - value.len()].to_vec();
    assert_eq!(&framed[head.len() + 4..], &value[..], "value framed last");
    (head, value)
}

/// Do `value`, mutated bytes of `f`'s value framed by `head`, decode to a
/// fact other than `f`'s?
fn decodes_to_another_fact(f: &ExportedFact, head: &[u8], value: &[u8]) -> bool {
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.extend_from_slice(head);
    payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
    payload.extend_from_slice(value);
    let snap = Snapshot::decode(&frame_file(&payload)).expect("intact framing");
    let read = snap.facts.first().and_then(|g| g.value.value());
    read.is_some_and(|v| to_bytes(&*v) != f.value.wire_bytes())
}

/// Every fact of the analyses of `sources`, in a fixed order, each with
/// the index of its program.
struct Corpus {
    facts: Vec<ExportedFact>,
    program: Vec<usize>,
    sources: Vec<String>,
}

/// The corpus, built once per process.
fn corpus_of() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn corpus() -> &'static [ExportedFact] {
    &corpus_of().facts
}

fn build_corpus() -> Corpus {
    let mut c = Corpus {
        facts: Vec::new(),
        program: Vec::new(),
        sources: Vec::new(),
    };
    let add = |c: &mut Corpus, source: String, facts: Vec<ExportedFact>| {
        c.program.extend(facts.iter().map(|_| c.sources.len()));
        c.facts.extend(facts);
        c.sources.push(source);
    };
    for b in ch4_apps(Scale::Test) {
        let program = suif_ir::parse_program(&b.source).expect("parses");
        let ex = Explorer::new(&program, b.input.clone()).expect("opens");
        ex.contractions();
        ex.decomp_advisory();
        ex.block_splits();
        let facts = ex.store().export();
        add(&mut c, b.source, facts);
    }
    for seed in 0..GENERATED {
        let source = minif_gen::source_for_seed(seed);
        let program = suif_ir::parse_program(&source).expect("parses");
        let store = FactStore::new();
        let (pa, _) = Parallelizer::analyze_in(
            &program,
            ParallelizeConfig::default(),
            &ScheduleOptions::default(),
            None,
            &store,
        );
        contract::find_candidates_cached(&pa, &store);
        decomp::advisory_cached(&pa, &store);
        split::find_splits_cached(&pa, &store);
        add(&mut c, source, store.export());
    }
    c
}

fn pick<'a, T>(rng: &mut TestRng, xs: &'a [T]) -> &'a T {
    &xs[rng.below(xs.len() as u64) as usize]
}

/// A position in `0..=len`.
fn at(rng: &mut TestRng, len: usize) -> usize {
    rng.below(len as u64 + 1) as usize
}

/// One to three random mutations of `bytes`.
fn mutate(rng: &mut TestRng, bytes: &[u8]) -> Vec<u8> {
    let mut b = bytes.to_vec();
    for _ in 0..1 + rng.below(3) {
        match rng.below(5) {
            0 if !b.is_empty() => {
                let i = rng.below(b.len() as u64) as usize;
                b[i] ^= 1 << rng.below(8);
            }
            1 => b.truncate(at(rng, b.len())),
            2 if b.len() >= 4 => {
                let i = at(rng, b.len() - 4);
                b[i..i + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            3 => {
                let i = at(rng, b.len());
                let n = 1 + rng.below(8) as usize;
                let fill: Vec<u8> = (0..n).map(|_| rng.below(256) as u8).collect();
                b.splice(i..i, fill);
            }
            _ => {
                // Splice a run of the value into itself: well-formed parts
                // in the wrong place.
                let from = at(rng, b.len());
                let to = from + at(rng, (b.len() - from).min(64));
                let run = b[from..to].to_vec();
                let i = at(rng, b.len());
                b.splice(i..i, run);
            }
        }
    }
    b
}

/// Frame `file` and read every fact it yields, holding each value that
/// decodes to a second round: it encodes to bytes that frame and decode
/// again.  Returns the snapshot and which of its facts decoded.
fn check_file(file: &[u8]) -> Result<Option<(Snapshot, Vec<bool>)>, String> {
    let Ok(snap) = Snapshot::decode(file) else {
        return Ok(None);
    };
    let mut decoded = Vec::new();
    for f in &snap.facts {
        decoded.push(f.value.value().is_some());
        if !decoded[decoded.len() - 1] {
            continue;
        }
        let again = Snapshot::new(vec![f.clone()]).encode();
        let back = Snapshot::decode(&again).map_err(|e| format!("{:?}: {e}", f.key))?;
        if back.facts.len() != 1 || back.facts[0].value.value().is_none() {
            return Err(format!("{:?} decoded once but not twice", f.key));
        }
    }
    Ok(Some((snap, decoded)))
}

fn check_caught(file: &[u8]) -> Result<Option<(Snapshot, Vec<bool>)>, String> {
    catch_unwind(AssertUnwindSafe(|| check_file(file)))
        .unwrap_or_else(|_| Err("Snapshot::decode panicked".into()))
}

/// Saved cases, in name order: `<hash>.snap` files and `<hash>/`
/// directories.
fn saved(dirs: bool) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(regression_dir())
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| match dirs {
                    true => p.is_dir(),
                    false => p.extension().is_some_and(|x| x == "snap"),
                })
                .collect()
        })
        .unwrap_or_default();
    found.sort();
    found
}

/// Save a failing case's files under `<hash><ext>` (a file, or a directory
/// holding `files`) and fail.
fn save_and_fail(case: usize, files: &[(&str, &[u8])], why: String) -> ! {
    let all: Vec<u8> = files.iter().flat_map(|(_, b)| b.iter().copied()).collect();
    let hash = fnv64(&all);
    let dir = regression_dir();
    let saved = match files {
        [(_, file)] => {
            let path = dir.join(format!("{hash:016x}.snap"));
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, file))
        }
        _ => {
            let path = dir.join(format!("{hash:016x}"));
            std::fs::create_dir_all(&path).and_then(|_| {
                files
                    .iter()
                    .try_for_each(|(name, bytes)| std::fs::write(path.join(name), bytes))
            })
        }
    };
    panic!(
        "case {case}: {why}\nsaved under {} ({hash:016x}): {saved:?}",
        dir.display()
    );
}

/// Warm a fresh tier from `dir`, checkpoint what it holds, and warm again:
/// the image loads or is discarded with a warning, never panics, and the
/// directory is healthy after the checkpoint.
fn check_dir(dir: &Path) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let tier = SharedFactTier::new();
        let persist = PersistDir::new(dir);
        let warmed = persist.warm_tier(&tier);
        let written = persist.checkpoint(|| tier.export(), false);
        let again = PersistDir::new(dir).warm_tier(&SharedFactTier::new());
        (warmed, written.map_err(|e| e.to_string()), again.status)
    }));
    let Ok((warmed, written, again)) = outcome else {
        return Err("PersistDir panicked".into());
    };
    match (warmed.status, &warmed.warning) {
        ("loaded", None) | ("discarded", Some(_)) => {}
        (status, warning) => return Err(format!("status {status}, warning {warning:?}")),
    }
    written.map_err(|e| format!("the directory refused a checkpoint: {e}"))?;
    match again {
        "loaded" => Ok(()),
        status => Err(format!("after the checkpoint: status {status}")),
    }
}

/// `reply` with every wall-clock (`secs`) and kernel-counter (`poly`)
/// field removed: what a warm session and a cold one must agree on.
fn masked(reply: &Json) -> String {
    fn strip(j: &Json) -> Json {
        match j {
            Json::Obj(m) => Json::Obj(
                (m.iter())
                    .filter(|(k, _)| *k != "secs" && *k != "poly")
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Json::Arr(xs) => Json::Arr(xs.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    strip(reply).to_string()
}

/// The session fuzz's script: `analyze`, `slice` of every loop,
/// `advisory`, `certify` of the first loop under one schedule (its plans,
/// built for every loop, read the data flow), then `assert` of the first
/// unresolved dependence (whose check reads the data flow too) and
/// `analyze` again.
fn script(s: &mut Session) -> Vec<String> {
    let analyzed = s.analyze();
    let mut out = vec![masked(&analyzed)];
    let loops = analyzed.get("loops").and_then(Json::as_arr).unwrap_or(&[]);
    let name = |l: &Json| l.get("loop").and_then(Json::as_str).map(str::to_string);
    let mut first_dep = None;
    for l in loops {
        let Some(loop_name) = name(l) else { continue };
        let dep = (l.get("deps").and_then(Json::as_arr))
            .and_then(|d| d.first()?.as_str().map(str::to_string));
        if first_dep.is_none() {
            first_dep = dep.map(|d| (loop_name.clone(), d));
        }
        let sliced = s.slice_json(&loop_name);
        out.push(sliced.map_or_else(|e| e, |j| masked(&j)));
    }
    out.push(masked(&s.advisory_json()));
    if let Some(loop_name) = loops.first().and_then(name) {
        let certified = s.certify_json(Some(&loop_name), 1, 7);
        out.push(certified.map_or_else(|e| e, |j| masked(&j)));
    }
    if let Some((loop_name, var)) = first_dep {
        out.push(masked(&s.assert_json(&loop_name, &var, false)));
        out.push(masked(&s.analyze()));
    }
    out
}

/// The script's replies on a session over `source`: warm from `dir`, or
/// cold (no persist directory); `None` if the session does not open.
fn replies(source: &str, dir: Option<&Path>) -> Option<Vec<String>> {
    let cfg = SessionConfig {
        persist: dir.map(PersistDir::new),
        ..Default::default()
    };
    let mut s = Session::open_cfg(source, Default::default(), cfg).ok()?;
    Some(script(&mut s))
}

/// A cold session's replies to [`script`], once per program.
fn cold_replies(program: usize) -> Option<Vec<String>> {
    static COLD: OnceLock<std::sync::Mutex<std::collections::HashMap<usize, Option<Vec<String>>>>> =
        OnceLock::new();
    let cache = COLD.get_or_init(Default::default);
    let known = cache.lock().unwrap().get(&program).cloned();
    known.unwrap_or_else(|| {
        let cold = replies(&corpus_of().sources[program], None);
        cache.lock().unwrap().insert(program, cold.clone());
        cold
    })
}

/// Open a warm session on `source` over a copy of `dir`'s files and run the
/// script: it must not panic, and its replies must equal a cold session's
/// `cold` replies when they are given.
fn check_session(
    dir: &Path,
    source: &str,
    cold: Option<Option<Vec<String>>>,
) -> Result<(), String> {
    let here = dir.with_extension("session");
    let _ = std::fs::remove_dir_all(&here);
    copy_files(dir, &here);
    let warm = catch_unwind(AssertUnwindSafe(|| replies(source, Some(&here))));
    let _ = std::fs::remove_dir_all(&here);
    let warm = warm.map_err(|_| "the warm session panicked".to_string())?;
    let Some(cold) = cold else {
        return Ok(());
    };
    if warm != cold {
        let diff = (warm.iter().flatten().zip(cold.iter().flatten()))
            .find(|(w, c)| w != c)
            .map(|(w, c)| format!("warm {w}\n cold {c}"));
        return Err(format!("a warm session answered differently: {diff:?}"));
    }
    Ok(())
}

/// Copy the persist files (and the program) `from` holds into `to`.
fn copy_files(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for name in [SNAPSHOT_FILE, SNAPSHOT_LOG_FILE, PROGRAM_FILE] {
        if from.join(name).exists() {
            std::fs::copy(from.join(name), to.join(name)).unwrap();
        }
    }
}

/// Replay one saved directory: through `PersistDir`, and through a warm
/// session when it holds a program.  The session must not panic; whether
/// its image records another well-formed fact, and so may answer unlike a
/// cold one, is not saved with it.
fn check_saved_dir(dir: &Path) -> Result<(), String> {
    check_dir(dir)?;
    match std::fs::read_to_string(dir.join(PROGRAM_FILE)) {
        Ok(source) => check_session(dir, &source, None),
        Err(_) => Ok(()),
    }
}

#[test]
fn every_fact_type_round_trips_bit_identically() {
    let mut seen = std::collections::BTreeSet::new();
    for f in corpus() {
        let bytes = Snapshot::new(vec![f.clone()]).encode();
        let back = Snapshot::decode(&bytes).unwrap_or_else(|e| panic!("{:?}: {e}", f.key));
        assert_eq!(back.undecodable, 0, "{:?}", f.key);
        assert_eq!(back.facts.len(), 1, "{:?}", f.key);
        assert_eq!(back.facts[0].bytes, f.bytes, "{:?}: byte ledger", f.key);
        assert_eq!(back.encode(), bytes, "{:?}: re-encoding moved", f.key);
        seen.insert(f.key.pass);
    }
    let all: std::collections::BTreeSet<PassId> = PassId::ALL.into_iter().collect();
    assert_eq!(seen, all, "every pass's output type is covered");
}

#[test]
fn mutated_values_degrade_one_entry_at_a_time() {
    for path in saved(false) {
        let file = std::fs::read(&path).expect("read saved file");
        if let Err(e) = check_caught(&file) {
            panic!("saved file {} fails: {e}", path.display());
        }
    }
    let entries: Vec<(Vec<u8>, Vec<u8>)> = corpus().iter().map(entry).collect();
    let mut rng = TestRng::from_seed(SEED);
    for case in 0..value_cases() {
        let victim_at = rng.below(entries.len() as u64) as usize;
        let (head, value) = &entries[victim_at];
        let left = pick(&mut rng, &entries);
        let right = pick(&mut rng, &entries);
        let mut victim = (head.clone(), mutate(&mut rng, value));
        record_value_hash(&mut rng, &corpus()[victim_at], &mut victim.0, &victim.1);
        let mut payload = 3u32.to_le_bytes().to_vec();
        for (h, v) in [left, &victim, right] {
            payload.extend_from_slice(h);
            payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
            payload.extend_from_slice(v);
        }
        let file = frame_file(&payload);
        let fail = |why: String| save_and_fail(case, &[(SNAPSHOT_FILE, &file)], why);
        let (snap, read) = match check_caught(&file) {
            Ok(Some(found)) => found,
            Ok(None) => fail("intact framing refused".into()),
            Err(e) => fail(e),
        };
        let decoded = read.iter().filter(|&&d| d).count() as u64;
        let dropped = snap.undecodable + read.len() as u64 - decoded;
        if decoded + dropped != 3 {
            fail(format!("{decoded} decoded + {dropped} undecodable != 3"));
        }
        let intact = |i: usize, f: Option<&ExportedFact>, want: &(Vec<u8>, Vec<u8>)| {
            f.is_some_and(|f| entry(f) == *want) && read[i]
        };
        let first = intact(0, snap.facts.first(), left);
        let last = intact(read.len().saturating_sub(1), snap.facts.last(), right);
        if !(first && last) {
            fail("a neighbour of the damaged entry was lost".into());
        }
    }
}

#[test]
fn mutated_files_load_or_cold_start_through_persist_dir() {
    let root = std::env::temp_dir().join(format!("suif_snapshot_fuzz_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (i, saved) in saved(true).into_iter().enumerate() {
        let here = root.join(format!("saved{i}"));
        copy_files(&saved, &here);
        if let Err(e) = check_saved_dir(&here) {
            panic!("saved directory {} fails: {e}", saved.display());
        }
    }
    // A real directory: a base image, then one appended record.
    let facts = &corpus()[..400];
    let origin = root.join("origin");
    let persist = PersistDir::new(&origin);
    persist.checkpoint(|| facts[..300].to_vec(), true).unwrap();
    let appended = persist.checkpoint(|| facts.to_vec(), false).unwrap();
    assert!(appended.appended && appended.delta_facts > 0);
    let base = std::fs::read(origin.join(SNAPSHOT_FILE)).unwrap();
    let log = std::fs::read(origin.join(SNAPSHOT_LOG_FILE)).unwrap();
    // The program whose facts open the directory: a warm session on it
    // reads what each mutated directory loads.
    let program = corpus_of().program[0];
    let source = &corpus_of().sources[program];

    let mut rng = TestRng::from_seed(SEED ^ 0xf11e);
    for case in 0..value_cases() * 2 / 25 {
        let (mut b, mut l) = (base.clone(), log.clone());
        match rng.below(3) {
            0 => b = mutate(&mut rng, &b),
            1 => l = mutate(&mut rng, &l),
            _ => (b, l) = (mutate(&mut rng, &b), mutate(&mut rng, &l)),
        }
        let here = root.join(format!("case{case}"));
        std::fs::create_dir_all(&here).unwrap();
        std::fs::write(here.join(SNAPSHOT_FILE), &b).unwrap();
        std::fs::write(here.join(SNAPSHOT_LOG_FILE), &l).unwrap();
        // A session over a directory that cold-starts is a cold session.
        let warm = match merge_image(&b, Some(&l)) {
            Ok(_) => check_session(&here, source, Some(cold_replies(program))),
            Err(_) => Ok(()),
        };
        let checked = warm.and_then(|()| check_dir(&here));
        if let Err(e) = checked {
            let files = [
                (SNAPSHOT_FILE, &b[..]),
                (SNAPSHOT_LOG_FILE, &l[..]),
                (PROGRAM_FILE, source.as_bytes()),
            ];
            save_and_fail(case, &files, e);
        }
        std::fs::remove_dir_all(&here).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_warm_session_reads_mutated_values_and_answers_like_a_cold_one() {
    let root = std::env::temp_dir().join(format!("suif_snapshot_session_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let c = corpus_of();
    let mut rng = TestRng::from_seed(SEED ^ 0x5e55);
    for case in 0..value_cases() * 2 / 25 {
        // A victim value, framed among every other fact of its program.
        let victim_at = rng.below(c.facts.len() as u64) as usize;
        let program = c.program[victim_at];
        let mut payload = Vec::new();
        let mut count = 0u32;
        let mut another = false;
        for (i, f) in c.facts.iter().enumerate() {
            if c.program[i] != program {
                continue;
            }
            let (mut head, mut value) = entry(f);
            if i == victim_at {
                value = mutate(&mut rng, &value);
                record_value_hash(&mut rng, f, &mut head, &value);
                another = decodes_to_another_fact(f, &head, &value);
            }
            payload.extend_from_slice(&head);
            payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
            payload.extend_from_slice(&value);
            count += 1;
        }
        let mut counted = count.to_le_bytes().to_vec();
        counted.extend_from_slice(&payload);
        let file = frame_file(&counted);
        let here = root.join(format!("case{case}"));
        std::fs::create_dir_all(&here).unwrap();
        std::fs::write(here.join(SNAPSHOT_FILE), &file).unwrap();
        let source = &c.sources[program];
        // An image that records another well-formed fact under its own hash
        // is another analysis's: its session must not panic, and may answer
        // differently.
        let cold = (!another).then(|| cold_replies(program));
        if let Err(e) = check_session(&here, source, cold) {
            let files = [
                (SNAPSHOT_FILE, &file[..]),
                (PROGRAM_FILE, source.as_bytes()),
            ];
            save_and_fail(case, &files, e);
        }
        std::fs::remove_dir_all(&here).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_damaged_value_hash_costs_a_miss_never_a_wrong_fact() {
    let source = &ch4_apps(Scale::Test)[0].source;
    let program = suif_ir::parse_program(source).expect("parses");
    let analyze = |store: &FactStore| {
        let config = ParallelizeConfig::default();
        let opts = ScheduleOptions::default();
        Parallelizer::analyze_in(&program, config, &opts, None, store).0
    };
    let cold = FactStore::new();
    let pa = analyze(&cold);
    // The first procedure summarized is a leaf with callers above it.
    let leaf = pa.ctx.cg.bottom_up()[0];
    let damaged = FactKey::new(PassId::Summarize, Scope::Proc(leaf));
    let facts: Vec<ExportedFact> = (cold.export().into_iter())
        .map(|f| match f.key == damaged {
            true => ExportedFact {
                value_hash: f.value_hash ^ 1,
                ..f
            },
            false => f,
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("suif_snapshot_vh_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    PersistDir::new(&dir).checkpoint(|| facts, true).unwrap();

    let warm = FactStore::new();
    let warmed = PersistDir::new(&dir).warm_store(&warm, |recorded| {
        let config = ParallelizeConfig::default();
        Parallelizer::expected_fact_hashes(&program, &config, &[], recorded)
    });
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(warmed.status, "loaded");
    assert!(
        warmed.evicted_stale > 0,
        "the facts keyed by the value missed"
    );
    let before = warm.metrics_for(PassId::Summarize).invocations;
    let warm_pa = analyze(&warm);
    assert!(warm.metrics_for(PassId::Summarize).invocations > before);
    let fresh = FactStore::new();
    analyze(&fresh);
    let values = |store: &FactStore| -> std::collections::BTreeMap<FactKey, Vec<u8>> {
        let facts = store.export().into_iter();
        facts.map(|f| (f.key, f.value.wire_bytes())).collect()
    };
    assert_eq!(
        values(&warm),
        values(&fresh),
        "every fact equals a fresh one"
    );
    let verdicts = |pa: &suif_analysis::ProgramAnalysis<'_>| {
        format!("{:?}", {
            let mut v: Vec<_> = pa
                .verdicts
                .iter()
                .map(|(s, v)| (*s, format!("{v:?}")))
                .collect();
            v.sort();
            v
        })
    };
    assert_eq!(verdicts(&warm_pa), verdicts(&pa));
}
