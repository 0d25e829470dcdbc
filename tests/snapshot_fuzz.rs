//! Seeded fuzzing of the snapshot decoders.  A warm start decodes
//! `facts.snap` and its log before the daemon answers, so those bytes are
//! input like any other: a decoder must never panic on them, never misread
//! them, and lose no more than the entry they damage.
//!
//! * **Round trip.**  Every fact of real analyses — the Ch. 4 applications
//!   opened in an `Explorer` (so the run's `Execute` fact is among them,
//!   with every advisory demanded) and 200 `minif_gen` programs — decodes
//!   from its encoding and re-encodes to the same bytes; every pass's
//!   output type is covered.
//! * **Mutated values.**  One fact's value bytes are mutated (bit flips,
//!   truncation, a length field set to `u32::MAX`, inserted bytes), then
//!   framed between two intact neighbours and re-checksummed, so the value
//!   decoders — not the checksum — see the damage.  `Snapshot::decode`
//!   answers the file; the mutated entry is decoded or counted
//!   `undecodable`, and both neighbours survive.
//! * **Mutated files.**  A real persist directory's base and log are
//!   mutated whole and read through `PersistDir`: the image loads or is
//!   discarded with a warning, and the directory takes a checkpoint after
//!   either.
//!
//! A failing case is saved under `tests/regressions/snapshot/` — a value
//! case as `<hash>.snap`, a file case as a `<hash>/` persist directory —
//! and every saved case is replayed before novel cases are generated.  The
//! seed and the case counts are fixed.

use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use suif_analysis::snapshot::{to_bytes, SNAPSHOT_MAGIC};
use suif_analysis::{
    contract, decomp, split, ExportedFact, FactStore, ParallelizeConfig, Parallelizer, PassId,
    PersistDir, ScheduleOptions, SharedFactTier, Snapshot, SNAPSHOT_VERSION,
};
use suif_benchmarks::{ch4_apps, Scale};
use suif_explorer::Explorer;
use suif_server::{SNAPSHOT_FILE, SNAPSHOT_LOG_FILE};

const SEED: u64 = 0x5eed_5a4b_0001;
const GENERATED: u64 = 200;
const VALUE_CASES: usize = 1500;
const FILE_CASES: usize = 120;

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

/// One fact's payload entry (everything after the payload's fact count),
/// split into its framing and its value bytes.
fn entry(f: &ExportedFact) -> (Vec<u8>, Vec<u8>) {
    let file = Snapshot::new(vec![f.clone()]).encode();
    let value = to_bytes(&*f.value);
    let framed = &file[36 + 4..];
    let head = framed[..framed.len() - 4 - value.len()].to_vec();
    assert_eq!(&framed[head.len() + 4..], &value[..], "value framed last");
    (head, value)
}

/// Every fact of the corpus, in a fixed order (built once per process).
fn corpus() -> &'static [ExportedFact] {
    static CORPUS: OnceLock<Vec<ExportedFact>> = OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn build_corpus() -> Vec<ExportedFact> {
    let mut facts = Vec::new();
    for b in ch4_apps(Scale::Test) {
        let program = suif_ir::parse_program(&b.source).expect("parses");
        let ex = Explorer::new(&program, b.input.clone()).expect("opens");
        ex.contractions();
        ex.decomp_advisory();
        ex.block_splits();
        facts.extend(ex.store().export());
    }
    for seed in 0..GENERATED {
        let program = suif_ir::parse_program(&minif_gen::source_for_seed(seed)).expect("parses");
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
        facts.extend(store.export());
    }
    facts
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

/// Decode `file` and hold every fact it yields to a second round: a value
/// the decoder accepted encodes to bytes it accepts again.
fn check_file(file: &[u8]) -> Result<Option<Snapshot>, String> {
    let Ok(snap) = Snapshot::decode(file) else {
        return Ok(None);
    };
    for f in &snap.facts {
        let again = Snapshot::new(vec![f.clone()]).encode();
        let back = Snapshot::decode(&again).map_err(|e| format!("{:?}: {e}", f.key))?;
        if back.facts.len() != 1 {
            return Err(format!("{:?} decoded once but not twice", f.key));
        }
    }
    Ok(Some(snap))
}

fn check_caught(file: &[u8]) -> Result<Option<Snapshot>, String> {
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
    for case in 0..VALUE_CASES {
        let (head, value) = pick(&mut rng, &entries);
        let left = pick(&mut rng, &entries);
        let right = pick(&mut rng, &entries);
        let victim = (head.clone(), mutate(&mut rng, value));
        let mut payload = 3u32.to_le_bytes().to_vec();
        for (h, v) in [left, &victim, right] {
            payload.extend_from_slice(h);
            payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
            payload.extend_from_slice(v);
        }
        let file = frame_file(&payload);
        let fail = |why: String| save_and_fail(case, &[(SNAPSHOT_FILE, &file)], why);
        let snap = match check_caught(&file) {
            Ok(Some(snap)) => snap,
            Ok(None) => fail("intact framing refused".into()),
            Err(e) => fail(e),
        };
        let (decoded, dropped) = (snap.facts.len(), snap.undecodable);
        if decoded as u64 + dropped != 3 {
            fail(format!("{decoded} decoded + {dropped} undecodable != 3"));
        }
        let first = snap.facts.first().is_some_and(|f| entry(f) == *left);
        let last = snap.facts.last().is_some_and(|f| entry(f) == *right);
        if !(first && last) {
            fail("a neighbour of the damaged entry was lost".into());
        }
    }
}

#[test]
fn mutated_files_load_or_cold_start_through_persist_dir() {
    let root = std::env::temp_dir().join(format!("suif_snapshot_fuzz_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let copy = |from: &Path, to: &Path| {
        std::fs::create_dir_all(to).unwrap();
        for name in [SNAPSHOT_FILE, SNAPSHOT_LOG_FILE] {
            std::fs::copy(from.join(name), to.join(name)).unwrap();
        }
    };
    for (i, saved) in saved(true).into_iter().enumerate() {
        let here = root.join(format!("saved{i}"));
        copy(&saved, &here);
        if let Err(e) = check_dir(&here) {
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

    let mut rng = TestRng::from_seed(SEED ^ 0xf11e);
    for case in 0..FILE_CASES {
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
        if let Err(e) = check_dir(&here) {
            save_and_fail(case, &[(SNAPSHOT_FILE, &b), (SNAPSHOT_LOG_FILE, &l)], e);
        }
        std::fs::remove_dir_all(&here).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}
