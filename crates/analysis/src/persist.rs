//! The one owner of a persist directory: [`PersistDir`].
//!
//! A `--persist-dir` holds two files — the base image `facts.snap` and the
//! append-log `facts.snap.log` beside it ([`crate::snapshot`] is their
//! format).  The files are process-wide, so the bookkeeping over them is
//! too: one `PersistDir` per directory per process, shared as
//! `Arc<PersistDir>` by everything that warms from or checkpoints into the
//! directory (every session of a daemon, the daemon's shutdown fold, a
//! corpus run).  One mutex covers the load outcome, the base checksum, both
//! file sizes, the durable set and the paired flag, and every access to
//! either file holds it: **one reader** (`read_once`, inside the first
//! `load` over the directory, never at process start), **two writers**
//! (`append`, `fold`), and **one decision** between them (`write`).
//!
//! The reader checksums and frames the image without decoding a value
//! ([`crate::snapshot::FactCell`]): each fact it hands a store or a tier
//! keeps a copy of its own bytes until a read decodes it, and the buffers
//! the files were read into are freed when the read returns.  A fold or an
//! append of facts still in bytes writes those bytes back unchanged.

use crate::pipeline::{recorded_values, ExportedFact, FactKey, FactStore, RecordedValues};
use crate::snapshot::{self, Snapshot, LOG_HEADER_LEN, SNAPSHOT_FILE, SNAPSHOT_LOG_FILE};
use crate::tier::SharedFactTier;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Compact once the log's record bytes reach both this floor and the base
/// image's size: a single assert appends a few hundred bytes without ever
/// triggering a whole-file rewrite, while a long assert-heavy session folds
/// its log away before replay cost rivals a cold start.
pub const COMPACT_MIN_LOG_BYTES: u64 = 4096;

/// The durable base+log pair of one directory and what this process knows
/// to be on disk in it.
pub struct PersistDir {
    base: PathBuf,
    log: PathBuf,
    state: Mutex<DirState>,
}

#[derive(Default)]
struct DirState {
    /// How the one read of the directory went (`warm_hits` unset); `None`
    /// until the first warm.
    outcome: Option<Warmed>,
    /// A valid base with a healthy log bound to it is on disk.  Unset on a
    /// fresh dir, after a discarded base, a damaged log or a failed write:
    /// the next write must then be a fold.
    paired: bool,
    /// Payload checksum of the on-disk base; the log header binds to it.
    base_checksum: u128,
    base_bytes: u64,
    /// Size of the log file (header + records).
    log_bytes: u64,
    /// Every `(key, input hash)` durable in base+log, with the value hash
    /// recorded beside it.  Pairs, not keys: a content-addressed tier
    /// legitimately holds several hashes per key (sibling programs sharing
    /// statement ids), and each must count as durable on its own or the
    /// siblings re-append each other forever.
    durable: RecordedValues,
    stats: DirStats,
}

/// Lifetime I/O counters of one [`PersistDir`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Times the directory's files were read and framed (at most 1).
    pub reads: u64,
    /// Checkpoints that failed with an I/O error.
    pub write_errors: u64,
}

/// What warming from the directory gave one opener.
#[derive(Clone, Debug)]
pub struct Warmed {
    /// The directory's load outcome, the same for every opener of the
    /// process: `"none"` (no image yet), `"loaded"`, or `"discarded"`
    /// (torn/corrupt/version-mismatched base dropped; cold start).
    pub status: &'static str,
    /// Over a shared tier: this opener's expected `(key, hash)` pairs that
    /// were durable when it opened ([`PersistDir::warm_tier`]: the facts
    /// imported).  For a key-addressed store: the image entries imported
    /// after matching their expected hash.
    pub warm_hits: u64,
    /// Image entries dropped: undecodable bytes, and — for a key-addressed
    /// store only — a stale input hash (the program or configuration
    /// moved).  A content-addressed tier evicts nothing for belonging to
    /// another program.  Each degrades to `Absent`, never to a wrong answer.
    pub evicted_stale: u64,
    /// Human-readable load problem, when the image was discarded.
    pub warning: Option<String>,
}

impl Default for Warmed {
    fn default() -> Warmed {
        Warmed {
            status: "none",
            warm_hits: 0,
            evicted_stale: 0,
            warning: None,
        }
    }
}

/// What one [`PersistDir::checkpoint`] wrote.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checkpointed {
    /// Facts this call made durable: the delta of an append, the whole
    /// image of a fold.
    pub delta_facts: usize,
    /// Bytes written for them: the log record, or the base image.
    pub bytes: usize,
    /// The bytes went to the log as one record (`false`: a fold).
    pub appended: bool,
    /// The append pushed the log past the threshold and it was folded away.
    pub compacted: bool,
    /// Durable `(key, hash)` pairs after the call.
    pub facts: usize,
    /// Size of the log file after the call.
    pub log_bytes: u64,
}

impl PersistDir {
    /// A handle over `dir`.  Touches no file: the directory is read at the
    /// first warm and written at the first checkpoint.
    pub fn new(dir: impl AsRef<Path>) -> Arc<PersistDir> {
        Arc::new(PersistDir {
            base: dir.as_ref().join(SNAPSHOT_FILE),
            log: dir.as_ref().join(SNAPSHOT_LOG_FILE),
            state: Mutex::default(),
        })
    }

    /// Path of the base image (what messages and replies name).
    pub fn base_path(&self) -> &Path {
        &self.base
    }

    /// Lifetime I/O counters.
    pub fn stats(&self) -> DirStats {
        self.state.lock().stats
    }

    /// Warm a session's store.  `current` maps the durable facts' recorded
    /// value hashes to the input hash every fact key carries right now (see
    /// [`crate::Parallelizer::expected_fact_hashes`], which validates
    /// bottom-up: a fact's expected hash folds the recorded value hashes of
    /// the durable facts it reads).  Over a shared tier the image goes into
    /// the tier whole, at the first call only, and `store` reads through it
    /// on demand; nothing is validated away, because a content-addressed
    /// entry no current program demands is simply never read.  A
    /// key-addressed store imports only the image entries whose hash equals
    /// the expected one: the image records what *was* true, the hash check
    /// proves it still is.
    pub fn warm_store(
        &self,
        store: &FactStore,
        current: impl FnOnce(&RecordedValues) -> HashMap<FactKey, u128>,
    ) -> Warmed {
        let mut st = self.state.lock();
        let (mut warmed, image) = self.read_once(&mut st);
        let expected = current(&st.durable);
        if let Some(tier) = store.shared_tier() {
            tier.import(&image);
            let durable = |(k, h): (&FactKey, &u128)| st.durable.contains_key(&(*k, *h));
            warmed.warm_hits = expected.iter().filter(|&e| durable(e)).count() as u64;
        } else {
            let total = image.len();
            let valid: Vec<ExportedFact> = image
                .into_iter()
                .filter(|f| expected.get(&f.key) == Some(&f.hash))
                .collect();
            warmed.evicted_stale += (total - valid.len()) as u64;
            warmed.warm_hits = store.import(valid) as u64;
        }
        warmed
    }

    /// Warm a tier that has no session over it (a corpus run, a daemon
    /// about to fold a directory no session opened).
    pub fn warm_tier(&self, tier: &SharedFactTier) -> Warmed {
        let mut st = self.state.lock();
        let (mut warmed, image) = self.read_once(&mut st);
        warmed.warm_hits = tier.import(&image) as u64;
        warmed
    }

    /// The one reader of the two files: frame the base, replay the log
    /// over it, and record what is durable.  Returns the outcome and the
    /// image's facts — the first time; every later call repeats the outcome
    /// with no facts and without touching the disk.  A corrupt or
    /// version-mismatched base discards the whole image; a damaged log
    /// degrades (ignored if bound to another base — e.g. after a
    /// mid-compaction crash — or replayed up to its first torn record) and
    /// schedules a fold; undecodable entries degrade individually.
    fn read_once(&self, st: &mut DirState) -> (Warmed, Vec<ExportedFact>) {
        if let Some(outcome) = &st.outcome {
            return (outcome.clone(), Vec::new());
        }
        st.stats.reads += 1;
        let (mut outcome, mut facts) = (Warmed::default(), Vec::new());
        let read = match std::fs::read(&self.base) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => Some(Err(format!("read failed: {e}"))),
            Ok(base) => {
                let log = std::fs::read(&self.log).ok();
                st.base_bytes = base.len() as u64;
                st.log_bytes = log.as_ref().map_or(0, |l| l.len() as u64);
                Some(snapshot::merge_image(&base, log.as_deref()).map_err(|e| e.to_string()))
            }
        };
        match read {
            None => {}
            Some(Err(why)) => {
                let w = format!("snapshot {}: {why}; cold start", self.base.display());
                eprintln!("warning: {w}");
                outcome.status = "discarded";
                outcome.warning = Some(w);
            }
            Some(Ok(image)) => {
                // The durable set is what the *files* hold, whatever any
                // opener goes on to validate away: a stale entry is
                // physically present, and only its replacement (same key,
                // fresh hash) is missing.
                st.durable = recorded_values(&image.facts);
                st.base_checksum = image.base_checksum;
                // A valid base with a damaged/foreign log still warm-starts
                // from what replayed, but the next write folds everything
                // into a fresh pair instead of appending to damage.
                st.paired = !image.log_damaged;
                outcome.status = "loaded";
                outcome.evicted_stale = image.undecodable;
                facts = image.facts;
            }
        }
        st.outcome = Some(outcome.clone());
        (outcome, facts)
    }

    /// Make `export()`'s facts durable.  `export` runs under the
    /// directory's lock, so what a fold writes is never older than what a
    /// sibling already made durable.  `fold` forces a fresh base, for a
    /// daemon's shutdown; a session's checkpoints append.  After an I/O
    /// error the files are in doubt, so the next checkpoint folds.
    pub fn checkpoint(
        &self,
        export: impl FnOnce() -> Vec<ExportedFact>,
        fold: bool,
    ) -> io::Result<Checkpointed> {
        let mut st = self.state.lock();
        let written = self.write(&mut st, export(), fold);
        if written.is_err() {
            st.paired = false;
            st.stats.write_errors += 1;
        }
        written
    }

    /// The append-or-fold decision, made here and nowhere else: fold when
    /// asked to, when no valid pair is on disk (first write, damaged log),
    /// and when an append grew the log's records to both
    /// [`COMPACT_MIN_LOG_BYTES`] and the base image's own size.
    fn write(
        &self,
        st: &mut DirState,
        facts: Vec<ExportedFact>,
        fold: bool,
    ) -> io::Result<Checkpointed> {
        let mut out = Checkpointed::default();
        if fold || !st.paired {
            (out.delta_facts, out.bytes) = self.fold(st, facts)?;
        } else {
            out.appended = true;
            (out.delta_facts, out.bytes) = self.append(st, &facts)?;
            let records = st.log_bytes.saturating_sub(LOG_HEADER_LEN as u64);
            out.compacted = records >= COMPACT_MIN_LOG_BYTES.max(st.base_bytes);
            if out.compacted {
                self.fold(st, facts)?;
            }
        }
        out.facts = st.durable.len();
        out.log_bytes = st.log_bytes;
        Ok(out)
    }

    /// Writer one: append one framed record holding only what is not yet
    /// durable — facts whose `(key, hash)` pair is new.  O(delta): the cost
    /// does not scale with the total fact count, and an idle checkpoint
    /// writes nothing.  Returns `(facts, bytes)` appended.
    fn append(&self, st: &mut DirState, facts: &[ExportedFact]) -> io::Result<(usize, usize)> {
        let new_fact = |f: &&ExportedFact| !st.durable.contains_key(&(f.key, f.hash));
        let delta: Vec<ExportedFact> = facts.iter().filter(new_fact).cloned().collect();
        if delta.is_empty() {
            return Ok((0, 0));
        }
        let mut fh = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&self.log)?;
        // An empty log (e.g. removed out-of-band) needs its binding header
        // first, or the whole log is ignored at the next load.
        if fh.metadata()?.len() == 0 {
            fh.write_all(&snapshot::log_header(st.base_checksum))?;
            st.log_bytes = LOG_HEADER_LEN as u64;
        }
        let record = snapshot::encode_log_record(&delta);
        fh.write_all(&record)?;
        st.log_bytes += record.len() as u64;
        st.durable.extend(recorded_values(&delta));
        Ok((delta.len(), record.len()))
    }

    /// Writer two: write `facts` as a fresh base image, then reset the log
    /// to a header bound to it.  Both writes are atomic and the base goes
    /// first: a crash between them leaves the new base with the *old* log,
    /// whose binding checksum no longer matches — the stale log is ignored
    /// on load, so the crash costs recomputation, never correctness.
    /// Returns `(facts, bytes)` of the base.
    fn fold(&self, st: &mut DirState, facts: Vec<ExportedFact>) -> io::Result<(usize, usize)> {
        let image = Snapshot::new(facts);
        let bytes = image.encode();
        let checksum = snapshot::file_checksum(&bytes).expect("encoded snapshot has a header");
        snapshot::write_atomic(&self.base, &bytes)?;
        snapshot::write_atomic(&self.log, &snapshot::log_header(checksum))?;
        st.paired = true;
        st.base_checksum = checksum;
        st.base_bytes = bytes.len() as u64;
        st.log_bytes = LOG_HEADER_LEN as u64;
        st.durable = recorded_values(&image.facts);
        Ok((image.facts.len(), bytes.len()))
    }
}
