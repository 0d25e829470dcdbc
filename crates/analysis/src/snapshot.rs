//! Durable fact-store snapshots: a versioned, checksummed binary encoding
//! of the store's keys, input hashes, value hashes, dependency edges, and
//! fact values.
//! This is what lets a daemon restart warm (§2: the analysis state of an
//! interactive session must outlive any one process).
//!
//! # What is persisted
//!
//! Facts, and nothing else.  Every value the store holds is a
//! [`FactValue`]: one of the eight pass output types, each naming its pass
//! — classify verdicts ([`crate::LoopVerdict`]), carried-dependence tables
//! ([`crate::deps::CarriedDeps`]), the three advisories (contraction,
//! decomposition, block splits), the two passes that dominate a cold
//! analysis — `<R,E,W,M>` array-section summaries (one
//! [`crate::summarize::ProcFlow`] per procedure) and liveness flows
//! ([`crate::liveness::LivenessResult`]) — and the instrumented run that
//! dominates a cold open ([`crate::ExecutionFact`]: loop profile and dynamic
//! dependences, wall-clock of the producing run included — it is the fact's
//! data, not metadata about it).
//!
//! Each type on the wire, down to a variable of a linear expression, has
//! one [`Wire`] impl in this module with its encoder and decoder side by
//! side, so the format is decided here and nowhere else.  The wire form is
//! canonical: hash maps are framed in sorted-key order and polyhedra are
//! written constraint-for-constraint (PR 5 normalizes constraints on
//! construction, so decode re-normalization is the identity), which makes
//! `encode(decode(x)) == x` hold bit-for-bit and lets tests compare facts
//! by their encodings.  Nondeterministic run metadata (a pass's own
//! wall-clock) is deliberately outside the wire form.
//!
//! # Crash safety and hostile bytes
//!
//! The file layout is `magic · version · payload-length · FNV-128 checksum ·
//! payload`.  [`write_atomic`] writes a temp file in the same directory and
//! renames it over the target, so a crash mid-write leaves either the old
//! snapshot or none.  [`Snapshot::decode`] verifies magic, version, length,
//! and checksum before touching the payload; any mismatch is a
//! [`SnapshotError`] and the caller cold-starts.
//!
//! # Values decode on first read
//!
//! Loading *frames* the payload: every entry's key, hashes and edges are
//! read, and its value is copied out as bytes into a [`FactCell`], where it
//! stays until something reads it.  A warm start reads few of them (a
//! restarted daemon's `load → guru` reads its verdicts and its run, about
//! 1 % of a Ch. 4 image), so the bulk — procedure summaries and liveness —
//! is never decoded unless a recomputation needs it.  A cell decodes at
//! most once and then drops its bytes; re-encoding one that is still bytes
//! copies them.  An entry with an unknown pass tag is dropped while
//! framing; a value whose bytes do not hash to its recorded value hash, or
//! do not decode — which includes naming an id the reading program does not
//! have (`IdBounds`) — reads as nothing, and the store that read it drops
//! it and recomputes the fact (degrading that fact to `Absent`), never
//! serving it wrong.  Decoding is linear in the input and never panics: it
//! accepts only the canonical form the encoder writes (map keys and
//! expression terms strictly ascending, and a persisted value's bytes
//! exactly what its decoded value re-encodes to), and caps every capacity
//! reserved from a length field.
//!
//! Entries loaded into a key-addressed store must additionally be
//! re-validated against freshly computed input hashes
//! ([`crate::Parallelizer::expected_fact_hashes`], which reads the
//! recorded value hashes bottom-up) before import — the snapshot records
//! what *was* true, the hash check proves it still is.  A recorded value
//! hash is trusted under the payload checksum, so a warm open encodes no
//! value to hash it; a value's own bytes are checked against it when the
//! value is first read.
//!
//! This module is the *format* only.  Who reads and writes the two files of
//! a persist directory, under which lock, and when an append becomes a fold
//! is [`crate::PersistDir`]'s business, and nobody else's.

use crate::cache::Fnv128;
use crate::context::ArrayKey;
use crate::contract::ContractionCandidate;
use crate::decomp::{DecompConflict, DecompFact, Partitioning, Stride};
use crate::deps::{CarriedDeps, DepKind};
use crate::execution::{ExecutionFact, LoopExecution};
use crate::liveness::{LivenessMode, LivenessResult};
use crate::parallelize::{LoopPlan, LoopVerdict, StaticDep, VarClass};
use crate::pipeline::{ExportedFact, FactKey, PassId, Scope};
use crate::reduction::{RedEntry, RedOp, RedSummary};
use crate::split::BlockSplit;
use crate::summarize::{LoopIterSummary, NodeSummary, ProcFlow};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use suif_ir::{CommonId, ProcId, RegionId, StmtId, VarId};
use suif_poly::{
    AccessSummary, ArrayId, Constraint, ConstraintKind, LinExpr, PolySet, Polyhedron, Section,
    SectionSummary, Var,
};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SUIFSNAP";

/// Current snapshot format version.  Bump on any wire-format change; a
/// mismatch discards the whole file (cold start), never misreads it.
///
/// History: 1 — initial format; 2 — constraints are normalized on
/// construction (GCD-reduced, equalities sign-canonical), so memo keys
/// written by a version-1 build may not match this build's normal forms;
/// 3 — `Summarize` and `Liveness` values gained codecs (previously those
/// passes were filtered out of snapshots entirely), so a version-2 file
/// read by this build would warm-start without the expensive facts and a
/// version-3 file read by an old build would mis-frame them; 4 — the
/// payload is facts only (versions 1–3 carried an emptiness-proof memo
/// section after them); 5 — the `Execute` pass (tag 7) gained a codec, so
/// a version-4 build reading this file would count the run's fact as
/// undecodable at every load and a fold by it would drop the fact; 6 —
/// `Summarize` records are one `Scope::Proc` `ProcFlow` per procedure (they
/// were one `Scope::Program` data flow), so a version-5 value would
/// mis-frame under this build's codec; 7 — every entry records its value
/// hash beside its input hash ([`value_footprint`]), and the input hashes
/// above the per-procedure summaries fold the value hashes of the facts
/// they read, so a version-6 entry would mis-frame and its hash would
/// never match; 8 — an `Execute` value's carried dependences name their
/// kinds (a map of variable to kinds, where it was a set of variables), so
/// a version-7 run would mis-frame under this build's codec.
pub const SNAPSHOT_VERSION: u32 = 8;

/// Why a snapshot failed to load (the caller cold-starts either way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file is shorter than a header.
    TooShort,
    /// The magic bytes are wrong (not a snapshot file).
    BadMagic,
    /// The version is not [`SNAPSHOT_VERSION`].
    BadVersion(u32),
    /// The payload is shorter than the header's recorded length (torn
    /// write).
    Truncated,
    /// The payload checksum does not match (corruption).
    BadChecksum,
    /// The payload structure itself is malformed.
    Malformed,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "file shorter than a snapshot header"),
            SnapshotError::BadMagic => write!(f, "bad magic (not a snapshot file)"),
            SnapshotError::BadVersion(v) => {
                write!(f, "version {v} (this build reads {SNAPSHOT_VERSION})")
            }
            SnapshotError::Truncated => write!(f, "truncated payload (torn write)"),
            SnapshotError::BadChecksum => write!(f, "payload checksum mismatch (corruption)"),
            SnapshotError::Malformed => write!(f, "malformed payload"),
        }
    }
}

/// An in-memory snapshot: facts ready to encode to (or just framed from)
/// the wire format.
#[derive(Default)]
pub struct Snapshot {
    /// Facts, in deterministic key order.
    pub facts: Vec<ExportedFact>,
    /// Entries dropped while framing because their pass tag was not
    /// understood (each degrades to `Absent`).
    pub undecodable: u64,
}

/// A value the fact store holds: one pass's output, which knows its own
/// wire form and names the pass that produces it.  The store keeps every
/// fact in a [`FactCell`] and reads one back as its concrete type through
/// the `Any` supertrait.
pub trait FactValue: Wire + Any + Send + Sync {
    /// The pass whose output this is.
    fn pass(&self) -> PassId;
}

/// One fact's value in one of two states: decoded, or still the wire bytes
/// an image was read as.  A persisted value decodes at most once, on its
/// first read; every clone of the cell (the store's entry, the tier's, an
/// analysis's handle) shares that one decode.  The bytes are the cell's own
/// copy, not a view of the file, and a decode drops them (the value
/// re-encodes to them exactly), so a cell keeps no more resident than the
/// one value its budget entry charges for.  Bytes that do not hash to the
/// value hash recorded beside them, or do not decode for the reading
/// program (`IdBounds`), read as `None` from then on: a value that passed
/// the image's checksum but was damaged before it was framed is never
/// served, and neither are bytes the decoded value would not re-encode to.
#[derive(Clone)]
pub struct FactCell(Cell);

#[derive(Clone)]
enum Cell {
    /// Computed in this process.
    Decoded(Arc<dyn FactValue>),
    /// Read from an image.
    Persisted(Arc<Persisted>),
}

/// `pass`'s value, recorded under `value_hash`, as it stands.
struct Persisted {
    pass: PassId,
    value_hash: u128,
    stored: Mutex<Stored>,
}

enum Stored {
    /// Not read yet: the value's wire bytes.
    Bytes(Box<[u8]>),
    /// Read and decoded.
    Value(Arc<dyn FactValue>),
    /// Read and refused; kept as bytes, so a fold writes what it read.
    Refused(Box<[u8]>),
}

impl FactCell {
    /// A decoded value.
    pub fn new(value: Arc<dyn FactValue>) -> FactCell {
        FactCell(Cell::Decoded(value))
    }

    /// `pass`'s value as `bytes`, recorded under `value_hash`, not yet
    /// decoded.
    fn persisted(pass: PassId, bytes: &[u8], value_hash: u128) -> FactCell {
        FactCell(Cell::Persisted(Arc::new(Persisted {
            pass,
            value_hash,
            stored: Mutex::new(Stored::Bytes(bytes.into())),
        })))
    }

    /// The pass whose output this is.
    pub fn pass(&self) -> PassId {
        match &self.0 {
            Cell::Decoded(value) => value.pass(),
            Cell::Persisted(p) => p.pass,
        }
    }

    /// Has the value been read (or was it never bytes)?
    pub fn is_decoded(&self) -> bool {
        match &self.0 {
            Cell::Decoded(_) => true,
            Cell::Persisted(p) => !matches!(*p.stored.lock(), Stored::Bytes(_)),
        }
    }

    /// The value, decoded on the first read with no program's id bounds;
    /// `None` if its bytes do not match their recorded value hash or do
    /// not decode.
    pub fn value(&self) -> Option<Arc<dyn FactValue>> {
        self.read(IdBounds::ANY).0
    }

    /// The value, decoded on the first read for a program with `bounds`,
    /// and the seconds this call spent decoding (`None` when it decoded
    /// nothing).
    pub(crate) fn read(&self, bounds: IdBounds) -> (Option<Arc<dyn FactValue>>, Option<f64>) {
        let p = match &self.0 {
            Cell::Decoded(value) => return (Some(value.clone()), None),
            Cell::Persisted(p) => p,
        };
        let mut stored = p.stored.lock();
        let bytes = match &mut *stored {
            Stored::Value(value) => return (Some(value.clone()), None),
            Stored::Refused(_) => return (None, None),
            Stored::Bytes(bytes) => std::mem::take(bytes),
        };
        let t0 = std::time::Instant::now();
        let value = (payload_checksum(&bytes) == p.value_hash)
            .then(|| decode_value(p.pass, &bytes, bounds))
            .flatten()
            // The canonical form only: a decoded cell drops its bytes, so
            // they must be exactly what its value encodes to.
            .filter(|value| to_bytes(&**value) == *bytes);
        let secs = t0.elapsed().as_secs_f64();
        *stored = match &value {
            Some(value) => Stored::Value(value.clone()),
            None => Stored::Refused(bytes),
        };
        (value, Some(secs))
    }

    /// The value's wire form: bytes not decoded are copied as they are.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut e = Enc::default();
        self.encode(&mut e);
        e.buf
    }

    fn encode(&self, e: &mut Enc) {
        match &self.0 {
            Cell::Decoded(value) => value.encode(e),
            Cell::Persisted(p) => match &*p.stored.lock() {
                Stored::Value(value) => value.encode(e),
                Stored::Bytes(bytes) | Stored::Refused(bytes) => e.buf.extend_from_slice(bytes),
            },
        }
    }

    /// Are `a` and `b` the same cell?
    pub fn ptr_eq(a: &FactCell, b: &FactCell) -> bool {
        match (&a.0, &b.0) {
            (Cell::Decoded(x), Cell::Decoded(y)) => Arc::ptr_eq(x, y),
            (Cell::Persisted(x), Cell::Persisted(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }
}

/// How many of each id the program reading a value has.  A value read for
/// a program that names an id at or past its bound does not decode: it was
/// damaged (or written for another program), and indexing the program with
/// it would panic.  The [`crate::FactStore`] an analysis runs over holds
/// its program's bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct IdBounds {
    pub procs: u32,
    pub stmts: u32,
    pub vars: u32,
    pub commons: u32,
    pub regions: u32,
    pub arrays: u32,
}

impl IdBounds {
    /// No program's bounds: every id decodes.
    pub const ANY: IdBounds = IdBounds {
        procs: u32::MAX,
        stmts: u32::MAX,
        vars: u32::MAX,
        commons: u32::MAX,
        regions: u32::MAX,
        arrays: u32::MAX,
    };
}

impl Default for IdBounds {
    fn default() -> IdBounds {
        IdBounds::ANY
    }
}

impl<T: FactValue> From<Arc<T>> for FactCell {
    fn from(value: Arc<T>) -> FactCell {
        FactCell::new(value)
    }
}

/// Approximate resident bytes of one fact value — `64 + 2×` the length of
/// its wire form — and its *value hash*, from one encoding.
///
/// The bytes are an estimate, not a measurement.  The in-memory form
/// follows the wire length only as long as the large values stay compact
/// (`ProcFlow` and `LivenessResult` hash-cons their section sets;
/// uncompacted, they held 3–4× this figure).  `tests/fact_heap.rs` holds the
/// sum over a tier to 0.75–2× of the live heap its facts occupy.  Used by
/// the [`crate::FactStore`] and [`crate::SharedFactTier`] byte budgets.
///
/// The value hash is the word-folded FNV of the wire form, which is
/// canonical, so equal values hash equal: it is what the input hash of a
/// fact that reads this one folds (early cutoff, [`crate::pipeline`]).
pub fn value_footprint(value: &dyn FactValue) -> (usize, u128) {
    let bytes = to_bytes(value);
    (64 + 2 * bytes.len(), payload_checksum(&bytes))
}

/// One-shot word-folded checksum of a payload body (eight bytes per
/// multiply; see `Fnv128::write_words`).  This is the integrity checksum
/// stored in snapshot headers and log records — it is part of the file
/// format, and deliberately not byte-compatible with the per-byte FNV used
/// for fact content hashes.
fn payload_checksum(payload: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.write_words(payload);
    h.0
}

impl Snapshot {
    /// Build a snapshot from exported store entries.
    pub fn new(mut facts: Vec<ExportedFact>) -> Snapshot {
        facts.sort_by_key(|f| f.key);
        Snapshot {
            facts,
            undecodable: 0,
        }
    }

    /// Encode to the complete file byte stream (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let payload = encode_payload(&self.facts);
        let checksum = payload_checksum(&payload);
        let mut out = Vec::with_capacity(36 + payload.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Frame a complete file byte stream, verifying magic, version,
    /// length, and checksum.  Values stay bytes until first read
    /// ([`FactCell`]); an entry with an unknown pass tag is dropped here
    /// (counted in [`Snapshot::undecodable`]), one whose value bytes do not
    /// decode at its first read.  Structural damage to the payload framing
    /// fails the whole snapshot instead.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < 36 {
            return Err(SnapshotError::TooShort);
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let checksum = u128::from_le_bytes(bytes[20..36].try_into().unwrap());
        let payload = &bytes[36..];
        if payload.len() != len {
            return Err(SnapshotError::Truncated);
        }
        if payload_checksum(payload) != checksum {
            return Err(SnapshotError::BadChecksum);
        }
        frame_payload(payload)
    }
}

/// Encode a fact set to the shared payload body (no header, no checksum) —
/// the unit both a whole snapshot and one append-log record frame.
fn encode_payload(facts: &[ExportedFact]) -> Vec<u8> {
    let mut p = Enc::default();
    facts.len().encode(&mut p);
    for f in facts {
        pass_tag(f.key.pass).encode(&mut p);
        f.key.scope.encode(&mut p);
        f.hash.encode(&mut p);
        f.value_hash.encode(&mut p);
        f.deps.len().encode(&mut p);
        for d in &f.deps {
            pass_tag(d.pass).encode(&mut p);
            d.scope.encode(&mut p);
        }
        // The value goes behind its length, patched in once known.  A value
        // filed under another pass's key frames empty, which no decoder
        // accepts: that one entry drops, nothing is misread.
        let at = p.buf.len();
        0u32.encode(&mut p);
        if f.value.pass() == f.key.pass {
            f.value.encode(&mut p);
        }
        let vlen = (p.buf.len() - at - 4) as u32;
        p.buf[at..at + 4].copy_from_slice(&vlen.to_le_bytes());
    }
    p.buf
}

/// Frame one payload body (a whole snapshot's or one log record's): every
/// value is copied out as bytes, undecoded.
fn frame_payload(payload: &[u8]) -> Result<Snapshot, SnapshotError> {
    fn frame<T: Wire>(d: &mut Dec<'_>) -> Result<T, SnapshotError> {
        T::decode(d).ok_or(SnapshotError::Malformed)
    }
    let mut d = Dec::new(payload);
    let mut snap = Snapshot::default();
    for _ in 0..frame::<u32>(&mut d)? {
        let pass = pass_of(frame(&mut d)?);
        let scope = frame(&mut d)?;
        let hash = frame(&mut d)?;
        let value_hash = frame(&mut d)?;
        let ndeps = frame::<u32>(&mut d)?;
        let mut deps = Vec::with_capacity(ndeps.min(1024) as usize);
        let mut deps_ok = true;
        for _ in 0..ndeps {
            let dp = pass_of(frame(&mut d)?);
            let ds = frame(&mut d)?;
            match dp {
                Some(p) => deps.push(FactKey::new(p, ds)),
                None => deps_ok = false,
            }
        }
        let vlen = frame::<u32>(&mut d)? as usize;
        let value = d.take(vlen).ok_or(SnapshotError::Malformed)?;
        let Some(pass) = pass.filter(|_| deps_ok) else {
            snap.undecodable += 1;
            continue;
        };
        snap.facts.push(ExportedFact {
            key: FactKey::new(pass, scope),
            hash,
            value_hash,
            deps,
            // Same figure `value_footprint` would compute, without
            // decoding: the wire length is already in hand here.
            bytes: 64 + 2 * vlen,
            value: FactCell::persisted(pass, value, value_hash),
        });
    }
    if d.pos != d.buf.len() {
        return Err(SnapshotError::Malformed);
    }
    Ok(snap)
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// then rename.  A crash mid-write leaves the previous snapshot (or no
/// file) — never a torn one under POSIX rename semantics.  The temp name is
/// unique per call (pid + a process-wide counter), so two threads writing
/// one target never share a temp file, and a failed write removes its own.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "snapshot".into()),
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Magic bytes opening every snapshot append-log file.
pub const LOG_MAGIC: [u8; 8] = *b"SUIFSLOG";

/// Append-log format version.  A log whose header carries another version
/// does not apply (the base alone is loaded and the next write folds).
///
/// History: 1 — initial format; 2 — record payloads are facts only,
/// following [`SNAPSHOT_VERSION`] 4; 3 — records may carry `Execute` facts,
/// following [`SNAPSHOT_VERSION`] 5; 4 — `Summarize` records are
/// `Scope::Proc` `ProcFlow`s, following [`SNAPSHOT_VERSION`] 6; 5 — records
/// carry value hashes, following [`SNAPSHOT_VERSION`] 7; 6 — `Execute`
/// records name their dependences' kinds, following [`SNAPSHOT_VERSION`] 8.
pub const LOG_VERSION: u32 = 6;

/// Size of the append-log header: magic · version · base checksum.
pub const LOG_HEADER_LEN: usize = 28;

/// Per-record framing overhead: payload length (u32) · FNV-128 checksum.
const LOG_RECORD_OVERHEAD: usize = 20;

/// The append-log header.  `base_checksum` is the payload checksum recorded
/// in the base snapshot's header ([`file_checksum`]): a log only replays
/// over the exact base image it was appended against, so a crash between a
/// compaction's base rewrite and its log reset leaves a stale log that is
/// ignored, never misapplied.
pub(crate) fn log_header(base_checksum: u128) -> Vec<u8> {
    let mut out = Vec::with_capacity(LOG_HEADER_LEN);
    out.extend_from_slice(&LOG_MAGIC);
    out.extend_from_slice(&LOG_VERSION.to_le_bytes());
    out.extend_from_slice(&base_checksum.to_le_bytes());
    out
}

/// The payload checksum recorded in a snapshot file's header, without
/// decoding the payload.  `None` if the bytes are not a snapshot header.
pub(crate) fn file_checksum(bytes: &[u8]) -> Option<u128> {
    if bytes.len() < 36 || bytes[..8] != SNAPSHOT_MAGIC {
        return None;
    }
    Some(u128::from_le_bytes(bytes[20..36].try_into().unwrap()))
}

/// File name of the base fact snapshot inside a persist directory.
pub const SNAPSHOT_FILE: &str = "facts.snap";

/// File name of the snapshot append-log beside the base image.  Checkpoints
/// append O(delta) framed records here; a compaction folds the log back
/// into a fresh base.
pub const SNAPSHOT_LOG_FILE: &str = "facts.snap.log";

/// Encode one framed append-log record: `len(u32) · FNV-128 checksum ·
/// payload`, where the payload is the shared snapshot body for the delta
/// facts.  Ready to append to an existing log file.
pub(crate) fn encode_log_record(facts: &[ExportedFact]) -> Vec<u8> {
    let payload = encode_payload(facts);
    let checksum = payload_checksum(&payload);
    let mut out = Vec::with_capacity(LOG_RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Replay an append-log file image over a base with payload checksum
/// `base_checksum`, handing each complete record to `apply` in append
/// order.  Returns whether the log is *damaged*: it does not apply at all
/// (missing/foreign header, version mismatch, or a header bound to a
/// different base image — nothing is applied), or a torn or corrupt record
/// ended the replay early (the valid prefix was applied — an interrupted
/// append loses only its own record).
fn replay_log(bytes: &[u8], base_checksum: u128, mut apply: impl FnMut(Snapshot)) -> bool {
    let bound = bytes.len() >= LOG_HEADER_LEN
        && bytes[..8] == LOG_MAGIC
        && bytes[8..12] == LOG_VERSION.to_le_bytes()
        && bytes[12..28] == base_checksum.to_le_bytes();
    if !bound {
        return true;
    }
    let mut pos = LOG_HEADER_LEN;
    while pos < bytes.len() {
        let start = pos + LOG_RECORD_OVERHEAD;
        let Some(head) = bytes.get(pos..start) else {
            return true;
        };
        let len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
        let checksum = u128::from_le_bytes(head[4..].try_into().unwrap());
        let end = start.saturating_add(len);
        let Some(payload) = bytes.get(start..end) else {
            return true;
        };
        if payload_checksum(payload) != checksum {
            return true;
        }
        // A checksummed record that still fails structurally is format
        // drift; stop here like a torn suffix rather than guess.
        let Ok(record) = frame_payload(payload) else {
            return true;
        };
        apply(record);
        pos = end;
    }
    false
}

/// A base snapshot with its append-log replayed over it: the durable image
/// a warm start imports.
pub struct LoadedImage {
    /// Merged facts (log supersedes base per `(key, hash)`; several
    /// hashes may coexist per key), in `(key, hash)` order.
    pub facts: Vec<ExportedFact>,
    /// Entries dropped while framing base and log (unknown pass tags).
    pub undecodable: u64,
    /// Payload checksum of the base image (what a continuing log must bind
    /// to).
    pub base_checksum: u128,
    /// The log did not apply (foreign, or bound to another base) or lost a
    /// torn/corrupt suffix: the next write must fold, not append to it.
    pub log_damaged: bool,
}

/// Frame `base_bytes` and replay `log_bytes` (if any) over it.  Base
/// damage fails the whole load ([`SnapshotError`], caller cold-starts);
/// log damage degrades — an inapplicable log is ignored, a torn one keeps
/// its valid prefix.  Values stay bytes until first read, each in its own
/// copy: the file buffers can go as soon as this returns.
pub fn merge_image(
    base_bytes: &[u8],
    log_bytes: Option<&[u8]>,
) -> Result<LoadedImage, SnapshotError> {
    let base_checksum = file_checksum(base_bytes).unwrap_or_default();
    let base = Snapshot::decode(base_bytes)?;
    // Merge by `(key, hash)`, not key alone: a content-addressed tier
    // legitimately holds several hashes per key (sibling programs sharing
    // stmt ids), and all of them must survive a round trip.  For a
    // key-addressed session store the extra variants are harmless — its
    // expected-hash validation keeps exactly one per key and evicts the
    // rest as stale.
    let mut merged: HashMap<(FactKey, u128), ExportedFact> = base
        .facts
        .into_iter()
        .map(|f| ((f.key, f.hash), f))
        .collect();
    let mut undecodable = base.undecodable;
    let log_damaged = log_bytes.is_some_and(|log| {
        replay_log(log, base_checksum, |record| {
            undecodable += record.undecodable;
            merged.extend(record.facts.into_iter().map(|f| ((f.key, f.hash), f)));
        })
    });
    let mut facts: Vec<ExportedFact> = merged.into_values().collect();
    facts.sort_by_key(|f| (f.key, f.hash));
    Ok(LoadedImage {
        facts,
        undecodable,
        base_checksum,
        log_damaged,
    })
}

fn pass_tag(p: PassId) -> u8 {
    match p {
        PassId::Summarize => 0,
        PassId::Liveness => 1,
        PassId::Classify => 2,
        PassId::Deps => 3,
        PassId::Contract => 4,
        PassId::Decomp => 5,
        PassId::Split => 6,
        PassId::Execute => 7,
    }
}

fn pass_of(tag: u8) -> Option<PassId> {
    Some(match tag {
        0 => PassId::Summarize,
        1 => PassId::Liveness,
        2 => PassId::Classify,
        3 => PassId::Deps,
        4 => PassId::Contract,
        5 => PassId::Decomp,
        6 => PassId::Split,
        7 => PassId::Execute,
        _ => return None,
    })
}

/// The eight fact value types, each with the pass that produces it: their
/// [`FactValue`] impls and the one tag → decoder table.
macro_rules! fact_values {
    ($($pass:ident => $t:ty),* $(,)?) => {
        $(impl FactValue for $t {
            fn pass(&self) -> PassId {
                PassId::$pass
            }
        })*

        /// Decode one value as `pass`'s output type for a program with
        /// `bounds`; `None` drops the entry (degrades to `Absent`).  The value must consume its bytes
        /// exactly — trailing bytes mean a format drift this build does not
        /// understand.
        fn decode_value(
            pass: PassId,
            bytes: &[u8],
            bounds: IdBounds,
        ) -> Option<Arc<dyn FactValue>> {
            match pass {
                $(PassId::$pass => Some(Arc::new(from_bytes::<$t>(bytes, bounds)?)),)*
            }
        }
    };
}

fact_values! {
    Summarize => ProcFlow,
    Liveness => LivenessResult,
    Classify => LoopVerdict,
    Deps => CarriedDeps,
    Contract => Vec<ContractionCandidate>,
    Decomp => DecompFact,
    Split => Vec<BlockSplit>,
    Execute => ExecutionFact,
}

/// One type's wire form: its encoder and its decoder, side by side.
///
/// `decode` reads exactly what `encode` wrote and returns `None` on an
/// underrun, an unknown tag, or any form `encode` never writes, so damaged
/// bytes degrade instead of panicking or being misread.
pub trait Wire {
    /// Append this value's wire form.
    fn encode(&self, e: &mut Enc);
    /// Read one value back.
    fn decode(d: &mut Dec<'_>) -> Option<Self>
    where
        Self: Sized;
}

/// Little-endian byte encoder: the sink every [`Wire::encode`] appends to.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

/// Bounds-checked little-endian byte decoder: the source every
/// [`Wire::decode`] reads from.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    bounds: IdBounds,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec::within(buf, IdBounds::ANY)
    }

    fn within(buf: &'a [u8], bounds: IdBounds) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            bounds,
        }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
}

/// The wire form of `value`.
pub fn to_bytes<T: Wire + ?Sized>(value: &T) -> Vec<u8> {
    let mut e = Enc::default();
    value.encode(&mut e);
    e.buf
}

/// Decode a `T` that spans `bytes` exactly, for a program with `bounds`;
/// `None` on anything else.
fn from_bytes<T: Wire>(bytes: &[u8], bounds: IdBounds) -> Option<T> {
    let mut d = Dec::within(bytes, bounds);
    let value = T::decode(&mut d)?;
    (d.pos == bytes.len()).then_some(value)
}

macro_rules! le_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(d: &mut Dec<'_>) -> Option<Self> {
                let bytes = d.take(std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

le_wire!(u8, u32, i64, u64, u128);

/// Lengths, counts and sizes travel as a `u32`.
impl Wire for usize {
    fn encode(&self, e: &mut Enc) {
        (*self as u32).encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        u32::decode(d).map(|n| n as usize)
    }
}

impl Wire for bool {
    fn encode(&self, e: &mut Enc) {
        u8::from(*self).encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        match u8::decode(d)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for String {
    fn encode(&self, e: &mut Enc) {
        self.len().encode(e);
        e.buf.extend_from_slice(self.as_bytes());
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let n = usize::decode(d)?;
        String::from_utf8(d.take(n)?.to_vec()).ok()
    }
}

/// The id newtypes travel as their `u32`, and decode below their bound.
macro_rules! id_wire {
    ($($t:ident => $bound:ident),*) => {$(
        impl Wire for $t {
            fn encode(&self, e: &mut Enc) {
                self.0.encode(e);
            }
            fn decode(d: &mut Dec<'_>) -> Option<Self> {
                u32::decode(d).filter(|&n| n < d.bounds.$bound).map($t)
            }
        }
    )*};
}

id_wire!(
    ProcId => procs,
    StmtId => stmts,
    VarId => vars,
    CommonId => commons,
    RegionId => regions,
    ArrayId => arrays
);

macro_rules! tuple_wire {
    ($($t:ident),*) => {
        #[allow(non_snake_case)]
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            fn encode(&self, e: &mut Enc) {
                let ($($t,)*) = self;
                $($t.encode(e);)*
            }
            fn decode(d: &mut Dec<'_>) -> Option<Self> {
                Some(($($t::decode(d)?,)*))
            }
        }
    };
}

tuple_wire!(A, B);
tuple_wire!(A, B, C, D);

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, e: &mut Enc) {
        match self {
            None => 0u8.encode(e),
            Some(x) => {
                1u8.encode(e);
                x.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        match u8::decode(d)? {
            0 => Some(None),
            1 => Some(Some(T::decode(d)?)),
            _ => None,
        }
    }
}

/// A carried-dependence entry packs "none" and the kind into one byte, so
/// `DepKind` has no form of its own and this impl stands beside
/// `Option<T>`'s.
impl Wire for Option<DepKind> {
    fn encode(&self, e: &mut Enc) {
        let tag: u8 = match self {
            None => 0,
            Some(DepKind::WriteRead) => 1,
            Some(DepKind::WriteWrite) => 2,
        };
        tag.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        match u8::decode(d)? {
            0 => Some(None),
            1 => Some(Some(DepKind::WriteRead)),
            2 => Some(Some(DepKind::WriteWrite)),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, e: &mut Enc) {
        (**self).encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        T::decode(d).map(Arc::new)
    }
}

/// A count, then the items.  The capacity reserved from the count is
/// capped: a hostile count runs out of bytes long before it runs out of
/// memory.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        self.len().encode(e);
        self.iter().for_each(|x| x.encode(e));
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let n = u32::decode(d)?;
        let mut v = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            v.push(T::decode(d)?);
        }
        Some(v)
    }
}

// Sets and maps travel as a count and their entries in ascending key
// order, and a decoder takes that order only: a key out of order or
// repeated fails the value.

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, e: &mut Enc) {
        self.len().encode(e);
        self.iter().for_each(|x| x.encode(e));
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let mut s = BTreeSet::new();
        for _ in 0..u32::decode(d)? {
            let x = T::decode(d)?;
            if s.last() >= Some(&x) {
                return None;
            }
            s.insert(x);
        }
        Some(s)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, e: &mut Enc) {
        self.len().encode(e);
        for (k, v) in self {
            k.encode(e);
            v.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let mut m = BTreeMap::new();
        for _ in 0..u32::decode(d)? {
            let (k, v) = <(K, V)>::decode(d)?;
            if m.last_key_value().map(|(last, _)| last) >= Some(&k) {
                return None;
            }
            m.insert(k, v);
        }
        Some(m)
    }
}

/// Sorted before framing: a hash map's iteration order is not canonical.
impl<K: Wire + Ord + Hash + Copy, V: Wire> Wire for HashMap<K, V> {
    fn encode(&self, e: &mut Enc) {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by_key(|(k, _)| **k);
        entries.len().encode(e);
        for (k, v) in entries {
            k.encode(e);
            v.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let n = u32::decode(d)?;
        let mut m = HashMap::with_capacity(n.min(1024) as usize);
        let mut last = None;
        for _ in 0..n {
            let (k, v) = <(K, V)>::decode(d)?;
            if last >= Some(k) {
                return None;
            }
            last = Some(k);
            m.insert(k, v);
        }
        Some(m)
    }
}

/// Structs travel as their fields, in the order listed:
/// `struct_wire!(T { field, … })`.
macro_rules! struct_wire {
    ($($t:ident { $($f:ident),* })*) => {$(
        impl Wire for $t {
            fn encode(&self, e: &mut Enc) {
                $(self.$f.encode(e);)*
            }
            fn decode(d: &mut Dec<'_>) -> Option<Self> {
                Some($t { $($f: Wire::decode(d)?),* })
            }
        }
    )*};
}

struct_wire! {
    Section { array, ndims, set }
    SectionSummary { read, exposed, write, must_write }
    RedEntry { op, red, nonred }
    NodeSummary { acc, red }
    LoopIterSummary { sum, index_sym, bounds, step, varying, has_calls }
    LoopExecution { invocations, iterations, total_ops, total_nanos, dynamic_ancestors }
    ExecutionFact { ops, profiled_ops, nanos, loops, carried }
    LoopPlan { private, finalize_last, reductions }
    StaticDep { object, name, vars, sites }
    ContractionCandidate { var, loop_stmt, dim }
    Partitioning { loop_stmt, loop_name, object, object_name, stride, writes }
    DecompConflict { object_name, a, b }
    DecompFact { partitionings, conflicts }
    BlockSplit { block, name, groups }
}

/// Enums travel as a tag byte, then the variant's fields in the order
/// listed: `enum_wire!(T { tag => Variant(field, …) | Variant { field, … } })`.
macro_rules! enum_wire {
    ($($t:ident {
        $($tag:literal => $v:ident $(($($f:ident),*))? $({$($g:ident),*})?),* $(,)?
    })*) => {$(
        impl Wire for $t {
            fn encode(&self, e: &mut Enc) {
                match self {
                    $($t::$v $(($($f),*))? $({$($g),*})? => {
                        $tag.encode(e);
                        $($($f.encode(e);)*)?
                        $($($g.encode(e);)*)?
                    })*
                }
            }
            fn decode(d: &mut Dec<'_>) -> Option<Self> {
                Some(match u8::decode(d)? {
                    $($tag => {
                        $($(let $f = Wire::decode(d)?;)*)?
                        $($(let $g = Wire::decode(d)?;)*)?
                        $t::$v $(($($f),*))? $({$($g),*})?
                    })*
                    _ => return None,
                })
            }
        }
    )*};
}

enum_wire! {
    Scope { 0u8 => Program, 1u8 => Proc(p), 2u8 => Loop(s) }
    Var { 0u8 => Dim(k), 1u8 => Sym(s) }
    ConstraintKind { 0u8 => GeqZero, 1u8 => EqZero }
    ArrayKey { 0u8 => Common(c), 1u8 => Var(v) }
    RedOp { 0u8 => Add, 1u8 => Mul, 2u8 => Min, 3u8 => Max }
    VarClass {
        0u8 => Parallel,
        1u8 => Privatizable { needs_finalization },
        2u8 => Reduction(op),
        3u8 => Dep,
    }
    LoopVerdict {
        0u8 => Parallel { plan, classes },
        1u8 => Sequential { deps, has_io, classes },
    }
    Stride { 0u8 => Elements(n), 1u8 => Irregular }
    LivenessMode { 0u8 => FlowInsensitive, 1u8 => OneBit, 2u8 => Full }
}

/// `constant · count · (var, coefficient)*`, terms in ascending variable
/// order.  The decoder builds the expression in one pass and takes no
/// other order, so a long expression decodes in linear time.
impl Wire for LinExpr {
    fn encode(&self, e: &mut Enc) {
        self.constant_part().encode(e);
        self.num_vars().encode(e);
        self.terms().for_each(|t| t.encode(e));
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let constant = i64::decode(d)?;
        let n = u32::decode(d)?;
        let mut read = 0;
        let terms = std::iter::from_fn(|| {
            let term = (read < n).then(|| <(Var, i64)>::decode(d))??;
            read += 1;
            Some(term)
        });
        let e = LinExpr::from_sorted_terms(constant, terms)?;
        // A torn term ends the list early: only a prefix was read.
        (read == n).then_some(e)
    }
}

/// Rebuilt through the normalizing constructors, which are the identity on
/// the normal form the encoder wrote.
impl Wire for Constraint {
    fn encode(&self, e: &mut Enc) {
        self.kind.encode(e);
        self.expr.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        Some(match ConstraintKind::decode(d)? {
            ConstraintKind::GeqZero => Constraint::geq0(LinExpr::decode(d)?),
            ConstraintKind::EqZero => Constraint::eq0(LinExpr::decode(d)?),
        })
    }
}

/// Rebuilt with `from_parts`, not `push`/`from_constraints`: the encoded
/// parts already went through normalization, subsumption, and widening
/// when first built, and re-running those reductions would change the
/// representation (breaking bit-identical round trips).
impl Wire for Polyhedron {
    fn encode(&self, e: &mut Enc) {
        self.is_proven_empty().encode(e);
        self.is_approximate().encode(e);
        self.constraints().len().encode(e);
        self.constraints().iter().for_each(|c| c.encode(e));
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let (empty, approx) = <(bool, bool)>::decode(d)?;
        Some(Polyhedron::from_parts(Vec::decode(d)?, empty, approx))
    }
}

impl Wire for PolySet {
    fn encode(&self, e: &mut Enc) {
        // The raw set-level flag, not `is_approximate()` (which also folds
        // in the per-disjunct flags written with each disjunct).
        self.set_approximate().encode(e);
        self.disjuncts().len().encode(e);
        self.disjuncts().iter().for_each(|p| p.encode(e));
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let approx = bool::decode(d)?;
        Some(PolySet::from_parts(Vec::decode(d)?, approx))
    }
}

/// One section summary per array, in ascending array order (the array id
/// and dimensionality ride inside each section).
impl Wire for AccessSummary {
    fn encode(&self, e: &mut Enc) {
        self.len().encode(e);
        self.iter().for_each(|(_, s)| s.encode(e));
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let mut a = AccessSummary::empty();
        let mut last = None;
        for _ in 0..u32::decode(d)? {
            let s = SectionSummary::decode(d)?;
            if last >= Some(s.read.array) {
                return None;
            }
            last = Some(s.read.array);
            a.insert(s);
        }
        Some(a)
    }
}

/// `(array, entry)` pairs in ascending array order.
impl Wire for RedSummary {
    fn encode(&self, e: &mut Enc) {
        self.iter().count().encode(e);
        for (id, entry) in self.iter() {
            id.encode(e);
            entry.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let mut r = RedSummary::empty();
        let mut last = None;
        for _ in 0..u32::decode(d)? {
            let (id, entry) = <(ArrayId, RedEntry)>::decode(d)?;
            if last >= Some(id) {
                return None;
            }
            last = Some(id);
            r.insert_entry(id, entry);
        }
        Some(r)
    }
}

/// Decoded compact: equal section sets share one storage, as in a flow
/// the walk produced.
impl Wire for ProcFlow {
    fn encode(&self, e: &mut Enc) {
        self.summary.encode(e);
        self.fresh.encode(e);
        self.stmt_summary.encode(e);
        self.loop_iter.encode(e);
        self.loop_closed_plain.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let mut f = ProcFlow {
            summary: Wire::decode(d)?,
            fresh: Wire::decode(d)?,
            stmt_summary: Wire::decode(d)?,
            loop_iter: Wire::decode(d)?,
            loop_closed_plain: Wire::decode(d)?,
        };
        f.compact();
        Some(f)
    }
}

/// Decoded compact, like [`ProcFlow`]; the run's wall-clock is metadata
/// and decodes as zero.
impl Wire for LivenessResult {
    fn encode(&self, e: &mut Enc) {
        self.mode.encode(e);
        self.written.encode(e);
        self.live_after_write.encode(e);
        self.after_full.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let mut res = LivenessResult {
            mode: Wire::decode(d)?,
            written: Wire::decode(d)?,
            live_after_write: Wire::decode(d)?,
            after_full: Wire::decode(d)?,
            elapsed: Duration::ZERO,
        };
        res.compact();
        Some(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{typed, DecodeStats};

    /// A fact's value as `T`, decoding it if it is still bytes.
    fn read<T: FactValue>(cell: &FactCell) -> Option<Arc<T>> {
        typed(cell, IdBounds::ANY, &mut DecodeStats::default())
    }

    fn verdict_parallel() -> LoopVerdict {
        let mut classes = BTreeMap::new();
        classes.insert(ArrayId(0), VarClass::Parallel);
        classes.insert(
            ArrayId(3),
            VarClass::Privatizable {
                needs_finalization: true,
            },
        );
        classes.insert(ArrayId(7), VarClass::Reduction(RedOp::Max));
        LoopVerdict::Parallel {
            plan: LoopPlan {
                private: vec![ArrayKey::Var(VarId(3))],
                finalize_last: vec![ArrayKey::Common(CommonId(1))],
                reductions: vec![(ArrayKey::Var(VarId(9)), RedOp::Add)],
            },
            classes,
        }
    }

    fn verdict_sequential() -> LoopVerdict {
        LoopVerdict::Sequential {
            deps: vec![StaticDep {
                object: ArrayId(2),
                name: "q".into(),
                vars: vec![VarId(4), VarId(5)],
                sites: vec![(StmtId(11), 3, true, false), (StmtId(12), 4, false, true)],
            }],
            has_io: true,
            classes: BTreeMap::from([(ArrayId(2), VarClass::Dep)]),
        }
    }

    fn sample_section(id: u32) -> Section {
        let poly = Polyhedron::from_constraints([
            Constraint::geq0(LinExpr::var(Var::Dim(0))),
            Constraint::geq0(LinExpr::constant(9).add(&LinExpr::term(Var::Dim(0), -1))),
        ]);
        Section {
            array: ArrayId(id),
            ndims: 1,
            set: PolySet::from_parts(vec![poly], false),
        }
    }

    fn sample_section_summary(id: u32) -> SectionSummary {
        SectionSummary {
            read: sample_section(id),
            exposed: sample_section(id),
            write: sample_section(id),
            must_write: sample_section(id),
        }
    }

    fn sample_proc_flow() -> ProcFlow {
        let mut acc = AccessSummary::empty();
        acc.insert(sample_section_summary(0));
        let mut red = RedSummary::empty();
        red.insert_entry(
            ArrayId(2),
            RedEntry {
                op: Some(RedOp::Add),
                red: sample_section(2),
                nonred: Section::empty(ArrayId(2), 1),
            },
        );
        let node = Arc::new(NodeSummary { acc, red });
        let iter = LoopIterSummary {
            sum: (*node).clone(),
            index_sym: Var::Sym(9),
            bounds: Some((LinExpr::constant(1), LinExpr::var(Var::Sym(2)))),
            step: Some(1),
            varying: (4, 7),
            has_calls: false,
        };
        ProcFlow {
            summary: node.clone(),
            fresh: (4, 7),
            stmt_summary: HashMap::from([(StmtId(3), node.clone())]),
            loop_iter: HashMap::from([(StmtId(3), Arc::new(iter))]),
            loop_closed_plain: HashMap::from([(StmtId(3), Arc::new(node.acc.clone()))]),
        }
    }

    fn sample_liveness() -> LivenessResult {
        let mut after = HashMap::new();
        let mut acc = AccessSummary::empty();
        acc.insert(sample_section_summary(0));
        after.insert(RegionId(1), acc);
        LivenessResult {
            mode: LivenessMode::Full,
            written: HashMap::from([(StmtId(3), BTreeSet::from([ArrayId(0), ArrayId(2)]))]),
            live_after_write: HashMap::from([(StmtId(3), BTreeSet::from([ArrayId(0)]))]),
            after_full: Some(after),
            // Run metadata: must NOT survive the round trip (decodes as zero).
            elapsed: Duration::from_secs(5),
        }
    }

    fn sample_execution() -> ExecutionFact {
        let inner = LoopExecution {
            invocations: 40,
            iterations: 360,
            total_ops: 9_000,
            total_nanos: 123_456,
            dynamic_ancestors: BTreeSet::from([StmtId(9), StmtId(5)]),
        };
        let outer = LoopExecution {
            invocations: 1,
            iterations: 40,
            total_ops: 12_000,
            total_nanos: 200_000,
            dynamic_ancestors: BTreeSet::new(),
        };
        ExecutionFact {
            ops: 12_345,
            profiled_ops: 12_340,
            nanos: 250_000,
            loops: BTreeMap::from([(StmtId(11), inner), (StmtId(5), outer)]),
            // A loop that carried nothing keeps its (empty) entry.
            carried: BTreeMap::from([
                (StmtId(11), BTreeMap::from([(VarId(7), 1), (VarId(2), 6)])),
                (StmtId(5), BTreeMap::new()),
            ]),
        }
    }

    fn fact(pass: PassId, scope: Scope, hash: u128, value: Arc<dyn FactValue>) -> ExportedFact {
        let (bytes, value_hash) = value_footprint(&*value);
        ExportedFact {
            key: FactKey::new(pass, scope),
            hash,
            value_hash,
            deps: vec![FactKey::new(PassId::Summarize, Scope::Program)],
            bytes,
            value: FactCell::new(value),
        }
    }

    fn sample_snapshot() -> Snapshot {
        let mut deps_table = CarriedDeps::new();
        deps_table.insert(ArrayId(1), Some(DepKind::WriteRead));
        deps_table.insert(ArrayId(2), None);
        let decomp = DecompFact {
            partitionings: vec![Partitioning {
                loop_stmt: StmtId(5),
                loop_name: "main/1".into(),
                object: ArrayId(0),
                object_name: "a".into(),
                stride: Stride::Elements(16),
                writes: true,
            }],
            conflicts: vec![DecompConflict {
                object_name: "a".into(),
                a: ("main/1".into(), Stride::Elements(1)),
                b: ("main/2".into(), Stride::Irregular),
            }],
        };
        Snapshot::new(vec![
            fact(
                PassId::Classify,
                Scope::Loop(StmtId(5)),
                0xdead_beef,
                Arc::new(verdict_parallel()),
            ),
            fact(
                PassId::Classify,
                Scope::Loop(StmtId(9)),
                7,
                Arc::new(verdict_sequential()),
            ),
            fact(
                PassId::Deps,
                Scope::Loop(StmtId(5)),
                8,
                Arc::new(deps_table),
            ),
            fact(
                PassId::Contract,
                Scope::Program,
                9,
                Arc::new(vec![ContractionCandidate {
                    var: VarId(1),
                    loop_stmt: StmtId(5),
                    dim: 0,
                }]),
            ),
            fact(PassId::Decomp, Scope::Program, 10, Arc::new(decomp)),
            fact(
                PassId::Split,
                Scope::Program,
                11,
                Arc::new(vec![BlockSplit {
                    block: CommonId(0),
                    name: "blk".into(),
                    groups: vec![vec![ProcId(0)], vec![ProcId(1), ProcId(2)]],
                }]),
            ),
            fact(
                PassId::Summarize,
                Scope::Proc(ProcId(0)),
                1,
                Arc::new(sample_proc_flow()),
            ),
            fact(
                PassId::Liveness,
                Scope::Program,
                2,
                Arc::new(sample_liveness()),
            ),
            fact(
                PassId::Execute,
                Scope::Program,
                3,
                Arc::new(sample_execution()),
            ),
        ])
    }

    #[test]
    fn golden_round_trip_is_bit_identical() {
        let snap = sample_snapshot();
        assert_eq!(snap.facts.len(), 9, "every pass is encodable");
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.undecodable, 0);
        assert_eq!(back.facts.len(), snap.facts.len());
        for (a, b) in snap.facts.iter().zip(back.facts.iter()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.hash, b.hash);
            assert_eq!(a.value_hash, b.value_hash);
            assert_eq!(a.deps, b.deps);
        }
        // Values re-encode to the same bytes (bit-identical round trip).
        assert_eq!(back.encode(), bytes);
        // Verdict content survives.
        let classify = back
            .facts
            .iter()
            .find(|f| f.key == FactKey::new(PassId::Classify, Scope::Loop(StmtId(5))))
            .unwrap();
        let v = read::<LoopVerdict>(&classify.value).expect("classify decodes to a verdict");
        assert_eq!(format!("{v:?}"), format!("{:?}", verdict_parallel()));
        // The procedure's flow survives structurally.
        let summarize = back
            .facts
            .iter()
            .find(|f| f.key.pass == PassId::Summarize)
            .unwrap();
        assert_eq!(summarize.key.scope, Scope::Proc(ProcId(0)));
        let pf = read::<ProcFlow>(&summarize.value).expect("summarize decodes to a procedure flow");
        let want = sample_proc_flow();
        assert_eq!(pf.summary.acc.len(), want.summary.acc.len());
        assert_eq!(pf.fresh, (4, 7));
        assert_eq!(pf.stmt_summary.len(), 1);
        assert_eq!(pf.loop_iter[&StmtId(3)].step, Some(1));
        assert!(pf.loop_closed_plain.contains_key(&StmtId(3)));
        // Liveness flows survive; run metadata does not.
        let liveness = back
            .facts
            .iter()
            .find(|f| f.key.pass == PassId::Liveness)
            .unwrap();
        let lr = read::<LivenessResult>(&liveness.value).expect("liveness decodes to a result");
        assert!(matches!(lr.mode, LivenessMode::Full));
        assert_eq!(lr.written[&StmtId(3)].len(), 2);
        assert!(lr.after_full.as_ref().unwrap().contains_key(&RegionId(1)));
        assert_eq!(lr.elapsed, Duration::ZERO);
        // The run survives whole — its wall-clock is data, not metadata.
        let execute = back
            .facts
            .iter()
            .find(|f| f.key.pass == PassId::Execute)
            .unwrap();
        let run =
            read::<ExecutionFact>(&execute.value).expect("execute decodes to an execution fact");
        assert_eq!(*run, sample_execution());
    }

    #[test]
    fn type_mismatched_value_degrades_to_undecodable() {
        // A value filed under another pass's key frames empty, which fails
        // to decode and drops that one entry — never the file, never a
        // misread.
        let snap = Snapshot::new(vec![
            fact(
                PassId::Summarize,
                Scope::Program,
                1,
                Arc::new(sample_execution()),
            ),
            // An empty candidate list would read as an empty block-split
            // list byte for byte; the pass check is what refuses it.
            fact(
                PassId::Split,
                Scope::Program,
                2,
                Arc::new(Vec::<ContractionCandidate>::new()),
            ),
            fact(
                PassId::Execute,
                Scope::Loop(StmtId(1)),
                3,
                Arc::new(sample_execution()),
            ),
        ]);
        assert_eq!(snap.facts.len(), 3);
        let back = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back.undecodable, 0, "every entry frames");
        let decoded: Vec<Scope> = (back.facts.iter())
            .filter(|f| f.value.value().is_some())
            .map(|f| f.key.scope)
            .collect();
        assert_eq!(
            decoded,
            vec![Scope::Loop(StmtId(1))],
            "only the well-typed neighbour decodes"
        );
    }

    /// A framed value stays bytes: it re-encodes to exactly the bytes it
    /// was read as without decoding, and its first read decodes it once.
    #[test]
    fn a_value_still_in_bytes_re_encodes_without_decoding() {
        let bytes = sample_snapshot().encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert!(back.facts.iter().all(|f| !f.value.is_decoded()));
        assert_eq!(back.encode(), bytes);
        assert!(
            back.facts.iter().all(|f| !f.value.is_decoded()),
            "encoding decoded nothing"
        );
        let classify = back.facts.iter().find(|f| f.key.pass == PassId::Classify);
        let cell = &classify.unwrap().value;
        let mut ledger = DecodeStats::default();
        assert!(typed::<LoopVerdict>(cell, IdBounds::ANY, &mut ledger).is_some());
        assert!(typed::<LoopVerdict>(&cell.clone(), IdBounds::ANY, &mut ledger).is_some());
        assert_eq!(ledger.values_decoded, 1, "one decode, shared by clones");
        assert!(cell.is_decoded());
        assert_eq!(back.encode(), bytes);
    }

    /// A value that names an id the reading program does not have does not
    /// decode for it, and stays the bytes it was read as; within the
    /// program's bounds the same bytes decode.
    #[test]
    fn a_value_naming_an_id_past_the_programs_bounds_reads_as_nothing() {
        let bytes = sample_snapshot().encode();
        let deps = || {
            let back = Snapshot::decode(&bytes).unwrap();
            let f = back.facts.into_iter().find(|f| f.key.pass == PassId::Deps);
            f.unwrap().value
        };
        // The carried-dependence table names arrays 1 and 2.
        let past = IdBounds {
            arrays: 2,
            ..IdBounds::ANY
        };
        let cell = deps();
        let wire = cell.wire_bytes();
        assert!(typed::<CarriedDeps>(&cell, past, &mut DecodeStats::default()).is_none());
        assert_eq!(cell.wire_bytes(), wire, "a refused value keeps its bytes");
        let within = IdBounds {
            arrays: 3,
            ..IdBounds::ANY
        };
        let table = typed::<CarriedDeps>(&deps(), within, &mut DecodeStats::default());
        assert_eq!(table.expect("decodes within the bounds").len(), 2);
    }

    /// Decoding takes the canonical form only, in one pass: a long
    /// expression round-trips in linear time, and a term list out of order,
    /// repeated or holding a zero coefficient decodes to nothing.
    #[test]
    fn linear_expressions_decode_in_one_pass_and_only_canonically() {
        let long =
            LinExpr::from_sorted_terms(7, (0..200_000u32).map(|s| (Var::Sym(s), 3))).unwrap();
        let mut flow = sample_proc_flow();
        let mut iter = (*flow.loop_iter[&StmtId(3)]).clone();
        iter.bounds = Some((LinExpr::constant(1), long.clone()));
        flow.loop_iter.insert(StmtId(3), Arc::new(iter));
        let snap = Snapshot::new(vec![fact(
            PassId::Summarize,
            Scope::Proc(ProcId(0)),
            1,
            Arc::new(flow),
        )]);
        let bytes = snap.encode();
        let t0 = std::time::Instant::now();
        let back = Snapshot::decode(&bytes).unwrap();
        let pf = read::<ProcFlow>(&back.facts[0].value).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        assert!(secs < 5.0, "200 000 terms took {secs:.2} s to decode");
        assert_eq!(back.undecodable, 0);
        assert_eq!(back.encode(), bytes);
        assert_eq!(pf.loop_iter[&StmtId(3)].bounds.as_ref().unwrap().1, long);

        let expr = |terms: &[(u32, i64)]| {
            let mut e = Enc::default();
            5i64.encode(&mut e);
            terms.len().encode(&mut e);
            for &(s, c) in terms {
                (Var::Sym(s), c).encode(&mut e);
            }
            e.buf
        };
        let sorted = from_bytes::<LinExpr>(&expr(&[(1, 2), (4, -1)]), IdBounds::ANY);
        assert_eq!(sorted.unwrap().coef(Var::Sym(4)), -1);
        for bad in [&[(4, 2), (1, -1)][..], &[(1, 2), (1, 1)], &[(1, 0)]] {
            assert!(
                from_bytes::<LinExpr>(&expr(bad), IdBounds::ANY).is_none(),
                "{bad:?}"
            );
        }
        assert!(from_bytes::<LinExpr>(&expr(&[(1, 2), (4, -1)])[..20], IdBounds::ANY).is_none());
    }

    /// Map and set keys decode in the one order the encoder writes.
    #[test]
    fn keys_out_of_order_or_repeated_are_undecodable() {
        let framed = |keys: &[u32]| {
            let mut e = Enc::default();
            keys.len().encode(&mut e);
            keys.iter().for_each(|k| k.encode(&mut e));
            e.buf
        };
        assert!(from_bytes::<BTreeSet<VarId>>(&framed(&[1, 2]), IdBounds::ANY).is_some());
        for bad in [&[2, 1][..], &[1, 1]] {
            assert!(from_bytes::<BTreeSet<VarId>>(&framed(bad), IdBounds::ANY).is_none());
        }
        let summaries = |ids: &[u32]| {
            let mut e = Enc::default();
            ids.len().encode(&mut e);
            ids.iter()
                .for_each(|&id| sample_section_summary(id).encode(&mut e));
            e.buf
        };
        assert!(from_bytes::<AccessSummary>(&summaries(&[0, 2]), IdBounds::ANY).is_some());
        assert!(from_bytes::<AccessSummary>(&summaries(&[2, 0]), IdBounds::ANY).is_none());
        let entries = |ids: &[u32]| {
            let mut e = Enc::default();
            ids.len().encode(&mut e);
            ids.iter().for_each(|&id| (StmtId(id), 7u64).encode(&mut e));
            e.buf
        };
        assert!(from_bytes::<HashMap<StmtId, u64>>(&entries(&[3, 4]), IdBounds::ANY).is_some());
        for bad in [&[4, 3][..], &[3, 3]] {
            assert!(from_bytes::<HashMap<StmtId, u64>>(&entries(bad), IdBounds::ANY).is_none());
            assert!(from_bytes::<BTreeMap<StmtId, u64>>(&entries(bad), IdBounds::ANY).is_none());
        }
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample_snapshot().encode();

        assert!(matches!(
            Snapshot::decode(&bytes[..10]),
            Err(SnapshotError::TooShort)
        ));
        // Truncated payload (torn write).
        assert!(matches!(
            Snapshot::decode(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::Truncated)
        ));
        // Bad magic.
        let mut b = bytes.clone();
        b[0] ^= 0xff;
        assert!(matches!(Snapshot::decode(&b), Err(SnapshotError::BadMagic)));
        // Future version.
        let mut b = bytes.clone();
        b[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&b),
            Err(SnapshotError::BadVersion(_))
        ));
        // Any single payload bit flip fails the checksum.
        for probe in [36usize, 40, bytes.len() / 2, bytes.len() - 1] {
            let mut b = bytes.clone();
            b[probe] ^= 0x01;
            assert!(
                matches!(Snapshot::decode(&b), Err(SnapshotError::BadChecksum)),
                "flip at {probe} must fail the checksum"
            );
        }
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("suif_snap_unit_{}", std::process::id()));
        let path = dir.join("facts.snap");
        let bytes = sample_snapshot().encode();
        write_atomic(&path, &bytes).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // Overwrite with a different snapshot; the file is replaced whole.
        let small = Snapshot::default().encode();
        write_atomic(&path, &small).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), small);
        // No temp files left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
