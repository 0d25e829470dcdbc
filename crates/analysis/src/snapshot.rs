//! Durable fact-store snapshots: a versioned, checksummed binary encoding
//! of the store's keys, input hashes, dependency edges, and fact values.
//! This is what lets a daemon restart warm (§2: the analysis state of an
//! interactive session must outlive any one process).
//!
//! # What is persisted
//!
//! Facts, and nothing else.  Every pass has a codec: classify verdicts
//! ([`crate::LoopVerdict`]), carried-dependence tables
//! ([`crate::deps::CarriedDeps`]), the three advisories (contraction,
//! decomposition, block splits), the two
//! passes that dominate a cold analysis — `<R,E,W,M>` array-section summaries
//! (one [`crate::summarize::ProcFlow`] per procedure) and liveness flows
//! ([`crate::liveness::LivenessResult`]) — and the instrumented run that
//! dominates a cold open ([`crate::ExecutionFact`]: loop profile and dynamic
//! dependences, wall-clock of the producing run included — it is the fact's
//! data, not metadata about it).  The summary/flow wire form is
//! canonical: hash maps are framed in sorted-key order and polyhedra are
//! written constraint-for-constraint (PR 5 normalizes constraints on
//! construction, so decode re-normalization is the identity), which makes
//! `encode(decode(x)) == x` hold bit-for-bit and lets tests compare facts
//! by their encodings.  Nondeterministic run metadata (a pass's own
//! wall-clock) is deliberately outside the wire form.
//!
//! # Crash safety
//!
//! The file layout is `magic · version · payload-length · FNV-128 checksum ·
//! payload`.  [`write_atomic`] writes a temp file in the same directory and
//! renames it over the target, so a crash mid-write leaves either the old
//! snapshot or none.  [`Snapshot::decode`] verifies magic, version, length,
//! and checksum before touching the payload; any mismatch is a
//! [`SnapshotError`] and the caller cold-starts.  A fact entry that decodes
//! to an unknown pass or a malformed value is dropped individually
//! (degrading that fact to `Absent`), never served wrong.
//!
//! Entries loaded into a key-addressed store must additionally be
//! re-validated against freshly computed input hashes
//! ([`crate::Parallelizer::expected_fact_hashes`]) before import — the
//! snapshot records what *was* true, the hash check proves it still is.
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
use std::any::Any;
use std::collections::{BTreeSet, HashMap};
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
/// mis-frame under this build's codec.
pub const SNAPSHOT_VERSION: u32 = 6;

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

/// An in-memory snapshot: facts ready to encode to (or just decoded from)
/// the wire format.
#[derive(Default)]
pub struct Snapshot {
    /// Facts, in deterministic key order.
    pub facts: Vec<ExportedFact>,
    /// Entries dropped during decode because their pass tag or value bytes
    /// were not understood (each degrades to `Absent`).
    pub undecodable: u64,
}

/// Approximate resident bytes of one fact value, by pass: `64 + 2×` the
/// length of its wire form.
///
/// An estimate, not a measurement.  The in-memory form follows the wire
/// length only as long as the large values stay compact (`ProcFlow` and
/// `LivenessResult` hash-cons their section sets; uncompacted, they held
/// 3–4× this figure).  `tests/fact_heap.rs` holds the sum over a tier to
/// 0.75–2× of the live heap its facts occupy.  Used by the
/// [`crate::FactStore`] and [`crate::SharedFactTier`] byte budgets.
pub fn approx_value_bytes(pass: PassId, value: &Arc<dyn Any + Send + Sync>) -> usize {
    let mut e = Enc::default();
    encode_value(pass, value, &mut e);
    64 + 2 * e.buf.len()
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

    /// Decode a complete file byte stream, verifying magic, version,
    /// length, and checksum.  Individual entries with unknown pass tags or
    /// malformed value bytes are dropped (counted in
    /// [`Snapshot::undecodable`]); structural damage to the payload framing
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
        decode_payload(payload)
    }
}

/// Encode a fact set to the shared payload body (no header, no checksum) —
/// the unit both a whole snapshot and one append-log record frame.
fn encode_payload(facts: &[ExportedFact]) -> Vec<u8> {
    let mut p = Enc::default();
    p.u32(facts.len() as u32);
    for f in facts {
        p.u8(pass_tag(f.key.pass));
        p.scope(f.key.scope);
        p.u128(f.hash);
        p.u32(f.deps.len() as u32);
        for d in &f.deps {
            p.u8(pass_tag(d.pass));
            p.scope(d.scope);
        }
        let mut v = Enc::default();
        encode_value(f.key.pass, &f.value, &mut v);
        p.u32(v.buf.len() as u32);
        p.buf.extend_from_slice(&v.buf);
    }
    p.buf
}

/// Decode one payload body (a whole snapshot's or one log record's).
fn decode_payload(payload: &[u8]) -> Result<Snapshot, SnapshotError> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let mut snap = Snapshot::default();
    let nfacts = d.u32().ok_or(SnapshotError::Malformed)?;
    for _ in 0..nfacts {
        let pass_byte = d.u8().ok_or(SnapshotError::Malformed)?;
        let scope = d.scope().ok_or(SnapshotError::Malformed)?;
        let hash = d.u128().ok_or(SnapshotError::Malformed)?;
        let ndeps = d.u32().ok_or(SnapshotError::Malformed)?;
        let mut deps = Vec::with_capacity(ndeps.min(1024) as usize);
        let mut deps_ok = true;
        for _ in 0..ndeps {
            let dp = d.u8().ok_or(SnapshotError::Malformed)?;
            let ds = d.scope().ok_or(SnapshotError::Malformed)?;
            match pass_of(dp) {
                Some(p) => deps.push(FactKey::new(p, ds)),
                None => deps_ok = false,
            }
        }
        let vlen = d.u32().ok_or(SnapshotError::Malformed)? as usize;
        let vbytes = d.take(vlen).ok_or(SnapshotError::Malformed)?;
        let Some(pass) = pass_of(pass_byte).filter(|_| deps_ok) else {
            snap.undecodable += 1;
            continue;
        };
        match decode_value(pass, vbytes) {
            Some(value) => {
                // Same figure `approx_value_bytes` would compute, without
                // re-encoding: the wire length is already in hand here.
                let bytes = 64 + 2 * vlen;
                snap.facts.push(ExportedFact {
                    key: FactKey::new(pass, scope),
                    hash,
                    deps,
                    bytes,
                    value,
                });
            }
            None => snap.undecodable += 1,
        }
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
/// `Scope::Proc` `ProcFlow`s, following [`SNAPSHOT_VERSION`] 6.
pub const LOG_VERSION: u32 = 4;

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

/// Replay an append-log byte stream over a base with payload checksum
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
        let Some(payload) = bytes.get(start..start.saturating_add(len)) else {
            return true;
        };
        if payload_checksum(payload) != checksum {
            return true;
        }
        // A checksummed record that still fails structurally is format
        // drift; stop here like a torn suffix rather than guess.
        let Ok(record) = decode_payload(payload) else {
            return true;
        };
        apply(record);
        pos = start + len;
    }
    false
}

/// A base snapshot with its append-log replayed over it: the durable image
/// a warm start imports.
pub struct LoadedImage {
    /// Merged facts (log supersedes base per `(key, hash)`; several
    /// hashes may coexist per key), in `(key, hash)` order.
    pub facts: Vec<ExportedFact>,
    /// Per-entry decode degradations across base and log.
    pub undecodable: u64,
    /// Payload checksum of the base image (what a continuing log must bind
    /// to).
    pub base_checksum: u128,
    /// The log did not apply (foreign, or bound to another base) or lost a
    /// torn/corrupt suffix: the next write must fold, not append to it.
    pub log_damaged: bool,
}

/// Decode `base_bytes` and replay `log_bytes` (if any) over it.  Base
/// damage fails the whole load ([`SnapshotError`], caller cold-starts);
/// log damage degrades — an inapplicable log is ignored, a torn one keeps
/// its valid prefix.
pub fn merge_image(
    base_bytes: &[u8],
    log_bytes: Option<&[u8]>,
) -> Result<LoadedImage, SnapshotError> {
    let base = Snapshot::decode(base_bytes)?;
    let base_checksum = file_checksum(base_bytes).expect("decoded snapshot has a header");
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

/// Little-endian byte encoder.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn scope(&mut self, s: Scope) {
        match s {
            Scope::Program => self.u8(0),
            Scope::Proc(p) => {
                self.u8(1);
                self.u32(p.0);
            }
            Scope::Loop(s) => {
                self.u8(2);
                self.u32(s.0);
            }
        }
    }
    fn var(&mut self, v: Var) {
        match v {
            Var::Dim(d) => {
                self.u8(0);
                self.u8(d);
            }
            Var::Sym(s) => {
                self.u8(1);
                self.u32(s);
            }
        }
    }
    fn lin_expr(&mut self, e: &LinExpr) {
        self.i64(e.constant_part());
        self.u32(e.num_vars() as u32);
        for (v, c) in e.terms() {
            self.var(v);
            self.i64(c);
        }
    }
    fn constraint(&mut self, c: &Constraint) {
        self.u8(match c.kind {
            ConstraintKind::GeqZero => 0,
            ConstraintKind::EqZero => 1,
        });
        self.lin_expr(&c.expr);
    }
    fn array_key(&mut self, k: &ArrayKey) {
        match k {
            ArrayKey::Common(c) => {
                self.u8(0);
                self.u32(c.0);
            }
            ArrayKey::Var(v) => {
                self.u8(1);
                self.u32(v.0);
            }
        }
    }
    fn red_op(&mut self, op: RedOp) {
        self.u8(match op {
            RedOp::Add => 0,
            RedOp::Mul => 1,
            RedOp::Min => 2,
            RedOp::Max => 3,
        });
    }
    fn var_class(&mut self, c: &VarClass) {
        match c {
            VarClass::Parallel => self.u8(0),
            VarClass::Privatizable { needs_finalization } => {
                self.u8(1);
                self.u8(*needs_finalization as u8);
            }
            VarClass::Reduction(op) => {
                self.u8(2);
                self.red_op(*op);
            }
            VarClass::Dep => self.u8(3),
        }
    }
    fn classes(&mut self, m: &std::collections::BTreeMap<ArrayId, VarClass>) {
        self.u32(m.len() as u32);
        for (id, c) in m {
            self.u32(id.0);
            self.var_class(c);
        }
    }
    fn stride(&mut self, s: &Stride) {
        match s {
            Stride::Elements(n) => {
                self.u8(0);
                self.i64(*n);
            }
            Stride::Irregular => self.u8(1),
        }
    }
    fn polyset(&mut self, s: &PolySet) {
        // The raw set-level flag, not `is_approximate()` (which also folds
        // in the per-disjunct flags written below).
        self.u8(s.set_approximate() as u8);
        self.u32(s.disjuncts().len() as u32);
        for p in s.disjuncts() {
            self.u8(p.is_proven_empty() as u8);
            self.u8(p.is_approximate() as u8);
            self.u32(p.constraints().len() as u32);
            for c in p.constraints() {
                self.constraint(c);
            }
        }
    }
    fn section(&mut self, s: &Section) {
        self.u32(s.array.0);
        self.u8(s.ndims);
        self.polyset(&s.set);
    }
    fn section_summary(&mut self, s: &SectionSummary) {
        self.section(&s.read);
        self.section(&s.exposed);
        self.section(&s.write);
        self.section(&s.must_write);
    }
    fn access_summary(&mut self, a: &AccessSummary) {
        // `iter` walks ascending array ids, so the frame order is canonical;
        // the array id and dimensionality ride inside each section.
        self.u32(a.len() as u32);
        for (_, s) in a.iter() {
            self.section_summary(s);
        }
    }
    fn red_summary(&mut self, r: &RedSummary) {
        let entries: Vec<_> = r.iter().collect();
        self.u32(entries.len() as u32);
        for (id, e) in entries {
            self.u32(id.0);
            match e.op {
                None => self.u8(0),
                Some(op) => {
                    self.u8(1);
                    self.red_op(op);
                }
            }
            self.section(&e.red);
            self.section(&e.nonred);
        }
    }
    fn node_summary(&mut self, n: &NodeSummary) {
        self.access_summary(&n.acc);
        self.red_summary(&n.red);
    }
    fn loop_iter_summary(&mut self, l: &LoopIterSummary) {
        self.node_summary(&l.sum);
        self.var(l.index_sym);
        match &l.bounds {
            None => self.u8(0),
            Some((first, last)) => {
                self.u8(1);
                self.lin_expr(first);
                self.lin_expr(last);
            }
        }
        match l.step {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.i64(s);
            }
        }
        self.u32(l.varying.0);
        self.u32(l.varying.1);
        self.u8(l.has_calls as u8);
    }
    /// Frame every map of the flow in sorted-key order (the maps hash, so
    /// iteration order is not canonical on its own).
    fn proc_flow(&mut self, f: &ProcFlow) {
        self.node_summary(&f.summary);
        self.u32(f.fresh.0);
        self.u32(f.fresh.1);
        let mut stmts: Vec<_> = f.stmt_summary.iter().collect();
        stmts.sort_by_key(|(s, _)| s.0);
        self.u32(stmts.len() as u32);
        for (s, n) in stmts {
            self.u32(s.0);
            self.node_summary(n);
        }
        let mut iters: Vec<_> = f.loop_iter.iter().collect();
        iters.sort_by_key(|(s, _)| s.0);
        self.u32(iters.len() as u32);
        for (s, l) in iters {
            self.u32(s.0);
            self.loop_iter_summary(l);
        }
        let mut plain: Vec<_> = f.loop_closed_plain.iter().collect();
        plain.sort_by_key(|(s, _)| s.0);
        self.u32(plain.len() as u32);
        for (s, a) in plain {
            self.u32(s.0);
            self.access_summary(a);
        }
    }
    /// The ordered maps and sets iterate in `StmtId`/`VarId` order, so the
    /// frame order is canonical as it stands.
    fn execution(&mut self, x: &ExecutionFact) {
        self.u64(x.ops);
        self.u64(x.profiled_ops);
        self.u64(x.nanos);
        self.u32(x.loops.len() as u32);
        for (s, l) in &x.loops {
            self.u32(s.0);
            self.u64(l.invocations);
            self.u64(l.iterations);
            self.u64(l.total_ops);
            self.u64(l.total_nanos);
            self.u32(l.dynamic_ancestors.len() as u32);
            for a in &l.dynamic_ancestors {
                self.u32(a.0);
            }
        }
        self.u32(x.carried.len() as u32);
        for (s, vars) in &x.carried {
            self.u32(s.0);
            self.u32(vars.len() as u32);
            for v in vars {
                self.u32(v.0);
            }
        }
    }
    fn stmt_arrays(&mut self, m: &HashMap<StmtId, BTreeSet<ArrayId>>) {
        let mut entries: Vec<_> = m.iter().collect();
        entries.sort_by_key(|(s, _)| s.0);
        self.u32(entries.len() as u32);
        for (s, ids) in entries {
            self.u32(s.0);
            self.u32(ids.len() as u32);
            for id in ids {
                self.u32(id.0);
            }
        }
    }
}

/// Bounds-checked little-endian byte decoder; every method returns `None`
/// on underrun or an invalid tag, so damage degrades instead of panicking.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    fn bool_val(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn string(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }
    fn scope(&mut self) -> Option<Scope> {
        Some(match self.u8()? {
            0 => Scope::Program,
            1 => Scope::Proc(ProcId(self.u32()?)),
            2 => Scope::Loop(StmtId(self.u32()?)),
            _ => return None,
        })
    }
    fn var(&mut self) -> Option<Var> {
        Some(match self.u8()? {
            0 => Var::Dim(self.u8()?),
            1 => Var::Sym(self.u32()?),
            _ => return None,
        })
    }
    fn lin_expr(&mut self) -> Option<LinExpr> {
        let c = self.i64()?;
        let n = self.u32()?;
        let mut e = LinExpr::constant(c);
        for _ in 0..n {
            let v = self.var()?;
            let coef = self.i64()?;
            e = e.add(&LinExpr::term(v, coef));
        }
        Some(e)
    }
    fn constraint(&mut self) -> Option<Constraint> {
        let kind = self.u8()?;
        let expr = self.lin_expr()?;
        Some(match kind {
            0 => Constraint::geq0(expr),
            1 => Constraint::eq0(expr),
            _ => return None,
        })
    }
    fn array_key(&mut self) -> Option<ArrayKey> {
        Some(match self.u8()? {
            0 => ArrayKey::Common(CommonId(self.u32()?)),
            1 => ArrayKey::Var(VarId(self.u32()?)),
            _ => return None,
        })
    }
    fn red_op(&mut self) -> Option<RedOp> {
        Some(match self.u8()? {
            0 => RedOp::Add,
            1 => RedOp::Mul,
            2 => RedOp::Min,
            3 => RedOp::Max,
            _ => return None,
        })
    }
    fn var_class(&mut self) -> Option<VarClass> {
        Some(match self.u8()? {
            0 => VarClass::Parallel,
            1 => VarClass::Privatizable {
                needs_finalization: self.bool_val()?,
            },
            2 => VarClass::Reduction(self.red_op()?),
            3 => VarClass::Dep,
            _ => return None,
        })
    }
    fn classes(&mut self) -> Option<std::collections::BTreeMap<ArrayId, VarClass>> {
        let n = self.u32()?;
        let mut m = std::collections::BTreeMap::new();
        for _ in 0..n {
            let id = ArrayId(self.u32()?);
            m.insert(id, self.var_class()?);
        }
        Some(m)
    }
    fn stride(&mut self) -> Option<Stride> {
        Some(match self.u8()? {
            0 => Stride::Elements(self.i64()?),
            1 => Stride::Irregular,
            _ => return None,
        })
    }
    fn polyset(&mut self) -> Option<PolySet> {
        let approx = self.bool_val()?;
        let n = self.u32()?;
        let mut disjuncts = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            let empty = self.bool_val()?;
            let papprox = self.bool_val()?;
            let ncs = self.u32()?;
            let mut cs = Vec::with_capacity(ncs.min(1024) as usize);
            for _ in 0..ncs {
                cs.push(self.constraint()?);
            }
            // `from_parts`, not `push`/`from_constraints`: the encoded parts
            // already went through normalization, subsumption, and widening
            // when first built, and re-running those reductions would change
            // the representation (breaking bit-identical round trips).
            disjuncts.push(Polyhedron::from_parts(cs, empty, papprox));
        }
        Some(PolySet::from_parts(disjuncts, approx))
    }
    fn section(&mut self) -> Option<Section> {
        let array = ArrayId(self.u32()?);
        let ndims = self.u8()?;
        let set = self.polyset()?;
        Some(Section { array, ndims, set })
    }
    fn section_summary(&mut self) -> Option<SectionSummary> {
        Some(SectionSummary {
            read: self.section()?,
            exposed: self.section()?,
            write: self.section()?,
            must_write: self.section()?,
        })
    }
    fn access_summary(&mut self) -> Option<AccessSummary> {
        let n = self.u32()?;
        let mut a = AccessSummary::empty();
        for _ in 0..n {
            a.insert(self.section_summary()?);
        }
        Some(a)
    }
    fn red_summary(&mut self) -> Option<RedSummary> {
        let n = self.u32()?;
        let mut r = RedSummary::empty();
        for _ in 0..n {
            let id = ArrayId(self.u32()?);
            let op = match self.u8()? {
                0 => None,
                1 => Some(self.red_op()?),
                _ => return None,
            };
            let red = self.section()?;
            let nonred = self.section()?;
            r.insert_entry(id, RedEntry { op, red, nonred });
        }
        Some(r)
    }
    fn node_summary(&mut self) -> Option<NodeSummary> {
        Some(NodeSummary {
            acc: self.access_summary()?,
            red: self.red_summary()?,
        })
    }
    fn loop_iter_summary(&mut self) -> Option<LoopIterSummary> {
        let sum = self.node_summary()?;
        let index_sym = self.var()?;
        let bounds = match self.u8()? {
            0 => None,
            1 => Some((self.lin_expr()?, self.lin_expr()?)),
            _ => return None,
        };
        let step = match self.u8()? {
            0 => None,
            1 => Some(self.i64()?),
            _ => return None,
        };
        let varying = (self.u32()?, self.u32()?);
        let has_calls = self.bool_val()?;
        Some(LoopIterSummary {
            sum,
            index_sym,
            bounds,
            step,
            varying,
            has_calls,
        })
    }
    fn proc_flow(&mut self) -> Option<ProcFlow> {
        let mut f = ProcFlow {
            summary: Arc::new(self.node_summary()?),
            fresh: (self.u32()?, self.u32()?),
            ..ProcFlow::default()
        };
        for _ in 0..self.u32()? {
            let s = StmtId(self.u32()?);
            f.stmt_summary.insert(s, Arc::new(self.node_summary()?));
        }
        for _ in 0..self.u32()? {
            let s = StmtId(self.u32()?);
            f.loop_iter.insert(s, Arc::new(self.loop_iter_summary()?));
        }
        for _ in 0..self.u32()? {
            let s = StmtId(self.u32()?);
            f.loop_closed_plain
                .insert(s, Arc::new(self.access_summary()?));
        }
        Some(f)
    }
    fn execution(&mut self) -> Option<ExecutionFact> {
        let mut x = ExecutionFact {
            ops: self.u64()?,
            profiled_ops: self.u64()?,
            nanos: self.u64()?,
            ..ExecutionFact::default()
        };
        for _ in 0..self.u32()? {
            let s = StmtId(self.u32()?);
            let mut l = LoopExecution {
                invocations: self.u64()?,
                iterations: self.u64()?,
                total_ops: self.u64()?,
                total_nanos: self.u64()?,
                dynamic_ancestors: BTreeSet::new(),
            };
            for _ in 0..self.u32()? {
                l.dynamic_ancestors.insert(StmtId(self.u32()?));
            }
            x.loops.insert(s, l);
        }
        for _ in 0..self.u32()? {
            let s = StmtId(self.u32()?);
            let mut vars = BTreeSet::new();
            for _ in 0..self.u32()? {
                vars.insert(VarId(self.u32()?));
            }
            x.carried.insert(s, vars);
        }
        Some(x)
    }
    fn stmt_arrays(&mut self) -> Option<HashMap<StmtId, BTreeSet<ArrayId>>> {
        let n = self.u32()?;
        let mut m = HashMap::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            let s = StmtId(self.u32()?);
            let k = self.u32()?;
            let mut ids = BTreeSet::new();
            for _ in 0..k {
                ids.insert(ArrayId(self.u32()?));
            }
            m.insert(s, ids);
        }
        Some(m)
    }
}

fn encode_verdict(v: &LoopVerdict, e: &mut Enc) {
    match v {
        LoopVerdict::Parallel { plan, classes } => {
            e.u8(0);
            e.u32(plan.private.len() as u32);
            for k in &plan.private {
                e.array_key(k);
            }
            e.u32(plan.finalize_last.len() as u32);
            for k in &plan.finalize_last {
                e.array_key(k);
            }
            e.u32(plan.reductions.len() as u32);
            for (k, op) in &plan.reductions {
                e.array_key(k);
                e.red_op(*op);
            }
            e.classes(classes);
        }
        LoopVerdict::Sequential {
            deps,
            has_io,
            classes,
        } => {
            e.u8(1);
            e.u32(deps.len() as u32);
            for d in deps {
                e.u32(d.object.0);
                e.string(&d.name);
                e.u32(d.vars.len() as u32);
                for v in &d.vars {
                    e.u32(v.0);
                }
                e.u32(d.sites.len() as u32);
                for (s, line, w, call) in &d.sites {
                    e.u32(s.0);
                    e.u32(*line);
                    e.u8(*w as u8);
                    e.u8(*call as u8);
                }
            }
            e.u8(*has_io as u8);
            e.classes(classes);
        }
    }
}

fn decode_verdict(d: &mut Dec<'_>) -> Option<LoopVerdict> {
    Some(match d.u8()? {
        0 => {
            let mut plan = LoopPlan::default();
            for _ in 0..d.u32()? {
                plan.private.push(d.array_key()?);
            }
            for _ in 0..d.u32()? {
                plan.finalize_last.push(d.array_key()?);
            }
            for _ in 0..d.u32()? {
                let k = d.array_key()?;
                plan.reductions.push((k, d.red_op()?));
            }
            LoopVerdict::Parallel {
                plan,
                classes: d.classes()?,
            }
        }
        1 => {
            let ndeps = d.u32()?;
            let mut deps = Vec::with_capacity(ndeps.min(1024) as usize);
            for _ in 0..ndeps {
                let object = ArrayId(d.u32()?);
                let name = d.string()?;
                let mut vars = Vec::new();
                for _ in 0..d.u32()? {
                    vars.push(VarId(d.u32()?));
                }
                let mut sites = Vec::new();
                for _ in 0..d.u32()? {
                    let s = StmtId(d.u32()?);
                    let line = d.u32()?;
                    let w = d.bool_val()?;
                    let call = d.bool_val()?;
                    sites.push((s, line, w, call));
                }
                deps.push(StaticDep {
                    object,
                    name,
                    vars,
                    sites,
                });
            }
            let has_io = d.bool_val()?;
            LoopVerdict::Sequential {
                deps,
                has_io,
                classes: d.classes()?,
            }
        }
        _ => return None,
    })
}

/// Encode one fact value; the pass selects the concrete type behind the
/// `Any`.  A type mismatch encodes an empty payload, which decodes to
/// `None` and drops the entry — degradation, not corruption.
fn encode_value(pass: PassId, value: &Arc<dyn Any + Send + Sync>, e: &mut Enc) {
    match pass {
        PassId::Classify => {
            if let Some(v) = value.downcast_ref::<LoopVerdict>() {
                encode_verdict(v, e);
            }
        }
        PassId::Deps => {
            if let Some(v) = value.downcast_ref::<CarriedDeps>() {
                e.u32(v.len() as u32);
                for (id, kind) in v {
                    e.u32(id.0);
                    e.u8(match kind {
                        None => 0,
                        Some(DepKind::WriteRead) => 1,
                        Some(DepKind::WriteWrite) => 2,
                    });
                }
            }
        }
        PassId::Contract => {
            if let Some(v) = value.downcast_ref::<Vec<ContractionCandidate>>() {
                e.u32(v.len() as u32);
                for c in v {
                    e.u32(c.var.0);
                    e.u32(c.loop_stmt.0);
                    e.u32(c.dim as u32);
                }
            }
        }
        PassId::Decomp => {
            if let Some(v) = value.downcast_ref::<DecompFact>() {
                e.u32(v.partitionings.len() as u32);
                for p in &v.partitionings {
                    e.u32(p.loop_stmt.0);
                    e.string(&p.loop_name);
                    e.u32(p.object.0);
                    e.string(&p.object_name);
                    e.stride(&p.stride);
                    e.u8(p.writes as u8);
                }
                e.u32(v.conflicts.len() as u32);
                for c in &v.conflicts {
                    e.string(&c.object_name);
                    e.string(&c.a.0);
                    e.stride(&c.a.1);
                    e.string(&c.b.0);
                    e.stride(&c.b.1);
                }
            }
        }
        PassId::Split => {
            if let Some(v) = value.downcast_ref::<Vec<BlockSplit>>() {
                e.u32(v.len() as u32);
                for s in v {
                    e.u32(s.block.0);
                    e.string(&s.name);
                    e.u32(s.groups.len() as u32);
                    for g in &s.groups {
                        e.u32(g.len() as u32);
                        for p in g {
                            e.u32(p.0);
                        }
                    }
                }
            }
        }
        PassId::Summarize => {
            if let Some(v) = value.downcast_ref::<ProcFlow>() {
                e.proc_flow(v);
            }
        }
        PassId::Liveness => {
            if let Some(v) = value.downcast_ref::<LivenessResult>() {
                e.u8(match v.mode {
                    LivenessMode::FlowInsensitive => 0,
                    LivenessMode::OneBit => 1,
                    LivenessMode::Full => 2,
                });
                e.stmt_arrays(&v.written);
                e.stmt_arrays(&v.live_after_write);
                match &v.after_full {
                    None => e.u8(0),
                    Some(m) => {
                        e.u8(1);
                        let mut entries: Vec<_> = m.iter().collect();
                        entries.sort_by_key(|(r, _)| r.0);
                        e.u32(entries.len() as u32);
                        for (r, a) in entries {
                            e.u32(r.0);
                            e.access_summary(a);
                        }
                    }
                }
            }
        }
        PassId::Execute => {
            if let Some(v) = value.downcast_ref::<ExecutionFact>() {
                e.execution(v);
            }
        }
    }
}

/// Decode one fact value; `None` drops the entry (degrades to `Absent`).
/// The value must consume its byte slice exactly — trailing bytes mean a
/// format drift this build does not understand.
fn decode_value(pass: PassId, bytes: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
    let mut d = Dec { buf: bytes, pos: 0 };
    let value: Arc<dyn Any + Send + Sync> = match pass {
        PassId::Classify => Arc::new(decode_verdict(&mut d)?),
        PassId::Deps => {
            let n = d.u32()?;
            let mut m = CarriedDeps::new();
            for _ in 0..n {
                let id = ArrayId(d.u32()?);
                let kind = match d.u8()? {
                    0 => None,
                    1 => Some(DepKind::WriteRead),
                    2 => Some(DepKind::WriteWrite),
                    _ => return None,
                };
                m.insert(id, kind);
            }
            Arc::new(m)
        }
        PassId::Contract => {
            let n = d.u32()?;
            let mut v = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                let var = VarId(d.u32()?);
                let loop_stmt = StmtId(d.u32()?);
                let dim = d.u32()? as usize;
                v.push(ContractionCandidate {
                    var,
                    loop_stmt,
                    dim,
                });
            }
            Arc::new(v)
        }
        PassId::Decomp => {
            let n = d.u32()?;
            let mut partitionings = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                let loop_stmt = StmtId(d.u32()?);
                let loop_name = d.string()?;
                let object = ArrayId(d.u32()?);
                let object_name = d.string()?;
                let stride = d.stride()?;
                let writes = d.bool_val()?;
                partitionings.push(Partitioning {
                    loop_stmt,
                    loop_name,
                    object,
                    object_name,
                    stride,
                    writes,
                });
            }
            let n = d.u32()?;
            let mut conflicts = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                let object_name = d.string()?;
                let a = (d.string()?, d.stride()?);
                let b = (d.string()?, d.stride()?);
                conflicts.push(DecompConflict { object_name, a, b });
            }
            Arc::new(DecompFact {
                partitionings,
                conflicts,
            })
        }
        PassId::Split => {
            let n = d.u32()?;
            let mut v = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                let block = CommonId(d.u32()?);
                let name = d.string()?;
                let ngroups = d.u32()?;
                let mut groups = Vec::with_capacity(ngroups.min(1024) as usize);
                for _ in 0..ngroups {
                    let mut g = Vec::new();
                    for _ in 0..d.u32()? {
                        g.push(ProcId(d.u32()?));
                    }
                    groups.push(g);
                }
                v.push(BlockSplit {
                    block,
                    name,
                    groups,
                });
            }
            Arc::new(v)
        }
        PassId::Summarize => {
            let mut flow = d.proc_flow()?;
            flow.compact();
            Arc::new(flow)
        }
        PassId::Liveness => {
            let mode = match d.u8()? {
                0 => LivenessMode::FlowInsensitive,
                1 => LivenessMode::OneBit,
                2 => LivenessMode::Full,
                _ => return None,
            };
            let written = d.stmt_arrays()?;
            let live_after_write = d.stmt_arrays()?;
            let after_full = match d.u8()? {
                0 => None,
                1 => {
                    let n = d.u32()?;
                    let mut m = HashMap::with_capacity(n.min(1024) as usize);
                    for _ in 0..n {
                        let r = RegionId(d.u32()?);
                        m.insert(r, d.access_summary()?);
                    }
                    Some(m)
                }
                _ => return None,
            };
            let mut res = LivenessResult {
                mode,
                written,
                live_after_write,
                after_full,
                elapsed: Duration::ZERO,
            };
            res.compact();
            Arc::new(res)
        }
        PassId::Execute => Arc::new(d.execution()?),
    };
    if d.pos != bytes.len() {
        return None;
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
                (StmtId(11), BTreeSet::from([VarId(7), VarId(2)])),
                (StmtId(5), BTreeSet::new()),
            ]),
        }
    }

    fn fact(
        pass: PassId,
        scope: Scope,
        hash: u128,
        value: Arc<dyn Any + Send + Sync>,
    ) -> ExportedFact {
        let bytes = approx_value_bytes(pass, &value);
        ExportedFact {
            key: FactKey::new(pass, scope),
            hash,
            deps: vec![FactKey::new(PassId::Summarize, Scope::Program)],
            bytes,
            value,
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
        let v = classify
            .value
            .downcast_ref::<LoopVerdict>()
            .expect("classify decodes to a verdict");
        assert_eq!(format!("{v:?}"), format!("{:?}", verdict_parallel()));
        // The procedure's flow survives structurally.
        let summarize = back
            .facts
            .iter()
            .find(|f| f.key.pass == PassId::Summarize)
            .unwrap();
        assert_eq!(summarize.key.scope, Scope::Proc(ProcId(0)));
        let pf = summarize
            .value
            .downcast_ref::<ProcFlow>()
            .expect("summarize decodes to a procedure flow");
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
        let lr = liveness
            .value
            .downcast_ref::<LivenessResult>()
            .expect("liveness decodes to a result");
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
        let run = execute
            .value
            .downcast_ref::<ExecutionFact>()
            .expect("execute decodes to an execution fact");
        assert_eq!(run, &sample_execution());
    }

    #[test]
    fn type_mismatched_value_degrades_to_undecodable() {
        // A wrong concrete type behind the `Any` encodes an empty payload,
        // which fails to decode and drops the one entry — never the file.
        let snap = Snapshot::new(vec![
            fact(PassId::Summarize, Scope::Program, 1, Arc::new(0u64)),
            fact(PassId::Execute, Scope::Program, 2, Arc::new(0u64)),
            fact(
                PassId::Execute,
                Scope::Loop(StmtId(1)),
                3,
                Arc::new(sample_execution()),
            ),
        ]);
        assert_eq!(snap.facts.len(), 3);
        let back = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back.facts.len(), 1, "the well-typed neighbour survives");
        assert_eq!(back.undecodable, 2);
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
