//! The demand-driven pass pipeline: a [`Pass`] trait plus a per-session,
//! region-granular [`FactStore`], and the [`ExecutorService`] command pool.
//!
//! Every analysis driver (summaries, liveness, per-loop carried-dependence
//! tables ([`crate::deps`]) and classification, and the demand-only
//! advisories in [`crate::contract`], [`crate::decomp`], [`crate::split`])
//! is expressed as a pass producing one *fact* per scope — the whole
//! program, one procedure, or one loop region.
//! The store memoizes facts under a `(PassId, Scope)` key together with the
//! 128-bit content hash of the pass inputs ([`crate::cache`] keys extended
//! to region granularity), so a demand is answered three ways:
//!
//! 1. **reuse** — a valid entry whose input hash matches is returned as-is
//!    (counted in [`PassMetrics::reused`]);
//! 2. **recompute** — a missing, stale-hash, or invalidated entry runs the
//!    pass, times it, and overwrites the entry;
//! 3. **invalidate** — an external event (a user assertion, an edit) marks
//!    one fact dirty; the recorded dependency edges propagate to every fact
//!    that transitively depends on it, so the next demand recomputes exactly
//!    the dirty cone.
//!
//! # Early cutoff
//!
//! Every stored fact also carries a *value hash*: the hash of its canonical
//! wire form ([`crate::snapshot::value_footprint`], computed from the same
//! encoding that sizes the entry).  [`FactStore::demand_cell`] hands it
//! back with the fact, and a pass above the per-procedure summaries folds
//! the value hashes of the facts it reads into its own input hash instead
//! of their inputs' text.  A recomputed fact that comes out equal therefore
//! leaves every reader's input hash where it was, and the readers are
//! reused: an edit recomputes its cone only as far as values change (the
//! "verifying traces with early cutoff" of *Build Systems à la Carte*).
//!
//! # One session, one thread
//!
//! A store belongs to one session (or one `corpus` job), and a session runs
//! one request at a time on one thread.  So the store is one map behind one
//! lock, and a demand is: lock, look up (reuse, or the shared tier); unlock;
//! run the pass; lock, insert.  The lock is never held across a run, since
//! a pass demands its own inputs.  It exists only because a session moves
//! between pool workers and the Explorer shares the store by `Arc`, so the
//! store must be `Sync`; nothing contends for it.  Threads meet only in the
//! [`SharedFactTier`], which keeps its shards.
//!
//! Facts are stored as [`FactCell`]s so heterogeneous pass outputs share
//! one map: a [`FactValue`] knows its own wire form (the byte ledger and
//! [`crate::snapshot`] read it) and names its pass, and one downcast
//! (`typed`) reads it back as the pass's output type.  All methods take
//! `&self` — the store is shared across the analysis runs and reloads of
//! one daemon session, and a clone of it is another handle to the same
//! facts.
//!
//! # A value decodes on first read
//!
//! A fact imported from a persisted image keeps its wire bytes until
//! something reads its value, and `typed` is the one place it decodes —
//! once, whoever reads first.  A demand that only needs to know a fact is
//! current ([`FactStore::demand_cell`]: the analysis driver, which keys
//! the facts above on value hashes the image already records) decodes
//! nothing.  Bytes that pass the image's checksum and still do not hash
//! to their recorded value hash, or do not decode within the ids of the
//! program analyzed over the store (`snapshot::IdBounds`, set by
//! each analysis), are dropped from the store and the tier at that
//! read, counted in [`DecodeStats::undecodable`], and the demand
//! recomputes the fact like any miss.

use crate::snapshot::{FactCell, FactValue, IdBounds};
use crate::tier::SharedFactTier;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use suif_ir::{ProcId, StmtId};

/// Identity of an analysis pass (one per driver ported onto the pipeline).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PassId {
    /// Bottom-up interprocedural array data-flow summaries.
    Summarize,
    /// Interprocedural array liveness.
    Liveness,
    /// Per-loop parallelization verdict.
    Classify,
    /// Per-loop carried-dependence table (read by `Classify` and `slice`).
    Deps,
    /// Array-contraction candidates (demand-only).
    Contract,
    /// Data-decomposition advisory (demand-only).
    Decomp,
    /// Common-block live-range splits (demand-only).
    Split,
    /// The instrumented run: loop profile and dynamic dependences
    /// ([`crate::execution`]; the producing pass lives in `suif-explorer`).
    Execute,
}

impl PassId {
    /// Every pass, in pipeline order.
    pub const ALL: [PassId; 8] = [
        PassId::Summarize,
        PassId::Liveness,
        PassId::Classify,
        PassId::Deps,
        PassId::Contract,
        PassId::Decomp,
        PassId::Split,
        PassId::Execute,
    ];

    /// Stable lower-case name (used in the daemon's `stats` payload).
    pub fn name(self) -> &'static str {
        match self {
            PassId::Summarize => "summarize",
            PassId::Liveness => "liveness",
            PassId::Classify => "classify",
            PassId::Deps => "deps",
            PassId::Contract => "contract",
            PassId::Decomp => "decomp",
            PassId::Split => "split",
            PassId::Execute => "execute",
        }
    }
}

/// The region a fact describes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Scope {
    /// The whole program.
    Program,
    /// One procedure.
    Proc(ProcId),
    /// One loop region, named by its `do` statement.
    Loop(StmtId),
}

/// The key of one fact: which pass, over which region.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FactKey {
    /// The producing pass.
    pub pass: PassId,
    /// The region analyzed.
    pub scope: Scope,
}

impl FactKey {
    /// Shorthand constructor.
    pub fn new(pass: PassId, scope: Scope) -> FactKey {
        FactKey { pass, scope }
    }
}

/// One schedulable unit of analysis.
///
/// A pass is a *pure function of its input hash*: two demands with the same
/// [`Pass::key`] and [`Pass::input_hash`] must produce interchangeable
/// outputs.  [`Pass::deps`] declares the facts this one reads, recorded as
/// dependency edges for [`FactStore::invalidate`].
pub trait Pass {
    /// The fact type this pass produces.
    type Output: Send + Sync + 'static;

    /// Where the fact lives in the store.
    fn key(&self) -> FactKey;

    /// Content hash of everything the output depends on.
    fn input_hash(&self) -> u128;

    /// Keys of the facts this pass reads (dependency edges).
    fn deps(&self) -> Vec<FactKey> {
        Vec::new()
    }

    /// Compute the fact.
    fn run(&self) -> Self::Output;
}

/// Per-pass counters: how often it ran, how often a demand was served from
/// the store, and the seconds spent in [`Pass::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PassMetrics {
    /// Times [`Pass::run`] executed.
    pub invocations: u64,
    /// Demands answered by a valid, hash-matching entry.
    pub reused: u64,
    /// Demands answered from the process-wide [`SharedFactTier`] (another
    /// session computed the fact under the same content hash).
    pub shared: u64,
    /// Total seconds inside [`Pass::run`], less the nested runs of the
    /// facts it demanded (each counted once, under its own pass).
    pub secs: f64,
}

struct FactEntry {
    hash: u128,
    /// Hash of the value's wire form: what readers of this fact key on.
    value_hash: u128,
    value: FactCell,
    deps: Vec<FactKey>,
    /// Cleared by invalidation.  An invalid entry under an unchanged hash
    /// is a tombstone: it pins its key tier-bypassed until the hash moves.
    valid: bool,
    /// Approximate resident bytes of `value` (budget accounting).
    bytes: usize,
    /// Second-chance bit: set on every reuse, cleared by a passing
    /// eviction sweep.
    referenced: bool,
}

/// One fact lifted out of (or injected into) the store: key, input hash,
/// value hash, dependency edges, and the value.  Produced by
/// [`FactStore::export`], consumed by [`FactStore::import`] and the
/// snapshot codec ([`crate::snapshot`]).
#[derive(Clone)]
pub struct ExportedFact {
    /// The fact's store key.
    pub key: FactKey,
    /// The input hash the value was computed under.
    pub hash: u128,
    /// Hash of the value's wire form
    /// ([`crate::snapshot::value_footprint`]).
    pub value_hash: u128,
    /// Recorded dependency edges (facts this one reads).
    pub deps: Vec<FactKey>,
    /// Approximate resident bytes of the value
    /// ([`crate::snapshot::value_footprint`]).
    pub bytes: usize,
    /// The fact value, exactly as stored (decoded, or still bytes).
    pub value: FactCell,
}

/// The value hash recorded for each `(key, input hash)` pair of a set of
/// facts: what the warm-start validator reads
/// ([`crate::Parallelizer::expected_fact_hashes`]).
pub type RecordedValues = HashMap<(FactKey, u128), u128>;

/// The recorded value hashes of `facts`.
pub fn recorded_values(facts: &[ExportedFact]) -> RecordedValues {
    facts
        .iter()
        .map(|f| ((f.key, f.hash), f.value_hash))
        .collect()
}

/// What the reads through one [`FactStore`] decoded of persisted values
/// (the daemon's `stats.snapshot` fields).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DecodeStats {
    /// Persisted values these reads decoded.
    pub values_decoded: u64,
    /// Seconds spent decoding them.
    pub decode_secs: f64,
    /// Persisted values whose bytes did not match their recorded value
    /// hash or did not decode: each was dropped from the store and the
    /// tier, and recomputed.
    pub undecodable: u64,
}

/// A stored fact value as its pass's output type, `None` if it is another
/// type or its bytes do not decode for a program with `bounds`: the one
/// downcast the store makes (a reuse, a tier hit, an analysis reading a
/// handle), through the value's `Any` supertrait, and the one place a
/// persisted value decodes.  A decode this read performs is charged to
/// `ledger`.
pub(crate) fn typed<T: FactValue>(
    cell: &FactCell,
    bounds: IdBounds,
    ledger: &mut DecodeStats,
) -> Option<Arc<T>> {
    let (value, secs) = cell.read(bounds);
    if let Some(secs) = secs {
        ledger.values_decoded += 1;
        ledger.decode_secs += secs;
    }
    let any: Arc<dyn std::any::Any + Send + Sync> = value?;
    any.downcast().ok()
}

/// How a demand hands its fact back: decoded as the pass's output type
/// ([`FactStore::demand`]), or as the stored cell, undecoded
/// ([`FactStore::demand_cell`]).
trait Answer<T: FactValue>: Sized {
    /// A stored `key` fact as this answer; `None` if it is not `key`'s
    /// pass's value (or, decoded, its bytes do not decode).
    fn found(
        cell: &FactCell,
        key: FactKey,
        bounds: IdBounds,
        ledger: &mut DecodeStats,
    ) -> Option<Self>;
    /// A value just computed, and the cell it is stored in.
    fn computed(value: Arc<T>, cell: &FactCell) -> Self;
}

impl<T: FactValue> Answer<T> for Arc<T> {
    fn found(
        cell: &FactCell,
        _: FactKey,
        bounds: IdBounds,
        ledger: &mut DecodeStats,
    ) -> Option<Arc<T>> {
        typed(cell, bounds, ledger)
    }
    fn computed(value: Arc<T>, _: &FactCell) -> Arc<T> {
        value
    }
}

impl<T: FactValue> Answer<T> for FactCell {
    fn found(cell: &FactCell, key: FactKey, _: IdBounds, _: &mut DecodeStats) -> Option<FactCell> {
        (cell.pass() == key.pass).then(|| cell.clone())
    }
    fn computed(_: Arc<T>, cell: &FactCell) -> FactCell {
        cell.clone()
    }
}

/// Everything a [`FactStore`] holds, behind its one lock.
#[derive(Default)]
struct StoreState {
    facts: HashMap<FactKey, FactEntry>,
    metrics: BTreeMap<PassId, PassMetrics>,
    /// When set, only the assertion-independent passes (`Summarize`,
    /// `Liveness`, `Deps`) are published to the tier; everything else stays
    /// in the session-private overlay (see [`FactStore::set_assert_local`]).
    assert_local: bool,
    /// Session id credited for tier publishes (fairness accounting);
    /// `0` until [`FactStore::set_owner`] is called.
    owner: u64,
    /// Approximate byte budget for resident facts; `0` = unbounded.
    budget: usize,
    /// Approximate resident bytes of `facts`.
    resident: usize,
    /// The keys of `facts`, in the order the eviction sweep visits them:
    /// its clock hand is the front.
    clock: VecDeque<FactKey>,
    evicted: u64,
    evicted_bytes: u64,
    decoded: DecodeStats,
    /// The ids of the program analyzed over this store: a persisted value
    /// read here decodes within them.
    bounds: IdBounds,
}

impl StoreState {
    /// Insert (or replace) one entry, keeping `resident` and `clock` in step.
    fn insert(&mut self, key: FactKey, entry: FactEntry) {
        self.resident += entry.bytes;
        match self.facts.insert(key, entry) {
            Some(prev) => self.resident -= prev.bytes,
            None => self.clock.push_back(key),
        }
    }

    /// Drop one entry whose value did not decode, and its tier copy.
    fn drop_undecodable(&mut self, key: FactKey, tier: Option<&SharedFactTier>) {
        if let Some(e) = self.facts.remove(&key) {
            self.resident -= e.bytes;
            self.clock.retain(|k| *k != key);
            self.decoded.undecodable += 1;
            if let Some(tier) = tier {
                tier.discard(key.pass, e.hash, &e.value);
            }
        }
    }

    /// Second-chance sweep: while over budget, take keys off the clock
    /// hand (at most two laps), sparing entries referenced since the last
    /// visit and dropping cold ones; every key spared goes to the back.
    /// Invalid entries are never touched — a fact invalidated under an
    /// unchanged hash is a tombstone pinning its key tier-bypassed, and
    /// evicting it would let the next demand trust the tier again.
    fn evict_over_budget(&mut self) {
        let budget = self.budget;
        let mut visits = 2 * self.clock.len();
        while budget != 0 && self.resident > budget && visits > 0 {
            visits -= 1;
            let Some(key) = self.clock.pop_front() else {
                return;
            };
            let e = self.facts.get_mut(&key).expect("every clock key is stored");
            if !e.valid || std::mem::take(&mut e.referenced) {
                self.clock.push_back(key);
                continue;
            }
            let bytes = e.bytes;
            self.facts.remove(&key);
            self.resident -= bytes;
            self.evicted += 1;
            self.evicted_bytes += bytes as u64;
        }
    }
}

/// A memoizing store of analysis facts keyed by `(pass, scope)`, owned by
/// one session.  See the module docs for why it is one locked map.
///
/// Built with [`FactStore::with_shared`], the store becomes a thin
/// *overlay* over a process-wide [`SharedFactTier`]: a local miss consults
/// the tier by `(pass, input-hash)` before computing, and a locally
/// computed clean fact is published back so other sessions (other overlay
/// stores over the same tier) never recompute it.  Invalidation stays
/// strictly local: [`FactStore::invalidate`] dirties overlay entries only,
/// and a fact invalidated under an *unchanged* hash additionally pins that
/// key tier-bypassed (and unpublishable) — the event was not captured by
/// the hash, so the tier copy cannot be trusted for it either.
///
/// Cloning a store gives another handle to the same facts (an analysis
/// keeps one to read its summaries on demand).
#[derive(Clone, Default)]
pub struct FactStore {
    state: Arc<Mutex<StoreState>>,
    /// The process-wide content-addressed tier under this overlay (multi-
    /// tenant daemon); `None` for a self-contained store.
    shared: Option<Arc<SharedFactTier>>,
}

/// Byte-accounting snapshot of one [`FactStore`] (the daemon's
/// `stats.facts` memory fields).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreByteStats {
    /// Approximate resident fact bytes.
    pub resident_bytes: u64,
    /// Configured byte budget (`None` = unbounded).
    pub budget: Option<u64>,
    /// Entries evicted by the budget sweep.
    pub evicted: u64,
    /// Approximate bytes reclaimed by eviction.
    pub evicted_bytes: u64,
}

std::thread_local! {
    /// Seconds spent in [`Pass::run`]s nested inside the run in progress on
    /// this thread (a `Classify` run demanding its loop's `Deps`).
    static NESTED_RUN_SECS: std::cell::Cell<f64> = const { std::cell::Cell::new(0.0) };
}

/// Run `run`, returning its result and the seconds it took *minus* the
/// runs of the facts it demanded: those are charged to their own pass, so
/// per-pass `secs` never count a nested run twice.  The caller's own
/// enclosing run, if any, sees the whole duration as nested.
fn exclusive_secs<R>(run: impl FnOnce() -> R) -> (R, f64) {
    let outer = NESTED_RUN_SECS.with(|n| n.replace(0.0));
    let t0 = Instant::now();
    let out = run();
    let total = t0.elapsed().as_secs_f64();
    let nested = NESTED_RUN_SECS.with(|n| n.replace(outer + total));
    (out, total - nested)
}

impl FactStore {
    /// An empty store.
    pub fn new() -> FactStore {
        FactStore::default()
    }

    /// An empty overlay store backed by a process-wide [`SharedFactTier`]:
    /// local misses consult the tier by content hash, and clean local
    /// results are published back (see [`FactStore::demand`]).
    pub fn with_shared(tier: Arc<SharedFactTier>) -> FactStore {
        FactStore {
            shared: Some(tier),
            ..FactStore::default()
        }
    }

    /// The shared tier this overlay store consults, if any.
    pub fn shared_tier(&self) -> Option<&Arc<SharedFactTier>> {
        self.shared.as_ref()
    }

    /// Tag tier publishes from this store with the owning session's id
    /// (drives the tier's per-session accounting and eviction fairness).
    pub fn set_owner(&self, session_id: u64) {
        self.state.lock().owner = session_id;
    }

    /// Set (or clear, with `None`) the approximate byte budget for resident
    /// facts.  Over-budget demands trigger a second-chance eviction sweep
    /// of cold entries.
    pub fn set_budget(&self, budget: Option<usize>) {
        let mut st = self.state.lock();
        st.budget = budget.unwrap_or(0);
        st.evict_over_budget();
    }

    /// Mark this store assertion-tainted (or clean again): while set, only
    /// the assertion-independent passes (`Summarize`, `Liveness`, `Deps`,
    /// whose input hashes never fold assertion marks) are published to the
    /// shared tier, so one tenant's `assert` never leaks into another's
    /// verdicts.
    /// Tier *reads* stay allowed either way — assertion-dependent passes
    /// fold resolved assertion marks into their input hashes, so a hash
    /// match is a semantic match.
    pub fn set_assert_local(&self, tainted: bool) {
        self.state.lock().assert_local = tainted;
    }

    /// Byte-accounting counters (resident bytes, budget, evictions).
    pub fn byte_stats(&self) -> StoreByteStats {
        let st = self.state.lock();
        StoreByteStats {
            resident_bytes: st.resident as u64,
            budget: (st.budget != 0).then_some(st.budget as u64),
            evicted: st.evicted,
            evicted_bytes: st.evicted_bytes,
        }
    }

    /// The reads through this store that decoded persisted values.
    pub fn decode_stats(&self) -> DecodeStats {
        self.state.lock().decoded
    }

    /// Name the program analyzed over this store: persisted values read
    /// from now on decode only within its ids.
    pub(crate) fn set_id_bounds(&self, bounds: IdBounds) {
        self.state.lock().bounds = bounds;
    }

    /// `cell`'s value as `T`, decoding it if it is still bytes; `None` if
    /// it does not decode (a demand of the fact then recomputes it).
    pub fn read<T: FactValue>(&self, cell: &FactCell) -> Option<Arc<T>> {
        let st = &mut *self.state.lock();
        typed(cell, st.bounds, &mut st.decoded)
    }

    /// Demand a fact: reuse a valid entry whose input hash matches, consult
    /// the process-wide [`SharedFactTier`] (if the store was built with
    /// [`FactStore::with_shared`]), or run the pass, recording its output
    /// (with dependency edges).
    pub fn demand<P: Pass>(&self, pass: &P) -> Arc<P::Output>
    where
        P::Output: FactValue,
    {
        self.infallible(pass).0
    }

    /// Demand a fact without reading its value: a current entry (or tier
    /// fact) comes back as it is stored — still bytes if it was persisted —
    /// with its value hash (what a pass reading the fact folds into its own
    /// input hash); a miss runs the pass.  Counted like
    /// [`FactStore::demand`].  A reader of the cell goes through
    /// [`FactStore::read`], and demands the fact again if that fails.
    pub fn demand_cell<P: Pass>(&self, pass: &P) -> (FactCell, u128)
    where
        P::Output: FactValue,
    {
        self.infallible(pass)
    }

    fn infallible<P: Pass, R: Answer<P::Output>>(&self, pass: &P) -> (R, u128)
    where
        P::Output: FactValue,
    {
        let done: Result<_, std::convert::Infallible> = self.demand_with(pass, || Ok(pass.run()));
        match done {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    /// [`FactStore::demand`] for a pass whose computation can fail (its
    /// output is a `Result`): the fact is the `Ok` value.  A failed run goes
    /// back to this demander alone — nothing is stored, published or
    /// exported, and the next demand runs again.
    pub fn try_demand<P, T, E>(&self, pass: &P) -> Result<Arc<T>, E>
    where
        P: Pass<Output = Result<T, E>>,
        T: FactValue,
    {
        self.demand_with(pass, || pass.run()).map(|(v, _)| v)
    }

    fn demand_with<P: Pass, T: FactValue, R: Answer<T>, E>(
        &self,
        pass: &P,
        run: impl FnOnce() -> Result<T, E>,
    ) -> Result<(R, u128), E> {
        let key = pass.key();
        let hash = pass.input_hash();
        // Whether the shared tier may serve (and later receive) this fact.
        // A local entry invalidated under this *same* hash means the
        // invalidation event was not captured by the hash — the tier's copy
        // under that hash is equally untrustworthy, so bypass it and keep
        // the recomputed value out of it.  A stale hash (the program
        // changed under the key) or no entry at all leaves the tier sound.
        let tier_allowed = {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            let tier_allowed = match st.facts.get_mut(&key) {
                Some(e) if e.hash == hash && e.valid => {
                    e.referenced = true;
                    let (cell, value_hash) = (e.value.clone(), e.value_hash);
                    if let Some(found) = R::found(&cell, key, st.bounds, &mut st.decoded) {
                        st.metrics.entry(key.pass).or_default().reused += 1;
                        return Ok((found, value_hash));
                    }
                    // Bytes that do not decode (or a value of another
                    // pass): a stale entry in disguise; recompute below.
                    st.drop_undecodable(key, self.shared.as_deref());
                    true
                }
                Some(e) => e.hash != hash,
                None => true,
            };
            // The tier's locks are leaves: it never calls back into a store.
            let tier_hit = (self.shared.as_ref())
                .filter(|_| tier_allowed)
                .and_then(|tier| tier.lookup(key.pass, hash));
            if let Some(f) = tier_hit {
                if let Some(found) = R::found(&f.value, key, st.bounds, &mut st.decoded) {
                    st.insert(
                        key,
                        FactEntry {
                            hash,
                            value_hash: f.value_hash,
                            value: f.value,
                            deps: f.deps,
                            valid: true,
                            bytes: f.bytes,
                            referenced: true,
                        },
                    );
                    st.metrics.entry(key.pass).or_default().shared += 1;
                    st.evict_over_budget();
                    return Ok((found, f.value_hash));
                }
                if let Some(tier) = &self.shared {
                    st.decoded.undecodable += 1;
                    tier.discard(key.pass, hash, &f.value);
                }
            }
            tier_allowed
        };
        // Run unlocked: a pass demands its own inputs.  A failed run leaves
        // through `?` with the store untouched.
        let (out, secs) = exclusive_secs(run);
        let out = Arc::new(out?);
        let deps = pass.deps();
        let (bytes, value_hash) = crate::snapshot::value_footprint(&*out);
        let value = FactCell::from(out.clone());
        let answer = R::computed(out, &value);
        let mut st = self.state.lock();
        st.insert(
            key,
            FactEntry {
                hash,
                value_hash,
                value: value.clone(),
                deps: deps.clone(),
                valid: true,
                bytes,
                referenced: true,
            },
        );
        // Publish clean results so other sessions skip the computation.
        // Assertion-tainted sessions only publish the assertion-independent
        // passes (their hashes fold no assertion mark); a fact invalidated
        // under an unchanged hash never goes out.
        if let Some(tier) = self.shared.as_ref().filter(|_| tier_allowed) {
            let publishable = !st.assert_local
                || matches!(
                    key.pass,
                    PassId::Summarize | PassId::Liveness | PassId::Deps
                );
            if publishable {
                let fact = ExportedFact {
                    key,
                    hash,
                    value_hash,
                    deps,
                    bytes,
                    value,
                };
                tier.publish_owned(st.owner, fact);
            }
        }
        let m = st.metrics.entry(key.pass).or_default();
        m.invocations += 1;
        m.secs += secs;
        st.evict_over_budget();
        Ok((answer, value_hash))
    }

    /// Mark one fact dirty and propagate along the recorded dependency
    /// edges: every fact that transitively depends on `key` is invalidated
    /// too.  Returns the number of entries marked dirty.  The next demand
    /// for each recomputes regardless of its stored hash.
    pub fn invalidate(&self, key: FactKey) -> usize {
        let mut st = self.state.lock();
        let mut frontier = vec![key];
        let mut visited: std::collections::HashSet<FactKey> = std::collections::HashSet::new();
        let mut dirtied = 0usize;
        while let Some(k) = frontier.pop() {
            if !visited.insert(k) {
                continue;
            }
            let newly = match st.facts.get_mut(&k) {
                Some(e) if e.valid => {
                    e.valid = false;
                    true
                }
                _ => false,
            };
            if newly {
                dirtied += 1;
            }
            if newly || k == key {
                frontier.extend(
                    st.facts
                        .iter()
                        .filter(|(dk, e)| e.valid && e.deps.contains(&k) && !visited.contains(dk))
                        .map(|(dk, _)| *dk),
                );
            }
        }
        dirtied
    }

    /// Invalidate every fact of one pass (and, transitively, the facts
    /// depending on them).  Hash mismatches already handle program edits;
    /// this is for events that change pass semantics wholesale.
    pub fn invalidate_pass(&self, pass: PassId) -> usize {
        let keys: Vec<FactKey> = (self.state.lock().facts.keys())
            .filter(|k| k.pass == pass)
            .copied()
            .collect();
        keys.into_iter().map(|k| self.invalidate(k)).sum()
    }

    /// Snapshot of the recorded dependency edges of every valid fact, in
    /// deterministic key order (used by the observational-equivalence
    /// property tests).
    pub fn dependency_edges(&self) -> BTreeMap<FactKey, Vec<FactKey>> {
        let st = self.state.lock();
        st.facts
            .iter()
            .filter(|(_, e)| e.valid)
            .map(|(k, e)| (*k, e.deps.clone()))
            .collect()
    }

    /// Snapshot of the per-pass counters.
    pub fn metrics(&self) -> BTreeMap<PassId, PassMetrics> {
        self.state.lock().metrics.clone()
    }

    /// Counters of one pass (zeros when it never ran).
    pub fn metrics_for(&self, pass: PassId) -> PassMetrics {
        let st = self.state.lock();
        st.metrics.get(&pass).copied().unwrap_or_default()
    }

    /// Zero all counters (facts are kept).
    pub fn reset_metrics(&self) {
        self.state.lock().metrics.clear();
    }

    /// Number of stored facts (valid or dirty).
    pub fn len(&self) -> usize {
        self.state.lock().facts.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lift every *valid* fact out of the store for persistence, in
    /// deterministic key order.  Invalidated entries are skipped, so a
    /// snapshot never contains a stale result.
    pub fn export(&self) -> Vec<ExportedFact> {
        let st = self.state.lock();
        let mut out: Vec<ExportedFact> = (st.facts.iter())
            .filter(|(_, e)| e.valid)
            .map(|(k, e)| ExportedFact {
                key: *k,
                hash: e.hash,
                value_hash: e.value_hash,
                deps: e.deps.clone(),
                bytes: e.bytes,
                value: e.value.clone(),
            })
            .collect();
        out.sort_by_key(|f| f.key);
        out
    }

    /// Seed the store with previously exported facts (a warm start).
    /// Each fact lands as a valid entry; keys that already hold an entry
    /// are left untouched, so importing into a live store never clobbers
    /// newer work.  Returns how many facts were installed.  The caller is
    /// responsible for validating each fact's input hash against the
    /// current program first ([`crate::Parallelizer::expected_fact_hashes`]);
    /// a fact imported with a stale hash is harmless (the next demand misses
    /// on the hash and recomputes) but wastes memory.
    pub fn import(&self, facts: Vec<ExportedFact>) -> usize {
        let mut st = self.state.lock();
        let mut installed = 0;
        for f in facts {
            if st.facts.contains_key(&f.key) {
                continue;
            }
            st.insert(
                f.key,
                FactEntry {
                    hash: f.hash,
                    value_hash: f.value_hash,
                    value: f.value,
                    deps: f.deps,
                    valid: true,
                    bytes: f.bytes,
                    referenced: true,
                },
            );
            installed += 1;
        }
        installed
    }

    /// Drop every fact and zero the counters (the budget, owner and
    /// assertion taint are kept).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.facts.clear();
        st.clock.clear();
        st.metrics.clear();
        st.resident = 0;
        st.evicted = 0;
        st.evicted_bytes = 0;
    }
}

/// A detached job submitted to the [`ExecutorService`].
type ServiceJob = Box<dyn FnOnce() + Send + 'static>;

struct ServiceQueue {
    jobs: VecDeque<ServiceJob>,
    shutdown: bool,
}

struct ServiceShared {
    queue: Mutex<ServiceQueue>,
    ready: parking_lot::Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
}

/// A long-lived pool of detached workers draining a FIFO job queue: the
/// one pool in the system.  It parallelises across requests (the daemon's
/// command pool) and across programs (a `corpus` run's private pool); a
/// single request runs on exactly one of its threads, start to finish.
///
/// The evented daemon's reactor thread must never block on analysis, so
/// the service accepts `FnOnce` jobs and runs them on its own threads; the
/// job itself delivers its result (e.g. by pushing a completion and
/// ringing the reactor's wakeup pipe).
///
/// A budget of `0` means one worker per available core.  Either way there
/// is a floor of two workers so one long-running `analyze` can never
/// starve every other session's cheap `stats` — even on a single-core
/// host.
///
/// Dropping the service finishes already-queued jobs, then joins the
/// workers.
pub struct ExecutorService {
    shared: Arc<ServiceShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ExecutorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorService")
            .field("workers", &self.workers.len())
            .field("pending", &self.pending())
            .finish()
    }
}

impl ExecutorService {
    /// A service with the given worker budget (`0` means one per core),
    /// floored at two workers.
    pub fn new(threads: usize) -> ExecutorService {
        let workers = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .max(2);
        let shared = Arc::new(ServiceShared {
            queue: Mutex::new(ServiceQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: parking_lot::Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("suif-exec-{w}"))
                    .spawn(move || ExecutorService::worker(shared))
                    .expect("spawn executor-service worker")
            })
            .collect();
        ExecutorService {
            shared,
            workers: handles,
        }
    }

    fn worker(shared: Arc<ServiceShared>) {
        loop {
            let job = {
                let mut q = shared.queue.lock();
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.shutdown {
                        return;
                    }
                    shared.ready.wait(&mut q);
                }
            };
            // A panicking job counts as finished and costs only itself:
            // unwinding out of here would shrink the pool for good and
            // leave `pending` above zero forever.  Reporting the failure is
            // the submitter's business (it catches inside its own job).
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            shared.completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Queue a job for execution on a pool thread.  FIFO across the whole
    /// service; callers needing per-key ordering serialize upstream (the
    /// daemon runs at most one in-flight job per connection).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        {
            let mut q = self.shared.queue.lock();
            debug_assert!(!q.shutdown, "submit after ExecutorService drop");
            q.jobs.push_back(Box::new(job));
        }
        self.shared.ready.notify_one();
    }

    /// Resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs submitted over the service's lifetime.
    pub fn submitted(&self) -> u64 {
        self.shared.submitted.load(Ordering::Relaxed)
    }

    /// Jobs finished over the service's lifetime.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Jobs queued or running right now.
    pub fn pending(&self) -> u64 {
        self.submitted().saturating_sub(self.completed())
    }
}

impl Drop for ExecutorService {
    fn drop(&mut self) {
        self.shared.queue.lock().shutdown = true;
        self.shared.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::value_footprint;

    /// The bytes a fact value is charged.
    fn approx_value_bytes(value: &ExecutionFact) -> usize {
        value_footprint(value).0
    }
    use crate::ExecutionFact;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fact value whose content is one number: the run fact's op count.
    fn ops(n: u64) -> ExecutionFact {
        ExecutionFact {
            ops: n,
            ..ExecutionFact::default()
        }
    }

    struct CountingPass<'a> {
        key: FactKey,
        hash: u128,
        deps: Vec<FactKey>,
        runs: &'a AtomicU64,
        output: u64,
    }

    impl Pass for CountingPass<'_> {
        type Output = ExecutionFact;
        fn key(&self) -> FactKey {
            self.key
        }
        fn input_hash(&self) -> u128 {
            self.hash
        }
        fn deps(&self) -> Vec<FactKey> {
            self.deps.clone()
        }
        fn run(&self) -> ExecutionFact {
            self.runs.fetch_add(1, Ordering::Relaxed);
            ops(self.output)
        }
    }

    fn key(pass: PassId, stmt: u32) -> FactKey {
        FactKey::new(pass, Scope::Loop(StmtId(stmt)))
    }

    #[test]
    fn demand_memoizes_by_hash() {
        let store = FactStore::new();
        let runs = AtomicU64::new(0);
        let p = CountingPass {
            key: key(PassId::Classify, 1),
            hash: 7,
            deps: vec![],
            runs: &runs,
            output: 42,
        };
        assert_eq!(store.demand(&p).ops, 42);
        assert_eq!(store.demand(&p).ops, 42);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "second demand reuses");
        let m = store.metrics_for(PassId::Classify);
        assert_eq!((m.invocations, m.reused), (1, 1));

        // A changed input hash recomputes and overwrites.
        let p2 = CountingPass { hash: 8, ..p };
        store.demand(&p2);
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert_eq!(store.len(), 1, "same key overwritten, not duplicated");
    }

    #[test]
    fn invalidation_follows_dependency_edges() {
        let store = FactStore::new();
        let runs = AtomicU64::new(0);
        let summarize = CountingPass {
            key: FactKey::new(PassId::Summarize, Scope::Program),
            hash: 1,
            deps: vec![],
            runs: &runs,
            output: 1,
        };
        let liveness = CountingPass {
            key: FactKey::new(PassId::Liveness, Scope::Program),
            hash: 1,
            deps: vec![summarize.key()],
            runs: &runs,
            output: 2,
        };
        let classify = CountingPass {
            key: key(PassId::Classify, 9),
            hash: 1,
            deps: vec![liveness.key()],
            runs: &runs,
            output: 3,
        };
        let other = CountingPass {
            key: key(PassId::Classify, 10),
            hash: 1,
            deps: vec![],
            runs: &runs,
            output: 4,
        };
        store.demand(&summarize);
        store.demand(&liveness);
        store.demand(&classify);
        store.demand(&other);
        assert_eq!(runs.load(Ordering::Relaxed), 4);

        // Invalidating the root dirties the chain but not the unrelated fact.
        assert_eq!(store.invalidate(summarize.key()), 3);
        store.demand(&other);
        assert_eq!(runs.load(Ordering::Relaxed), 4, "untouched fact reused");
        store.demand(&classify);
        assert_eq!(runs.load(Ordering::Relaxed), 5, "dirty fact recomputed");

        // Invalidating a leaf touches only the leaf.
        assert_eq!(store.invalidate(other.key()), 1);
    }

    #[test]
    fn clear_and_reset() {
        let store = FactStore::new();
        let runs = AtomicU64::new(0);
        let p = CountingPass {
            key: key(PassId::Deps, 1),
            hash: 0,
            deps: vec![],
            runs: &runs,
            output: 0,
        };
        store.demand(&p);
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.metrics_for(PassId::Deps), PassMetrics::default());
    }

    #[test]
    fn dependency_edges_snapshot() {
        let store = FactStore::new();
        let runs = AtomicU64::new(0);
        let a = CountingPass {
            key: FactKey::new(PassId::Summarize, Scope::Program),
            hash: 1,
            deps: vec![],
            runs: &runs,
            output: 1,
        };
        let b = CountingPass {
            key: key(PassId::Classify, 3),
            hash: 1,
            deps: vec![a.key()],
            runs: &runs,
            output: 2,
        };
        store.demand(&a);
        store.demand(&b);
        let edges = store.dependency_edges();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[&b.key()], vec![a.key()]);
        // Dirty entries drop out of the snapshot.
        store.invalidate(a.key());
        assert!(store.dependency_edges().is_empty());
    }

    #[test]
    fn export_and_import_round_trip_preserves_entries() {
        let store = FactStore::new();
        let runs = AtomicU64::new(0);
        let a = CountingPass {
            key: FactKey::new(PassId::Summarize, Scope::Program),
            hash: 5,
            deps: vec![],
            runs: &runs,
            output: 10,
        };
        let b = CountingPass {
            key: key(PassId::Classify, 2),
            hash: 6,
            deps: vec![a.key()],
            runs: &runs,
            output: 20,
        };
        store.demand(&a);
        store.demand(&b);
        let exported = store.export();
        assert_eq!(exported.len(), 2);
        assert_eq!(exported[0].key, a.key(), "deterministic key order");

        // Import into a fresh store: demands reuse, nothing recomputes.
        let fresh = FactStore::new();
        assert_eq!(fresh.import(exported.clone()), 2);
        assert_eq!(fresh.demand(&a).ops, 10);
        assert_eq!(fresh.demand(&b).ops, 20);
        assert_eq!(runs.load(Ordering::Relaxed), 2, "imported facts reused");
        assert_eq!(fresh.metrics_for(PassId::Classify).reused, 1);
        // Dependency edges survive the round trip: invalidating the root
        // dirties the imported dependent.
        assert_eq!(fresh.invalidate(a.key()), 2);

        // Import never clobbers existing slots.
        let occupied = FactStore::new();
        let newer = CountingPass {
            key: key(PassId::Classify, 2),
            hash: 999,
            deps: vec![],
            runs: &runs,
            output: 77,
        };
        occupied.demand(&newer);
        assert_eq!(occupied.import(store.export()), 1, "only the absent key");
        assert_eq!(occupied.demand(&newer).ops, 77, "existing entry untouched");
    }

    /// `facts` as an image frames them: every value still bytes.  (A value
    /// persists under its own pass's key only: the run's fact here.)
    fn persisted(facts: Vec<ExportedFact>) -> Vec<ExportedFact> {
        let bytes = crate::snapshot::Snapshot::new(facts).encode();
        crate::snapshot::Snapshot::decode(&bytes).unwrap().facts
    }

    /// A current persisted fact is served as its cell, undecoded; its first
    /// read decodes it, once.
    #[test]
    fn demand_cell_serves_a_persisted_fact_without_decoding_it() {
        let runs = AtomicU64::new(0);
        let p = CountingPass {
            key: key(PassId::Execute, 1),
            hash: 7,
            deps: vec![],
            runs: &runs,
            output: 42,
        };
        let origin = FactStore::new();
        let (_, value_hash) = origin.demand_cell(&p);
        let store = FactStore::new();
        store.import(persisted(origin.export()));
        let (cell, served_hash) = store.demand_cell(&p);
        assert!(!cell.is_decoded());
        assert_eq!(served_hash, value_hash);
        assert_eq!(store.metrics_for(PassId::Execute).reused, 1);
        assert_eq!(store.decode_stats().values_decoded, 0);
        assert_eq!(store.read::<ExecutionFact>(&cell).unwrap().ops, 42);
        assert_eq!(store.demand(&p).ops, 42);
        assert_eq!(store.decode_stats().values_decoded, 1, "decoded once");
        assert_eq!(runs.load(Ordering::Relaxed), 1, "nothing recomputed");
    }

    /// A persisted value whose bytes do not hash to its recorded value hash
    /// is never served: the demand that reads it drops it from the store
    /// and the tier, counts it, and recomputes the fact.
    #[test]
    fn an_undecodable_persisted_value_is_dropped_and_recomputed() {
        let runs = AtomicU64::new(0);
        let p = CountingPass {
            key: key(PassId::Execute, 1),
            hash: 7,
            deps: vec![],
            runs: &runs,
            output: 42,
        };
        let origin = FactStore::new();
        origin.demand(&p);
        let damaged: Vec<ExportedFact> = (origin.export().into_iter())
            .map(|f| ExportedFact {
                value_hash: f.value_hash ^ 1,
                ..f
            })
            .collect();

        let store = FactStore::new();
        store.import(persisted(damaged.clone()));
        assert_eq!(store.demand(&p).ops, 42);
        assert_eq!(runs.load(Ordering::Relaxed), 2, "recomputed");
        let decoded = store.decode_stats();
        assert_eq!((decoded.values_decoded, decoded.undecodable), (1, 1));
        assert_eq!(store.demand(&p).ops, 42);
        assert_eq!(
            runs.load(Ordering::Relaxed),
            2,
            "the recomputed fact is reused"
        );

        let tier = Arc::new(SharedFactTier::new());
        tier.import(&persisted(damaged));
        let overlay = FactStore::with_shared(tier.clone());
        assert_eq!(overlay.demand(&p).ops, 42);
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        assert_eq!(overlay.decode_stats().undecodable, 1);
        let published = tier.lookup(PassId::Execute, 7).unwrap();
        assert!(
            published.value.is_decoded(),
            "the damaged entry was replaced"
        );
        let sibling = FactStore::with_shared(tier);
        assert_eq!(sibling.demand(&p).ops, 42);
        assert_eq!(runs.load(Ordering::Relaxed), 3, "a sibling is served it");
    }

    /// An export after an entry was invalidated must not contain it: a
    /// snapshot never persists a stale result.
    #[test]
    fn export_skips_invalid_slots() {
        let store = FactStore::new();
        let runs = AtomicU64::new(0);
        let passes: Vec<CountingPass<'_>> = (1..=2)
            .map(|i| CountingPass {
                key: key(PassId::Classify, i),
                hash: 1,
                deps: vec![],
                runs: &runs,
                output: u64::from(i),
            })
            .collect();
        for p in &passes {
            store.demand(p);
        }
        assert_eq!(store.export().len(), 2);

        assert_eq!(store.invalidate(key(PassId::Classify, 2)), 1);
        let snap = store.export();
        assert_eq!(snap.len(), 1, "invalidated fact excluded from export");
        assert_eq!(snap[0].key, key(PassId::Classify, 1));

        // Invalidate the other fact too: nothing left to persist.
        store.invalidate(key(PassId::Classify, 1));
        assert!(store.export().is_empty());
    }

    /// A pass whose run demands another fact is charged its own time only:
    /// the nested run lands under its own pass, once.
    #[test]
    fn nested_run_time_is_charged_to_its_own_pass_once() {
        struct Sleeper {
            key: FactKey,
            ms: u64,
            inner: Option<Box<Sleeper>>,
            store: Arc<FactStore>,
        }
        impl Pass for Sleeper {
            type Output = ExecutionFact;
            fn key(&self) -> FactKey {
                self.key
            }
            fn input_hash(&self) -> u128 {
                1
            }
            fn run(&self) -> ExecutionFact {
                if let Some(inner) = &self.inner {
                    self.store.demand(&**inner);
                }
                std::thread::sleep(std::time::Duration::from_millis(self.ms));
                ops(0)
            }
        }
        let store = Arc::new(FactStore::new());
        let outer = Sleeper {
            key: key(PassId::Classify, 1),
            ms: 20,
            inner: Some(Box::new(Sleeper {
                key: key(PassId::Deps, 1),
                ms: 60,
                inner: None,
                store: store.clone(),
            })),
            store: store.clone(),
        };
        store.demand(&outer);
        let (classify, deps) = (
            store.metrics_for(PassId::Classify).secs,
            store.metrics_for(PassId::Deps).secs,
        );
        assert!(
            deps >= 0.06,
            "the nested run is charged to its pass: {deps}"
        );
        assert!(
            (0.02..0.06).contains(&classify),
            "the outer run is charged its own 20 ms, not the nested 60: {classify}"
        );
    }

    #[test]
    fn shared_tier_serves_across_overlay_stores() {
        let tier = Arc::new(SharedFactTier::new());
        let a = FactStore::with_shared(tier.clone());
        let b = FactStore::with_shared(tier.clone());
        let runs = AtomicU64::new(0);
        let p = CountingPass {
            key: key(PassId::Classify, 1),
            hash: 7,
            deps: vec![key(PassId::Deps, 9)],
            runs: &runs,
            output: 42,
        };
        assert_eq!(a.demand(&p).ops, 42);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        // The second store never runs the pass: the tier answers.
        assert_eq!(b.demand(&p).ops, 42);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "tier served the fact");
        let m = b.metrics_for(PassId::Classify);
        assert_eq!((m.invocations, m.reused, m.shared), (0, 0, 1));
        // A tier hit installs locally: the third demand is a plain reuse.
        assert_eq!(b.demand(&p).ops, 42);
        assert_eq!(b.metrics_for(PassId::Classify).reused, 1);
        // The install carried the tier's recorded deps, so session-scoped
        // invalidation still propagates through shared facts.
        assert_eq!(b.invalidate(key(PassId::Deps, 9)), 1);
        assert!(tier.stats().hits >= 1);
    }

    #[test]
    fn invalidation_under_unchanged_hash_bypasses_tier() {
        let tier = Arc::new(SharedFactTier::new());
        let store = FactStore::with_shared(tier.clone());
        let runs = AtomicU64::new(0);
        let p = CountingPass {
            key: key(PassId::Classify, 3),
            hash: 11,
            deps: vec![],
            runs: &runs,
            output: 5,
        };
        store.demand(&p);
        assert_eq!(tier.stats().inserts, 1, "clean fact published");
        // Invalidate under the *same* hash: the event was not captured by
        // the hash, so the tier copy must not be served back…
        store.invalidate(p.key());
        assert_eq!(store.demand(&p).ops, 5);
        assert_eq!(
            runs.load(Ordering::Relaxed),
            2,
            "recomputed, not tier-served"
        );
        // …and the recomputed value is not republished either.
        assert_eq!(tier.stats().inserts, 1, "no republish under a bypassed key");
        assert_eq!(store.metrics_for(PassId::Classify).shared, 0);
    }

    #[test]
    fn assert_local_stores_publish_only_assertion_independent_passes() {
        let tier = Arc::new(SharedFactTier::new());
        let tainted = FactStore::with_shared(tier.clone());
        tainted.set_assert_local(true);
        let runs = AtomicU64::new(0);
        let classify = CountingPass {
            key: key(PassId::Classify, 4),
            hash: 1,
            deps: vec![],
            runs: &runs,
            output: 1,
        };
        let summarize = CountingPass {
            key: FactKey::new(PassId::Summarize, Scope::Program),
            hash: 2,
            deps: vec![],
            runs: &runs,
            output: 2,
        };
        let deps = CountingPass {
            key: key(PassId::Deps, 4),
            hash: 3,
            deps: vec![],
            runs: &runs,
            output: 3,
        };
        tainted.demand(&classify);
        tainted.demand(&summarize);
        tainted.demand(&deps);
        assert_eq!(tier.stats().inserts, 2, "only summarize and deps published");
        // Another tenant recomputes the private fact but shares the others.
        let clean = FactStore::with_shared(tier.clone());
        clean.demand(&classify);
        clean.demand(&summarize);
        clean.demand(&deps);
        assert_eq!(runs.load(Ordering::Relaxed), 4, "classify recomputed once");
        for pass in [PassId::Summarize, PassId::Deps] {
            let m = clean.metrics_for(pass);
            assert_eq!((m.invocations, m.shared), (0, 1), "{pass:?}");
        }
    }

    #[test]
    fn budget_eviction_is_transparent_to_re_demands() {
        // Every CountingPass output has the same wire length, so each fact
        // is charged the same bytes.
        let per = approx_value_bytes(&ops(0));
        let store = FactStore::new();
        store.set_budget(Some(per * 4));
        let runs = AtomicU64::new(0);
        let passes: Vec<CountingPass<'_>> = (0..32)
            .map(|i| CountingPass {
                key: key(PassId::Classify, 200 + i),
                hash: 1,
                deps: vec![],
                runs: &runs,
                output: u64::from(i),
            })
            .collect();
        for p in &passes {
            store.demand(p);
        }
        let bs = store.byte_stats();
        assert!(bs.evicted > 0, "over-budget demands evicted cold facts");
        assert!(
            bs.resident_bytes <= (per * 5) as u64,
            "resident stays near budget: {}",
            bs.resident_bytes
        );
        // Every re-demand still returns the right value (recomputed or
        // resident — bit-identical either way).
        for (i, p) in passes.iter().enumerate() {
            assert_eq!(store.demand(p).ops, i as u64);
        }
        // An unbounded store never evicts.
        let unbounded = FactStore::new();
        for p in &passes {
            unbounded.demand(p);
        }
        assert_eq!(unbounded.byte_stats().evicted, 0);
        assert_eq!(unbounded.len(), 32);
    }

    /// Each sweep resumes where the last one stopped, whatever order the
    /// map keeps its keys in: facts never demanded again leave in the order
    /// they came, and one demanded again since the hand last passed it is
    /// spared once.
    #[test]
    fn eviction_clock_resumes_at_its_hand() {
        let store = FactStore::new();
        store.set_budget(Some(approx_value_bytes(&ops(0)) * 16)); // room for 16
        let runs = AtomicU64::new(0);
        let fact = |i: u32| CountingPass {
            key: key(PassId::Classify, i),
            hash: 1,
            deps: vec![],
            runs: &runs,
            output: u64::from(i),
        };
        // The 17th fact finds every bit set: the hand laps once, clearing
        // them all, and takes the oldest.
        for i in 0..=16 {
            store.demand(&fact(i));
        }
        assert_eq!(store.byte_stats().evicted, 1);
        // Five more take the next oldest, but pass over the one reused.
        assert_eq!(store.demand(&fact(5)).ops, 5);
        for i in 17..=21 {
            store.demand(&fact(i));
        }
        let resident: Vec<FactKey> = store.export().iter().map(|f| f.key).collect();
        let want: Vec<FactKey> = (5..=21)
            .filter(|&i| i != 6)
            .map(|i| key(PassId::Classify, i))
            .collect();
        assert_eq!(resident, want);
        assert_eq!(runs.load(Ordering::Relaxed), 22, "every fact ran once");
    }

    #[test]
    fn eviction_spares_invalid_slots() {
        let store = FactStore::new();
        let runs = AtomicU64::new(0);
        let p = CountingPass {
            key: key(PassId::Classify, 1),
            hash: 1,
            deps: vec![],
            runs: &runs,
            output: 9,
        };
        store.demand(&p);
        store.invalidate(p.key());
        // A budget of one byte forces the sweep; the invalid tombstone must
        // survive it (it pins the key tier-bypassed).
        store.set_budget(Some(1));
        let filler = CountingPass {
            key: key(PassId::Classify, 2),
            hash: 1,
            deps: vec![],
            runs: &runs,
            output: 10,
        };
        store.demand(&filler);
        assert_eq!(store.demand(&p).ops, 9);
        assert_eq!(
            runs.load(Ordering::Relaxed),
            3,
            "tombstone forced recompute"
        );
    }

    #[test]
    fn executor_service_runs_detached_jobs() {
        let svc = ExecutorService::new(1);
        assert!(svc.workers() >= 2, "floor of two workers");
        let counter = Arc::new(AtomicU64::new(0));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let done_tx = done_tx.clone();
            svc.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = done_tx.send(());
            });
        }
        for _ in 0..64 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("job completion");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(svc.submitted(), 64);
        drop(svc); // joins workers; queued jobs already drained
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn executor_service_survives_a_panicking_job() {
        let svc = ExecutorService::new(2);
        let n = svc.workers();
        svc.submit(|| panic!("injected job panic"));
        // `n` jobs that each wait until all `n` have started: they finish
        // only if every worker is still alive, the one that caught the
        // panic included.  Then `n` plain ones.
        let started = Arc::new(AtomicU64::new(0));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..n {
            let (started, done_tx) = (Arc::clone(&started), done_tx.clone());
            svc.submit(move || {
                started.fetch_add(1, Ordering::SeqCst);
                let t0 = std::time::Instant::now();
                while started.load(Ordering::SeqCst) < n as u64 && t0.elapsed().as_secs() < 10 {
                    std::thread::yield_now();
                }
                let _ = done_tx.send(started.load(Ordering::SeqCst));
            });
        }
        for _ in 0..n {
            let done_tx = done_tx.clone();
            svc.submit(move || {
                let _ = done_tx.send(n as u64);
            });
        }
        for _ in 0..2 * n {
            let seen = done_rx
                .recv_timeout(std::time::Duration::from_secs(20))
                .expect("job completion");
            assert_eq!(seen, n as u64, "every worker took a job at once");
        }
        let t0 = std::time::Instant::now();
        while svc.pending() != 0 {
            assert!(
                t0.elapsed().as_secs() < 10,
                "pending stuck at {}",
                svc.pending()
            );
            std::thread::yield_now();
        }
        assert_eq!(svc.completed(), 2 * n as u64 + 1);
        drop(svc); // joins every worker
    }

    #[test]
    fn executor_service_drop_finishes_queued_jobs() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let svc = ExecutorService::new(2);
            for _ in 0..16 {
                let counter = Arc::clone(&counter);
                svc.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // Drop joins after the queue drains.
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }
}
