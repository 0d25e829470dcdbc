//! The demand-driven pass pipeline: a [`Pass`] trait plus a concurrent,
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
//! # Concurrency
//!
//! The store is sharded: a fact key hashes to one of [`SHARD_COUNT`] shards,
//! each an independently locked map, so demands of unrelated facts never
//! contend.  Each entry carries an explicit state machine:
//!
//! ```text
//! Absent ──claim──▶ Running ──store──▶ Ready {valid, hash}
//!                      ▲                   │
//!                      └──stale/invalid────┘
//! ```
//!
//! Concurrent demands of the *same* key dedup in flight: the first thread
//! claims the `Running` slot and computes; the rest block on the shard's
//! condvar and share the finished `Arc` (counted in [`PassMetrics::deduped`],
//! with blocked time in [`PassMetrics::wait_secs`]).  An invalidation that
//! arrives while the entry is `Running` marks the claim, and the runner
//! stores its result already-dirty — the runner's own caller still gets the
//! value it asked for, but no later demand is served the stale fact.
//!
//! Facts are stored as `Arc<dyn Any>` so heterogeneous pass outputs share
//! one map; [`FactStore::demand`] downcasts back to the pass's typed output.
//! All methods take `&self` — the store is shared across the analysis runs
//! and reloads of one daemon session.

use crate::tier::SharedFactTier;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// Demands that found the fact `Running` and shared the in-flight
    /// result instead of recomputing it.
    pub deduped: u64,
    /// Demands answered from the process-wide [`SharedFactTier`] (another
    /// session computed the fact under the same content hash).
    pub shared: u64,
    /// Total seconds inside [`Pass::run`], less the nested runs of the
    /// facts it demanded (each counted once, under its own pass).
    pub secs: f64,
    /// Total seconds demands spent blocked on in-flight computations.
    pub wait_secs: f64,
}

struct FactEntry {
    hash: u128,
    value: Arc<dyn Any + Send + Sync>,
    deps: Vec<FactKey>,
    valid: bool,
    /// Approximate resident bytes of `value` (budget accounting).
    bytes: usize,
    /// Second-chance bit: set on every reuse, cleared by a passing
    /// eviction sweep.
    referenced: bool,
}

/// One fact lifted out of (or injected into) the store: key, input hash,
/// dependency edges, and the type-erased value.  Produced by
/// [`FactStore::export`], consumed by [`FactStore::import`] and the
/// snapshot codec ([`crate::snapshot`]).
#[derive(Clone)]
pub struct ExportedFact {
    /// The fact's store key.
    pub key: FactKey,
    /// The input hash the value was computed under.
    pub hash: u128,
    /// Recorded dependency edges (facts this one reads).
    pub deps: Vec<FactKey>,
    /// Approximate resident bytes of the value
    /// ([`crate::snapshot::approx_value_bytes`]).
    pub bytes: usize,
    /// The fact value, type-erased exactly as stored.
    pub value: Arc<dyn Any + Send + Sync>,
}

/// Entry state machine: `Absent` is represented by the key missing from the
/// shard map entirely.
enum Slot {
    /// A thread is computing this fact; `invalidated` records an
    /// invalidation that arrived mid-run so the result is stored dirty.
    Running { invalidated: bool },
    /// The fact is stored (possibly dirty or stale-hashed).
    Ready(FactEntry),
}

/// Number of independently locked shards in the store.
pub const SHARD_COUNT: usize = 16;

#[derive(Default)]
struct Shard {
    slots: Mutex<HashMap<FactKey, Slot>>,
    ready: Condvar,
}

/// A memoizing, concurrency-safe store of analysis facts keyed by
/// `(pass, scope)`.  See the module docs for the entry state machine.
///
/// Built with [`FactStore::with_shared`], the store becomes a thin
/// *overlay* over a process-wide [`SharedFactTier`]: a local miss consults
/// the tier by `(pass, input-hash)` before computing, and a locally
/// computed clean fact is published back so other sessions (other overlay
/// stores over the same tier) never recompute it.  Invalidation stays
/// strictly local: [`FactStore::invalidate`] dirties overlay slots only,
/// and a fact invalidated under an *unchanged* hash additionally pins that
/// key tier-bypassed (and unpublishable) — the event was not captured by
/// the hash, so the tier copy cannot be trusted for it either.
pub struct FactStore {
    shards: Vec<Shard>,
    metrics: Mutex<BTreeMap<PassId, PassMetrics>>,
    /// The process-wide content-addressed tier under this overlay (multi-
    /// tenant daemon); `None` for a self-contained store.
    shared: Option<Arc<SharedFactTier>>,
    /// When set, only the assertion-independent passes (`Summarize`,
    /// `Liveness`, `Deps`) are published to the tier; everything else stays
    /// in the session-private overlay (see [`FactStore::set_assert_local`]).
    assert_local: AtomicBool,
    /// Session id credited for tier publishes (fairness accounting);
    /// `0` until [`FactStore::set_owner`] is called.
    owner: AtomicU64,
    /// Approximate byte budget for resident facts; `0` = unbounded.
    budget: AtomicUsize,
    /// Approximate resident bytes across all shards.
    resident: AtomicUsize,
    /// Clock hand of the second-chance eviction sweep (a shard index).
    clock: AtomicUsize,
    evicted: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl Default for FactStore {
    fn default() -> FactStore {
        FactStore {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            metrics: Mutex::new(BTreeMap::new()),
            shared: None,
            assert_local: AtomicBool::new(false),
            owner: AtomicU64::new(0),
            budget: AtomicUsize::new(0),
            resident: AtomicUsize::new(0),
            clock: AtomicUsize::new(0),
            evicted: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }
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

fn shard_index(key: &FactKey) -> usize {
    // FNV-1a over the key's discriminants; cheap and well-spread for the
    // small id spaces involved.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(key.pass as u64);
    match key.scope {
        Scope::Program => eat(u64::MAX),
        Scope::Proc(p) => eat(0x1_0000_0000 | p.0 as u64),
        Scope::Loop(s) => eat(0x2_0000_0000 | s.0 as u64),
    }
    (h as usize) % SHARD_COUNT
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

/// Removes an abandoned `Running` claim if the pass panics or fails
/// ([`FactStore::try_demand`]), so blocked waiters retry instead of
/// deadlocking.
struct RunClaim<'a> {
    shard: &'a Shard,
    key: FactKey,
    armed: bool,
}

impl Drop for RunClaim<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut slots = self.shard.slots.lock();
            if matches!(slots.get(&self.key), Some(Slot::Running { .. })) {
                slots.remove(&self.key);
            }
            drop(slots);
            self.shard.ready.notify_all();
        }
    }
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
        self.owner.store(session_id, Ordering::Relaxed);
    }

    /// Set (or clear, with `None`) the approximate byte budget for resident
    /// facts.  Over-budget demands trigger a second-chance eviction sweep
    /// of cold `Ready` entries.
    pub fn set_budget(&self, budget: Option<usize>) {
        self.budget.store(budget.unwrap_or(0), Ordering::Relaxed);
        self.maybe_evict();
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
        self.assert_local.store(tainted, Ordering::Relaxed);
    }

    /// Byte-accounting counters (resident bytes, budget, evictions).
    pub fn byte_stats(&self) -> StoreByteStats {
        let budget = self.budget.load(Ordering::Relaxed);
        StoreByteStats {
            resident_bytes: self.resident.load(Ordering::Relaxed) as u64,
            budget: (budget != 0).then_some(budget as u64),
            evicted: self.evicted.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
        }
    }

    fn shard(&self, key: &FactKey) -> &Shard {
        &self.shards[shard_index(key)]
    }

    /// Demand a fact: reuse a valid entry whose input hash matches, share an
    /// in-flight computation of the same key, consult the process-wide
    /// [`SharedFactTier`] (if the store was built with
    /// [`FactStore::with_shared`]), or claim the entry and run the pass,
    /// recording its output (with dependency edges).
    pub fn demand<P: Pass>(&self, pass: &P) -> Arc<P::Output> {
        let done: Result<_, std::convert::Infallible> = self.demand_with(pass, || Ok(pass.run()));
        match done {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    /// [`FactStore::demand`] for a pass whose computation can fail (its
    /// output is a `Result`): the fact is the `Ok` value.  A failed run goes
    /// back to this demander alone — nothing is stored, published or
    /// exported, the claim is released, and the next demand runs again.
    pub fn try_demand<P, T, E>(&self, pass: &P) -> Result<Arc<T>, E>
    where
        P: Pass<Output = Result<T, E>>,
        T: Send + Sync + 'static,
    {
        self.demand_with(pass, || pass.run())
    }

    fn demand_with<P: Pass, T: Send + Sync + 'static, E>(
        &self,
        pass: &P,
        run: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let key = pass.key();
        let hash = pass.input_hash();
        let shard = self.shard(&key);
        let mut wait_start: Option<Instant> = None;
        // Whether the shared tier may serve (and later receive) this fact.
        // A local entry invalidated under this *same* hash means the
        // invalidation event was not captured by the hash — the tier's copy
        // under that hash is equally untrustworthy, so bypass it and keep
        // the recomputed value out of it.
        let tier_allowed;
        let mut slots = shard.slots.lock();
        loop {
            if matches!(slots.get(&key), Some(Slot::Running { .. })) {
                wait_start.get_or_insert_with(Instant::now);
                shard.ready.wait(&mut slots);
                continue;
            }
            match slots.get_mut(&key) {
                Some(Slot::Ready(e)) if e.valid && e.hash == hash => {
                    e.referenced = true;
                    if let Ok(v) = e.value.clone().downcast::<T>() {
                        drop(slots);
                        let mut metrics = self.metrics.lock();
                        let m = metrics.entry(key.pass).or_default();
                        match wait_start {
                            Some(t) => {
                                let waited = t.elapsed().as_secs_f64();
                                m.deduped += 1;
                                m.wait_secs += waited;
                            }
                            None => m.reused += 1,
                        }
                        return Ok(v);
                    }
                    // A type mismatch is a stale entry in disguise;
                    // recompute below.
                    tier_allowed = true;
                    break;
                }
                Some(Slot::Ready(e)) if !e.valid && e.hash == hash => {
                    tier_allowed = false;
                    break;
                }
                _ => {
                    // Absent, or a stale hash (the program changed under the
                    // key): the tier lookup under the *new* hash is sound.
                    tier_allowed = true;
                    break;
                }
            }
        }
        // Tier consult while still holding the shard lock (the tier's own
        // locks are leaves; no store lock is ever taken inside them).
        if tier_allowed {
            if let Some(tier) = &self.shared {
                if let Some((value, bytes, deps)) = tier.lookup(key.pass, hash) {
                    if let Ok(v) = value.clone().downcast::<T>() {
                        let prev = slots.insert(
                            key,
                            Slot::Ready(FactEntry {
                                hash,
                                value,
                                deps,
                                valid: true,
                                bytes,
                                referenced: true,
                            }),
                        );
                        drop(slots);
                        self.account_replaced(prev, bytes);
                        let mut metrics = self.metrics.lock();
                        let m = metrics.entry(key.pass).or_default();
                        m.shared += 1;
                        if let Some(t) = wait_start {
                            m.wait_secs += t.elapsed().as_secs_f64();
                        }
                        drop(metrics);
                        self.maybe_evict();
                        return Ok(v);
                    }
                }
            }
        }
        let prev = slots.insert(key, Slot::Running { invalidated: false });
        drop(slots);
        self.account_replaced(prev, 0);
        if let Some(t) = wait_start {
            // Waited on a runner that produced a different hash (or got
            // poisoned); still account the blocked time.
            let waited = t.elapsed().as_secs_f64();
            self.metrics.lock().entry(key.pass).or_default().wait_secs += waited;
        }
        let mut claim = RunClaim {
            shard,
            key,
            armed: true,
        };
        // Run outside the lock: a pass may demand its own inputs.  A failed
        // run leaves through `?`; dropping the armed claim releases the slot.
        let (out, secs) = exclusive_secs(run);
        let out = Arc::new(out?);
        let deps = pass.deps();
        let any: Arc<dyn Any + Send + Sync> = out.clone();
        let bytes = crate::snapshot::approx_value_bytes(key.pass, &any);
        let valid;
        {
            let mut slots = shard.slots.lock();
            valid = !matches!(slots.get(&key), Some(Slot::Running { invalidated: true }));
            slots.insert(
                key,
                Slot::Ready(FactEntry {
                    hash,
                    value: any.clone(),
                    deps: deps.clone(),
                    valid,
                    bytes,
                    referenced: true,
                }),
            );
        }
        self.resident.fetch_add(bytes, Ordering::Relaxed);
        claim.armed = false;
        shard.ready.notify_all();
        // Publish clean results so other sessions skip the computation.
        // Assertion-tainted sessions only publish the assertion-independent
        // passes (their hashes fold no assertion mark); a fact invalidated
        // under an unchanged hash never goes out.
        if valid && tier_allowed {
            if let Some(tier) = &self.shared {
                let publishable = !self.assert_local.load(Ordering::Relaxed)
                    || matches!(
                        key.pass,
                        PassId::Summarize | PassId::Liveness | PassId::Deps
                    );
                if publishable {
                    let owner = self.owner.load(Ordering::Relaxed);
                    tier.publish_owned(owner, key, hash, bytes, deps, any);
                }
            }
        }
        let mut metrics = self.metrics.lock();
        let m = metrics.entry(key.pass).or_default();
        m.invocations += 1;
        m.secs += secs;
        drop(metrics);
        self.maybe_evict();
        Ok(out)
    }

    /// Subtract the bytes of a replaced `Ready` slot from the resident
    /// count, then add the new entry's bytes.
    fn account_replaced(&self, prev: Option<Slot>, added: usize) {
        if let Some(Slot::Ready(e)) = prev {
            self.resident.fetch_sub(e.bytes, Ordering::Relaxed);
        }
        if added > 0 {
            self.resident.fetch_add(added, Ordering::Relaxed);
        }
    }

    /// Second-chance clock sweep: while over budget, walk the shards from
    /// the clock hand, sparing entries referenced since the last pass and
    /// dropping cold `Ready` facts.  `Running` slots are never touched, and
    /// neither are invalid entries — a fact invalidated under an unchanged
    /// hash is a tombstone pinning its key tier-bypassed, and evicting it
    /// would let the next demand trust the tier again.
    fn maybe_evict(&self) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        let mut visits = 0;
        while self.resident.load(Ordering::Relaxed) > budget && visits < 2 * SHARD_COUNT {
            let i = self.clock.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
            visits += 1;
            let mut freed = 0usize;
            let mut dropped = 0u64;
            {
                let mut slots = self.shards[i].slots.lock();
                slots.retain(|_, slot| match slot {
                    Slot::Running { .. } => true,
                    Slot::Ready(e) => {
                        if self.resident.load(Ordering::Relaxed) <= budget + freed {
                            return true;
                        }
                        if !e.valid {
                            return true;
                        }
                        if e.referenced {
                            e.referenced = false;
                            true
                        } else {
                            freed += e.bytes;
                            dropped += 1;
                            false
                        }
                    }
                });
            }
            if freed > 0 {
                self.resident.fetch_sub(freed, Ordering::Relaxed);
                self.evicted.fetch_add(dropped, Ordering::Relaxed);
                self.evicted_bytes
                    .fetch_add(freed as u64, Ordering::Relaxed);
            }
        }
    }

    /// Mark one fact dirty and propagate along the recorded dependency
    /// edges: every fact that transitively depends on `key` is invalidated
    /// too.  Returns the number of entries marked dirty (an entry currently
    /// `Running` counts — its result will be stored already-dirty).  The
    /// next demand for each recomputes regardless of its stored hash.
    pub fn invalidate(&self, key: FactKey) -> usize {
        let mut frontier = vec![key];
        let mut visited: std::collections::HashSet<FactKey> = std::collections::HashSet::new();
        let mut dirtied = 0usize;
        while let Some(k) = frontier.pop() {
            if !visited.insert(k) {
                continue;
            }
            let newly = {
                let mut slots = self.shard(&k).slots.lock();
                match slots.get_mut(&k) {
                    Some(Slot::Ready(e)) if e.valid => {
                        e.valid = false;
                        true
                    }
                    Some(Slot::Running { invalidated }) if !*invalidated => {
                        *invalidated = true;
                        true
                    }
                    _ => false,
                }
            };
            if newly {
                dirtied += 1;
            }
            if newly || k == key {
                for shard in &self.shards {
                    let slots = shard.slots.lock();
                    for (dk, slot) in slots.iter() {
                        if let Slot::Ready(e) = slot {
                            if e.valid && e.deps.contains(&k) && !visited.contains(dk) {
                                frontier.push(*dk);
                            }
                        }
                    }
                }
            }
        }
        dirtied
    }

    /// Invalidate every fact of one pass (and, transitively, the facts
    /// depending on them).  Hash mismatches already handle program edits;
    /// this is for events that change pass semantics wholesale.
    pub fn invalidate_pass(&self, pass: PassId) -> usize {
        let mut keys: Vec<FactKey> = Vec::new();
        for shard in &self.shards {
            keys.extend(shard.slots.lock().keys().filter(|k| k.pass == pass));
        }
        keys.into_iter().map(|k| self.invalidate(k)).sum()
    }

    /// Snapshot of the recorded dependency edges of every valid fact, in
    /// deterministic key order (used by the observational-equivalence
    /// property tests).
    pub fn dependency_edges(&self) -> BTreeMap<FactKey, Vec<FactKey>> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            let slots = shard.slots.lock();
            for (k, slot) in slots.iter() {
                if let Slot::Ready(e) = slot {
                    if e.valid {
                        out.insert(*k, e.deps.clone());
                    }
                }
            }
        }
        out
    }

    /// Snapshot of the per-pass counters.
    pub fn metrics(&self) -> BTreeMap<PassId, PassMetrics> {
        self.metrics.lock().clone()
    }

    /// Counters of one pass (zeros when it never ran).
    pub fn metrics_for(&self, pass: PassId) -> PassMetrics {
        self.metrics.lock().get(&pass).copied().unwrap_or_default()
    }

    /// Zero all counters (facts are kept).
    pub fn reset_metrics(&self) {
        self.metrics.lock().clear();
    }

    /// Number of stored facts (valid, dirty, or in flight).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.slots.lock().len()).sum()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lift every *valid, finished* fact out of the store for persistence,
    /// in deterministic key order.  Cooperates with the entry state
    /// machine: `Running` slots (a computation in flight — possibly a
    /// speculative pre-classification) and invalidated entries are skipped,
    /// so a snapshot taken at any moment never contains a racing or stale
    /// result.
    pub fn export(&self) -> Vec<ExportedFact> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let slots = shard.slots.lock();
            for (k, slot) in slots.iter() {
                if let Slot::Ready(e) = slot {
                    if e.valid {
                        out.push(ExportedFact {
                            key: *k,
                            hash: e.hash,
                            deps: e.deps.clone(),
                            bytes: e.bytes,
                            value: e.value.clone(),
                        });
                    }
                }
            }
        }
        out.sort_by_key(|f| f.key);
        out
    }

    /// Seed the store with previously exported facts (a warm start).
    /// Each fact lands as a valid `Ready` entry; keys that already hold a
    /// slot — `Running` or `Ready` — are left untouched, so importing into
    /// a live store never clobbers newer work.  Returns how many facts were
    /// installed.  The caller is responsible for validating each fact's
    /// input hash against the current program first
    /// ([`crate::Parallelizer::expected_fact_hashes`]); a fact imported
    /// with a stale hash is harmless (the next demand misses on the hash
    /// and recomputes) but wastes memory.
    pub fn import(&self, facts: Vec<ExportedFact>) -> usize {
        let mut installed = 0;
        for f in facts {
            let shard = self.shard(&f.key);
            let mut slots = shard.slots.lock();
            if let std::collections::hash_map::Entry::Vacant(v) = slots.entry(f.key) {
                let bytes = f.bytes;
                v.insert(Slot::Ready(FactEntry {
                    hash: f.hash,
                    value: f.value,
                    deps: f.deps,
                    valid: true,
                    bytes,
                    referenced: true,
                }));
                self.resident.fetch_add(bytes, Ordering::Relaxed);
                installed += 1;
            }
        }
        installed
    }

    /// Drop every fact and zero the counters.  Must not race an in-flight
    /// demand (callers clear between analysis runs, never during one).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.slots.lock().clear();
            shard.ready.notify_all();
        }
        self.resident.store(0, Ordering::Relaxed);
        self.evicted.store(0, Ordering::Relaxed);
        self.evicted_bytes.store(0, Ordering::Relaxed);
        self.reset_metrics();
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
    ready: Condvar,
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
            ready: Condvar::new(),
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
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountingPass<'a> {
        key: FactKey,
        hash: u128,
        deps: Vec<FactKey>,
        runs: &'a AtomicU64,
        output: i64,
    }

    impl Pass for CountingPass<'_> {
        type Output = i64;
        fn key(&self) -> FactKey {
            self.key
        }
        fn input_hash(&self) -> u128 {
            self.hash
        }
        fn deps(&self) -> Vec<FactKey> {
            self.deps.clone()
        }
        fn run(&self) -> i64 {
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.output
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
        assert_eq!(*store.demand(&p), 42);
        assert_eq!(*store.demand(&p), 42);
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

    /// A pass whose run blocks until every participating thread has at
    /// least entered the race, so concurrent demands reliably observe the
    /// `Running` state.
    struct GatedPass<'a> {
        key: FactKey,
        runs: &'a AtomicU64,
        arrivals: &'a AtomicU64,
        expected: u64,
    }

    impl Pass for GatedPass<'_> {
        type Output = i64;
        fn key(&self) -> FactKey {
            self.key
        }
        fn input_hash(&self) -> u128 {
            1
        }
        fn run(&self) -> i64 {
            self.runs.fetch_add(1, Ordering::SeqCst);
            let t0 = Instant::now();
            while self.arrivals.load(Ordering::SeqCst) < self.expected && t0.elapsed().as_secs() < 5
            {
                std::thread::yield_now();
            }
            // Give the last arrivals time to reach the shard lock and park.
            std::thread::sleep(std::time::Duration::from_millis(100));
            7
        }
    }

    #[test]
    fn concurrent_same_key_demands_run_exactly_once() {
        const N: u64 = 8;
        let store = FactStore::new();
        let runs = AtomicU64::new(0);
        let arrivals = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    let p = GatedPass {
                        key: key(PassId::Classify, 5),
                        runs: &runs,
                        arrivals: &arrivals,
                        expected: N,
                    };
                    arrivals.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(*store.demand(&p), 7);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly-once execution");
        let m = store.metrics_for(PassId::Classify);
        assert_eq!(m.invocations, 1);
        assert_eq!(m.deduped + m.reused, N - 1, "everyone else was served");
    }

    #[test]
    fn invalidate_while_running_never_serves_stale() {
        let store = Arc::new(FactStore::new());
        let runs = Arc::new(AtomicU64::new(0));
        let started = Arc::new(AtomicU64::new(0));
        let release = Arc::new(AtomicU64::new(0));

        struct HeldPass {
            key: FactKey,
            runs: Arc<AtomicU64>,
            started: Arc<AtomicU64>,
            release: Arc<AtomicU64>,
        }
        impl Pass for HeldPass {
            type Output = u64;
            fn key(&self) -> FactKey {
                self.key
            }
            fn input_hash(&self) -> u128 {
                9
            }
            fn run(&self) -> u64 {
                let n = self.runs.fetch_add(1, Ordering::SeqCst) + 1;
                self.started.store(1, Ordering::SeqCst);
                let t0 = Instant::now();
                while self.release.load(Ordering::SeqCst) == 0 && t0.elapsed().as_secs() < 5 {
                    std::thread::yield_now();
                }
                n
            }
        }

        let k = key(PassId::Deps, 4);
        let runner = {
            let (store, runs, started, release) = (
                store.clone(),
                runs.clone(),
                started.clone(),
                release.clone(),
            );
            std::thread::spawn(move || {
                let p = HeldPass {
                    key: k,
                    runs,
                    started,
                    release,
                };
                *store.demand(&p)
            })
        };
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // The fact is mid-run; an invalidation must dirty the claim.
        assert_eq!(store.invalidate(k), 1);
        release.store(1, Ordering::SeqCst);
        // The runner's own caller still gets the value it computed…
        assert_eq!(runner.join().unwrap(), 1);
        // …but the next demand recomputes instead of serving the stale fact.
        let p = HeldPass {
            key: k,
            runs: runs.clone(),
            started: started.clone(),
            release: release.clone(),
        };
        assert_eq!(*store.demand(&p), 2, "stale fact not served");
        assert_eq!(store.metrics_for(PassId::Deps).invocations, 2);
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
        assert_eq!(*fresh.demand(&a), 10);
        assert_eq!(*fresh.demand(&b), 20);
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
        assert_eq!(*occupied.demand(&newer), 77, "existing entry untouched");
    }

    /// Regression (persistence × speculation): an export taken while a
    /// demand is mid-`Running`, or after an entry was invalidated, must not
    /// contain that slot — a snapshot written during speculative
    /// pre-classification never persists racing or stale results.
    #[test]
    fn export_skips_running_and_invalid_slots() {
        let store = Arc::new(FactStore::new());
        let runs = AtomicU64::new(0);
        let done = CountingPass {
            key: key(PassId::Classify, 1),
            hash: 1,
            deps: vec![],
            runs: &runs,
            output: 1,
        };
        store.demand(&done);

        let started = Arc::new(AtomicU64::new(0));
        let release = Arc::new(AtomicU64::new(0));
        let runner = {
            let (store, started, release) = (store.clone(), started.clone(), release.clone());
            std::thread::spawn(move || {
                struct Held {
                    started: Arc<AtomicU64>,
                    release: Arc<AtomicU64>,
                }
                impl Pass for Held {
                    type Output = i64;
                    fn key(&self) -> FactKey {
                        key(PassId::Classify, 2)
                    }
                    fn input_hash(&self) -> u128 {
                        1
                    }
                    fn run(&self) -> i64 {
                        self.started.store(1, Ordering::SeqCst);
                        let t0 = Instant::now();
                        while self.release.load(Ordering::SeqCst) == 0 && t0.elapsed().as_secs() < 5
                        {
                            std::thread::yield_now();
                        }
                        2
                    }
                }
                *store.demand(&Held { started, release })
            })
        };
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }

        // Mid-flight: the Running slot must not be exported.
        let snap = store.export();
        assert_eq!(snap.len(), 1, "running slot excluded from export");
        assert_eq!(snap[0].key, key(PassId::Classify, 1));

        // The in-flight fact is invalidated before it finishes (the
        // epoch-cancel race): once stored, it is dirty — still unexported.
        assert_eq!(store.invalidate(key(PassId::Classify, 2)), 1);
        release.store(1, Ordering::SeqCst);
        runner.join().unwrap();
        let snap = store.export();
        assert_eq!(snap.len(), 1, "invalidated result excluded from export");

        // Invalidate the finished fact too: nothing left to persist.
        store.invalidate(key(PassId::Classify, 1));
        assert!(store.export().is_empty());
    }

    /// Pins the `wait_secs` accounting: a demand that blocks on a fact
    /// another thread is computing charges the parked interval to
    /// `wait_secs` exactly once.
    #[test]
    fn deduped_demand_charges_its_wait_once() {
        const HOLD_MS: u64 = 200;
        let store = Arc::new(FactStore::new());
        let started = Arc::new(AtomicU64::new(0));

        struct SlowPass {
            started: Arc<AtomicU64>,
        }
        impl Pass for SlowPass {
            type Output = i64;
            fn key(&self) -> FactKey {
                key(PassId::Classify, 50)
            }
            fn input_hash(&self) -> u128 {
                1
            }
            fn run(&self) -> i64 {
                self.started.store(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(HOLD_MS));
                5
            }
        }

        // The claimant grabs the Running slot first.
        let claimant = {
            let (store, started) = (store.clone(), started.clone());
            std::thread::spawn(move || *store.demand(&SlowPass { started }))
        };
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }

        // This demand dedups against the claimant: it parks for ~HOLD_MS.
        let got = store.demand(&SlowPass {
            started: started.clone(),
        });
        assert_eq!(*got, 5);
        assert_eq!(claimant.join().unwrap(), 5);

        let m = store.metrics_for(PassId::Classify);
        assert_eq!(m.invocations, 1, "the claimant ran the pass once");
        assert_eq!(m.deduped, 1, "the second demand deduped against it");
        let hold = HOLD_MS as f64 / 1000.0;
        assert!(
            m.wait_secs >= hold * 0.5,
            "blocked time lands in wait_secs once: {}",
            m.wait_secs
        );
        assert!(
            m.wait_secs < hold * 3.0,
            "wait_secs must not double-count the parked interval: {}",
            m.wait_secs
        );
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
            type Output = ();
            fn key(&self) -> FactKey {
                self.key
            }
            fn input_hash(&self) -> u128 {
                1
            }
            fn run(&self) {
                if let Some(inner) = &self.inner {
                    self.store.demand(&**inner);
                }
                std::thread::sleep(std::time::Duration::from_millis(self.ms));
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
        assert_eq!(*a.demand(&p), 42);
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        // The second store never runs the pass: the tier answers.
        assert_eq!(*b.demand(&p), 42);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "tier served the fact");
        let m = b.metrics_for(PassId::Classify);
        assert_eq!((m.invocations, m.reused, m.shared), (0, 0, 1));
        // A tier hit installs locally: the third demand is a plain reuse.
        assert_eq!(*b.demand(&p), 42);
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
        assert_eq!(*store.demand(&p), 5);
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
        // CountingPass output is an i64 behind a Classify key, so
        // approx_value_bytes charges the 64-byte floor per fact.
        let store = FactStore::new();
        store.set_budget(Some(64 * 4));
        let runs = AtomicU64::new(0);
        let passes: Vec<CountingPass<'_>> = (0..32)
            .map(|i| CountingPass {
                key: key(PassId::Classify, 200 + i),
                hash: 1,
                deps: vec![],
                runs: &runs,
                output: i64::from(i),
            })
            .collect();
        for p in &passes {
            store.demand(p);
        }
        let bs = store.byte_stats();
        assert!(bs.evicted > 0, "over-budget demands evicted cold facts");
        assert!(
            bs.resident_bytes <= 64 * 4 + 64,
            "resident stays near budget: {}",
            bs.resident_bytes
        );
        // Every re-demand still returns the right value (recomputed or
        // resident — bit-identical either way).
        for (i, p) in passes.iter().enumerate() {
            assert_eq!(*store.demand(p), i as i64);
        }
        // An unbounded store never evicts.
        let unbounded = FactStore::new();
        for p in &passes {
            unbounded.demand(p);
        }
        assert_eq!(unbounded.byte_stats().evicted, 0);
        assert_eq!(unbounded.len(), 32);
    }

    #[test]
    fn eviction_spares_running_and_invalid_slots() {
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
        assert_eq!(*store.demand(&p), 9);
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
