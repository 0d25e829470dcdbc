//! The process-wide shared fact tier: a content-addressed store of finished
//! analysis facts, shared by every session of a multi-tenant daemon.
//!
//! A [`crate::Pass`] is a *pure function of its input hash* (the
//! [`crate::pipeline`] contract), and every input hash folds the region
//! content keys, the value hashes of the facts it reads, the configuration,
//! and the resolved assertion marks that affect the fact.  Two sessions demanding a fact under the same
//! `(pass, hash)` pair are therefore asking for interchangeable values — so
//! the tier can hand one session's finished fact to another without any
//! notion of which program, session, or assertion set produced it.
//!
//! # Relationship to the per-session [`crate::FactStore`]
//!
//! The tier sits *under* each session's store ([`crate::FactStore`] built
//! with [`crate::FactStore::with_shared`]).  The session store stays the
//! overlay: it owns the `(pass, scope)` keyed entries, the invalid-entry
//! tombstones, and the invalidation edges, and one thread at a time reaches
//! it.  The tier is the only fact structure that threads share, so it is
//! the only one that is sharded.  The tier only ever holds
//! finished, valid values keyed purely by content — it has **no**
//! invalidation: a fact whose inputs change simply stops being looked up
//! (its hash no longer matches any demand), and an *assertion* folds into
//! the demanded hash itself, so one tenant's asserted facts live at
//! different tier keys than another tenant's clean ones.  Session-scoped
//! invalidation (`assert`, `reload`) touches only the overlay.
//!
//! # Memory budget
//!
//! Entries carry an approximate byte size ([`crate::snapshot`]'s
//! `64 + 2×` the value's wire length).  It is an estimate that tracks the
//! heap a fact holds only because the large values are kept compact
//! (`tests/fact_heap.rs` pins the ratio to 0.75–2×); it is not a
//! measurement.  With a budget set, inserts that push the tier
//! over it trigger a second-chance (clock) sweep across the shards: each
//! entry gets one round of grace via its `referenced` bit — set on every
//! hit, cleared by a passing sweep — before being evicted.  Evicting is
//! always sound (the next demand recomputes the same value by purity), so
//! the sweep never needs to coordinate with readers.

use crate::pipeline::{ExportedFact, FactKey, PassId};
use crate::snapshot::FactCell;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of independently locked shards: every session's store meets
/// every other's here.
const TIER_SHARDS: usize = 16;

struct TierEntry {
    /// The finished fact, decoded or still the bytes it was persisted as;
    /// the overlay that hits it reads it back as its pass's output type.
    value: FactCell,
    /// Approximate resident bytes of `value`: `64 + 2×` its wire length
    /// ([`crate::snapshot::value_footprint`]).
    bytes: usize,
    /// Hash of `value`'s wire form, handed to the overlay on a hit.
    value_hash: u128,
    /// Second-chance bit: set on every hit, cleared by a passing eviction
    /// sweep; an unreferenced entry is evicted on the sweep's next visit.
    referenced: bool,
    /// A representative store key (the key of the first session to publish
    /// the fact) — only used to round-trip through the snapshot codec,
    /// which addresses facts by `(key, hash)`.
    key: FactKey,
    /// Dependency edges recorded by the publishing session, installed into
    /// an overlay on a hit so session-scoped invalidation keeps
    /// propagating through shared facts.
    deps: Vec<FactKey>,
    /// Session id of the first publisher ([`WARM_START_OWNER`] for facts
    /// seeded from a snapshot).  Drives per-session resident accounting and
    /// eviction fairness; irrelevant to fact identity (content-addressed).
    owner: u64,
}

impl TierEntry {
    fn new(f: ExportedFact, owner: u64) -> TierEntry {
        TierEntry {
            value: f.value,
            bytes: f.bytes,
            value_hash: f.value_hash,
            referenced: true,
            key: f.key,
            deps: f.deps,
            owner,
        }
    }

    /// The entry as the fact stored under `hash`.
    fn exported(&self, hash: u128) -> ExportedFact {
        ExportedFact {
            key: self.key,
            hash,
            value_hash: self.value_hash,
            deps: self.deps.clone(),
            bytes: self.bytes,
            value: self.value.clone(),
        }
    }
}

/// Owner id credited for facts installed by a warm-start import rather
/// than a live session.
pub const WARM_START_OWNER: u64 = 0;

#[derive(Default)]
struct TierShard {
    map: Mutex<HashMap<(PassId, u128), TierEntry>>,
}

/// Counter snapshot of one [`SharedFactTier`] (the daemon's `stats.tier`
/// payload).
#[derive(Clone, Copy, Debug, Default)]
pub struct TierStats {
    /// Lookups answered from the tier.
    pub hits: u64,
    /// Lookups that found nothing (the session computes and publishes).
    pub misses: u64,
    /// Facts published (first insert of a `(pass, hash)` pair).
    pub inserts: u64,
    /// Entries evicted by the budget sweep.
    pub evicted: u64,
    /// Approximate bytes reclaimed by eviction.
    pub evicted_bytes: u64,
    /// Approximate resident bytes right now.
    pub resident_bytes: u64,
    /// Resident entries right now.
    pub resident_entries: u64,
    /// High-water mark of resident bytes over the tier's lifetime (eviction
    /// lowers `resident_bytes` but never this) — the peak memory the tier
    /// actually held, the corpus benchmark's bounded-memory signal.
    pub peak_resident_bytes: u64,
    /// Configured byte budget (`None` = unbounded).
    pub budget: Option<u64>,
    /// Entries spared (skipped, not merely granted second chance) by
    /// eviction fairness protecting the smallest session.
    pub fairness_spared: u64,
}

/// A process-wide, content-addressed store of finished analysis facts,
/// shared across every session of a daemon.  See the module docs for the
/// soundness argument and the division of labor with the per-session
/// overlay store.
pub struct SharedFactTier {
    shards: Vec<TierShard>,
    /// Byte budget; `0` means unbounded.
    budget: AtomicUsize,
    resident: AtomicUsize,
    /// High-water mark of `resident` (never decremented).
    peak_resident: AtomicUsize,
    /// Clock hand of the second-chance sweep (a shard index).
    clock: AtomicUsize,
    /// Approximate resident bytes per publishing session — the fairness
    /// signal (protect the smallest) and the `stats.tier.sessions` payload.
    owner_bytes: Mutex<HashMap<u64, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evicted: AtomicU64,
    evicted_bytes: AtomicU64,
    fairness_spared: AtomicU64,
}

impl Default for SharedFactTier {
    fn default() -> SharedFactTier {
        SharedFactTier::new()
    }
}

fn tier_shard_index(pass: PassId, hash: u128) -> usize {
    // The content hash is already well-mixed (FNV-128); fold in the pass so
    // the (unlikely) same hash under two passes still spreads.
    ((hash as u64 as usize) ^ ((pass as usize) << 3)) % TIER_SHARDS
}

impl SharedFactTier {
    /// An unbounded tier.
    pub fn new() -> SharedFactTier {
        SharedFactTier::with_budget(None)
    }

    /// A tier with an approximate byte budget (`None` = unbounded).
    pub fn with_budget(budget: Option<usize>) -> SharedFactTier {
        SharedFactTier {
            shards: (0..TIER_SHARDS).map(|_| TierShard::default()).collect(),
            budget: AtomicUsize::new(budget.unwrap_or(0)),
            resident: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
            clock: AtomicUsize::new(0),
            owner_bytes: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            fairness_spared: AtomicU64::new(0),
        }
    }

    /// Look up a finished fact by content: the value, its approximate byte
    /// size and value hash, and the dependency edges recorded when it was
    /// published (installed into the caller's overlay so invalidation keeps
    /// propagating), under the entry's representative key.  Marks the
    /// entry referenced.
    pub fn lookup(&self, pass: PassId, hash: u128) -> Option<ExportedFact> {
        let shard = &self.shards[tier_shard_index(pass, hash)];
        let mut map = shard.map.lock();
        match map.get_mut(&(pass, hash)) {
            Some(e) => {
                e.referenced = true;
                let out = e.exported(hash);
                drop(map);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(out)
            }
            None => {
                drop(map);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publish a finished fact.  First writer wins: a `(pass, hash)` pair
    /// already present is left untouched (by purity the values are
    /// interchangeable, and keeping the resident one preserves pointer
    /// sharing with sessions already holding it).
    ///
    /// `owner` is the publishing session's id — it is credited with the
    /// entry's bytes for fairness accounting, and an overflow this publish
    /// causes will not evict the *smallest* other session's facts first.
    pub fn publish_owned(&self, owner: u64, fact: ExportedFact) {
        let (pass, hash, bytes) = (fact.key.pass, fact.hash, fact.bytes);
        let shard = &self.shards[tier_shard_index(pass, hash)];
        {
            let mut map = shard.map.lock();
            if map.contains_key(&(pass, hash)) {
                return;
            }
            map.insert((pass, hash), TierEntry::new(fact, owner));
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_resident.fetch_max(now, Ordering::Relaxed);
        *self.owner_bytes.lock().entry(owner).or_insert(0) += bytes as u64;
        self.evict_to_budget(owner);
    }

    /// The session whose facts an overflow caused by `cause` must spare:
    /// the one with the smallest resident footprint, provided it is not
    /// the cause itself and at least two sessions hold resident bytes
    /// (fairness is meaningless with a single tenant).
    fn fairness_protected(&self, cause: u64) -> Option<u64> {
        let owners = self.owner_bytes.lock();
        let holders = owners.iter().filter(|(_, b)| **b > 0);
        if holders.clone().count() < 2 {
            return None;
        }
        holders
            .filter(|(o, _)| **o != cause)
            .min_by_key(|(o, b)| (**b, **o))
            .map(|(o, _)| *o)
    }

    /// Second-chance sweep: while over budget, advance the clock hand over
    /// the shards, giving each referenced entry one round of grace and
    /// evicting the rest.  Two full revolutions guarantee termination even
    /// when everything starts referenced.
    ///
    /// Fairness: the sweep first runs with the smallest *other* session's
    /// entries protected outright (a big tenant blowing the budget should
    /// not flush a small tenant's working set); in the rare case the
    /// protected facts are themselves most of the tier, a second
    /// unprotected sweep still guarantees the budget holds.
    fn evict_to_budget(&self, cause: u64) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        if let Some(protected) = self.fairness_protected(cause) {
            self.sweep(budget, Some(protected));
        }
        if self.resident.load(Ordering::Relaxed) > budget {
            self.sweep(budget, None);
        }
    }

    fn sweep(&self, budget: usize, protected: Option<u64>) {
        let mut visits = 0;
        while self.resident.load(Ordering::Relaxed) > budget && visits < 2 * TIER_SHARDS {
            let i = self.clock.fetch_add(1, Ordering::Relaxed) % TIER_SHARDS;
            visits += 1;
            let mut freed = 0usize;
            let mut dropped = 0u64;
            let mut spared = 0u64;
            let mut owner_freed: HashMap<u64, u64> = HashMap::new();
            {
                let mut map = self.shards[i].map.lock();
                map.retain(|_, e| {
                    if self.resident.load(Ordering::Relaxed) <= budget + freed {
                        return true;
                    }
                    if protected == Some(e.owner) {
                        spared += 1;
                        return true;
                    }
                    if e.referenced {
                        e.referenced = false;
                        true
                    } else {
                        freed += e.bytes;
                        dropped += 1;
                        *owner_freed.entry(e.owner).or_insert(0) += e.bytes as u64;
                        false
                    }
                });
            }
            if spared > 0 {
                self.fairness_spared.fetch_add(spared, Ordering::Relaxed);
            }
            if freed > 0 {
                self.resident.fetch_sub(freed, Ordering::Relaxed);
                self.evicted.fetch_add(dropped, Ordering::Relaxed);
                self.evicted_bytes
                    .fetch_add(freed as u64, Ordering::Relaxed);
                let mut owners = self.owner_bytes.lock();
                for (o, b) in owner_freed {
                    if let Some(total) = owners.get_mut(&o) {
                        *total = total.saturating_sub(b);
                    }
                }
            }
        }
    }

    /// Lift every resident fact out for persistence, in deterministic
    /// `(key, hash)` order.  One snapshot covers every session — the tier
    /// is the superset of all clean (shareable) facts.
    pub fn export(&self) -> Vec<ExportedFact> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.map.lock();
            out.extend(map.iter().map(|((_, hash), e)| e.exported(*hash)));
        }
        out.sort_by_key(|f| (f.key, f.hash));
        out
    }

    /// Drop the `(pass, hash)` entry if it still holds `value`: a persisted
    /// value whose bytes did not decode at its first read.  The demand that
    /// found it recomputes and publishes the fact afresh.
    pub fn discard(&self, pass: PassId, hash: u128, value: &FactCell) {
        let shard = &self.shards[tier_shard_index(pass, hash)];
        let removed = {
            let mut map = shard.map.lock();
            match map.get(&(pass, hash)) {
                Some(e) if FactCell::ptr_eq(&e.value, value) => map.remove(&(pass, hash)),
                _ => None,
            }
        };
        if let Some(e) = removed {
            self.resident.fetch_sub(e.bytes, Ordering::Relaxed);
            if let Some(total) = self.owner_bytes.lock().get_mut(&e.owner) {
                *total = total.saturating_sub(e.bytes as u64);
            }
        }
    }

    /// Seed the tier with previously exported facts (a warm start).
    /// Existing `(pass, hash)` pairs are left untouched.  Returns how many
    /// facts were installed.
    pub fn import(&self, facts: &[ExportedFact]) -> usize {
        let mut installed = 0;
        for f in facts {
            let shard = &self.shards[tier_shard_index(f.key.pass, f.hash)];
            let mut map = shard.map.lock();
            if let std::collections::hash_map::Entry::Vacant(v) = map.entry((f.key.pass, f.hash)) {
                v.insert(TierEntry::new(f.clone(), WARM_START_OWNER));
                let now = self.resident.fetch_add(f.bytes, Ordering::Relaxed) + f.bytes;
                self.peak_resident.fetch_max(now, Ordering::Relaxed);
                *self.owner_bytes.lock().entry(WARM_START_OWNER).or_insert(0) += f.bytes as u64;
                installed += 1;
            }
        }
        if installed > 0 {
            self.evict_to_budget(WARM_START_OWNER);
        }
        installed
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }

    /// Is the tier empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// High-water mark of resident bytes over the tier's lifetime.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident.load(Ordering::Relaxed)
    }

    /// Approximate resident bytes per publishing session, sorted by
    /// session id (owner `0` is warm-start imports).  Sessions whose
    /// every fact has been evicted are omitted.
    pub fn session_bytes(&self) -> Vec<(u64, u64)> {
        let owners = self.owner_bytes.lock();
        let mut out: Vec<(u64, u64)> = owners
            .iter()
            .filter(|(_, b)| **b > 0)
            .map(|(o, b)| (*o, *b))
            .collect();
        out.sort_unstable();
        out
    }

    /// Counter snapshot (the daemon's `stats.tier` payload).
    pub fn stats(&self) -> TierStats {
        let budget = self.budget.load(Ordering::Relaxed);
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed) as u64,
            resident_entries: self.len() as u64,
            peak_resident_bytes: self.peak_resident.load(Ordering::Relaxed) as u64,
            budget: (budget != 0).then_some(budget as u64),
            fairness_spared: self.fairness_spared.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scope;
    use crate::ExecutionFact;
    use std::sync::Arc;

    /// A fact value; the tier never looks inside one.
    fn value() -> FactCell {
        FactCell::from(Arc::new(ExecutionFact::default()))
    }

    fn key(pass: PassId, n: u32) -> FactKey {
        FactKey::new(pass, Scope::Loop(suif_ir::StmtId(n)))
    }

    /// A fact to publish; its value hash is its input hash's complement.
    fn fact(
        key: FactKey,
        hash: u128,
        bytes: usize,
        deps: Vec<FactKey>,
        value: FactCell,
    ) -> ExportedFact {
        ExportedFact {
            key,
            hash,
            value_hash: !hash,
            deps,
            bytes,
            value,
        }
    }

    #[test]
    fn publish_then_lookup_round_trips() {
        let tier = SharedFactTier::new();
        assert!(tier.lookup(PassId::Classify, 7).is_none());
        let published = value();
        tier.publish_owned(
            WARM_START_OWNER,
            fact(
                key(PassId::Classify, 1),
                7,
                100,
                vec![key(PassId::Summarize, 0)],
                published.clone(),
            ),
        );
        let f = tier.lookup(PassId::Classify, 7).unwrap();
        assert!(
            FactCell::ptr_eq(&f.value, &published),
            "the published value itself"
        );
        assert_eq!((f.bytes, f.value_hash), (100, !7));
        assert_eq!(f.deps, vec![key(PassId::Summarize, 0)]);
        // A different hash is a different fact.
        assert!(tier.lookup(PassId::Classify, 8).is_none());
        let s = tier.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
        assert_eq!(s.resident_bytes, 100);
        assert_eq!(s.resident_entries, 1);
    }

    #[test]
    fn first_writer_wins() {
        let tier = SharedFactTier::new();
        let first = value();
        tier.publish_owned(
            WARM_START_OWNER,
            fact(key(PassId::Deps, 1), 5, 10, vec![], first.clone()),
        );
        tier.publish_owned(
            WARM_START_OWNER,
            fact(key(PassId::Deps, 2), 5, 10, vec![], value()),
        );
        let f = tier.lookup(PassId::Deps, 5).unwrap();
        assert!(FactCell::ptr_eq(&f.value, &first), "first publish kept");
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.resident_bytes(), 10);
    }

    #[test]
    fn budget_evicts_cold_entries_but_spares_referenced_ones() {
        let tier = SharedFactTier::with_budget(Some(500));
        for i in 0..10u32 {
            tier.publish_owned(
                WARM_START_OWNER,
                fact(key(PassId::Classify, i), i as u128, 100, vec![], value()),
            );
        }
        let s = tier.stats();
        assert!(
            s.resident_bytes <= 500,
            "sweep keeps the tier under budget: {} bytes",
            s.resident_bytes
        );
        assert!(s.evicted >= 5, "overflow evicted: {}", s.evicted);
        assert_eq!(
            s.evicted_bytes,
            s.evicted * 100,
            "every eviction reclaims its bytes"
        );
        // Whatever survived still answers; a re-publish of an evicted hash
        // is admitted again.
        let survivors = (0..10u32)
            .filter(|i| tier.lookup(PassId::Classify, *i as u128).is_some())
            .count();
        assert_eq!(survivors, tier.len());
        assert!(survivors >= 1);
    }

    #[test]
    fn session_bytes_tracks_owners() {
        let tier = SharedFactTier::new();
        tier.publish_owned(1, fact(key(PassId::Classify, 0), 10, 100, vec![], value()));
        tier.publish_owned(1, fact(key(PassId::Classify, 1), 11, 50, vec![], value()));
        tier.publish_owned(2, fact(key(PassId::Classify, 2), 12, 30, vec![], value()));
        // Duplicate hash from another owner: first writer keeps the credit.
        tier.publish_owned(2, fact(key(PassId::Classify, 3), 10, 100, vec![], value()));
        assert_eq!(tier.session_bytes(), vec![(1, 150), (2, 30)]);
        assert_eq!(tier.resident_bytes(), 180);
    }

    #[test]
    fn overflow_by_big_tenant_spares_smallest_session() {
        // Budget fits the small tenant plus a slice of the big one.
        let tier = SharedFactTier::with_budget(Some(600));
        // Small tenant (session 1): 2 facts, 100 bytes.
        for i in 0..2u32 {
            tier.publish_owned(
                1,
                fact(key(PassId::Classify, i), i as u128, 50, vec![], value()),
            );
        }
        // Big tenant (session 2) floods the tier way past budget.
        for i in 100..140u32 {
            tier.publish_owned(
                2,
                fact(key(PassId::Classify, i), i as u128, 100, vec![], value()),
            );
        }
        let s = tier.stats();
        assert!(
            s.resident_bytes <= 600,
            "budget holds: {} bytes",
            s.resident_bytes
        );
        let sessions = tier.session_bytes();
        let small = sessions.iter().find(|(o, _)| *o == 1).map(|(_, b)| *b);
        assert_eq!(
            small,
            Some(100),
            "smallest session untouched by the big tenant's overflow: {sessions:?}"
        );
        assert!(s.fairness_spared > 0, "protection engaged");
        // Every eviction debited its owner: totals reconcile.
        let total: u64 = sessions.iter().map(|(_, b)| *b).sum();
        assert_eq!(total, s.resident_bytes);
    }

    #[test]
    fn fairness_does_not_protect_sole_tenant_or_break_budget() {
        let tier = SharedFactTier::with_budget(Some(300));
        for i in 0..10u32 {
            tier.publish_owned(
                7,
                fact(key(PassId::Classify, i), i as u128, 100, vec![], value()),
            );
        }
        let s = tier.stats();
        assert!(s.resident_bytes <= 300, "sole tenant still bounded");
        assert_eq!(s.fairness_spared, 0, "no fairness with one tenant");
        // Degenerate case: the smallest session itself overflows — the
        // unprotected second sweep must still enforce the budget.
        let tier = SharedFactTier::with_budget(Some(250));
        tier.publish_owned(1, fact(key(PassId::Deps, 0), 1000, 200, vec![], value()));
        for i in 0..8u32 {
            tier.publish_owned(
                2,
                fact(
                    key(PassId::Deps, 1 + i),
                    2000 + i as u128,
                    10,
                    vec![],
                    value(),
                ),
            );
        }
        // Session 2 (80 bytes) is smaller than session 1 (200); now session
        // 2 causes the overflow.
        tier.publish_owned(2, fact(key(PassId::Deps, 99), 3000, 200, vec![], value()));
        assert!(
            tier.resident_bytes() <= 250,
            "budget holds even when the cause is the small session: {}",
            tier.resident_bytes()
        );
    }

    #[test]
    fn export_import_round_trip() {
        let tier = SharedFactTier::new();
        let classify = value();
        tier.publish_owned(
            WARM_START_OWNER,
            fact(
                key(PassId::Classify, 3),
                11,
                64,
                vec![key(PassId::Summarize, 0)],
                classify.clone(),
            ),
        );
        tier.publish_owned(
            WARM_START_OWNER,
            fact(key(PassId::Deps, 3), 12, 32, vec![], value()),
        );
        let exported = tier.export();
        assert_eq!(exported.len(), 2);

        let fresh = SharedFactTier::new();
        assert_eq!(fresh.import(&exported), 2);
        assert_eq!(fresh.import(&exported), 0, "idempotent");
        assert_eq!(fresh.resident_bytes(), 96);
        let f = fresh.lookup(PassId::Classify, 11).unwrap();
        assert!(FactCell::ptr_eq(&f.value, &classify));
        assert_eq!(
            (f.deps, f.value_hash),
            (vec![key(PassId::Summarize, 0)], !11)
        );
    }
}
