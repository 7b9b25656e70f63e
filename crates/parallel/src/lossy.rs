//! A thread-local, lossy, direct-mapped memo tier in front of [`ShardedMap`].
//!
//! It fronts the two memos of the cost model (`hexcute-costmodel`): the
//! per-operation issue/completion estimates and the whole-candidate
//! estimates. Both are read back within one compile, because sibling
//! candidates share most of their operation choices. A memo that the
//! default compile path never reads back does not belong here, which is why
//! the simulator keeps its index tables for one run and the perf evaluator
//! computes bank-conflict charges directly.
//!
//! Every memo cached here is a *pure function of its key*, so a cache is
//! allowed to be lossy: forgetting an entry only costs a recomputation,
//! never correctness. This module exploits that with the cheapest possible
//! lookup structure — a fixed-size, power-of-two, direct-mapped table probed
//! with a precomputed fingerprint tag, no locks, no hashing of the key
//! itself, no growth. On the single-threaded hot path of the search (one
//! worker walking one subtree) this replaces a [`ShardedMap`] shard-lock
//! acquisition plus a `HashMap` probe with one index computation and one
//! slot compare.
//!
//! ## Bit-identity
//!
//! A slot stores the **full key** next to its tag and the stored value is
//! only served when the key compares equal — a tag collision therefore reads
//! as a miss and recomputes, it can never substitute a wrong value. Combined
//! with every cached value being a pure function of its key, the lossy tier
//! is invisible in results: a warm answer from the tier is bit-for-bit
//! identical to a cold computation. The memo-hit oracle tests in
//! `hexcute-core` keep that checked over every workload family.
//!
//! ## Two tiers
//!
//! [`two_tier_get_or_insert_with`] composes the lossy table with a shared
//! [`ShardedMap`]: the thread-local table is probed first; a miss falls
//! through to the sharded cross-worker tier (which still deduplicates work
//! *across* threads) and backfills the table. Keys carry a caller-provided
//! `salt` — typically a per-instance identifier mixed with a program
//! fingerprint — so one thread may serve several cache owners (e.g. two cost
//! models for different architectures) without cross-talk: the salt is part
//! of the stored key, not just the tag.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::cache::{CacheStats, ShardedMap};

/// Slots in each per-thread, per-purpose lossy table. Each slot holds one
/// tagged key/value pair; collisions overwrite (an eviction, counted).
///
/// Sized for one compile. Entries never outlive their compile (each
/// compile builds a fresh cost model with a new [`instance_salt`]), so
/// slots only need to hold one compile's working set. The table is
/// direct-mapped, though, so a smaller one loses hits to collisions within
/// that compile: on cold attention compiles the hit rate is under a point
/// lower at 2048 slots than at 4096, but one at 1024 and five at 256.
pub const DEFAULT_LOSSY_CAPACITY: usize = 2048;

// ---------------------------------------------------------------------------
// Tag mixing and instance salts.
// ---------------------------------------------------------------------------

/// The splitmix64 finalizer: a cheap, well-distributed bijection on `u64`.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes two 64-bit fingerprints into one slot tag. Far cheaper than a
/// `SipHash` pass over the key and good enough to spread precomputed
/// fingerprints across the table; a rare bad spread only costs extra
/// recomputation (the full-key compare keeps results exact).
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix(a ^ splitmix(b))
}

/// A fresh process-unique salt for one cache-owner instance (a cost model).
/// Mixing the salt into every key keeps entries of distinct owners — which
/// may disagree on what a key means (different architectures, different
/// programs) — from ever matching.
pub fn instance_salt() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    splitmix(NEXT.fetch_add(1, Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// The direct-mapped table.
// ---------------------------------------------------------------------------

/// One occupied slot: the tag that placed it, the full key (compared on
/// every probe — see the module docs on bit-identity) and the value.
struct Slot<K, V> {
    tag: u64,
    key: K,
    value: V,
}

/// What [`LossyTable::insert`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossyInsert {
    /// The slot was empty: a new resident entry.
    New,
    /// The slot held the same key: the value was overwritten in place.
    Replaced,
    /// The slot held a *different* key, which was evicted (direct-mapped
    /// collision).
    Evicted,
}

/// A fixed-size, direct-mapped, lossy memo table: `capacity` slots (a power
/// of two), slot index `= tag & (capacity - 1)`, collision policy
/// "overwrite". Single-threaded by design — the two-tier front keeps one per
/// thread per purpose.
pub struct LossyTable<K, V> {
    slots: Vec<Option<Slot<K, V>>>,
    mask: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: usize,
}

impl<K, V> fmt::Debug for LossyTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LossyTable")
            .field("capacity", &self.slots.len())
            .field("entries", &self.entries)
            .finish()
    }
}

impl<K: Eq, V> LossyTable<K, V> {
    /// A table with `capacity` slots, rounded up to a power of two (minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        LossyTable {
            slots: (0..capacity).map(|_| None).collect(),
            mask: capacity as u64 - 1,
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
        }
    }

    /// The number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The stored value for `key`, if its slot holds exactly this key. A slot
    /// whose tag matches but whose key differs (a tag collision) is a miss —
    /// the caller recomputes, it never receives the collider's value.
    pub fn get(&mut self, tag: u64, key: &K) -> Option<&V> {
        let slot = &self.slots[(tag & self.mask) as usize];
        match slot {
            Some(s) if s.tag == tag && s.key == *key => {
                self.hits += 1;
                // Re-borrow to decouple the returned lifetime from `slot`.
                self.slots[(tag & self.mask) as usize]
                    .as_ref()
                    .map(|s| &s.value)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `value` in the slot for `tag`, overwriting (and counting as an
    /// eviction) whatever different key lived there.
    pub fn insert(&mut self, tag: u64, key: K, value: V) -> LossyInsert {
        let slot = &mut self.slots[(tag & self.mask) as usize];
        let outcome = match slot {
            None => {
                self.entries += 1;
                LossyInsert::New
            }
            Some(s) if s.tag == tag && s.key == key => LossyInsert::Replaced,
            Some(_) => {
                self.evictions += 1;
                LossyInsert::Evicted
            }
        };
        *slot = Some(Slot { tag, key, value });
        outcome
    }

    /// This table's own counters (the per-thread view; the per-purpose
    /// process-wide aggregate is [`lossy_stats`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries,
        }
    }
}

// ---------------------------------------------------------------------------
// Purposes, per-purpose global counters, thread-local registry.
// ---------------------------------------------------------------------------

/// Which memo a lossy table fronts. Each purpose owns one thread-local table
/// per thread (keyed by this enum, not by cache instance, so long-lived pool
/// workers keep a bounded number of tables no matter how many short-lived
/// cache owners come and go).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossyPurpose {
    /// `CostModel`'s per-operation issue/completion estimates.
    OpCost,
    /// `CostModel`'s whole-candidate estimates.
    CandidateEstimate,
}

/// Every purpose, in display order.
pub const LOSSY_PURPOSES: [LossyPurpose; 2] =
    [LossyPurpose::OpCost, LossyPurpose::CandidateEstimate];

const NUM_PURPOSES: usize = LOSSY_PURPOSES.len();

impl LossyPurpose {
    /// The purpose's dense index into [`LOSSY_PURPOSES`]-ordered arrays.
    pub fn index(self) -> usize {
        match self {
            LossyPurpose::OpCost => 0,
            LossyPurpose::CandidateEstimate => 1,
        }
    }

    /// A short human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            LossyPurpose::OpCost => "op-cost",
            LossyPurpose::CandidateEstimate => "candidate-estimate",
        }
    }
}

/// Process-wide counters per purpose, aggregated across every thread's
/// table. Stored on separate cache lines per purpose to keep parallel
/// workers from false-sharing the counters.
#[repr(align(64))]
#[derive(Default)]
struct PurposeCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicU64,
}

fn counters() -> &'static [PurposeCounters; NUM_PURPOSES] {
    static COUNTERS: OnceLock<[PurposeCounters; NUM_PURPOSES]> = OnceLock::new();
    COUNTERS.get_or_init(Default::default)
}

/// Process-wide hit/miss/eviction counters of one purpose's lossy tables,
/// summed over every thread (entries counts slots filled and never shrinks —
/// thread-local tables live as long as their threads).
pub fn lossy_stats(purpose: LossyPurpose) -> CacheStats {
    let c = &counters()[purpose.index()];
    CacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
        evictions: c.evictions.load(Ordering::Relaxed),
        entries: c.entries.load(Ordering::Relaxed) as usize,
    }
}

/// [`lossy_stats`] merged over every purpose: the whole fast tier in one
/// snapshot, for the `repro_*` binaries' cache summaries.
pub fn lossy_stats_total() -> CacheStats {
    LOSSY_PURPOSES
        .iter()
        .fold(CacheStats::default(), |acc, &p| acc.merged(&lossy_stats(p)))
}

thread_local! {
    /// One boxed `LossyTable<(u64, K), V>` per purpose for this thread;
    /// `None` until first use. `dyn Any` erases the per-purpose key/value
    /// types (each purpose is only ever used with one concrete pair).
    static TABLES: RefCell<[Option<Box<dyn Any>>; NUM_PURPOSES]> =
        const { RefCell::new([None, None]) };
}

/// Runs `f` on this thread's table for `purpose`, creating it on first use.
fn with_table<K, V, R>(
    purpose: LossyPurpose,
    f: impl FnOnce(&mut LossyTable<(u64, K), V>) -> R,
) -> R
where
    K: Eq + 'static,
    V: 'static,
{
    TABLES.with(|cell| {
        let mut tables = cell.borrow_mut();
        let slot = &mut tables[purpose.index()];
        let any = slot.get_or_insert_with(|| {
            Box::new(LossyTable::<(u64, K), V>::with_capacity(
                DEFAULT_LOSSY_CAPACITY,
            ))
        });
        let table = any
            .downcast_mut::<LossyTable<(u64, K), V>>()
            .expect("a lossy purpose is used with a single key/value type");
        f(table)
    })
}

/// The two-tier memo front: probes this thread's lossy table for
/// `(salt, key)` first, falling through to the shared [`ShardedMap`] tier
/// (which deduplicates computation across workers) and backfilling the
/// table.
///
/// `tag` is a precomputed fingerprint of `key` (the caller usually has one
/// already); `salt` distinguishes cache owners and is part of the stored
/// key, so a salt mismatch can never serve a value. `compute` runs outside
/// any table borrow, so it may recurse into other purposes.
pub fn two_tier_get_or_insert_with<K, V, F>(
    purpose: LossyPurpose,
    salt: u64,
    tag: u64,
    shared: &ShardedMap<K, V>,
    key: K,
    compute: F,
) -> V
where
    K: Hash + Eq + Clone + 'static,
    V: Clone + 'static,
    F: FnOnce() -> V,
{
    two_tier_cached(purpose, salt, tag, key, |k| {
        shared.get_or_insert_with(k, compute)
    })
}

/// [`two_tier_get_or_insert_with`] with the shared-tier fallthrough going
/// through [`ShardedMap::probe_or_insert_with`]: one lock acquisition and
/// one probe instead of read-miss/recheck/insert. `compute` runs **under
/// the shard write lock** on a shared-tier miss, so this variant carries the
/// same restriction: only cheap, non-reentrant computes.
pub fn two_tier_probe_or_insert_with<K, V, F>(
    purpose: LossyPurpose,
    salt: u64,
    tag: u64,
    shared: &ShardedMap<K, V>,
    key: K,
    compute: F,
) -> V
where
    K: Hash + Eq + Clone + 'static,
    V: Clone + 'static,
    F: FnOnce() -> V,
{
    two_tier_cached(purpose, salt, tag, key, |k| {
        shared.probe_or_insert_with(k, compute)
    })
}

/// The lossy tier around a shared-tier fallthrough: probe the thread-local
/// table, on a miss run `fallthrough` (which consults the shared tier) and
/// backfill. `fallthrough` runs outside any table borrow, so it may recurse
/// into other purposes.
fn two_tier_cached<K, V>(
    purpose: LossyPurpose,
    salt: u64,
    tag: u64,
    key: K,
    fallthrough: impl FnOnce(K) -> V,
) -> V
where
    K: Eq + Clone + 'static,
    V: Clone + 'static,
{
    if let Some(value) = probe(purpose, salt, tag, &key) {
        return value;
    }
    let value = fallthrough(key.clone());
    backfill(purpose, salt, tag, key, value.clone());
    value
}

/// Probes this thread's lossy table only — no shared-tier fallthrough, no
/// computation.
fn probe<K, V>(purpose: LossyPurpose, salt: u64, tag: u64, key: &K) -> Option<V>
where
    K: Eq + Clone + 'static,
    V: Clone + 'static,
{
    let tag = mix(salt, tag);
    let lossy_key = (salt, key.clone());
    let hit = with_table::<K, V, _>(purpose, |table| table.get(tag, &lossy_key).cloned());
    let c = &counters()[purpose.index()];
    match hit {
        Some(value) => {
            c.hits.fetch_add(1, Ordering::Relaxed);
            Some(value)
        }
        None => {
            c.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// Stores a freshly computed value in this thread's lossy table (the second
/// half of a [`probe`]-miss).
fn backfill<K, V>(purpose: LossyPurpose, salt: u64, tag: u64, key: K, value: V)
where
    K: Eq + 'static,
    V: Clone + 'static,
{
    let tag = mix(salt, tag);
    let c = &counters()[purpose.index()];
    with_table::<K, V, _>(purpose, |table| {
        match table.insert(tag, (salt, key), value) {
            LossyInsert::New => {
                c.entries.fetch_add(1, Ordering::Relaxed);
            }
            LossyInsert::Evicted => {
                c.evictions.fetch_add(1, Ordering::Relaxed);
            }
            LossyInsert::Replaced => {}
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_key_compare_turns_tag_collisions_into_recomputes() {
        // Two keys engineered onto the same slot with the same tag: the
        // direct-mapped table must never serve one key's value for the other.
        let mut table: LossyTable<u64, u64> = LossyTable::with_capacity(8);
        let tag = 0x1234_5678_9abc_def0;
        assert_eq!(table.insert(tag, 1, 100), LossyInsert::New);
        assert_eq!(table.get(tag, &1), Some(&100));
        // Same tag, different key: a miss (recompute), not a wrong value.
        assert_eq!(table.get(tag, &2), None);
        // Inserting the collider evicts key 1...
        assert_eq!(table.insert(tag, 2, 200), LossyInsert::Evicted);
        assert_eq!(table.get(tag, &2), Some(&200));
        // ...and key 1 now misses (lossy: recompute, never corrupt).
        assert_eq!(table.get(tag, &1), None);
        let stats = table.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn slot_collisions_between_different_tags_also_evict() {
        let mut table: LossyTable<u64, u64> = LossyTable::with_capacity(4);
        // Tags 3 and 7 share slot 3 (capacity 4, mask 3) but differ as tags.
        assert_eq!(table.insert(3, 30, 300), LossyInsert::New);
        assert_eq!(table.insert(7, 70, 700), LossyInsert::Evicted);
        assert_eq!(table.get(3, &30), None, "evicted by the slot collider");
        assert_eq!(table.get(7, &70), Some(&700));
        assert_eq!(table.stats().evictions, 1);
    }

    #[test]
    fn replacing_the_same_key_is_not_an_eviction() {
        let mut table: LossyTable<u32, &'static str> = LossyTable::with_capacity(16);
        assert_eq!(table.insert(5, 9, "a"), LossyInsert::New);
        assert_eq!(table.insert(5, 9, "b"), LossyInsert::Replaced);
        assert_eq!(table.get(5, &9), Some(&"b"));
        let stats = table.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let table: LossyTable<u8, u8> = LossyTable::with_capacity(100);
        assert_eq!(table.capacity(), 128);
        let tiny: LossyTable<u8, u8> = LossyTable::with_capacity(0);
        assert_eq!(tiny.capacity(), 2);
    }

    #[test]
    fn two_tier_front_hits_locally_and_falls_through_to_shared() {
        // A dedicated salt isolates this test from concurrent siblings (the
        // counters are global, but the table entries cannot cross-talk).
        let salt = instance_salt();
        let shared: ShardedMap<u64, u64> = ShardedMap::new();
        let mut computes = 0u32;
        let v = two_tier_get_or_insert_with(LossyPurpose::OpCost, salt, 42, &shared, 42, || {
            computes += 1;
            4200
        });
        assert_eq!(v, 4200);
        assert_eq!(computes, 1);
        // Second lookup: the lossy tier serves it; the shared tier sees no
        // new lookup (its counters are unchanged by a lossy hit).
        let shared_before = shared.stats();
        let v = two_tier_get_or_insert_with(LossyPurpose::OpCost, salt, 42, &shared, 42, || {
            computes += 1;
            9999
        });
        assert_eq!(v, 4200);
        assert_eq!(computes, 1);
        let shared_after = shared.stats();
        assert_eq!(shared_before.hits, shared_after.hits);
        assert_eq!(shared_before.misses, shared_after.misses);
        // A different salt with the same key and tag must not see the entry.
        let other_salt = instance_salt();
        let v =
            two_tier_get_or_insert_with(LossyPurpose::OpCost, other_salt, 42, &shared, 42, || 7);
        // ...but the shared tier still deduplicates across salts (same map key).
        assert_eq!(v, 4200);
    }

    #[test]
    fn stats_are_exported_per_purpose_as_cache_stats() {
        let salt = instance_salt();
        let shared: ShardedMap<u64, u64> = ShardedMap::new();
        let before = lossy_stats(LossyPurpose::CandidateEstimate);
        for _ in 0..3 {
            let _ = two_tier_get_or_insert_with(
                LossyPurpose::CandidateEstimate,
                salt,
                77,
                &shared,
                77,
                || 1,
            );
        }
        let after = lossy_stats(LossyPurpose::CandidateEstimate);
        assert!(after.hits >= before.hits + 2, "{before:?} -> {after:?}");
        assert!(after.misses > before.misses);
        let total = lossy_stats_total();
        assert!(total.hits >= after.hits);
    }

    #[test]
    fn mix_spreads_and_is_deterministic() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(0, 0), 0);
        // Low bits (the slot index) differ for consecutive fingerprints.
        let a = mix(7, 100) & 0xfff;
        let b = mix(7, 101) & 0xfff;
        assert_ne!(a, b);
    }
}
