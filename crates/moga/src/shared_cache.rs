//! The one cache type under every shared cache in this workspace.
//!
//! Both shared caches of the workspace — the genome-level `CacheStore`
//! here in `acim-moga` and the macro-level `MacroMetricsCache` in
//! `acim-chip` — are type aliases of [`SharedCache`]: one `Arc<Mutex<…>>`
//! handle over the entries, whose clones share them, with one first-wins
//! insert, poison-tolerant locking and eviction accounting, so the
//! locking/eviction/poison semantics cannot drift apart.
//!
//! # Storage and CLOCK eviction
//!
//! The capacity picks what the mutex holds.  An unbounded cache is a plain
//! `HashMap`: no per-entry bookkeeping, no duplicate key storage — the
//! right shape for a single exploration run.  A long-lived multi-tenant
//! service instead shares a cache across thousands of requests over many
//! design spaces, where an unbounded map grows for the life of the
//! process.  A bounded cache therefore keeps an insert-order slot array
//! with one *referenced* bit per entry and a sweeping hand: a hit sets the
//! entry's bit; an insert into a full cache advances the hand, clearing
//! bits, and evicts the first entry found unreferenced.  This is the
//! classic CLOCK approximation of LRU: recently used entries get a second
//! chance, cold entries are recycled, and neither lookups nor inserts ever
//! shift the whole structure.
//!
//! # One insert rule: first-wins
//!
//! Inserting a key that is already present keeps the stored value and
//! marks the entry recently used.  Callers compute values outside the lock
//! (see [`crate::CacheClient::get_or_compute`]), so two requests racing on
//! one key agree on exactly one inserter, and a snapshot import never
//! overwrites a live entry.
//!
//! # Poison tolerance
//!
//! Every lock acquisition recovers the guard from a poisoned mutex: the
//! storage is consistent at every await-free step, so a tenant that
//! panicked while holding the guard costs its own request, never the
//! shared store.
//!
//! # Eviction never changes results
//!
//! Every cache built on this core stores values that are pure functions
//! of their keys, so an evicted entry costs a recomputation (a miss), not
//! a different answer — bounded and unbounded runs are bit-identical and
//! differ only in hit/miss/eviction counters.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A thread-safe, cheaply cloneable handle to one shared cache.
///
/// Clones share the underlying entries (`Arc` semantics): a long-lived
/// service keeps one cache per design-space or parameter signature and
/// hands clones to every request, so concurrent requests reuse each
/// other's work.  Hit/miss attribution deliberately lives with the
/// consumer (see [`crate::CacheClient`]), not here — two requests sharing
/// one cache each report their own reuse.
pub struct SharedCache<K, V> {
    entries: Arc<Mutex<Storage<K, V>>>,
}

/// What a [`SharedCache`]'s mutex holds; the capacity picks the arm.
enum Storage<K, V> {
    /// No bound: a plain map, no reference bits, keys stored once.
    Unbounded(HashMap<K, V>),
    /// At most `capacity` entries, recycled CLOCK-style.
    Bounded(Clock<K, V>),
}

/// The bounded arm: slots in insert order, a key index and the sweeping
/// hand.  Keys are stored twice (slot + index), which is fine precisely
/// because the entry count is bounded.
struct Clock<K, V> {
    capacity: usize,
    slots: Vec<Slot<K, V>>,
    index: HashMap<K, usize>,
    hand: usize,
    evictions: u64,
}

/// One occupied slot of a bounded cache.
struct Slot<K, V> {
    key: K,
    value: V,
    /// Second-chance bit: set on every hit, cleared as the hand sweeps.
    referenced: bool,
}

/// Outcome of [`SharedCache::try_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TryInsert {
    /// The key was absent and the entry was inserted.
    Inserted {
        /// Whether the insert evicted an existing entry to make room.
        evicted: bool,
    },
    /// The key was already present; the existing entry was kept and
    /// marked recently used.
    AlreadyPresent,
}

impl<K: Eq + Hash + Clone, V> Storage<K, V> {
    /// The one insert, first-wins: a present key keeps its value and is
    /// marked recently used; an absent key is inserted, evicting the entry
    /// under the hand's first unreferenced slot when a bounded storage is
    /// full.
    fn try_insert(&mut self, key: K, value: V) -> TryInsert {
        let clock = match self {
            Self::Unbounded(map) => {
                return match map.entry(key) {
                    Entry::Occupied(_) => TryInsert::AlreadyPresent,
                    Entry::Vacant(vacant) => {
                        vacant.insert(value);
                        TryInsert::Inserted { evicted: false }
                    }
                };
            }
            Self::Bounded(clock) => clock,
        };
        if let Some(&slot) = clock.index.get(&key) {
            clock.slots[slot].referenced = true;
            return TryInsert::AlreadyPresent;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            referenced: true,
        };
        if clock.slots.len() < clock.capacity {
            clock.index.insert(key, clock.slots.len());
            clock.slots.push(slot);
            return TryInsert::Inserted { evicted: false };
        }
        // Sweep: clear second-chance bits until an unreferenced slot turns
        // up.  Terminates within two laps — the first lap clears every bit
        // it passes.
        while clock.slots[clock.hand].referenced {
            clock.slots[clock.hand].referenced = false;
            clock.hand = (clock.hand + 1) % clock.slots.len();
        }
        let victim = clock.hand;
        let evicted = std::mem::replace(&mut clock.slots[victim], slot);
        clock.index.remove(&evicted.key);
        clock.index.insert(key, victim);
        clock.hand = (victim + 1) % clock.slots.len();
        clock.evictions += 1;
        TryInsert::Inserted { evicted: true }
    }
}

// Derived `Clone` would demand `K: Clone, V: Clone`; handle clones only
// copy the `Arc`.
impl<K, V> Clone for SharedCache<K, V> {
    fn clone(&self) -> Self {
        Self {
            entries: Arc::clone(&self.entries),
        }
    }
}

impl<K: Eq + Hash + Clone, V> Default for SharedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V> SharedCache<K, V> {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self {
            entries: Arc::new(Mutex::new(Storage::Unbounded(HashMap::new()))),
        }
    }

    /// Creates an empty cache holding at most `capacity` entries, evicting
    /// CLOCK-style beyond that.  A capacity of zero is clamped to one: a
    /// cache that can hold nothing is not a mode worth supporting, and
    /// every bounded store built from a caller's setting goes through here.
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let clock = Clock {
            capacity,
            slots: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
            hand: 0,
            evictions: 0,
        };
        Self {
            entries: Arc::new(Mutex::new(Storage::Bounded(clock))),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        match &*self.lock() {
            Storage::Unbounded(map) => map.len(),
            Storage::Bounded(clock) => clock.slots.len(),
        }
    }

    /// Returns `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound, `None` for unbounded caches.
    pub fn capacity(&self) -> Option<usize> {
        match &*self.lock() {
            Storage::Unbounded(_) => None,
            Storage::Bounded(clock) => Some(clock.capacity),
        }
    }

    /// Entries evicted since creation, summed over every handle sharing
    /// the cache; always `0` for unbounded caches.
    pub fn evictions(&self) -> u64 {
        match &*self.lock() {
            Storage::Unbounded(_) => 0,
            Storage::Bounded(clock) => clock.evictions,
        }
    }

    /// Looks up one key (marking the entry recently used), returning a
    /// clone of the cached value.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
        V: Clone,
    {
        match &mut *self.lock() {
            Storage::Unbounded(map) => map.get(key).cloned(),
            Storage::Bounded(clock) => {
                let slot = &mut clock.slots[*clock.index.get(key)?];
                slot.referenced = true;
                Some(slot.value.clone())
            }
        }
    }

    /// Inserts one entry, first-wins (see the [module docs](self)) — the
    /// insert of [`crate::CacheClient::get_or_compute`], which computes
    /// values outside the lock.
    pub(crate) fn try_insert(&self, key: K, value: V) -> TryInsert {
        self.lock().try_insert(key, value)
    }

    /// Clones every live entry out of the cache under one lock round-trip
    /// — the export half of snapshot persistence.  Order is unspecified
    /// (snapshot writers sort for determinism); reference bits are not
    /// touched, so exporting a bounded cache does not distort its
    /// eviction order.
    pub fn export_entries(&self) -> Vec<(K, V)>
    where
        V: Clone,
    {
        match &*self.lock() {
            Storage::Unbounded(map) => map
                .iter()
                .map(|(key, value)| (key.clone(), value.clone()))
                .collect(),
            Storage::Bounded(clock) => clock
                .slots
                .iter()
                .map(|slot| (slot.key.clone(), slot.value.clone()))
                .collect(),
        }
    }

    /// Merges entries under one lock round-trip through the first-wins
    /// insert: an entry whose key is already present is skipped (live
    /// entries are fresher than a snapshot's, and every writer derives
    /// values deterministically from keys anyway).  Bounded caches accept
    /// the merge CLOCK-style — beyond capacity the import evicts, exactly
    /// like any other insert.  Returns `(inserted, skipped)`.
    pub fn import_entries(&self, entries: impl IntoIterator<Item = (K, V)>) -> (usize, usize) {
        let mut storage = self.lock();
        let (mut inserted, mut skipped) = (0, 0);
        for (key, value) in entries {
            match storage.try_insert(key, value) {
                TryInsert::Inserted { .. } => inserted += 1,
                TryInsert::AlreadyPresent => skipped += 1,
            }
        }
        (inserted, skipped)
    }

    /// Locks the storage, recovering from poisoning.
    ///
    /// A tenant that panicked while holding the guard left the storage in
    /// a consistent state, and crashing every other request on a shared
    /// store would turn one bad job into a service outage — so the poison
    /// flag carries no information worth propagating.
    fn lock(&self) -> MutexGuard<'_, Storage<K, V>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: Eq + Hash + Clone, V> std::fmt::Debug for SharedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INSERTED: TryInsert = TryInsert::Inserted { evicted: false };
    const EVICTED: TryInsert = TryInsert::Inserted { evicted: true };

    #[test]
    fn handles_share_entries_and_round_trip_values() {
        let cache: SharedCache<u32, String> = SharedCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), None);
        let alias = cache.clone();
        assert_eq!(alias.try_insert(1, "one".into()), INSERTED);
        assert_eq!(cache.get(&1), Some("one".into()));
        assert_eq!(cache.len(), 1);
        assert!(format!("{cache:?}").contains("entries"));
    }

    #[test]
    fn unbounded_map_behaves_like_a_hash_map() {
        let cache: SharedCache<u32, u32> = SharedCache::new();
        for i in 0..1000 {
            assert_eq!(cache.try_insert(i, i * 2), INSERTED);
        }
        assert_eq!(cache.len(), 1000);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get(&500), Some(1000));
        assert_eq!(cache.get(&1000), None);
    }

    #[test]
    fn bounded_cache_evicts_and_stays_within_capacity() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(2);
        let mut evicted = 0;
        for i in 0..3 {
            if cache.try_insert(i, i) == EVICTED {
                evicted += 1;
            }
            assert!(cache.len() <= 2);
        }
        assert_eq!(evicted, 1);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.capacity(), Some(2));
    }

    #[test]
    fn bounded_map_never_exceeds_capacity() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(8);
        for i in 0..100 {
            cache.try_insert(i, i);
            assert!(cache.len() <= 8);
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.evictions(), 92);
        assert_eq!(cache.capacity(), Some(8));
    }

    #[test]
    fn try_insert_is_first_wins() {
        let cache: SharedCache<u32, u32> = SharedCache::new();
        assert_eq!(cache.try_insert(7, 70), INSERTED);
        assert_eq!(cache.try_insert(7, 99), TryInsert::AlreadyPresent);
        assert_eq!(cache.get(&7), Some(70), "loser's value is dropped");
    }

    #[test]
    fn try_insert_keeps_existing_entries() {
        let unbounded: SharedCache<u32, u32> = SharedCache::new();
        assert_eq!(unbounded.try_insert(1, 10), INSERTED);
        assert_eq!(unbounded.try_insert(1, 99), TryInsert::AlreadyPresent);
        assert_eq!(unbounded.get(&1), Some(10), "loser's value is dropped");

        let bounded: SharedCache<u32, u32> = SharedCache::bounded(2);
        bounded.try_insert(1, 1);
        bounded.try_insert(2, 2);
        assert_eq!(bounded.try_insert(2, 99), TryInsert::AlreadyPresent);
        assert_eq!(bounded.get(&2), Some(2), "loser's value is dropped");
        assert_eq!(bounded.try_insert(3, 3), EVICTED);
        assert_eq!(bounded.len(), 2);
        assert_eq!(bounded.evictions(), 1);
    }

    #[test]
    fn recently_used_entries_get_a_second_chance() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(3);
        for key in 1..=3 {
            cache.try_insert(key, key);
        }
        // One full sweep clears all bits; nothing touched since insert, so
        // the hand evicts slot 0 (key 1) for the newcomer…
        cache.try_insert(4, 4);
        assert_eq!(cache.get(&1), None);
        // …then touch 2 so the next insert skips it and recycles 3.
        assert!(cache.get(&2).is_some());
        cache.try_insert(5, 5);
        assert!(cache.get(&2).is_some(), "touched entry must survive");
        assert_eq!(cache.get(&3), None, "cold entry is the victim");
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn a_first_wins_repeat_gives_the_entry_its_second_chance() {
        let cache: SharedCache<char, u32> = SharedCache::bounded(3);
        for key in ['a', 'b', 'c'] {
            assert_eq!(cache.try_insert(key, u32::from(key)), INSERTED);
        }
        // Inserting d evicts a and clears every reference bit on the way.
        assert_eq!(cache.try_insert('d', u32::from('d')), EVICTED);
        assert_eq!(cache.get(&'a'), None);
        // Repeating b keeps its value and marks it recently used…
        assert_eq!(cache.try_insert('b', 0), TryInsert::AlreadyPresent);
        // …so the next insert skips b and evicts the cold c.
        assert_eq!(cache.try_insert('e', u32::from('e')), EVICTED);
        assert_eq!(cache.get(&'c'), None, "the cold entry is the victim");
        assert_eq!(cache.get(&'b'), Some(u32::from('b')), "b keeps its value");
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(0);
        assert_eq!(cache.capacity(), Some(1));
        cache.try_insert(1, 1);
        cache.try_insert(2, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&2), Some(2));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn capacity_one_always_holds_the_newest_entry() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(1);
        for i in 0..10 {
            cache.try_insert(i, i);
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.get(&i), Some(i));
        }
        assert_eq!(cache.evictions(), 9);
    }

    #[test]
    fn borrowed_key_lookup_works() {
        // `Vec<i64>` keys looked up by `&[i64]` — the genome-store shape.
        let cache: SharedCache<Vec<i64>, f64> = SharedCache::new();
        cache.try_insert(vec![1, 2], 0.5);
        let key: &[i64] = &[1, 2];
        assert_eq!(cache.get(key), Some(0.5));
    }

    #[test]
    fn export_and_bulk_insert_round_trip_first_wins() {
        let cache: SharedCache<u32, u32> = SharedCache::new();
        cache.try_insert(1, 10);
        cache.try_insert(2, 20);
        let mut exported = cache.export_entries();
        exported.sort_unstable();
        assert_eq!(exported, vec![(1, 10), (2, 20)]);

        // Merging into a cache that already knows key 2 keeps the live
        // value and reports the skip.
        let target: SharedCache<u32, u32> = SharedCache::new();
        target.try_insert(2, 99);
        let (inserted, skipped) = target.import_entries(exported);
        assert_eq!((inserted, skipped), (1, 1));
        assert_eq!(target.get(&2), Some(99), "live entries win over imports");
        assert_eq!(target.get(&1), Some(10));

        // A bounded target absorbs what fits and evicts beyond capacity.
        let bounded: SharedCache<u32, u32> = SharedCache::bounded(2);
        let (inserted, _) = bounded.import_entries((0..5).map(|i| (i, i)));
        assert_eq!(inserted, 5);
        assert_eq!(bounded.len(), 2);
        assert_eq!(bounded.evictions(), 3);
    }

    #[test]
    fn export_leaves_reference_bits_alone() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(3);
        for key in 1..=4 {
            cache.try_insert(key, key * 10);
        }
        // Inserting 4 cleared every bit and evicted 1; touch 2 only.
        assert_eq!(cache.get(&2), Some(20));
        let mut exported = cache.export_entries();
        exported.sort_unstable();
        assert_eq!(exported, vec![(2, 20), (3, 30), (4, 40)]);
        // An export that set every bit would make the next insert sweep
        // them all and evict 2; untouched, the hand skips 2 and takes 3.
        cache.try_insert(5, 50);
        assert_eq!(cache.get(&3), None, "the cold entry is the victim");
        assert_eq!(cache.get(&2), Some(20), "the touched entry survives");
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn poisoned_cache_recovers() {
        let cache: SharedCache<u32, u32> = SharedCache::new();
        cache.try_insert(1, 10);
        let poisoner = cache.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = poisoner.lock();
            panic!("tenant panicked while holding the cache lock");
        }));
        assert!(result.is_err());
        assert_eq!(cache.get(&1), Some(10));
        cache.try_insert(2, 20);
        assert_eq!(cache.len(), 2);
    }
}
