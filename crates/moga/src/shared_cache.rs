//! The one generic bounded-cache core under every shared cache in this
//! workspace.
//!
//! Both shared caches of the workspace — the genome-level `CacheStore`
//! here in `acim-moga` and the macro-level `MacroMetricsCache` in
//! `acim-chip` — are type aliases of [`SharedCache`]: one
//! `Arc<Mutex<ClockMap>>` handle with CLOCK-bounded storage,
//! poison-tolerant locking, eviction accounting and `Arc`-identity
//! sharing, so the locking/eviction/poison semantics cannot drift apart.
//!
//! # Poison tolerance
//!
//! Every lock acquisition recovers the guard from a poisoned mutex: the
//! underlying `ClockMap` is consistent at every await-free step, so a
//! tenant that panicked while holding the guard costs its own request,
//! never the shared store.
//!
//! # Eviction never changes results
//!
//! Every cache built on this core stores values that are pure functions
//! of their keys, so an evicted entry costs a recomputation (a miss), not
//! a different answer — bounded and unbounded runs are bit-identical and
//! differ only in hit/miss/eviction counters.

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::clock::{ClockMap, TryInsert};

/// A thread-safe, cheaply cloneable handle to one shared CLOCK-bounded map.
///
/// Clones share the underlying entries (`Arc` semantics): a long-lived
/// service keeps one cache per design-space or parameter signature and
/// hands clones to every request, so concurrent requests reuse each
/// other's work.  Hit/miss attribution deliberately lives with the
/// consumer (see [`crate::CacheClient`]), not here — two requests sharing
/// one cache each report their own reuse.
pub struct SharedCache<K, V> {
    entries: Arc<Mutex<ClockMap<K, V>>>,
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
            entries: Arc::new(Mutex::new(ClockMap::unbounded())),
        }
    }

    /// Creates an empty cache holding at most `capacity` entries (at least
    /// one), evicting CLOCK-style beyond that.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            entries: Arc::new(Mutex::new(ClockMap::bounded(capacity))),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Returns `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound, `None` for unbounded caches.
    pub fn capacity(&self) -> Option<usize> {
        self.lock().capacity()
    }

    /// Entries evicted since creation (or the last [`SharedCache::clear`]),
    /// summed over every handle sharing the map.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions()
    }

    /// Looks up one key (marking the entry recently used), returning a
    /// clone of the cached value.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
        V: Clone,
    {
        self.lock().get(key).cloned()
    }

    /// Inserts (or overwrites) one entry, reporting whether an existing
    /// entry was evicted to make room.  Overwriting is harmless as long as
    /// every writer derives values deterministically from the key — the
    /// contract of every cache built on this core.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.lock().insert(key, value)
    }

    /// Inserts only when the key is absent (an existing entry is kept and
    /// marked recently used) — the first-wins insert of
    /// [`crate::CacheClient::get_or_compute`], which computes values
    /// outside the lock.
    pub(crate) fn try_insert(&self, key: K, value: V) -> TryInsert {
        self.lock().try_insert(key, value)
    }

    /// Removes every entry and resets the eviction counter.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Clones every live entry out of the map under one lock round-trip
    /// — the export half of snapshot persistence.  Order is unspecified
    /// (snapshot writers sort for determinism); reference bits are not
    /// touched, so exporting a bounded cache does not distort its
    /// eviction order.
    pub fn export_entries(&self) -> Vec<(K, V)>
    where
        V: Clone,
    {
        self.lock()
            .iter()
            .map(|(key, value)| (key.clone(), value.clone()))
            .collect()
    }

    /// Merges entries under one lock round-trip, first-wins: an entry
    /// whose key is already present is skipped (live entries are fresher
    /// than a snapshot's, and every writer derives values
    /// deterministically from keys anyway).  Bounded caches accept the
    /// merge CLOCK-style — beyond capacity the import evicts, exactly
    /// like any other insert.  Returns `(inserted, skipped)`.
    pub fn import_entries(&self, entries: impl IntoIterator<Item = (K, V)>) -> (usize, usize) {
        let mut map = self.lock();
        let (mut inserted, mut skipped) = (0, 0);
        for (key, value) in entries {
            match map.try_insert(key, value) {
                TryInsert::Inserted { .. } => inserted += 1,
                TryInsert::AlreadyPresent => skipped += 1,
            }
        }
        (inserted, skipped)
    }

    /// Returns `true` when `other` is a handle to the same underlying map.
    pub fn shares_entries_with(&self, other: &SharedCache<K, V>) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// Locks the underlying map, recovering from poisoning.
    ///
    /// A tenant that panicked while holding the guard left the map in a
    /// consistent state, and crashing every other request on a shared
    /// store would turn one bad job into a service outage — so the poison
    /// flag carries no information worth propagating.
    fn lock(&self) -> MutexGuard<'_, ClockMap<K, V>> {
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

    #[test]
    fn handles_share_entries_and_round_trip_values() {
        let cache: SharedCache<u32, String> = SharedCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), None);
        let alias = cache.clone();
        assert!(!alias.insert(1, "one".into()));
        assert_eq!(cache.get(&1), Some("one".into()));
        assert_eq!(cache.len(), 1);
        assert!(cache.shares_entries_with(&alias));
        assert!(!cache.shares_entries_with(&SharedCache::new()));
        assert!(format!("{cache:?}").contains("entries"));
        cache.clear();
        assert!(alias.is_empty());
    }

    #[test]
    fn bounded_cache_evicts_and_stays_within_capacity() {
        let cache: SharedCache<u32, u32> = SharedCache::bounded(2);
        let mut evicted = 0;
        for i in 0..3 {
            if cache.insert(i, i) {
                evicted += 1;
            }
            assert!(cache.len() <= 2);
        }
        assert_eq!(evicted, 1);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.capacity(), Some(2));
    }

    #[test]
    fn try_insert_is_first_wins() {
        let cache: SharedCache<u32, u32> = SharedCache::new();
        assert_eq!(
            cache.try_insert(7, 70),
            TryInsert::Inserted { evicted: false }
        );
        assert_eq!(cache.try_insert(7, 99), TryInsert::AlreadyPresent);
        assert_eq!(cache.get(&7), Some(70), "loser's value is dropped");
    }

    #[test]
    fn borrowed_key_lookup_works() {
        // `Vec<i64>` keys looked up by `&[i64]` — the genome-store shape.
        let cache: SharedCache<Vec<i64>, f64> = SharedCache::new();
        cache.insert(vec![1, 2], 0.5);
        let key: &[i64] = &[1, 2];
        assert_eq!(cache.get(key), Some(0.5));
    }

    #[test]
    fn export_and_bulk_insert_round_trip_first_wins() {
        let cache: SharedCache<u32, u32> = SharedCache::new();
        cache.insert(1, 10);
        cache.insert(2, 20);
        let mut exported = cache.export_entries();
        exported.sort_unstable();
        assert_eq!(exported, vec![(1, 10), (2, 20)]);

        // Merging into a cache that already knows key 2 keeps the live
        // value and reports the skip.
        let target: SharedCache<u32, u32> = SharedCache::new();
        target.insert(2, 99);
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
    fn poisoned_cache_recovers() {
        let cache: SharedCache<u32, u32> = SharedCache::new();
        cache.insert(1, 10);
        let poisoner = cache.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = poisoner.lock();
            panic!("tenant panicked while holding the cache lock");
        }));
        assert!(result.is_err());
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(2, 20);
        assert_eq!(cache.len(), 2);
    }
}
