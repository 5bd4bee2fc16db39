//! A bounded map with CLOCK (second-chance) eviction.
//!
//! The evaluation caches of this workspace started life as plain
//! `HashMap`s, which is the right shape for a single exploration run but
//! not for a long-lived multi-tenant service: a store shared across
//! thousands of requests over many design spaces grows without bound.
//! [`ClockMap`] is the common core under those caches.  Unbounded maps
//! stay a plain `HashMap` — no per-entry bookkeeping, no duplicate key
//! storage.  Bounded maps add an insert-order slot array with one
//! *referenced* bit per entry and a sweeping hand: a hit sets the
//! entry's bit; an insert into a full map advances the hand, clearing
//! bits, and evicts the first entry found unreferenced.  This is the
//! classic CLOCK approximation of LRU: recently used entries get a
//! second chance, cold entries are recycled, and neither lookups nor
//! inserts ever shift the whole structure.
//!
//! Eviction changes **what is remembered, never what is computed**: every
//! cache in this workspace stores values that are pure functions of their
//! keys, so an evicted entry costs a recomputation (a miss), not a
//! different answer.  Bounded and unbounded runs therefore produce
//! bit-identical results and differ only in hit/miss/eviction counters.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// One occupied slot of a bounded clock.
#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Second-chance bit: set on every hit, cleared as the hand sweeps.
    referenced: bool,
}

/// The capacity-bounded arm: slots + key index + sweeping hand.  Keys
/// are stored twice (slot + index), which is fine precisely because the
/// entry count is bounded.
#[derive(Debug, Clone)]
struct BoundedClock<K, V> {
    capacity: usize,
    slots: Vec<Slot<K, V>>,
    index: HashMap<K, usize>,
    hand: usize,
    evictions: u64,
}

#[derive(Debug, Clone)]
enum Inner<K, V> {
    /// No bound: a plain map, no reference bits, keys stored once.
    Unbounded(HashMap<K, V>),
    Bounded(BoundedClock<K, V>),
}

/// Outcome of [`ClockMap::try_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryInsert {
    /// The key was absent and the entry was inserted.
    Inserted {
        /// Whether the insert evicted an existing entry to make room.
        evicted: bool,
    },
    /// The key was already present; the existing entry was kept and
    /// marked recently used.
    AlreadyPresent,
}

/// A map with an optional capacity bound enforced by CLOCK eviction.
///
/// The map is not internally synchronised — callers wrap it in their own
/// lock (see [`crate::CacheStore`]).
#[derive(Debug, Clone)]
pub struct ClockMap<K, V> {
    inner: Inner<K, V>,
}

impl<K: Eq + Hash + Clone, V> ClockMap<K, V> {
    /// An unbounded map: a plain hash map, no eviction, ever.
    pub fn unbounded() -> Self {
        Self {
            inner: Inner::Unbounded(HashMap::new()),
        }
    }

    /// A map holding at most `capacity` entries.  A capacity of zero is
    /// clamped to one: a cache that can hold nothing is not a mode worth
    /// supporting, and every bounded store built from a caller's setting
    /// goes through here.
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Inner::Bounded(BoundedClock {
                capacity,
                slots: Vec::with_capacity(capacity),
                index: HashMap::with_capacity(capacity),
                hand: 0,
                evictions: 0,
            }),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Unbounded(map) => map.len(),
            Inner::Bounded(clock) => clock.slots.len(),
        }
    }

    /// The capacity bound, `None` for unbounded maps.
    pub fn capacity(&self) -> Option<usize> {
        match &self.inner {
            Inner::Unbounded(_) => None,
            Inner::Bounded(clock) => Some(clock.capacity),
        }
    }

    /// Entries evicted to make room since construction (or the last
    /// [`ClockMap::clear`]); always `0` for unbounded maps.
    pub fn evictions(&self) -> u64 {
        match &self.inner {
            Inner::Unbounded(_) => 0,
            Inner::Bounded(clock) => clock.evictions,
        }
    }

    /// Looks up a key, marking the entry as recently used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        match &mut self.inner {
            Inner::Unbounded(map) => map.get(key),
            Inner::Bounded(clock) => {
                let &slot = clock.index.get(key)?;
                clock.slots[slot].referenced = true;
                Some(&clock.slots[slot].value)
            }
        }
    }

    /// Inserts (or overwrites) an entry, evicting the entry under the
    /// clock hand's first unreferenced slot when a bounded map is full.
    /// Returns `true` when the insert evicted an existing entry.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        match &mut self.inner {
            Inner::Unbounded(map) => {
                map.insert(key, value);
                false
            }
            Inner::Bounded(clock) => clock.insert(key, value),
        }
    }

    /// Inserts only when the key is absent; an existing entry is kept
    /// (and marked recently used).  This is the primitive for racy-get /
    /// atomic-insert callers: workers that derived the same value
    /// concurrently outside the lock agree on exactly one inserter.
    pub fn try_insert(&mut self, key: K, value: V) -> TryInsert {
        match &mut self.inner {
            Inner::Unbounded(map) => match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => TryInsert::AlreadyPresent,
                std::collections::hash_map::Entry::Vacant(vacant) => {
                    vacant.insert(value);
                    TryInsert::Inserted { evicted: false }
                }
            },
            Inner::Bounded(clock) => {
                if let Some(&slot) = clock.index.get(&key) {
                    clock.slots[slot].referenced = true;
                    return TryInsert::AlreadyPresent;
                }
                let evicted = clock.insert(key, value);
                TryInsert::Inserted { evicted }
            }
        }
    }

    /// Removes every entry and resets the eviction counter.
    pub fn clear(&mut self) {
        match &mut self.inner {
            Inner::Unbounded(map) => map.clear(),
            Inner::Bounded(clock) => {
                clock.slots.clear();
                clock.index.clear();
                clock.hand = 0;
                clock.evictions = 0;
            }
        }
    }

    /// Iterates over every live entry in unspecified order.  Reference
    /// bits are **not** touched: exporting a bounded map (for a snapshot)
    /// must not make every entry look recently used and distort the
    /// eviction order it leaves behind.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let (unbounded, bounded) = match &self.inner {
            Inner::Unbounded(map) => (Some(map.iter()), None),
            Inner::Bounded(clock) => (None, Some(clock.slots.iter())),
        };
        unbounded.into_iter().flatten().chain(
            bounded
                .into_iter()
                .flatten()
                .map(|slot| (&slot.key, &slot.value)),
        )
    }
}

impl<K: Eq + Hash + Clone, V> BoundedClock<K, V> {
    fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot].value = value;
            self.slots[slot].referenced = true;
            return false;
        }
        if self.slots.len() >= self.capacity {
            // Sweep: clear second-chance bits until an unreferenced slot
            // turns up.  Terminates within two laps — the first lap clears
            // every bit it passes.
            loop {
                if !self.slots[self.hand].referenced {
                    break;
                }
                self.slots[self.hand].referenced = false;
                self.hand = (self.hand + 1) % self.slots.len();
            }
            let victim = self.hand;
            self.index.remove(&self.slots[victim].key);
            self.index.insert(key.clone(), victim);
            self.slots[victim] = Slot {
                key,
                value,
                referenced: true,
            };
            self.hand = (victim + 1) % self.slots.len();
            self.evictions += 1;
            return true;
        }
        self.index.insert(key.clone(), self.slots.len());
        self.slots.push(Slot {
            key,
            value,
            referenced: true,
        });
        false
    }
}

impl<K: Eq + Hash + Clone, V> Default for ClockMap<K, V> {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_map_behaves_like_a_hash_map() {
        let mut map: ClockMap<u32, u32> = ClockMap::unbounded();
        assert_eq!(map.len(), 0);
        assert_eq!(map.capacity(), None);
        for i in 0..1000 {
            assert!(!map.insert(i, i * 2));
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.evictions(), 0);
        assert_eq!(map.get(&500), Some(&1000));
        assert_eq!(map.get(&1000), None);
        map.clear();
        assert_eq!(map.len(), 0);
    }

    #[test]
    fn bounded_map_never_exceeds_capacity() {
        let mut map: ClockMap<u32, u32> = ClockMap::bounded(8);
        for i in 0..100 {
            map.insert(i, i);
            assert!(map.len() <= 8);
        }
        assert_eq!(map.len(), 8);
        assert_eq!(map.evictions(), 92);
        assert_eq!(map.capacity(), Some(8));
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut map: ClockMap<u32, u32> = ClockMap::bounded(2);
        map.insert(1, 10);
        map.insert(2, 20);
        assert!(!map.insert(1, 11), "overwrite must not evict");
        assert_eq!(map.get(&1), Some(&11));
        assert_eq!(map.get(&2), Some(&20));
        assert_eq!(map.evictions(), 0);
    }

    #[test]
    fn recently_used_entries_get_a_second_chance() {
        let mut map: ClockMap<u32, u32> = ClockMap::bounded(3);
        map.insert(1, 1);
        map.insert(2, 2);
        map.insert(3, 3);
        // One full sweep clears all bits; nothing touched since insert, so
        // the hand evicts slot 0 (key 1) for the newcomer…
        map.insert(4, 4);
        assert_eq!(map.get(&1), None);
        // …then touch 2 so the next insert skips it and recycles 3.
        assert!(map.get(&2).is_some());
        map.insert(5, 5);
        assert!(map.get(&2).is_some(), "touched entry must survive");
        assert_eq!(map.get(&3), None, "cold entry is the victim");
        assert_eq!(map.evictions(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut map: ClockMap<u32, u32> = ClockMap::bounded(2);
        map.insert(1, 1);
        map.insert(2, 2);
        map.insert(3, 3);
        assert_eq!(map.evictions(), 1);
        map.clear();
        assert_eq!(map.len(), 0);
        assert_eq!(map.evictions(), 0);
        map.insert(7, 7);
        assert_eq!(map.get(&7), Some(&7));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut map: ClockMap<u32, u32> = ClockMap::bounded(0);
        assert_eq!(map.capacity(), Some(1));
        map.insert(1, 1);
        map.insert(2, 2);
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(&2), Some(&2));
        assert_eq!(map.evictions(), 1);
    }

    #[test]
    fn try_insert_keeps_existing_entries() {
        let mut unbounded: ClockMap<u32, u32> = ClockMap::unbounded();
        assert_eq!(
            unbounded.try_insert(1, 10),
            TryInsert::Inserted { evicted: false }
        );
        assert_eq!(unbounded.try_insert(1, 99), TryInsert::AlreadyPresent);
        assert_eq!(unbounded.get(&1), Some(&10), "loser's value is dropped");

        let mut bounded: ClockMap<u32, u32> = ClockMap::bounded(2);
        bounded.insert(1, 1);
        bounded.insert(2, 2);
        assert_eq!(bounded.try_insert(2, 99), TryInsert::AlreadyPresent);
        assert_eq!(
            bounded.try_insert(3, 3),
            TryInsert::Inserted { evicted: true }
        );
        assert_eq!(bounded.len(), 2);
        assert_eq!(bounded.evictions(), 1);
    }

    #[test]
    fn iter_visits_every_entry_without_touching_reference_bits() {
        let mut unbounded: ClockMap<u32, u32> = ClockMap::unbounded();
        unbounded.insert(1, 10);
        unbounded.insert(2, 20);
        let mut entries: Vec<(u32, u32)> = unbounded.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(1, 10), (2, 20)]);

        let mut bounded: ClockMap<u32, u32> = ClockMap::bounded(3);
        bounded.insert(1, 1);
        bounded.insert(2, 2);
        bounded.insert(3, 3);
        // One sweep clears every second-chance bit…
        bounded.insert(4, 4);
        assert_eq!(bounded.evictions(), 1);
        // …then iterating must not set any bit: the next insert still
        // evicts the hand's next unreferenced slot, exactly as if the
        // export had never happened.
        assert_eq!(bounded.iter().count(), 3);
        bounded.insert(5, 5);
        assert_eq!(bounded.evictions(), 2);
        assert_eq!(bounded.len(), 3);
    }

    #[test]
    fn capacity_one_always_holds_the_newest_entry() {
        let mut map: ClockMap<u32, u32> = ClockMap::bounded(1);
        for i in 0..10 {
            map.insert(i, i);
            assert_eq!(map.len(), 1);
            assert_eq!(map.get(&i), Some(&i));
        }
        assert_eq!(map.evictions(), 9);
    }
}
