//! Generic set-associative cache with true-LRU replacement.
//!
//! One implementation serves every hardware lookup structure in the
//! reproduction: L1/L2 TLBs, the page-walk cache, the per-GPU L2 data cache,
//! and GRIT's 64-entry 4-way PA-Cache (paper Fig. 12, which indexes by the
//! low VPN bits — exactly what [`CacheKey::index`] provides for page keys).

use grit_sim::PageId;

/// Maps a key to its set-index source value.
///
/// The set is chosen as `index() % sets`, i.e. the low bits of the returned
/// value — matching the paper's PA-Cache ("the lower 4 bits of VPN").
pub trait CacheKey: Eq + Clone {
    /// Value whose low bits select the set.
    fn index(&self) -> u64;
}

impl CacheKey for u64 {
    fn index(&self) -> u64 {
        *self
    }
}

impl CacheKey for PageId {
    fn index(&self) -> u64 {
        self.vpn()
    }
}

/// Hit/miss/eviction counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by insertion.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Debug)]
struct Way<K, V> {
    key: K,
    value: V,
}

/// Set-associative cache with per-set true-LRU order (front = MRU).
///
/// ```
/// use grit_mem::SetAssocCache;
/// let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(1, 2);
/// assert_eq!(c.insert(1, 10), None);
/// assert_eq!(c.insert(2, 20), None);
/// c.get(&1);                            // 1 becomes MRU
/// let evicted = c.insert(3, 30);        // 2 is LRU, displaced
/// assert_eq!(evicted, Some((2, 20)));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache<K, V> {
    sets: Vec<Vec<Way<K, V>>>,
    ways: usize,
    stats: CacheStats,
}

impl<K: CacheKey, V> SetAssocCache<K, V> {
    /// A cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && ways > 0,
            "cache must have non-zero sets and ways"
        );
        SetAssocCache {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            stats: CacheStats::default(),
        }
    }

    /// A cache from a total entry count and associativity.
    ///
    /// # Panics
    ///
    /// Panics if `ways` does not divide `entries`.
    pub fn with_entries(entries: usize, ways: usize) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must be a multiple of ways"
        );
        Self::new(entries / ways, ways)
    }

    fn set_of(&self, key: &K) -> usize {
        (key.index() % self.sets.len() as u64) as usize
    }

    /// Looks the key up, counting a hit or miss and promoting a hit to MRU.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let set = self.set_of(key);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|w| &w.key == key) {
            self.stats.hits += 1;
            ways[..=pos].rotate_right(1);
            Some(&mut ways[0].value)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Looks the key up and, on a miss, inserts it with value `make()`, in
    /// a single scan of the set. Counts the hit or miss and any eviction
    /// exactly as [`SetAssocCache::get`] followed on a miss by
    /// [`SetAssocCache::insert`] would, and leaves the same MRU order.
    /// Returns whether the key hit.
    ///
    /// ```
    /// use grit_mem::SetAssocCache;
    /// let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(1, 2);
    /// assert!(!c.access(1, || ()));   // miss: 1 inserted
    /// assert!(c.access(1, || ()));    // hit
    /// assert_eq!(c.stats().misses, 1);
    /// ```
    #[inline]
    pub fn access(&mut self, key: K, make: impl FnOnce() -> V) -> bool {
        let set = self.set_of(&key);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|w| w.key == key) {
            self.stats.hits += 1;
            ways[..=pos].rotate_right(1);
            return true;
        }
        self.stats.misses += 1;
        if ways.len() == self.ways {
            self.stats.evictions += 1;
            ways.pop();
        }
        ways.insert(0, Way { key, value: make() });
        false
    }

    /// Counts a hit on `key`, which the caller knows is already the MRU
    /// way of its set: the same statistics and LRU order as a hitting
    /// [`SetAssocCache::get`], without the scan.
    #[inline]
    pub(crate) fn hit_mru(&mut self, key: &K) {
        debug_assert!(self.is_mru(key), "hit_mru on a key that is not MRU");
        self.stats.hits += 1;
    }

    /// Whether `key` is the MRU way of its set (no recency or statistics
    /// effect).
    fn is_mru(&self, key: &K) -> bool {
        self.sets[self.set_of(key)].first().is_some_and(|w| &w.key == key)
    }

    /// Looks the key up without touching recency or statistics.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let set = self.set_of(key);
        self.sets[set].iter().find(|w| &w.key == key).map(|w| &w.value)
    }

    /// Inserts (or overwrites) the entry as MRU; returns the displaced LRU
    /// entry if the set was full with distinct keys.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let set = self.set_of(&key);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|w| w.key == key) {
            ways[pos].value = value;
            ways[..=pos].rotate_right(1);
            return None;
        }
        let victim = if ways.len() == self.ways {
            self.stats.evictions += 1;
            ways.pop().map(|w| (w.key, w.value))
        } else {
            None
        };
        ways.insert(0, Way { key, value });
        victim
    }

    /// Removes an entry, returning its value.
    pub fn invalidate(&mut self, key: &K) -> Option<V> {
        let set = self.set_of(key);
        let ways = &mut self.sets[set];
        let pos = ways.iter().position(|w| &w.key == key)?;
        Some(ways.remove(pos).value)
    }

    /// Empties the cache (TLB shootdown / cache flush).
    pub fn clear(&mut self) {
        for ways in &mut self.sets {
            ways.clear();
        }
    }

    /// Current number of resident entries.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Iterates all resident `(key, value)` pairs (no recency effect).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.sets.iter().flatten().map(|w| (&w.key, &w.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(4, 2);
        assert!(c.get(&7).is_none());
        c.insert(7, ());
        assert!(c.get(&7).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn access_hits_promote_and_misses_evict_the_lru() {
        let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(1, 3);
        for k in [1, 2, 3] {
            assert!(!c.access(k, || 0));
        }
        assert!(c.access(1, || unreachable!("a hit builds no value")));
        let order: Vec<u64> = c.iter().map(|(&k, _)| k).collect();
        assert_eq!(order, vec![1, 3, 2]);
        assert!(!c.access(4, || 0));
        let order: Vec<u64> = c.iter().map(|(&k, _)| k).collect();
        assert_eq!(order, vec![4, 1, 3]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 4, 1));
    }

    #[test]
    fn hit_mru_counts_like_a_hitting_get() {
        let mut a: SetAssocCache<u64, ()> = SetAssocCache::new(2, 2);
        let mut b = a.clone();
        for c in [&mut a, &mut b] {
            c.insert(1, ());
            c.insert(3, ());
        }
        assert!(a.is_mru(&3) && !a.is_mru(&1));
        a.hit_mru(&3);
        assert!(b.get(&3).is_some());
        assert_eq!(a.stats(), b.stats());
        let order = |c: &SetAssocCache<u64, ()>| c.iter().map(|(&k, _)| k).collect::<Vec<_>>();
        assert_eq!(order(&a), order(&b));
    }

    #[test]
    fn lru_within_set() {
        // One set, two ways; keys 0,4,8 all map to set 0 of 4 sets? No:
        // force a single set so collisions are guaranteed.
        let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(1, 2);
        c.insert(1, 1);
        c.insert(2, 2);
        c.get(&1);
        assert_eq!(c.insert(3, 3), Some((2, 2)));
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&3).is_some());
        assert!(c.peek(&2).is_none());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(1, 2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.insert(1, 99), None);
        assert_eq!(c.peek(&1), Some(&99));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn set_selection_uses_low_index_bits() {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(4, 1);
        // Keys 0 and 4 collide (same low bits mod 4); 1 does not.
        c.insert(0, ());
        c.insert(1, ());
        assert_eq!(c.insert(4, ()), Some((0, ())));
        assert!(c.peek(&1).is_some());
    }

    #[test]
    fn invalidate_removes_one_entry() {
        let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(8, 2);
        for k in 0..10 {
            c.insert(k, k as u32);
        }
        assert_eq!(c.invalidate(&3), Some(3));
        assert_eq!(c.invalidate(&3), None);
        assert_eq!(c.len(), 9);
        assert!(c.peek(&3).is_none());
        assert_eq!(c.peek(&4), Some(&4));
    }

    #[test]
    fn clear_and_capacity() {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::with_entries(64, 4);
        assert_eq!(c.capacity(), 64);
        for k in 0..100 {
            c.insert(k, ());
        }
        assert!(c.len() <= 64);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        let _: SetAssocCache<u64, ()> = SetAssocCache::new(0, 4);
    }
}
