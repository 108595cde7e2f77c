//! Property tests for the set-associative LRU cache against a naive model.

use proptest::prelude::*;

use grit_mem::SetAssocCache;

/// A trivially correct reference model: per-set vectors in MRU order.
#[derive(Default)]
struct ModelCache {
    sets: Vec<Vec<(u64, u32)>>,
    ways: usize,
}

impl ModelCache {
    fn new(sets: usize, ways: usize) -> Self {
        ModelCache {
            sets: vec![Vec::new(); sets],
            ways,
        }
    }

    fn set_of(&self, k: u64) -> usize {
        (k % self.sets.len() as u64) as usize
    }

    fn get(&mut self, k: u64) -> Option<u32> {
        let s = self.set_of(k);
        let set = &mut self.sets[s];
        let pos = set.iter().position(|&(key, _)| key == k)?;
        let e = set.remove(pos);
        set.insert(0, e);
        Some(set[0].1)
    }

    fn insert(&mut self, k: u64, v: u32) -> Option<(u64, u32)> {
        let s = self.set_of(k);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&(key, _)| key == k) {
            set.remove(pos);
            set.insert(0, (k, v));
            return None;
        }
        let victim = if set.len() == self.ways {
            set.pop()
        } else {
            None
        };
        set.insert(0, (k, v));
        victim
    }

    fn invalidate(&mut self, k: u64) -> Option<u32> {
        let s = self.set_of(k);
        let set = &mut self.sets[s];
        let pos = set.iter().position(|&(key, _)| key == k)?;
        Some(set.remove(pos).1)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Every resident key, set by set, each set in MRU order.
    fn keys(&self) -> Vec<u64> {
        self.sets.iter().flatten().map(|&(k, _)| k).collect()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Get(u64),
    Insert(u64, u32),
    Invalidate(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64).prop_map(Op::Get),
        ((0u64..64), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..64).prop_map(Op::Invalidate),
    ]
}

proptest! {
    #[test]
    fn cache_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut real: SetAssocCache<u64, u32> = SetAssocCache::new(4, 3);
        let mut model = ModelCache::new(4, 3);
        for op in ops {
            match op {
                Op::Get(k) => {
                    let got = real.get(&k).map(|v| *v);
                    prop_assert_eq!(got, model.get(k));
                }
                Op::Insert(k, v) => {
                    prop_assert_eq!(real.insert(k, v), model.insert(k, v));
                }
                Op::Invalidate(k) => {
                    prop_assert_eq!(real.invalidate(&k), model.invalidate(k));
                }
            }
            prop_assert_eq!(real.len(), model.len());
            prop_assert!(real.len() <= real.capacity());
        }
    }

    #[test]
    fn access_is_get_then_insert_on_a_miss(
        ops in prop::collection::vec(((0u64..48), any::<u32>(), any::<bool>()), 1..400)
    ) {
        let mut real: SetAssocCache<u64, u32> = SetAssocCache::new(4, 3);
        let mut model = ModelCache::new(4, 3);
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for (k, v, plain_get) in ops {
            let want = model.get(k);
            if want.is_some() {
                hits += 1;
            } else {
                misses += 1;
            }
            if plain_get {
                // Plain gets reorder sets between the accesses under test.
                prop_assert_eq!(real.get(&k).map(|v| *v), want);
                continue;
            }
            prop_assert_eq!(real.access(k, || v), want.is_some());
            if want.is_none() && model.insert(k, v).is_some() {
                evictions += 1;
            }
            let keys: Vec<u64> = real.iter().map(|(&k, _)| k).collect();
            prop_assert_eq!(keys, model.keys(), "resident keys or MRU order diverged");
            prop_assert_eq!(real.peek(&k).copied(), want.or(Some(v)));
        }
        let s = real.stats();
        prop_assert_eq!((s.hits, s.misses, s.evictions), (hits, misses, evictions));
    }

    #[test]
    fn capacity_never_exceeded(keys in prop::collection::vec(any::<u64>(), 1..600)) {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::with_entries(32, 4);
        for k in keys {
            c.insert(k, ());
            prop_assert!(c.len() <= 32);
        }
    }

    #[test]
    fn resident_keys_always_hit(keys in prop::collection::vec(0u64..16, 1..100)) {
        // With 16 possible keys and capacity 32 over 8 sets / 4 ways, every
        // set holds at most 2 distinct keys -> nothing is ever evicted and
        // every earlier insert must still hit.
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(8, 4);
        let mut inserted = std::collections::HashSet::new();
        for k in keys {
            c.insert(k, ());
            inserted.insert(k);
            for &p in &inserted {
                prop_assert!(c.peek(&p).is_some(), "key {} lost", p);
            }
        }
    }

    #[test]
    fn stats_account_every_lookup(keys in prop::collection::vec(0u64..32, 1..200)) {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(4, 2);
        let mut lookups = 0u64;
        for k in keys {
            let _ = c.get(&k);
            lookups += 1;
            c.insert(k, ());
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, lookups);
    }
}
