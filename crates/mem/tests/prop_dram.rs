//! Property tests for the GPU memory LRU against a naive model.

use proptest::prelude::*;

use grit_mem::GpuMemory;
use grit_sim::PageId;

/// Reference model: a Vec in MRU order.
struct ModelLru {
    pages: Vec<u64>,
    capacity: usize,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru {
            pages: Vec::new(),
            capacity,
        }
    }

    fn insert(&mut self, p: u64) -> Option<u64> {
        if let Some(pos) = self.pages.iter().position(|&x| x == p) {
            self.pages.remove(pos);
            self.pages.insert(0, p);
            return None;
        }
        let victim = if self.pages.len() == self.capacity {
            self.pages.pop()
        } else {
            None
        };
        self.pages.insert(0, p);
        victim
    }

    fn touch(&mut self, p: u64) -> bool {
        if let Some(pos) = self.pages.iter().position(|&x| x == p) {
            self.pages.remove(pos);
            self.pages.insert(0, p);
            true
        } else {
            false
        }
    }

    fn remove(&mut self, p: u64) -> bool {
        if let Some(pos) = self.pages.iter().position(|&x| x == p) {
            self.pages.remove(pos);
            true
        } else {
            false
        }
    }
}

/// Pages the operation strategies draw from; the memories under test
/// cover exactly this footprint.
const FOOTPRINT: u64 = 40;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Touch(u64),
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..FOOTPRINT).prop_map(Op::Insert),
        (0..FOOTPRINT).prop_map(Op::Touch),
        (0..FOOTPRINT).prop_map(Op::Remove),
    ]
}

proptest! {
    #[test]
    fn lru_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..500)) {
        let mut real = GpuMemory::with_footprint(8, FOOTPRINT);
        let mut model = ModelLru::new(8);
        for op in ops {
            match op {
                Op::Insert(p) => {
                    prop_assert_eq!(
                        real.insert(PageId(p)),
                        model.insert(p).map(PageId)
                    );
                }
                Op::Touch(p) => {
                    prop_assert_eq!(real.touch(PageId(p)), model.touch(p));
                }
                Op::Remove(p) => {
                    prop_assert_eq!(real.remove(PageId(p)), model.remove(p));
                }
            }
            prop_assert_eq!(real.resident(), model.pages.len());
            prop_assert!(real.resident() <= real.capacity());
            for &p in &model.pages {
                prop_assert!(real.contains(PageId(p)));
            }
        }
    }

    #[test]
    fn eviction_count_is_monotone(pages in prop::collection::vec(0..FOOTPRINT, 1..300)) {
        let mut m = GpuMemory::with_footprint(4, FOOTPRINT);
        let mut last = 0;
        for p in pages {
            m.insert(PageId(p));
            let e = m.evictions();
            prop_assert!(e >= last);
            last = e;
        }
    }
}

#[test]
#[should_panic(expected = "page:0x28 is outside the footprint of 40 pages")]
fn pages_at_or_past_the_footprint_panic() {
    GpuMemory::with_footprint(4, FOOTPRINT).insert(PageId(FOOTPRINT));
}
