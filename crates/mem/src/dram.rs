//! Per-GPU DRAM occupancy with LRU page eviction.
//!
//! The paper sizes GPU memory to 70 % of the application footprint
//! (Table I) precisely to exercise oversubscription: page duplication and
//! GPS inflate resident sets, forcing evictions, re-faults and
//! re-duplications (§II-B3, §VI-C2). [`GpuMemory`] tracks which virtual
//! pages are resident in one GPU's DRAM and picks LRU victims when space
//! runs out.

use grit_sim::{PageId, PageVec};

/// Intrusive doubly-linked LRU list over a slab of nodes.
#[derive(Clone, Debug)]
struct LruList {
    nodes: Vec<LruNode>,
    free: Vec<usize>,
    head: Option<usize>, // MRU
    tail: Option<usize>, // LRU
}

#[derive(Clone, Copy, Debug)]
struct LruNode {
    page: PageId,
    prev: Option<usize>,
    next: Option<usize>,
}

impl LruList {
    fn new() -> Self {
        LruList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: None,
            tail: None,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n].prev = prev,
            None => self.tail = prev,
        }
        self.nodes[idx].prev = None;
        self.nodes[idx].next = None;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = None;
        self.nodes[idx].next = self.head;
        if let Some(h) = self.head {
            self.nodes[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }

    fn alloc(&mut self, page: PageId) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = LruNode {
                page,
                prev: None,
                next: None,
            };
            idx
        } else {
            self.nodes.push(LruNode {
                page,
                prev: None,
                next: None,
            });
            self.nodes.len() - 1
        }
    }

    fn release(&mut self, idx: usize) {
        self.free.push(idx);
    }
}

/// Resident-page tracker for one GPU's local memory.
///
/// The page → LRU-node index and the dirty bits are dense [`PageVec`]s
/// over the footprint ([`GpuMemory::with_footprint`]).
///
/// ```
/// use grit_mem::GpuMemory;
/// use grit_sim::PageId;
///
/// let mut m = GpuMemory::with_footprint(2, 8);
/// assert_eq!(m.insert(PageId(1)), None);
/// assert_eq!(m.insert(PageId(2)), None);
/// m.touch(PageId(1));                      // 1 becomes MRU
/// assert_eq!(m.insert(PageId(3)), Some(PageId(2)));
/// assert!(m.contains(PageId(1)));
/// ```
#[derive(Clone, Debug)]
pub struct GpuMemory {
    capacity_pages: usize,
    /// LRU node of each resident page.
    index: PageVec<Option<u32>>,
    /// Written since it arrived. An LRU victim keeps its bit until the
    /// page arrives again or is removed, so the caller can still ask
    /// whether the victim needs a write-back.
    dirty: PageVec<bool>,
    resident: usize,
    lru: LruList,
    evictions: u64,
}

impl GpuMemory {
    /// Memory holding at most `capacity_pages` pages, with no footprint
    /// bound: the page index grows to the highest page inserted.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero.
    pub fn new(capacity_pages: usize) -> Self {
        Self::with_index(capacity_pages, PageVec::unbounded(), PageVec::unbounded())
    }

    /// Memory holding at most `capacity_pages` of the pages
    /// `0..footprint_pages`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero. Every page operation panics on a
    /// page at or past the footprint.
    pub fn with_footprint(capacity_pages: usize, footprint_pages: u64) -> Self {
        Self::with_index(
            capacity_pages,
            PageVec::new(footprint_pages),
            PageVec::new(footprint_pages),
        )
    }

    fn with_index(
        capacity_pages: usize,
        index: PageVec<Option<u32>>,
        dirty: PageVec<bool>,
    ) -> Self {
        assert!(capacity_pages > 0, "GPU memory capacity must be non-zero");
        GpuMemory {
            capacity_pages,
            index,
            dirty,
            resident: 0,
            lru: LruList::new(),
            evictions: 0,
        }
    }

    /// Marks a resident page as modified since it arrived; dirty victims
    /// must be written back on eviction, clean ones can be dropped.
    #[inline]
    pub fn mark_dirty(&mut self, page: PageId) {
        if self.index.get(page).is_some() {
            *self.dirty.get_mut(page) = true;
        }
    }

    /// Whether the page has been written since becoming resident.
    pub fn is_dirty(&self, page: PageId) -> bool {
        *self.dirty.get(page)
    }

    /// Makes `page` resident as MRU. If memory is full, evicts and returns
    /// the LRU page (never the page just inserted). Inserting an already
    /// resident page just refreshes its recency.
    pub fn insert(&mut self, page: PageId) -> Option<PageId> {
        if let Some(idx) = *self.index.get(page) {
            self.lru.unlink(idx as usize);
            self.lru.push_front(idx as usize);
            return None;
        }
        let victim = if self.resident == self.capacity_pages {
            let victim_page = self.pop_lru();
            self.evictions += 1;
            Some(victim_page)
        } else {
            None
        };
        // A fresh arrival starts clean.
        *self.dirty.get_mut(page) = false;
        let idx = self.lru.alloc(page);
        self.lru.push_front(idx);
        *self.index.get_mut(page) = Some(u32::try_from(idx).expect("LRU node fits in u32"));
        self.resident += 1;
        victim
    }

    /// Unlinks the LRU page and drops it from the index; its dirty bit
    /// stays for the caller to read.
    fn pop_lru(&mut self) -> PageId {
        let tail = self.lru.tail.expect("non-empty memory has a tail");
        let page = self.lru.nodes[tail].page;
        self.lru.unlink(tail);
        self.lru.release(tail);
        *self.index.get_mut(page) = None;
        self.resident -= 1;
        page
    }

    /// Refreshes recency of a resident page; `true` if it was resident.
    #[inline]
    pub fn touch(&mut self, page: PageId) -> bool {
        if let Some(idx) = *self.index.get(page) {
            self.lru.unlink(idx as usize);
            self.lru.push_front(idx as usize);
            true
        } else {
            false
        }
    }

    /// Removes a page (migration away / invalidated replica); `true` if it
    /// was resident.
    pub fn remove(&mut self, page: PageId) -> bool {
        if let Some(idx) = self.index.get_mut(page).take() {
            self.lru.unlink(idx as usize);
            self.lru.release(idx as usize);
            *self.dirty.get_mut(page) = false;
            self.resident -= 1;
            true
        } else {
            false
        }
    }

    /// ECC frame retirement: permanently removes `frames` page frames
    /// from this memory's capacity (capacity never drops below one frame)
    /// and force-evicts LRU pages until the survivors fit. Returns the
    /// evicted pages in eviction (LRU-first) order, each with the dirty
    /// bit it held at eviction — the caller re-places them, writing dirty
    /// ones back first.
    pub fn retire_frames(&mut self, frames: u64) -> Vec<(PageId, bool)> {
        let frames = usize::try_from(frames).unwrap_or(usize::MAX).min(self.capacity_pages - 1);
        self.capacity_pages -= frames;
        let mut evicted = Vec::new();
        while self.resident > self.capacity_pages {
            let page = self.pop_lru();
            let dirty = std::mem::take(self.dirty.get_mut(page));
            self.evictions += 1;
            evicted.push((page, dirty));
        }
        evicted
    }

    /// Whether the page is resident.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.index.get(page).is_some()
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity_pages
    }

    /// Total pages evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_lru() {
        let mut m = GpuMemory::new(3);
        for p in 0..3 {
            assert_eq!(m.insert(PageId(p)), None);
        }
        assert_eq!(m.resident(), 3);
        // 0 is LRU.
        assert_eq!(m.insert(PageId(3)), Some(PageId(0)));
        assert_eq!(m.evictions(), 1);
        assert!(!m.contains(PageId(0)));
    }

    #[test]
    fn touch_protects_from_eviction() {
        let mut m = GpuMemory::new(2);
        m.insert(PageId(1));
        m.insert(PageId(2));
        assert!(m.touch(PageId(1)));
        assert_eq!(m.insert(PageId(3)), Some(PageId(2)));
        assert!(!m.touch(PageId(2)));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut m = GpuMemory::new(2);
        m.insert(PageId(1));
        m.insert(PageId(2));
        assert_eq!(m.insert(PageId(1)), None);
        assert_eq!(m.insert(PageId(3)), Some(PageId(2)));
    }

    #[test]
    fn remove_frees_space() {
        let mut m = GpuMemory::new(2);
        m.insert(PageId(1));
        m.insert(PageId(2));
        assert!(m.remove(PageId(1)));
        assert!(!m.remove(PageId(1)));
        assert_eq!(m.insert(PageId(3)), None);
        assert_eq!(m.resident(), 2);
    }

    #[test]
    fn occupancy_reporting() {
        let mut m = GpuMemory::new(4);
        assert_eq!(m.resident(), 0);
        m.insert(PageId(1));
        m.insert(PageId(2));
        assert_eq!(m.resident(), 2);
        assert_eq!(m.capacity(), 4);
    }

    #[test]
    fn eviction_order_is_true_lru_under_churn() {
        let mut m = GpuMemory::new(3);
        m.insert(PageId(1));
        m.insert(PageId(2));
        m.insert(PageId(3));
        m.touch(PageId(1)); // order (MRU->LRU): 1,3,2
        m.touch(PageId(2)); // order: 2,1,3
        assert_eq!(m.insert(PageId(4)), Some(PageId(3)));
        assert_eq!(m.insert(PageId(5)), Some(PageId(1)));
        assert_eq!(m.insert(PageId(6)), Some(PageId(2)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = GpuMemory::new(0);
    }

    #[test]
    #[should_panic(expected = "page:0x10 is outside the footprint of 16 pages")]
    fn pages_past_the_footprint_panic() {
        GpuMemory::with_footprint(4, 16).insert(PageId(16));
    }

    #[test]
    fn victim_keeps_its_dirty_bit_until_it_returns() {
        let mut m = GpuMemory::with_footprint(1, 4);
        m.insert(PageId(0));
        m.mark_dirty(PageId(0));
        assert_eq!(m.insert(PageId(1)), Some(PageId(0)));
        assert!(m.is_dirty(PageId(0)), "the caller reads the victim's bit");
        m.insert(PageId(0));
        assert!(!m.is_dirty(PageId(0)));
    }

    #[test]
    fn retiring_frames_force_evicts_lru_first() {
        let mut m = GpuMemory::new(4);
        for p in 0..4 {
            m.insert(PageId(p));
        }
        m.touch(PageId(0)); // order (MRU->LRU): 0,3,2,1
        m.mark_dirty(PageId(1));
        let evicted = m.retire_frames(2);
        assert_eq!(evicted, vec![(PageId(1), true), (PageId(2), false)]);
        assert_eq!(m.capacity(), 2);
        assert_eq!(m.resident(), 2);
        assert_eq!(m.evictions(), 2);
        assert!(m.contains(PageId(0)) && m.contains(PageId(3)));
        assert!(!m.is_dirty(PageId(1)));
    }

    #[test]
    fn retirement_never_drops_below_one_frame() {
        let mut m = GpuMemory::new(3);
        m.insert(PageId(7));
        let evicted = m.retire_frames(100);
        assert_eq!(m.capacity(), 1);
        assert!(evicted.is_empty(), "one resident page still fits");
        // Retiring when already at the floor is a no-op.
        assert!(m.retire_frames(5).is_empty());
        assert_eq!(m.capacity(), 1);
        assert!(m.contains(PageId(7)));
    }

    #[test]
    fn retirement_with_spare_room_evicts_nothing() {
        let mut m = GpuMemory::new(8);
        m.insert(PageId(1));
        m.insert(PageId(2));
        assert!(m.retire_frames(3).is_empty());
        assert_eq!(m.capacity(), 5);
        assert_eq!(m.resident(), 2);
    }

    #[test]
    fn dirty_tracking_follows_residency() {
        let mut m = GpuMemory::new(2);
        m.insert(PageId(1));
        assert!(!m.is_dirty(PageId(1)));
        m.mark_dirty(PageId(1));
        assert!(m.is_dirty(PageId(1)));
        // Marking a non-resident page is a no-op.
        m.mark_dirty(PageId(9));
        assert!(!m.is_dirty(PageId(9)));
        // Removal clears the dirty bit...
        m.remove(PageId(1));
        assert!(!m.is_dirty(PageId(1)));
        // ...and re-insertion starts clean.
        m.insert(PageId(1));
        assert!(!m.is_dirty(PageId(1)));
    }
}
