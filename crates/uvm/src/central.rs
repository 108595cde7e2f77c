//! The UVM driver's centralized page table (§II-A): authoritative per-page
//! state for every GPU in the node, including GRIT's scheme and group bits.

use grit_sim::{GpuId, GpuSet, GroupSize, MemLoc, PageId, PageVec, Scheme};

/// Authoritative state of one virtual page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageState {
    /// Where the authoritative (writable) copy lives.
    pub owner: MemLoc,
    /// GPUs holding read-only replicas (excluding the owner's copy).
    pub replicas: GpuSet,
    /// Placement-scheme bits from the centralized PTE (Table IV); `None`
    /// until a scheme is explicitly recorded.
    pub scheme: Option<Scheme>,
    /// Group-size bits (Table V), meaningful on the group's base page.
    pub group: GroupSize,
    /// Every GPU that has ever faulted on this page.
    pub sharers: GpuSet,
    /// Whether any write has ever been performed.
    pub written: bool,
    /// Whether the page has been touched at all (cold-state tracking for
    /// the Ideal upper bound).
    pub touched: bool,
}

impl Default for PageState {
    fn default() -> Self {
        PageState {
            owner: MemLoc::Host,
            replicas: GpuSet::new(),
            scheme: None,
            group: GroupSize::One,
            sharers: GpuSet::new(),
            written: false,
            touched: false,
        }
    }
}

impl PageState {
    /// All GPUs holding any physical copy (owner + replicas).
    pub fn holders(&self) -> GpuSet {
        let mut s = self.replicas;
        if let MemLoc::Gpu(g) = self.owner {
            s.insert(g);
        }
        s
    }

    /// Whether the page is currently replicated beyond its owner.
    pub fn is_duplicated(&self) -> bool {
        !self.replicas.is_empty()
    }
}

/// The centralized page table maintained by the UVM driver on the CPU.
///
/// Entries live in a dense [`PageVec`] indexed by VPN. The driver sizes it
/// from the workload footprint ([`CentralPageTable::with_footprint`]);
/// [`CentralPageTable::new`] grows on demand instead.
///
/// ```
/// use grit_uvm::CentralPageTable;
/// use grit_sim::{GpuId, MemLoc, PageId, Scheme};
///
/// let mut t = CentralPageTable::with_footprint(16);
/// t.page_mut(PageId(4)).owner = MemLoc::Gpu(GpuId::new(1));
/// t.set_scheme(PageId(4), Scheme::Duplication);
/// assert_eq!(t.scheme_of(PageId(4)), Some(Scheme::Duplication));
/// ```
#[derive(Clone, Debug)]
pub struct CentralPageTable {
    pages: PageVec<Option<PageState>>,
    /// Pages with an explicit entry.
    len: usize,
}

impl Default for CentralPageTable {
    fn default() -> Self {
        CentralPageTable::new()
    }
}

impl CentralPageTable {
    /// An empty table with no footprint bound (all pages implicitly
    /// host-resident and cold); its storage grows to the highest page
    /// written.
    pub fn new() -> Self {
        CentralPageTable {
            pages: PageVec::unbounded(),
            len: 0,
        }
    }

    /// An empty table for pages `0..footprint_pages`.
    pub fn with_footprint(footprint_pages: u64) -> Self {
        CentralPageTable {
            pages: PageVec::new(footprint_pages),
            len: 0,
        }
    }

    /// Read-only state of a page (default state if never touched).
    ///
    /// # Panics
    ///
    /// Panics if `vpn` lies at or past the footprint.
    #[inline]
    pub fn page(&self, vpn: PageId) -> PageState {
        self.pages.get(vpn).unwrap_or_default()
    }

    /// Mutable state of a page, creating the default entry on first use.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` lies at or past the footprint.
    #[inline]
    pub fn page_mut(&mut self, vpn: PageId) -> &mut PageState {
        let slot = self.pages.get_mut(vpn);
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(PageState::default)
    }

    /// Whether the page has an explicit entry.
    pub fn contains(&self, vpn: PageId) -> bool {
        self.pages.get(vpn).is_some()
    }

    /// Scheme bits of a page (`None` = unset `00`).
    #[inline]
    pub fn scheme_of(&self, vpn: PageId) -> Option<Scheme> {
        self.pages.get(vpn).and_then(|p| p.scheme)
    }

    /// Sets the scheme bits of a page.
    pub fn set_scheme(&mut self, vpn: PageId, scheme: Scheme) {
        self.page_mut(vpn).scheme = Some(scheme);
    }

    /// Group bits of a page (meaningful on base pages).
    pub fn group_of(&self, vpn: PageId) -> GroupSize {
        self.pages.get(vpn).map_or(GroupSize::One, |p| p.group)
    }

    /// Sets the group bits of a page.
    pub fn set_group(&mut self, vpn: PageId, group: GroupSize) {
        self.page_mut(vpn).group = group;
    }

    /// Number of pages with explicit entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no page has been touched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(page, state)` over the pages with explicit entries in
    /// ascending VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &PageState)> {
        self.pages.iter().filter_map(|(vpn, p)| p.as_ref().map(|p| (vpn, p)))
    }

    /// Marks a fault by `gpu` on `vpn`, updating sharer/written/touched
    /// bookkeeping, and returns the updated state.
    pub fn note_fault(&mut self, gpu: GpuId, vpn: PageId, is_write: bool) -> PageState {
        let p = self.page_mut(vpn);
        p.sharers.insert(gpu);
        p.written |= is_write;
        p.touched = true;
        *p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_page_is_cold_host_resident() {
        let t = CentralPageTable::new();
        let p = t.page(PageId(1));
        assert_eq!(p.owner, MemLoc::Host);
        assert!(!p.touched);
        assert!(p.replicas.is_empty());
        assert_eq!(p.scheme, None);
        assert!(t.is_empty());
    }

    #[test]
    fn note_fault_tracks_sharers_and_writes() {
        let mut t = CentralPageTable::new();
        let s1 = t.note_fault(GpuId::new(0), PageId(7), false);
        assert_eq!(s1.sharers.len(), 1);
        assert!(!s1.written);
        let s2 = t.note_fault(GpuId::new(2), PageId(7), true);
        assert_eq!(s2.sharers.len(), 2);
        assert!(s2.written);
        assert!(s2.touched);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn holders_includes_owner_and_replicas() {
        let mut t = CentralPageTable::new();
        {
            let p = t.page_mut(PageId(3));
            p.owner = MemLoc::Gpu(GpuId::new(0));
            p.replicas.insert(GpuId::new(2));
        }
        let h = t.page(PageId(3)).holders();
        assert!(h.contains(GpuId::new(0)));
        assert!(h.contains(GpuId::new(2)));
        assert_eq!(h.len(), 2);
        assert!(t.page(PageId(3)).is_duplicated());
    }

    #[test]
    fn host_owner_not_in_holders() {
        let t = CentralPageTable::new();
        assert!(t.page(PageId(1)).holders().is_empty());
    }

    #[test]
    fn iteration_is_ascending_by_vpn() {
        let mut t = CentralPageTable::with_footprint(64);
        for vpn in [40, 3, 17, 0, 63] {
            t.note_fault(GpuId::new(0), PageId(vpn), false);
        }
        let order: Vec<u64> = t.iter().map(|(p, _)| p.vpn()).collect();
        assert_eq!(order, vec![0, 3, 17, 40, 63]);
        assert_eq!(t.len(), 5);
    }

    #[test]
    #[should_panic(expected = "page:0x40 is outside the footprint of 64 pages")]
    fn pages_past_the_footprint_panic() {
        let mut t = CentralPageTable::with_footprint(64);
        t.note_fault(GpuId::new(0), PageId(64), false);
    }

    #[test]
    fn scheme_and_group_round_trip() {
        let mut t = CentralPageTable::new();
        t.set_scheme(PageId(8), Scheme::AccessCounter);
        t.set_group(PageId(8), GroupSize::Eight);
        assert_eq!(t.scheme_of(PageId(8)), Some(Scheme::AccessCounter));
        assert_eq!(t.group_of(PageId(8)), GroupSize::Eight);
        assert_eq!(t.scheme_of(PageId(9)), None);
        assert_eq!(t.group_of(PageId(9)), GroupSize::One);
    }
}
