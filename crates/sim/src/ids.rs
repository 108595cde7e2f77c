//! Identifier newtypes: GPUs, virtual pages, memory locations, GPU sets.

use std::fmt;

/// Identifies one GPU in the multi-GPU node (0-based).
///
/// The paper evaluates 2-, 4-, 8- and 16-GPU systems; `u8` comfortably
/// covers that and keeps per-page state small.
///
/// ```
/// use grit_sim::GpuId;
/// let g = GpuId::new(3);
/// assert_eq!(g.index(), 3);
/// assert_eq!(format!("{g}"), "GPU3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct GpuId(u8);

impl GpuId {
    /// Creates a GPU identifier from a 0-based index.
    pub fn new(index: u8) -> Self {
        GpuId(index)
    }

    /// The 0-based index as `usize`, for indexing per-GPU arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw index value.
    pub fn raw(self) -> u8 {
        self.0
    }

    /// Iterates `GPU0..GPUn`.
    pub fn all(n: usize) -> impl Iterator<Item = GpuId> {
        (0..n as u8).map(GpuId)
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPU{}", self.0)
    }
}

impl From<u8> for GpuId {
    fn from(v: u8) -> Self {
        GpuId(v)
    }
}

/// A virtual page number (VPN).
///
/// With the default 4 KB pages, `PageId(n)` names bytes
/// `n * 4096 .. (n + 1) * 4096` of the unified virtual address space. The
/// paper's PTE format (Fig. 14) carries 45-bit VPNs; we keep the full `u64`.
///
/// ```
/// use grit_sim::PageId;
/// let p = PageId(9);
/// assert_eq!(p.offset(3), PageId(12));
/// assert_eq!(p.group_base(8), PageId(8));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PageId(pub u64);

impl PageId {
    /// The raw VPN.
    pub fn vpn(self) -> u64 {
        self.0
    }

    /// The page `delta` pages after this one.
    pub fn offset(self, delta: u64) -> PageId {
        PageId(self.0 + delta)
    }

    /// Base page of the naturally aligned group of `group_pages` pages
    /// containing this page (paper §V-D: `VPN_base`).
    ///
    /// # Panics
    ///
    /// Panics if `group_pages` is zero.
    pub fn group_base(self, group_pages: u64) -> PageId {
        assert!(group_pages > 0, "group size must be non-zero");
        PageId(self.0 - self.0 % group_pages)
    }

    /// The 64 KB access-counter group this page belongs to (§II-B2): Volta
    /// tracks remote accesses at 64 KB granularity, i.e. 16 pages of 4 KB.
    pub fn counter_group(self, page_size: u64) -> u64 {
        let pages_per_group = (65_536 / page_size).max(1);
        self.0 / pages_per_group
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{:#x}", self.0)
    }
}

impl From<u64> for PageId {
    fn from(v: u64) -> Self {
        PageId(v)
    }
}

/// Where a physical copy of a page lives.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemLoc {
    /// Local memory of one GPU.
    Gpu(GpuId),
    /// CPU (host) memory, reachable over PCIe.
    Host,
}

impl MemLoc {
    /// Returns the GPU if this location is a GPU memory.
    pub fn gpu(self) -> Option<GpuId> {
        match self {
            MemLoc::Gpu(g) => Some(g),
            MemLoc::Host => None,
        }
    }
}

impl fmt::Display for MemLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemLoc::Gpu(g) => write!(f, "{g}"),
            MemLoc::Host => write!(f, "host"),
        }
    }
}

/// A compact set of GPUs (bitmask over up to 16 GPUs).
///
/// Used for page sharer/replica/subscriber tracking where a `HashSet` per
/// page would be wasteful.
///
/// ```
/// use grit_sim::{GpuId, GpuSet};
/// let mut s = GpuSet::default();
/// s.insert(GpuId::new(1));
/// s.insert(GpuId::new(3));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(GpuId::new(3)));
/// s.remove(GpuId::new(3));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![GpuId::new(1)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct GpuSet(u16);

impl GpuSet {
    /// The empty set.
    pub fn new() -> Self {
        GpuSet(0)
    }

    /// Inserts a GPU; returns `true` if it was newly added.
    pub fn insert(&mut self, g: GpuId) -> bool {
        let bit = 1u16 << g.index();
        let added = self.0 & bit == 0;
        self.0 |= bit;
        added
    }

    /// Removes a GPU; returns `true` if it was present.
    pub fn remove(&mut self, g: GpuId) -> bool {
        let bit = 1u16 << g.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Whether the GPU is in the set.
    pub fn contains(self, g: GpuId) -> bool {
        self.0 & (1u16 << g.index()) != 0
    }

    /// Number of GPUs in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Removes every GPU.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Iterates the members in ascending GPU index order.
    pub fn iter(self) -> impl Iterator<Item = GpuId> {
        (0..16u8).filter(move |i| self.0 & (1u16 << i) != 0).map(GpuId::new)
    }

    /// Members of `self` that are not `g`.
    pub fn without(self, g: GpuId) -> GpuSet {
        let mut s = self;
        s.remove(g);
        s
    }
}

impl FromIterator<GpuId> for GpuSet {
    fn from_iter<T: IntoIterator<Item = GpuId>>(iter: T) -> Self {
        let mut s = GpuSet::new();
        for g in iter {
            s.insert(g);
        }
        s
    }
}

impl fmt::Display for GpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for g in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", g.index())?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_id_roundtrip() {
        for i in 0..16 {
            assert_eq!(GpuId::new(i).index(), i as usize);
            assert_eq!(GpuId::from(i).raw(), i);
        }
    }

    #[test]
    fn gpu_all_enumerates_in_order() {
        let v: Vec<_> = GpuId::all(4).collect();
        assert_eq!(
            v,
            vec![GpuId::new(0), GpuId::new(1), GpuId::new(2), GpuId::new(3)]
        );
    }

    #[test]
    fn page_group_base_is_aligned() {
        assert_eq!(PageId(0).group_base(8), PageId(0));
        assert_eq!(PageId(7).group_base(8), PageId(0));
        assert_eq!(PageId(8).group_base(8), PageId(8));
        assert_eq!(PageId(511).group_base(512), PageId(0));
        assert_eq!(PageId(513).group_base(512), PageId(512));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn page_group_base_rejects_zero() {
        let _ = PageId(1).group_base(0);
    }

    #[test]
    fn counter_group_is_64kb() {
        // 16 pages of 4 KB per 64 KB group.
        assert_eq!(PageId(0).counter_group(4096), 0);
        assert_eq!(PageId(15).counter_group(4096), 0);
        assert_eq!(PageId(16).counter_group(4096), 1);
        // With 2 MB pages each page is its own (saturated) group.
        assert_eq!(PageId(3).counter_group(2 * 1024 * 1024), 3);
    }

    #[test]
    fn gpu_set_operations() {
        let mut s = GpuSet::new();
        assert!(s.is_empty());
        assert!(s.insert(GpuId::new(5)));
        assert!(!s.insert(GpuId::new(5)));
        assert!(s.contains(GpuId::new(5)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(GpuId::new(5)));
        assert!(!s.remove(GpuId::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn gpu_set_union_and_without() {
        let a: GpuSet = [GpuId::new(0), GpuId::new(2)].into_iter().collect();
        let u: GpuSet = a.iter().chain([GpuId::new(1), GpuId::new(2)]).collect();
        assert_eq!(u.len(), 3);
        assert_eq!(u.without(GpuId::new(2)).len(), 2);
        assert_eq!(format!("{u}"), "{0,1,2}");
    }

    #[test]
    fn mem_loc_gpu_accessor() {
        assert_eq!(MemLoc::Gpu(GpuId::new(2)).gpu(), Some(GpuId::new(2)));
        assert_eq!(MemLoc::Host.gpu(), None);
        assert_eq!(format!("{}", MemLoc::Host), "host");
    }
}
