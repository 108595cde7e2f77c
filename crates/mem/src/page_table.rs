//! Per-GPU local page table.
//!
//! Each GPU holds translations only for pages it has faulted on; the
//! authoritative state lives in the UVM driver's centralized table
//! (`grit-uvm`). A local entry maps a virtual page either to local memory,
//! to a remote GPU's memory (counter-based scheme, §II-B2), or to a local
//! read-only replica (duplication, §II-B3).

use grit_sim::{GpuId, PageId, PageVec};

/// How a GPU's local page table resolves a virtual page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mapping {
    /// The page lives in this GPU's own memory and is writable.
    Local,
    /// The translation points at another GPU's memory; accesses go over
    /// NVLink at cache-line granularity.
    Remote(GpuId),
    /// The translation points at host (CPU) memory; accesses go over PCIe.
    /// This is where access-counter pages sit before their counter trips
    /// (NVIDIA leaves the page in place and counts remote accesses).
    RemoteHost,
    /// A local read-only replica exists (page duplication); writes raise a
    /// page protection fault.
    Replica,
}

impl Mapping {
    /// Whether a write through this mapping is legal without a fault.
    pub fn writable(self) -> bool {
        matches!(
            self,
            Mapping::Local | Mapping::Remote(_) | Mapping::RemoteHost
        )
    }
}

/// A GPU's local page table, a dense [`PageVec`] over the footprint.
///
/// ```
/// use grit_mem::{LocalPageTable, Mapping};
/// use grit_sim::PageId;
///
/// let mut pt = LocalPageTable::new(16);
/// assert_eq!(pt.lookup(PageId(1)), None);
/// pt.map(PageId(1), Mapping::Local);
/// assert_eq!(pt.lookup(PageId(1)), Some(Mapping::Local));
/// assert!(pt.invalidate(PageId(1)));
/// ```
#[derive(Clone, Debug)]
pub struct LocalPageTable {
    entries: PageVec<Option<Mapping>>,
    len: usize,
}

impl LocalPageTable {
    /// An empty table for pages `0..footprint_pages`.
    pub fn new(footprint_pages: u64) -> Self {
        LocalPageTable {
            entries: PageVec::new(footprint_pages),
            len: 0,
        }
    }

    /// Current mapping for a page, if any.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` lies at or past the footprint.
    #[inline]
    pub fn lookup(&self, vpn: PageId) -> Option<Mapping> {
        *self.entries.get(vpn)
    }

    /// Installs or replaces a mapping.
    pub fn map(&mut self, vpn: PageId, mapping: Mapping) {
        if self.entries.get_mut(vpn).replace(mapping).is_none() {
            self.len += 1;
        }
    }

    /// Removes a mapping; `true` if one was present.
    pub fn invalidate(&mut self, vpn: PageId) -> bool {
        let present = self.entries.get_mut(vpn).take().is_some();
        if present {
            self.len -= 1;
        }
        present
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no valid entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(page, mapping)` pairs in ascending VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, Mapping)> + '_ {
        self.entries.iter().filter_map(|(vpn, m)| m.map(|m| (vpn, m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lookup_invalidate() {
        let mut pt = LocalPageTable::new(16);
        pt.map(PageId(3), Mapping::Remote(GpuId::new(1)));
        assert_eq!(pt.lookup(PageId(3)), Some(Mapping::Remote(GpuId::new(1))));
        pt.map(PageId(3), Mapping::Local);
        assert_eq!(pt.lookup(PageId(3)), Some(Mapping::Local));
        assert_eq!(pt.len(), 1);
        assert!(pt.invalidate(PageId(3)));
        assert!(!pt.invalidate(PageId(3)));
        assert!(pt.is_empty());
    }

    #[test]
    fn iteration_is_ascending_by_vpn() {
        let mut pt = LocalPageTable::new(32);
        for vpn in [9, 2, 31, 0] {
            pt.map(PageId(vpn), Mapping::Local);
        }
        pt.invalidate(PageId(2));
        let order: Vec<u64> = pt.iter().map(|(p, _)| p.vpn()).collect();
        assert_eq!(order, vec![0, 9, 31]);
    }

    #[test]
    #[should_panic(expected = "page:0x20 is outside the footprint of 32 pages")]
    fn pages_past_the_footprint_panic() {
        LocalPageTable::new(32).map(PageId(32), Mapping::Local);
    }

    #[test]
    fn writability() {
        assert!(Mapping::Local.writable());
        assert!(Mapping::Remote(GpuId::new(0)).writable());
        assert!(Mapping::RemoteHost.writable());
        assert!(!Mapping::Replica.writable());
    }
}
