//! Dense per-page state indexed by virtual page number.
//!
//! A workload's VPNs are dense — the workload builder asserts
//! `vpn < footprint_pages` — so per-page simulator state lives in a flat
//! `Vec` indexed by VPN rather than a hash map keyed by [`PageId`]. A
//! lookup is one bounds check and one load, and iteration runs in
//! ascending VPN order.

use crate::ids::PageId;

/// A `Vec` of per-page slots indexed by VPN.
///
/// [`PageVec::new`] sizes the storage once from the footprint; a VPN at or
/// past the footprint is a caller bug and panics with a message naming the
/// page and the footprint. [`PageVec::unbounded`] serves callers that do
/// not know the footprint: its storage grows to the highest page written,
/// and pages never written read as `T::default()`.
///
/// ```
/// use grit_sim::{PageId, PageVec};
///
/// let mut v: PageVec<u32> = PageVec::new(8);
/// *v.get_mut(PageId(3)) += 2;
/// assert_eq!(*v.get(PageId(3)), 2);
/// assert_eq!(*v.get(PageId(4)), 0);
/// let written: Vec<_> = v.iter().filter(|&(_, &n)| n > 0).collect();
/// assert_eq!(written, vec![(PageId(3), &2)]);
/// ```
#[derive(Clone, Debug)]
pub struct PageVec<T> {
    slots: Vec<T>,
    /// Pages `0..footprint` are addressable; `u64::MAX` when unbounded.
    footprint: u64,
    /// What an unwritten slot of an unbounded vector reads as.
    vacant: T,
}

impl<T: Clone + Default> PageVec<T> {
    /// Storage for pages `0..footprint_pages`, every slot `T::default()`.
    pub fn new(footprint_pages: u64) -> Self {
        let len = usize::try_from(footprint_pages).expect("footprint fits in memory");
        PageVec {
            slots: vec![T::default(); len],
            footprint: footprint_pages,
            vacant: T::default(),
        }
    }

    /// Storage with no footprint bound, grown on demand to the highest
    /// page written.
    pub fn unbounded() -> Self {
        PageVec {
            slots: Vec::new(),
            footprint: u64::MAX,
            vacant: T::default(),
        }
    }

    /// The slot of `vpn`.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is at or past the footprint.
    #[inline]
    pub fn get(&self, vpn: PageId) -> &T {
        match self.slots.get(vpn.0 as usize) {
            Some(slot) => slot,
            None => self.past_end(vpn),
        }
    }

    /// The mutable slot of `vpn`.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is at or past the footprint.
    #[inline]
    pub fn get_mut(&mut self, vpn: PageId) -> &mut T {
        let i = vpn.0 as usize;
        if i >= self.slots.len() {
            self.grow(vpn);
        }
        &mut self.slots[i]
    }

    /// Iterates `(page, slot)` over every stored slot in ascending VPN
    /// order (for an unbounded vector, up to the highest page written).
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &T)> {
        self.slots.iter().enumerate().map(|(i, slot)| (PageId(i as u64), slot))
    }

    #[cold]
    fn past_end(&self, vpn: PageId) -> &T {
        self.check_bound(vpn);
        &self.vacant
    }

    #[cold]
    fn grow(&mut self, vpn: PageId) {
        self.check_bound(vpn);
        self.slots.resize(vpn.0 as usize + 1, T::default());
    }

    fn check_bound(&self, vpn: PageId) {
        assert!(
            vpn.0 < self.footprint,
            "{vpn} is outside the footprint of {} pages",
            self.footprint
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_start_default_and_hold_writes() {
        let mut v: PageVec<Option<u8>> = PageVec::new(4);
        assert_eq!(*v.get(PageId(3)), None);
        *v.get_mut(PageId(3)) = Some(9);
        assert_eq!(*v.get(PageId(3)), Some(9));
    }

    #[test]
    fn iteration_is_ascending_by_vpn() {
        let mut v: PageVec<u8> = PageVec::new(6);
        for p in [5, 0, 3] {
            *v.get_mut(PageId(p)) = 1;
        }
        let set: Vec<u64> = v.iter().filter(|&(_, &s)| s == 1).map(|(p, _)| p.0).collect();
        assert_eq!(set, vec![0, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "page:0x8 is outside the footprint of 8 pages")]
    fn write_past_the_footprint_panics() {
        let mut v: PageVec<u8> = PageVec::new(8);
        *v.get_mut(PageId(8)) = 1;
    }

    #[test]
    #[should_panic(expected = "page:0x9 is outside the footprint of 8 pages")]
    fn read_past_the_footprint_panics() {
        let v: PageVec<u8> = PageVec::new(8);
        let _ = v.get(PageId(9));
    }

    #[test]
    fn unbounded_grows_to_the_highest_page_written() {
        let mut v: PageVec<u8> = PageVec::unbounded();
        assert_eq!(*v.get(PageId(1 << 20)), 0);
        *v.get_mut(PageId(10)) = 7;
        assert_eq!(*v.get(PageId(10)), 7);
        assert_eq!(*v.get(PageId(11)), 0);
        assert_eq!(v.iter().count(), 11);
    }
}
