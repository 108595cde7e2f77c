//! The software Page Attribute Table (paper §V-C, Fig. 12).
//!
//! The PA-Table lives in CPU memory and records, per faulting page, a
//! read/write bit and a fault counter (local page faults + page protection
//! faults). Entries are deleted once the fault counter reaches the
//! threshold and the page's placement scheme is updated.

use grit_sim::{PageId, PageVec};

/// One PA-Table entry's payload (the VPN is the key).
///
/// The hardware format packs the counter into 2 bits
/// ([`grit_uvm::PaTableEntryBits`]); the simulator widens it so the
/// threshold sensitivity study (§VI-B1, thresholds up to 16) runs on the
/// same structure, saturating at [`PaEntry::MAX_FAULTS`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PaEntry {
    /// Read/write bit: set on the first write and sticky for the entry's
    /// lifetime ("once the read/write bit is set to 1, it remains
    /// unchanged during the current scheme lifetime").
    pub write: bool,
    /// Fault counter (local + protection faults since registration).
    pub faults: u8,
}

impl PaEntry {
    /// Saturation bound of the widened fault counter.
    pub const MAX_FAULTS: u8 = u8::MAX;

    /// Applies one fault to the entry.
    pub fn apply_fault(&mut self, is_write: bool) {
        self.faults = self.faults.saturating_add(1);
        self.write |= is_write;
    }
}

/// The in-memory PA-Table, a dense [`PageVec`] over the footprint.
///
/// ```
/// use grit_core::PaTable;
/// use grit_sim::PageId;
///
/// let mut t = PaTable::new(16);
/// let e = t.record_fault(PageId(3), false);
/// assert_eq!(e.faults, 1);
/// let e = t.record_fault(PageId(3), true);
/// assert_eq!(e.faults, 2);
/// assert!(e.write);
/// t.delete(PageId(3));
/// assert!(t.get(PageId(3)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct PaTable {
    entries: PageVec<Option<PaEntry>>,
    len: usize,
}

impl PaTable {
    /// An empty table for pages `0..footprint_pages`.
    pub fn new(footprint_pages: u64) -> Self {
        PaTable {
            entries: PageVec::new(footprint_pages),
            len: 0,
        }
    }

    /// The slot of `vpn`, counting a newly registered entry.
    fn slot(&mut self, vpn: PageId) -> &mut Option<PaEntry> {
        let slot = self.entries.get_mut(vpn);
        if slot.is_none() {
            self.len += 1;
        }
        slot
    }

    /// Registers (or updates) the entry for a faulting page and returns the
    /// updated value.
    pub fn record_fault(&mut self, vpn: PageId, is_write: bool) -> PaEntry {
        let e = self.slot(vpn).get_or_insert_with(PaEntry::default);
        e.apply_fault(is_write);
        *e
    }

    /// Current entry for a page, if registered.
    pub fn get(&self, vpn: PageId) -> Option<PaEntry> {
        *self.entries.get(vpn)
    }

    /// Overwrites an entry (PA-Cache write-back path).
    pub fn store(&mut self, vpn: PageId, entry: PaEntry) {
        *self.slot(vpn) = Some(entry);
    }

    /// Deletes an entry (scheme change applied, §V-C).
    pub fn delete(&mut self, vpn: PageId) -> Option<PaEntry> {
        let e = self.entries.get_mut(vpn).take();
        if e.is_some() {
            self.len -= 1;
        }
        e
    }

    /// Registered entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_increments_and_write_bit_sticks() {
        let mut t = PaTable::new(16);
        t.record_fault(PageId(1), true);
        let e = t.record_fault(PageId(1), false);
        assert_eq!(e.faults, 2);
        assert!(e.write, "write bit must stay set");
    }

    #[test]
    fn counter_saturates() {
        let mut e = PaEntry {
            write: false,
            faults: PaEntry::MAX_FAULTS,
        };
        e.apply_fault(false);
        assert_eq!(e.faults, PaEntry::MAX_FAULTS);
    }

    #[test]
    fn distinct_pages_are_independent() {
        let mut t = PaTable::new(16);
        t.record_fault(PageId(1), false);
        t.record_fault(PageId(2), true);
        assert_eq!(t.get(PageId(1)).unwrap().faults, 1);
        assert!(!t.get(PageId(1)).unwrap().write);
        assert!(t.get(PageId(2)).unwrap().write);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_removes_entry() {
        let mut t = PaTable::new(16);
        t.record_fault(PageId(5), false);
        assert_eq!(t.delete(PageId(5)).unwrap().faults, 1);
        assert!(t.delete(PageId(5)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn store_and_delete_keep_the_count() {
        let mut t = PaTable::new(16);
        t.store(PageId(2), PaEntry::default());
        t.store(PageId(2), PaEntry::default());
        t.record_fault(PageId(3), false);
        assert_eq!(t.len(), 2);
        t.delete(PageId(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_store_round_trip() {
        let mut t = PaTable::new(16);
        assert_eq!(t.get(PageId(9)), None);
        t.store(
            PageId(9),
            PaEntry {
                write: true,
                faults: 3,
            },
        );
        assert_eq!(
            t.get(PageId(9)),
            Some(PaEntry {
                write: true,
                faults: 3
            })
        );
    }
}
