//! Per-page attribute tracking: private vs shared, read vs read-write
//! (paper §IV-B, Figs. 4 and 9).

use grit_sim::{AccessKind, GpuId, GpuSet, PageId, PageVec, SliceStream};

#[derive(Clone, Copy, Debug, Default)]
struct PageRecord {
    accessors: GpuSet,
    written: bool,
    accesses: u64,
}

/// Aggregated attribute percentages, the quantities plotted in Figs. 4 & 9.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct PageAttrSummary {
    /// Pages touched at all.
    pub total_pages: u64,
    /// Pages accessed by exactly one GPU over the whole run.
    pub private_pages: u64,
    /// Pages accessed by more than one GPU.
    pub shared_pages: u64,
    /// Accesses that went to private pages.
    pub accesses_to_private: u64,
    /// Accesses that went to shared pages.
    pub accesses_to_shared: u64,
    /// Pages never written.
    pub read_pages: u64,
    /// Pages written at least once.
    pub read_write_pages: u64,
    /// Accesses that went to read-only pages.
    pub accesses_to_read: u64,
    /// Accesses that went to read-write pages.
    pub accesses_to_read_write: u64,
    /// Pages that are both shared and read-write (the hard class of §VI-A).
    pub shared_read_write_pages: u64,
    /// Accesses that were writes.
    pub write_accesses: u64,
}

impl PageAttrSummary {
    /// Accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.accesses_to_private + self.accesses_to_shared
    }

    /// Fraction of pages that are shared.
    pub fn shared_page_frac(&self) -> f64 {
        frac(self.shared_pages, self.total_pages)
    }

    /// Fraction of accesses going to shared pages.
    pub fn shared_access_frac(&self) -> f64 {
        frac(self.accesses_to_shared, self.accesses())
    }

    /// Fraction of pages that are read-write.
    pub fn read_write_page_frac(&self) -> f64 {
        frac(self.read_write_pages, self.total_pages)
    }

    /// Fraction of accesses going to read-write pages.
    pub fn read_write_access_frac(&self) -> f64 {
        frac(
            self.accesses_to_read_write,
            self.accesses_to_read + self.accesses_to_read_write,
        )
    }

    /// Fraction of accesses that are writes.
    pub fn write_access_frac(&self) -> f64 {
        frac(self.write_accesses, self.accesses())
    }

    /// Fraction of pages that are shared *and* read-write.
    pub fn shared_read_write_frac(&self) -> f64 {
        frac(self.shared_read_write_pages, self.total_pages)
    }
}

fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Tracks page attributes in a dense [`PageVec`] over the footprint.
///
/// Definitions follow the paper exactly: a *private page* is accessed by
/// one GPU during the entire execution; a *read page* never sees a write.
/// They are properties of the trace, so whole-run attributes come from
/// [`PageAttrTracker::from_streams`] over a workload's per-GPU streams;
/// recording access by access gives the "so far" view of Figs. 6–8.
///
/// ```
/// use grit_metrics::PageAttrTracker;
/// use grit_sim::{AccessKind, GpuId, PageId};
///
/// let mut t = PageAttrTracker::new(16);
/// t.record(GpuId::new(0), PageId(1), AccessKind::Read);
/// t.record(GpuId::new(1), PageId(1), AccessKind::Write);
/// t.record(GpuId::new(0), PageId(2), AccessKind::Read);
/// let s = t.summary();
/// assert_eq!(s.shared_pages, 1);
/// assert_eq!(s.private_pages, 1);
/// assert_eq!(s.read_write_pages, 1);
/// ```
#[derive(Clone, Debug)]
pub struct PageAttrTracker {
    pages: PageVec<Option<PageRecord>>,
    writes: u64,
}

impl PageAttrTracker {
    /// An empty tracker for pages `0..footprint_pages`.
    pub fn new(footprint_pages: u64) -> Self {
        PageAttrTracker {
            pages: PageVec::new(footprint_pages),
            writes: 0,
        }
    }

    /// Records every access of per-GPU streams: GPU `g` issues what the
    /// `g`-th stream yields.
    ///
    /// # Panics
    ///
    /// Panics if an access lies at or past the footprint.
    pub fn from_streams(
        footprint_pages: u64,
        streams: impl IntoIterator<Item = SliceStream>,
    ) -> Self {
        let mut t = PageAttrTracker::new(footprint_pages);
        for (g, mut stream) in streams.into_iter().enumerate() {
            let gpu = GpuId::new(g as u8);
            while let Some(a) = stream.next_access() {
                t.record(gpu, a.vpn, a.kind);
            }
        }
        t
    }

    /// Records one access.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` lies at or past the footprint.
    #[inline]
    pub fn record(&mut self, gpu: GpuId, vpn: PageId, kind: AccessKind) {
        let rec = self.pages.get_mut(vpn).get_or_insert_with(PageRecord::default);
        rec.accessors.insert(gpu);
        rec.written |= kind.is_write();
        rec.accesses += 1;
        self.writes += u64::from(kind.is_write());
    }

    /// Whether the page has been touched by more than one GPU so far.
    pub fn is_shared(&self, vpn: PageId) -> bool {
        self.pages.get(vpn).is_some_and(|r| r.accessors.len() > 1)
    }

    /// Whether the page has been written so far.
    pub fn is_written(&self, vpn: PageId) -> bool {
        self.pages.get(vpn).is_some_and(|r| r.written)
    }

    /// Every touched page with its record, in ascending VPN order.
    fn records(&self) -> impl Iterator<Item = (PageId, &PageRecord)> {
        self.pages.iter().filter_map(|(vpn, r)| r.as_ref().map(|r| (vpn, r)))
    }

    /// The most-accessed page with at least `min_sharers` distinct GPU
    /// accessors — how the Fig. 5/10 drivers pick "a certain page" to
    /// track. Deterministic: ties break toward the lowest VPN.
    pub fn hottest(&self, min_sharers: usize) -> Option<PageId> {
        self.records()
            .filter(|(_, r)| r.accessors.len() >= min_sharers)
            .max_by_key(|(vpn, r)| (r.accesses, std::cmp::Reverse(vpn.vpn())))
            .map(|(vpn, _)| vpn)
    }

    /// Like [`PageAttrTracker::hottest`] but restricted to pages with at
    /// least one write (Fig. 10 tracks a read-write page).
    pub fn hottest_written(&self, min_sharers: usize) -> Option<PageId> {
        self.records()
            .filter(|(_, r)| r.accessors.len() >= min_sharers && r.written)
            .max_by_key(|(vpn, r)| (r.accesses, std::cmp::Reverse(vpn.vpn())))
            .map(|(vpn, _)| vpn)
    }

    /// Iterates `(page, sharer count, written, accesses)` for every page
    /// touched, in ascending VPN order — profile data for oracle-style
    /// placement.
    pub fn iter_pages(&self) -> impl Iterator<Item = (PageId, usize, bool, u64)> + '_ {
        self.records().map(|(vpn, r)| (vpn, r.accessors.len(), r.written, r.accesses))
    }

    /// Aggregates the summary over the touched pages in ascending VPN
    /// order.
    pub fn summary(&self) -> PageAttrSummary {
        let mut s = PageAttrSummary {
            write_accesses: self.writes,
            ..PageAttrSummary::default()
        };
        for (_, rec) in self.records() {
            s.total_pages += 1;
            let shared = rec.accessors.len() > 1;
            if shared {
                s.shared_pages += 1;
                s.accesses_to_shared += rec.accesses;
            } else {
                s.private_pages += 1;
                s.accesses_to_private += rec.accesses;
            }
            if rec.written {
                s.read_write_pages += 1;
                s.accesses_to_read_write += rec.accesses;
                if shared {
                    s.shared_read_write_pages += 1;
                }
            } else {
                s.read_pages += 1;
                s.accesses_to_read += rec.accesses;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u8) -> GpuId {
        GpuId::new(i)
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = PageAttrTracker::new(16).summary();
        assert_eq!(s.total_pages, 0);
        assert_eq!(s.shared_page_frac(), 0.0);
        assert_eq!(s.read_write_access_frac(), 0.0);
    }

    #[test]
    fn private_vs_shared_classification() {
        let mut t = PageAttrTracker::new(16);
        for _ in 0..10 {
            t.record(g(0), PageId(1), AccessKind::Read);
        }
        t.record(g(0), PageId(2), AccessKind::Read);
        t.record(g(1), PageId(2), AccessKind::Read);
        let s = t.summary();
        assert_eq!(s.private_pages, 1);
        assert_eq!(s.shared_pages, 1);
        assert_eq!(s.accesses_to_private, 10);
        assert_eq!(s.accesses_to_shared, 2);
        assert!((s.shared_page_frac() - 0.5).abs() < 1e-12);
        assert!((s.shared_access_frac() - 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn read_write_classification_counts_all_accesses() {
        let mut t = PageAttrTracker::new(16);
        t.record(g(0), PageId(1), AccessKind::Read);
        t.record(g(0), PageId(1), AccessKind::Write);
        t.record(g(0), PageId(1), AccessKind::Read);
        let s = t.summary();
        assert_eq!(s.read_write_pages, 1);
        assert_eq!(s.accesses_to_read_write, 3);
        assert!(t.is_written(PageId(1)));
    }

    #[test]
    fn shared_read_write_intersection() {
        let mut t = PageAttrTracker::new(16);
        t.record(g(0), PageId(1), AccessKind::Write);
        t.record(g(1), PageId(1), AccessKind::Read);
        t.record(g(0), PageId(2), AccessKind::Write); // private RW
        t.record(g(0), PageId(3), AccessKind::Read);
        t.record(g(1), PageId(3), AccessKind::Read); // shared read
        let s = t.summary();
        assert_eq!(s.shared_read_write_pages, 1);
        assert!((s.shared_read_write_frac() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn iteration_is_ascending_by_vpn() {
        let mut t = PageAttrTracker::new(64);
        for vpn in [50, 4, 33, 0, 63] {
            t.record(g(0), PageId(vpn), AccessKind::Read);
        }
        let order: Vec<u64> = t.iter_pages().map(|(p, ..)| p.vpn()).collect();
        assert_eq!(order, vec![0, 4, 33, 50, 63]);
    }

    #[test]
    #[should_panic(expected = "page:0x10 is outside the footprint of 16 pages")]
    fn pages_past_the_footprint_panic() {
        PageAttrTracker::new(16).record(g(0), PageId(16), AccessKind::Read);
    }

    #[test]
    fn incremental_queries() {
        let mut t = PageAttrTracker::new(16);
        t.record(g(0), PageId(9), AccessKind::Read);
        assert!(!t.is_shared(PageId(9)));
        t.record(g(2), PageId(9), AccessKind::Read);
        assert!(t.is_shared(PageId(9)));
    }
}
