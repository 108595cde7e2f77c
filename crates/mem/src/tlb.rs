//! Per-GPU TLB hierarchy (Table I: CU-private L1 TLBs aggregated into one
//! structure, plus a shared L2 TLB).

use grit_sim::{Cycle, PageId, TlbGeometry};

use crate::cache::{CacheStats, SetAssocCache};

/// Which level satisfied a translation request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TranslationLevel {
    /// Hit in the L1 TLB.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed both; a page-table walk is required.
    Walk,
}

/// One set-associative TLB level.
#[derive(Clone, Debug)]
pub struct Tlb {
    cache: SetAssocCache<PageId, ()>,
    lookup_latency: Cycle,
}

impl Tlb {
    /// Builds a TLB with the given geometry.
    pub fn new(geo: TlbGeometry) -> Self {
        Tlb {
            cache: SetAssocCache::with_entries(geo.entries, geo.ways),
            lookup_latency: geo.lookup_latency,
        }
    }

    /// Looks up a translation; `true` on hit (also refreshes LRU).
    pub fn access(&mut self, vpn: PageId) -> bool {
        self.cache.get(&vpn).is_some()
    }

    /// Counts a hit on a translation the caller knows is MRU in its set
    /// (see [`SetAssocCache::hit_mru`]).
    pub(crate) fn hit_mru(&mut self, vpn: PageId) {
        self.cache.hit_mru(&vpn);
    }

    /// Installs a translation.
    pub fn fill(&mut self, vpn: PageId) {
        self.cache.insert(vpn, ());
    }

    /// Drops one translation (PTE invalidation); `true` if it was present.
    pub fn invalidate(&mut self, vpn: PageId) -> bool {
        self.cache.invalidate(&vpn).is_some()
    }

    /// Drops everything (full TLB shootdown).
    pub fn flush(&mut self) {
        self.cache.clear();
    }

    /// Lookup latency in cycles.
    pub fn lookup_latency(&self) -> Cycle {
        self.lookup_latency
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resident translations.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether no translations are resident.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// The two-level per-GPU TLB of the baseline configuration.
///
/// ```
/// use grit_mem::{TlbHierarchy, TranslationLevel};
/// use grit_sim::{PageId, SimConfig};
///
/// let cfg = SimConfig::default();
/// let mut t = TlbHierarchy::new(cfg.l1_tlb, cfg.l2_tlb);
/// let (level, lat) = t.translate(PageId(3));
/// assert_eq!(level, TranslationLevel::Walk);
/// assert_eq!(lat, 1 + 10); // L1 probe + L2 probe
/// t.fill(PageId(3));
/// assert_eq!(t.translate(PageId(3)).0, TranslationLevel::L1);
/// ```
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    l1: Tlb,
    l2: Tlb,
}

impl TlbHierarchy {
    /// Builds the hierarchy from the two geometries.
    pub fn new(l1: TlbGeometry, l2: TlbGeometry) -> Self {
        TlbHierarchy {
            l1: Tlb::new(l1),
            l2: Tlb::new(l2),
        }
    }

    /// Probes L1 then L2; returns the satisfying level and the cycles spent
    /// probing. An L2 hit refills L1. A double miss costs both probe
    /// latencies before the walk begins (the paper's "Local" category then
    /// accounts the walk itself).
    pub fn translate(&mut self, vpn: PageId) -> (TranslationLevel, Cycle) {
        let l1_lat = self.l1.lookup_latency();
        if self.l1.access(vpn) {
            return (TranslationLevel::L1, l1_lat);
        }
        let l2_lat = self.l2.lookup_latency();
        if self.l2.access(vpn) {
            self.l1.fill(vpn);
            return (TranslationLevel::L2, l1_lat + l2_lat);
        }
        (TranslationLevel::Walk, l1_lat + l2_lat)
    }

    /// Replays an L1 hit on `vpn`, which the caller knows is MRU in its
    /// L1 set: [`TlbHierarchy::translate`] would return
    /// [`TranslationLevel::L1`] with the same statistics and LRU order.
    /// Returns the L1 lookup latency.
    pub fn hit_l1_mru(&mut self, vpn: PageId) -> Cycle {
        self.l1.hit_mru(vpn);
        self.l1.lookup_latency()
    }

    /// Installs a translation into both levels (walk completion).
    pub fn fill(&mut self, vpn: PageId) {
        self.l2.fill(vpn);
        self.l1.fill(vpn);
    }

    /// Invalidates one translation from both levels; `true` if either level
    /// held it.
    pub fn invalidate(&mut self, vpn: PageId) -> bool {
        let a = self.l1.invalidate(vpn);
        let b = self.l2.invalidate(vpn);
        a || b
    }

    /// Full shootdown of both levels.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }

    /// The L1 level.
    pub fn l1(&self) -> &Tlb {
        &self.l1
    }

    /// The L2 level.
    pub fn l2(&self) -> &Tlb {
        &self.l2
    }

    /// `(L1, L2)` hit/miss statistics, for per-GPU report series.
    pub fn level_stats(&self) -> (CacheStats, CacheStats) {
        (self.l1.stats(), self.l2.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::SimConfig;

    fn hierarchy() -> TlbHierarchy {
        let cfg = SimConfig::default();
        TlbHierarchy::new(cfg.l1_tlb, cfg.l2_tlb)
    }

    #[test]
    fn level_stats_expose_both_levels() {
        let mut t = hierarchy();
        let _ = t.translate(PageId(7)); // miss in both levels
        t.fill(PageId(7));
        let _ = t.translate(PageId(7)); // L1 hit
        let (l1, l2) = t.level_stats();
        assert_eq!(l1.hits, 1);
        assert_eq!(l1.misses, 1);
        assert_eq!(l2.misses, 1);
    }

    #[test]
    fn l2_hit_refills_l1() {
        let mut t = hierarchy();
        t.fill(PageId(7));
        // Evict from L1 only by invalidating L1 directly.
        assert!(t.l1.invalidate(PageId(7)));
        let (level, _) = t.translate(PageId(7));
        assert_eq!(level, TranslationLevel::L2);
        // Now L1 holds it again.
        assert_eq!(t.translate(PageId(7)).0, TranslationLevel::L1);
    }

    #[test]
    fn l1_mru_hit_matches_translate() {
        let mut a = hierarchy();
        a.fill(PageId(4));
        let mut b = a.clone();
        assert_eq!(a.hit_l1_mru(PageId(4)), 1);
        assert_eq!(b.translate(PageId(4)), (TranslationLevel::L1, 1));
        assert_eq!(a.level_stats(), b.level_stats());
    }

    #[test]
    fn invalidate_removes_from_both() {
        let mut t = hierarchy();
        t.fill(PageId(9));
        assert!(t.invalidate(PageId(9)));
        assert_eq!(t.translate(PageId(9)).0, TranslationLevel::Walk);
        assert!(!t.invalidate(PageId(9)));
    }

    #[test]
    fn flush_empties_everything() {
        let mut t = hierarchy();
        for p in 0..100 {
            t.fill(PageId(p));
        }
        t.flush();
        assert!(t.l1().is_empty());
        assert!(t.l2().is_empty());
    }

    #[test]
    fn latency_accumulates_on_misses() {
        let mut t = hierarchy();
        let (_, lat_walk) = t.translate(PageId(1));
        assert_eq!(lat_walk, 11);
        t.fill(PageId(1));
        let (_, lat_l1) = t.translate(PageId(1));
        assert_eq!(lat_l1, 1);
    }

    #[test]
    fn capacity_bounded_by_geometry() {
        let mut t = Tlb::new(TlbGeometry {
            entries: 8,
            ways: 2,
            lookup_latency: 1,
        });
        for p in 0..100 {
            t.fill(PageId(p));
        }
        assert!(t.len() <= 8);
    }
}
