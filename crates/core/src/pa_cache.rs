//! The hardware Page Attribute Cache (paper §V-C, Fig. 12): 64 entries,
//! 4-way set-associative, indexed by the low 4 bits of the VPN,
//! write-allocate + write-back, LRU replacement.

use grit_mem::SetAssocCache;
use grit_sim::{Cycle, PageId};

use crate::pa_table::{PaEntry, PaTable};

/// Fixed PA-Cache geometry from the paper.
pub const PA_CACHE_ENTRIES: usize = 64;
/// Fixed PA-Cache associativity from the paper.
pub const PA_CACHE_WAYS: usize = 4;

/// The PA-Cache plus its backing PA-Table, with the paper's access
/// protocol: check the cache first; on a miss fetch (or register) the entry
/// into the cache (write-allocate); update counters in the cache; write
/// evicted entries back to the table; delete from both once the threshold
/// fires.
///
/// ```
/// use grit_core::PaStore;
/// use grit_sim::PageId;
///
/// let mut s = PaStore::new(true, 2, 250, 128);
/// let (e, lat_miss) = s.record_fault(PageId(7), false);
/// assert_eq!(e.faults, 1);
/// let (_, lat_hit) = s.record_fault(PageId(7), true);
/// assert!(lat_hit < lat_miss, "second fault hits the PA-Cache");
/// ```
#[derive(Clone, Debug)]
pub struct PaStore {
    table: PaTable,
    cache: Option<SetAssocCache<PageId, PaEntry>>,
    cache_hit_latency: Cycle,
    mem_latency: Cycle,
}

impl PaStore {
    /// Builds the store with the paper's 64-entry 4-way PA-Cache over
    /// pages `0..footprint_pages`. `with_cache` disables the PA-Cache for
    /// the PA-Table-only ablation (Fig. 20); `cache_hit_latency` and
    /// `mem_latency` come from [`grit_sim::LatencyConfig`]
    /// (`pa_cache_hit` / `cpu_mem_access`).
    pub fn new(
        with_cache: bool,
        cache_hit_latency: Cycle,
        mem_latency: Cycle,
        footprint_pages: u64,
    ) -> Self {
        Self::with_geometry(
            with_cache.then_some(PA_CACHE_ENTRIES),
            cache_hit_latency,
            mem_latency,
            footprint_pages,
        )
    }

    /// Builds the store with an explicit PA-Cache entry count (`None`
    /// disables the cache) — the geometry-sensitivity ablation beyond the
    /// paper's fixed 64 entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of the associativity.
    pub fn with_geometry(
        entries: Option<usize>,
        cache_hit_latency: Cycle,
        mem_latency: Cycle,
        footprint_pages: u64,
    ) -> Self {
        PaStore {
            table: PaTable::new(footprint_pages),
            cache: entries.map(|n| SetAssocCache::with_entries(n, PA_CACHE_WAYS)),
            cache_hit_latency,
            mem_latency,
        }
    }

    /// Applies one fault for `vpn` and returns the updated entry plus the
    /// latency of the lookup/update path.
    pub fn record_fault(&mut self, vpn: PageId, is_write: bool) -> (PaEntry, Cycle) {
        match &mut self.cache {
            None => {
                // No PA-Cache: every fault reads and updates the table in
                // CPU memory (one read + one write).
                let e = self.table.record_fault(vpn, is_write);
                (e, 2 * self.mem_latency)
            }
            Some(cache) => {
                if let Some(e) = cache.get(&vpn) {
                    e.apply_fault(is_write);
                    return (*e, self.cache_hit_latency);
                }
                // Miss: fetch from the PA-Table (write-allocate); a brand
                // new page registers directly in the cache.
                let mut latency = self.cache_hit_latency + self.mem_latency;
                let mut entry = self.table.get(vpn).unwrap_or_default();
                entry.apply_fault(is_write);
                if let Some((victim_vpn, victim)) = cache.insert(vpn, entry) {
                    // Write-back of the LRU victim.
                    self.table.store(victim_vpn, victim);
                    latency += self.mem_latency;
                }
                (entry, latency)
            }
        }
    }

    /// Deletes the page from both the PA-Cache and the PA-Table (scheme
    /// change applied).
    pub fn delete(&mut self, vpn: PageId) {
        if let Some(cache) = &mut self.cache {
            cache.invalidate(&vpn);
        }
        self.table.delete(vpn);
    }

    /// Entry for a page, preferring the cache's (fresher) copy.
    pub fn get(&self, vpn: PageId) -> Option<PaEntry> {
        if let Some(cache) = &self.cache {
            if let Some(e) = cache.peek(&vpn) {
                return Some(*e);
            }
        }
        self.table.get(vpn)
    }

    /// The backing PA-Table.
    pub fn table(&self) -> &PaTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> PaStore {
        PaStore::new(true, 2, 250, 128)
    }

    #[test]
    fn counts_accumulate_across_cache_and_table() {
        let mut s = store();
        for i in 0..3 {
            let (e, _) = s.record_fault(PageId(1), i == 2);
            assert_eq!(e.faults, i as u8 + 1);
        }
        assert!(s.get(PageId(1)).unwrap().write);
    }

    #[test]
    fn table_only_mode_charges_two_memory_accesses() {
        let mut s = PaStore::new(false, 2, 250, 128);
        let (_, lat) = s.record_fault(PageId(1), false);
        assert_eq!(lat, 500);
        let (_, lat2) = s.record_fault(PageId(1), false);
        assert_eq!(lat2, 500, "no cache: every fault pays memory latency");
    }

    #[test]
    fn eviction_writes_back_and_refill_restores_count() {
        let mut s = store();
        // Fill one set: VPNs congruent mod 16 share a set (64/4 = 16 sets).
        for k in 0..4 {
            s.record_fault(PageId(16 * k), false);
        }
        // Fifth insertion into the same set evicts VPN 0 (LRU).
        s.record_fault(PageId(64), false);
        // Entry 0 must have been written back; a refetch sees faults = 1
        // and then increments.
        let (e, lat) = s.record_fault(PageId(0), false);
        assert_eq!(e.faults, 2);
        assert!(lat >= 252, "refill pays the table read");
    }

    #[test]
    fn delete_clears_both_levels() {
        let mut s = store();
        s.record_fault(PageId(5), true);
        s.delete(PageId(5));
        assert!(s.get(PageId(5)).is_none());
        // Re-registering starts fresh.
        let (e, _) = s.record_fault(PageId(5), false);
        assert_eq!(e.faults, 1);
        assert!(!e.write);
    }

    #[test]
    fn repeat_faults_hit_the_cache() {
        let mut s = store();
        assert_eq!(
            s.record_fault(PageId(3), false).1,
            252,
            "miss: cache + table"
        );
        assert_eq!(s.record_fault(PageId(3), false).1, 2, "hit: cache only");
    }

    #[test]
    fn custom_geometry_changes_capacity() {
        // Only 2 sets of 4 ways: five conflicting VPNs overflow a set and
        // the write-back path engages far earlier than with 64 entries.
        let fifth_latency = |mut s: PaStore| {
            (0..5u64).map(|k| s.record_fault(PageId(2 * k), false).1).last().unwrap()
        };
        assert_eq!(
            fifth_latency(PaStore::with_geometry(Some(8), 2, 250, 128)),
            502
        );
        assert_eq!(fifth_latency(store()), 252);
    }

    #[test]
    fn geometry_matches_paper() {
        assert_eq!(PA_CACHE_ENTRIES, 64);
        assert_eq!(PA_CACHE_WAYS, 4);
        // 64 entries / 4 ways = 16 sets = low 4 bits of VPN.
        assert_eq!(PA_CACHE_ENTRIES / PA_CACHE_WAYS, 16);
    }
}
