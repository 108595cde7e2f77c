//! Griffin (Baruah et al., HPCA 2020) reimplemented at the page-placement
//! abstraction level (paper §VI-C1).
//!
//! Griffin has two orthogonal parts:
//!
//! * **DPC** (Dynamic Page Classification): pages are profiled over a time
//!   interval and, at each interval boundary, pages whose accesses are
//!   dominated by one remote GPU are migrated to it. Between boundaries
//!   remote pages are accessed in place — which is exactly the behaviour
//!   GRIT's §VI-C1 analysis criticizes ("substantial remote accesses before
//!   the page migration").
//! * **ACUD** (Asynchronous Compute Unit Draining): migration-time pipeline
//!   draining proceeds asynchronously, shrinking the flush cost. ACUD is a
//!   mechanism-level change, modelled by [`apply_acud`] scaling the
//!   `flush_drain` latency; it composes with any policy (the paper builds
//!   GRIT+ACUD the same way).

use grit_sim::{AccessKind, Cycle, FxHashMap, GpuId, MemLoc, PageId, Scheme, SimConfig};
use grit_uvm::{
    CentralPageTable, Directive, FaultInfo, PageState, PlacementPolicy, PolicyDecision, Resolution,
};

/// Default Griffin-DPC profiling interval (cycles). Griffin classifies
/// and migrates at coarse predefined intervals — the §VI-C1 observation
/// that "substantial remote accesses" accumulate before each migration.
pub const DPC_INTERVAL_DEFAULT: Cycle = 1_000_000;

/// Minimum per-interval accesses before a page is considered for
/// migration (filters noise, mirrors Griffin's hot-page classification).
pub const DPC_MIN_ACCESSES: u64 = 8;

/// Fraction of a page's interval accesses one GPU must dominate to trigger
/// migration.
pub const DPC_DOMINANCE: f64 = 0.6;

/// Griffin's Dynamic Page Classification policy.
///
/// ```
/// use grit_baselines::GriffinDpcPolicy;
/// use grit_uvm::PlacementPolicy;
/// let p = GriffinDpcPolicy::new(4);
/// assert!(p.epoch_len().is_some());
/// ```
#[derive(Clone, Debug)]
pub struct GriffinDpcPolicy {
    num_gpus: usize,
    interval: Cycle,
    /// Per-page access counts by GPU within the current interval.
    profile: FxHashMap<PageId, Vec<u64>>,
    migrations_requested: u64,
}

impl GriffinDpcPolicy {
    /// DPC for `num_gpus` GPUs with the default interval.
    pub fn new(num_gpus: usize) -> Self {
        Self::with_interval(num_gpus, DPC_INTERVAL_DEFAULT)
    }

    /// DPC with an explicit profiling interval.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` or `interval` is zero.
    pub fn with_interval(num_gpus: usize, interval: Cycle) -> Self {
        assert!(num_gpus > 0 && interval > 0, "invalid DPC configuration");
        GriffinDpcPolicy {
            num_gpus,
            interval,
            profile: FxHashMap::default(),
            migrations_requested: 0,
        }
    }

    /// Interval migrations requested so far.
    pub fn migrations_requested(&self) -> u64 {
        self.migrations_requested
    }
}

impl PlacementPolicy for GriffinDpcPolicy {
    fn on_fault(
        &mut self,
        fault: &FaultInfo,
        page: &PageState,
        table: &mut CentralPageTable,
    ) -> PolicyDecision {
        table.set_scheme(fault.vpn, Scheme::OnTouch);
        // First touch lands the page; afterwards DPC leaves it in place and
        // classifies at interval boundaries.
        let resolution = if page.owner.gpu().is_none() {
            Resolution::Migrate
        } else {
            Resolution::MapRemote
        };
        PolicyDecision::plain(resolution)
    }

    fn on_access(&mut self, _now: Cycle, gpu: GpuId, vpn: PageId, _kind: AccessKind) {
        let counts = self.profile.entry(vpn).or_insert_with(|| vec![0; self.num_gpus]);
        counts[gpu.index()] += 1;
    }

    fn epoch_len(&self) -> Option<Cycle> {
        Some(self.interval)
    }

    fn on_epoch(&mut self, _now: Cycle, table: &mut CentralPageTable) -> Vec<Directive> {
        let mut directives = Vec::new();
        for (&vpn, counts) in &self.profile {
            let total: u64 = counts.iter().sum();
            if total < DPC_MIN_ACCESSES {
                continue;
            }
            let (best_gpu, &best) =
                counts.iter().enumerate().max_by_key(|&(_, c)| *c).expect("at least one GPU");
            if (best as f64) < DPC_DOMINANCE * total as f64 {
                continue;
            }
            let to = GpuId::new(best_gpu as u8);
            if table.page(vpn).owner != MemLoc::Gpu(to) {
                directives.push(Directive::MigratePage { vpn, to });
            }
        }
        self.migrations_requested += directives.len() as u64;
        self.profile.clear();
        directives
    }
}

/// Applies ACUD to a configuration: asynchronous CU draining overlaps most
/// of the pipeline flush with execution, cutting the per-migration drain
/// cost (Griffin reports the drain as the dominant migration overhead).
pub fn apply_acud(cfg: &mut SimConfig) {
    cfg.lat.flush_drain = (cfg.lat.flush_drain / 4).max(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_uvm::FaultKind;

    fn feed(p: &mut GriffinDpcPolicy, gpu: u8, vpn: u64, n: u64) {
        for _ in 0..n {
            p.on_access(0, GpuId::new(gpu), PageId(vpn), AccessKind::Read);
        }
    }

    #[test]
    fn dominated_remote_page_is_migrated_at_epoch() {
        let mut p = GriffinDpcPolicy::new(4);
        let mut t = CentralPageTable::new();
        t.page_mut(PageId(1)).owner = MemLoc::Gpu(GpuId::new(0));
        feed(&mut p, 2, 1, 20);
        feed(&mut p, 0, 1, 2);
        let d = p.on_epoch(DPC_INTERVAL_DEFAULT, &mut t);
        assert_eq!(
            d,
            vec![Directive::MigratePage {
                vpn: PageId(1),
                to: GpuId::new(2)
            }]
        );
        assert_eq!(p.migrations_requested(), 1);
    }

    #[test]
    fn balanced_or_cold_pages_stay_put() {
        let mut p = GriffinDpcPolicy::new(4);
        let mut t = CentralPageTable::new();
        t.page_mut(PageId(1)).owner = MemLoc::Gpu(GpuId::new(0));
        // Balanced: no GPU dominates.
        feed(&mut p, 0, 1, 10);
        feed(&mut p, 1, 1, 10);
        // Cold: below the access floor.
        feed(&mut p, 2, 2, 3);
        assert!(p.on_epoch(0, &mut t).is_empty());
    }

    #[test]
    fn already_local_pages_not_re_migrated() {
        let mut p = GriffinDpcPolicy::new(4);
        let mut t = CentralPageTable::new();
        t.page_mut(PageId(1)).owner = MemLoc::Gpu(GpuId::new(2));
        feed(&mut p, 2, 1, 50);
        assert!(p.on_epoch(0, &mut t).is_empty());
    }

    #[test]
    fn profile_clears_between_epochs() {
        let mut p = GriffinDpcPolicy::new(4);
        let mut t = CentralPageTable::new();
        t.page_mut(PageId(1)).owner = MemLoc::Gpu(GpuId::new(0));
        feed(&mut p, 1, 1, 20);
        assert_eq!(p.on_epoch(0, &mut t).len(), 1);
        // Next epoch with no traffic: nothing to do.
        assert!(p.on_epoch(0, &mut t).is_empty());
    }

    #[test]
    fn fault_behaviour_is_first_touch_like() {
        let mut p = GriffinDpcPolicy::new(4);
        let mut t = CentralPageTable::new();
        let f = FaultInfo {
            now: 0,
            gpu: GpuId::new(1),
            vpn: PageId(3),
            kind: AccessKind::Read,
            fault: FaultKind::Local,
        };
        let cold = t.note_fault(f.gpu, f.vpn, false);
        assert_eq!(
            p.on_fault(&f, &cold, &mut t).resolution,
            Resolution::Migrate
        );
        t.page_mut(PageId(3)).owner = MemLoc::Gpu(GpuId::new(1));
        let warm = t.note_fault(GpuId::new(2), PageId(3), false);
        let f2 = FaultInfo {
            gpu: GpuId::new(2),
            ..f
        };
        assert_eq!(
            p.on_fault(&f2, &warm, &mut t).resolution,
            Resolution::MapRemote
        );
    }

    #[test]
    fn acud_shrinks_drain_cost() {
        let mut cfg = SimConfig::default();
        let before = cfg.lat.flush_drain;
        apply_acud(&mut cfg);
        assert!(cfg.lat.flush_drain < before);
        assert!(cfg.lat.flush_drain >= 1);
    }
}
