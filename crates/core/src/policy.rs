//! The GRIT placement policy: Fault-Aware Initiator + PA-Table/PA-Cache +
//! scheme decision + Neighboring-Aware Prediction, assembled behind the
//! driver's [`PlacementPolicy`] trait (paper Fig. 16).

use grit_sim::{Cycle, Scheme, SimConfig};
use grit_uvm::{
    CentralPageTable, FaultInfo, PageState, PlacementPolicy, PolicyDecision, Resolution,
};

use crate::decision::decide;
use crate::nap::{Nap, NapStats};
use crate::pa_cache::PaStore;

/// GRIT configuration, including the ablation switches of Fig. 20 and the
/// fault-threshold sensitivity of Fig. 21.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GritConfig {
    /// Local + protection faults before a scheme change fires (default 4,
    /// §V-B; Fig. 21 sweeps 2/4/8/16).
    pub fault_threshold: u8,
    /// Enable the hardware PA-Cache (disabled in the "PA-Table only" and
    /// "PA-Table + NAP" ablations).
    pub pa_cache: bool,
    /// PA-Cache capacity in entries (paper: 64; the geometry ablation
    /// sweeps this).
    pub pa_cache_entries: usize,
    /// Enable Neighboring-Aware Prediction.
    pub nap: bool,
    /// PA-Cache hit latency (from [`grit_sim::LatencyConfig::pa_cache_hit`]).
    pub pa_cache_hit_latency: Cycle,
    /// CPU memory access latency for PA-Table traffic
    /// (from [`grit_sim::LatencyConfig::cpu_mem_access`]).
    pub cpu_mem_latency: Cycle,
}

impl GritConfig {
    /// The full GRIT design with the paper's defaults, taking latencies
    /// from a simulation config.
    pub fn full(cfg: &SimConfig) -> Self {
        GritConfig {
            fault_threshold: 4,
            pa_cache: true,
            pa_cache_entries: crate::pa_cache::PA_CACHE_ENTRIES,
            nap: true,
            pa_cache_hit_latency: cfg.lat.pa_cache_hit,
            cpu_mem_latency: cfg.lat.cpu_mem_access,
        }
    }
}

/// The GRIT policy (paper §V).
///
/// Pages start under the baseline on-touch scheme; the Fault-Aware
/// Initiator counts each page's faults in the PA-Table (through the
/// PA-Cache), and at the threshold the page's scheme flips to duplication
/// (all-read) or access-counter migration (written), with NAP propagating
/// the decision to aligned neighbor groups.
///
/// ```
/// use grit_core::{GritConfig, GritPolicy};
/// use grit_sim::SimConfig;
///
/// let cfg = SimConfig::default();
/// let p = GritPolicy::new(GritConfig::full(&cfg), 8192);
/// assert_eq!(p.config().fault_threshold, 4);
/// assert_eq!(p.scheme_changes(), 0);
/// ```
#[derive(Debug)]
pub struct GritPolicy {
    cfg: GritConfig,
    store: PaStore,
    nap: Nap,
    scheme_changes: u64,
}

impl GritPolicy {
    /// Builds GRIT for an address space of `footprint_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if the fault threshold is zero or the footprint is zero.
    pub fn new(cfg: GritConfig, footprint_pages: u64) -> Self {
        assert!(cfg.fault_threshold > 0, "fault threshold must be non-zero");
        GritPolicy {
            store: PaStore::with_geometry(
                cfg.pa_cache.then_some(cfg.pa_cache_entries),
                cfg.pa_cache_hit_latency,
                cfg.cpu_mem_latency,
                footprint_pages,
            ),
            nap: Nap::new(footprint_pages),
            cfg,
            scheme_changes: 0,
        }
    }

    /// NAP promotion/degradation counters.
    pub fn nap_stats(&self) -> NapStats {
        self.nap.stats()
    }

    /// Scheme changes decided so far.
    pub fn scheme_changes(&self) -> u64 {
        self.scheme_changes
    }

    /// The active configuration.
    pub fn config(&self) -> GritConfig {
        self.cfg
    }

    fn resolution_for(scheme: Scheme) -> Resolution {
        match scheme {
            Scheme::OnTouch => Resolution::Migrate,
            Scheme::AccessCounter => Resolution::MapRemote,
            Scheme::Duplication => Resolution::Duplicate,
        }
    }
}

impl PlacementPolicy for GritPolicy {
    fn on_fault(
        &mut self,
        fault: &FaultInfo,
        _page: &PageState,
        table: &mut CentralPageTable,
    ) -> PolicyDecision {
        // Fault-Aware Initiator: count this fault in the PA structures.
        let (entry, decision_latency) = self.store.record_fault(fault.vpn, fault.kind.is_write());
        let current = table.scheme_of(fault.vpn);

        if entry.faults >= self.cfg.fault_threshold {
            // Threshold reached: the page is demonstrably shared; decide
            // per Table III / Fig. 13 and delete the PA entry.
            let new = decide(entry);
            self.store.delete(fault.vpn);
            let scheme_changed = current != Some(new);
            if scheme_changed {
                self.scheme_changes += 1;
                table.set_scheme(fault.vpn, new);
                if self.cfg.nap {
                    self.nap.on_scheme_change(table, fault.vpn, new, current);
                }
            }
            // When the decision matches the previous scheme (only possible
            // for access-counter pages) no group check runs (§V-D).
            return PolicyDecision {
                resolution: Self::resolution_for(new),
                decision_latency,
                scheme_changed,
            };
        }

        // Below threshold: follow the current scheme bits — which NAP may
        // already have rewritten, letting the page adopt the predicted
        // scheme without reaching the threshold (Fig. 16 step 3, case 1).
        // Unset bits mean the baseline on-touch scheme; record it so the
        // Fig. 19 scheme-mix metric sees the effective scheme.
        let effective = current.unwrap_or(Scheme::OnTouch);
        if current.is_none() {
            table.set_scheme(fault.vpn, effective);
        }
        PolicyDecision {
            resolution: Self::resolution_for(effective),
            decision_latency,
            scheme_changed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::{AccessKind, GpuId, GroupSize, PageId};
    use grit_uvm::FaultKind;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    fn fault(gpu: u8, vpn: u64, kind: AccessKind) -> FaultInfo {
        FaultInfo {
            now: 0,
            gpu: GpuId::new(gpu),
            vpn: PageId(vpn),
            kind,
            fault: FaultKind::Local,
        }
    }

    fn fire(
        p: &mut GritPolicy,
        t: &mut CentralPageTable,
        gpu: u8,
        vpn: u64,
        kind: AccessKind,
    ) -> PolicyDecision {
        let f = fault(gpu, vpn, kind);
        let state = t.note_fault(f.gpu, f.vpn, f.kind.is_write());
        p.on_fault(&f, &state, t)
    }

    #[test]
    fn starts_with_on_touch_baseline() {
        let sim = cfg();
        let mut p = GritPolicy::new(GritConfig::full(&sim), 1024);
        let mut t = CentralPageTable::new();
        let d = fire(&mut p, &mut t, 0, 5, AccessKind::Read);
        assert_eq!(d.resolution, Resolution::Migrate);
        assert!(!d.scheme_changed);
        assert_eq!(t.scheme_of(PageId(5)), Some(Scheme::OnTouch));
    }

    #[test]
    fn read_shared_page_flips_to_duplication_at_threshold() {
        let sim = cfg();
        let mut p = GritPolicy::new(GritConfig::full(&sim), 1024);
        let mut t = CentralPageTable::new();
        for gpu in 0..3 {
            let d = fire(&mut p, &mut t, gpu, 7, AccessKind::Read);
            assert!(!d.scheme_changed);
        }
        let d = fire(&mut p, &mut t, 3, 7, AccessKind::Read);
        assert!(d.scheme_changed);
        assert_eq!(d.resolution, Resolution::Duplicate);
        assert_eq!(t.scheme_of(PageId(7)), Some(Scheme::Duplication));
        assert_eq!(p.scheme_changes(), 1);
    }

    #[test]
    fn written_shared_page_flips_to_access_counter() {
        let sim = cfg();
        let mut p = GritPolicy::new(GritConfig::full(&sim), 1024);
        let mut t = CentralPageTable::new();
        fire(&mut p, &mut t, 0, 7, AccessKind::Write);
        fire(&mut p, &mut t, 1, 7, AccessKind::Read);
        fire(&mut p, &mut t, 0, 7, AccessKind::Read);
        let d = fire(&mut p, &mut t, 1, 7, AccessKind::Read);
        assert!(d.scheme_changed);
        assert_eq!(d.resolution, Resolution::MapRemote);
        assert_eq!(t.scheme_of(PageId(7)), Some(Scheme::AccessCounter));
    }

    #[test]
    fn pa_entry_deleted_after_change_and_recounts() {
        let sim = cfg();
        let mut p = GritPolicy::new(GritConfig::full(&sim), 1024);
        let mut t = CentralPageTable::new();
        for _ in 0..4 {
            fire(&mut p, &mut t, 0, 9, AccessKind::Read);
        }
        assert_eq!(t.scheme_of(PageId(9)), Some(Scheme::Duplication));
        // Entry was deleted: the next fault counts from 1 again, and the
        // page keeps duplicating meanwhile.
        let d = fire(&mut p, &mut t, 1, 9, AccessKind::Read);
        assert!(!d.scheme_changed);
        assert_eq!(d.resolution, Resolution::Duplicate);
    }

    #[test]
    fn duplicated_page_with_writes_adapts_to_access_counter() {
        let sim = cfg();
        let mut p = GritPolicy::new(GritConfig::full(&sim), 1024);
        let mut t = CentralPageTable::new();
        for _ in 0..4 {
            fire(&mut p, &mut t, 0, 9, AccessKind::Read);
        }
        assert_eq!(t.scheme_of(PageId(9)), Some(Scheme::Duplication));
        // Write-collapse storms (protection faults) re-register the page
        // and flip it to access-counter migration.
        for _ in 0..4 {
            fire(&mut p, &mut t, 1, 9, AccessKind::Write);
        }
        assert_eq!(t.scheme_of(PageId(9)), Some(Scheme::AccessCounter));
        assert_eq!(p.scheme_changes(), 2);
    }

    #[test]
    fn repeated_ac_decision_skips_nap() {
        let sim = cfg();
        let mut p = GritPolicy::new(GritConfig::full(&sim), 1024);
        let mut t = CentralPageTable::new();
        // Flip page 3 to AC.
        for _ in 0..4 {
            fire(&mut p, &mut t, 0, 3, AccessKind::Write);
        }
        assert_eq!(t.scheme_of(PageId(3)), Some(Scheme::AccessCounter));
        let promotions_before = p.nap_stats().promotions;
        let degradations_before = p.nap_stats().degradations;
        // Four more write faults: decision is AC again -> no group check,
        // no scheme-change flag.
        for _ in 0..3 {
            fire(&mut p, &mut t, 1, 3, AccessKind::Write);
        }
        let d = fire(&mut p, &mut t, 1, 3, AccessKind::Write);
        assert!(!d.scheme_changed);
        assert_eq!(p.nap_stats().promotions, promotions_before);
        assert_eq!(p.nap_stats().degradations, degradations_before);
    }

    #[test]
    fn nap_promotes_neighborhoods() {
        let sim = cfg();
        let mut p = GritPolicy::new(GritConfig::full(&sim), 1024);
        let mut t = CentralPageTable::new();
        // Flip pages 0..5 of the first 8-group to duplication one by one;
        // the fifth change creates a majority and promotes the group.
        for vpn in 0..5u64 {
            for _ in 0..4 {
                fire(&mut p, &mut t, 0, vpn, AccessKind::Read);
            }
        }
        assert_eq!(t.group_of(PageId(0)), GroupSize::Eight);
        // The untouched neighbors inherited duplication...
        assert_eq!(t.scheme_of(PageId(6)), Some(Scheme::Duplication));
        // ...so their very first fault duplicates without any threshold.
        let d = fire(&mut p, &mut t, 2, 6, AccessKind::Read);
        assert_eq!(d.resolution, Resolution::Duplicate);
        assert!(!d.scheme_changed);
    }

    #[test]
    fn ablations_change_decision_latency() {
        let sim = cfg();
        let mut full = GritPolicy::new(GritConfig::full(&sim), 64);
        let mut table_only = GritPolicy::new(
            GritConfig {
                pa_cache: false,
                nap: false,
                ..GritConfig::full(&sim)
            },
            64,
        );
        let mut t1 = CentralPageTable::new();
        let mut t2 = CentralPageTable::new();
        fire(&mut full, &mut t1, 0, 1, AccessKind::Read);
        let d_full = fire(&mut full, &mut t1, 0, 1, AccessKind::Read);
        fire(&mut table_only, &mut t2, 0, 1, AccessKind::Read);
        let d_table = fire(&mut table_only, &mut t2, 0, 1, AccessKind::Read);
        assert!(d_full.decision_latency < d_table.decision_latency);
        assert_eq!(d_table.decision_latency, 2 * sim.lat.cpu_mem_access);
    }

    #[test]
    fn threshold_sensitivity() {
        let sim = cfg();
        let mut p = GritPolicy::new(
            GritConfig {
                fault_threshold: 2,
                ..GritConfig::full(&sim)
            },
            64,
        );
        let mut t = CentralPageTable::new();
        fire(&mut p, &mut t, 0, 1, AccessKind::Read);
        let d = fire(&mut p, &mut t, 1, 1, AccessKind::Read);
        assert!(d.scheme_changed, "threshold 2 fires on the second fault");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_threshold_rejected() {
        let sim = cfg();
        let _ = GritPolicy::new(
            GritConfig {
                fault_threshold: 0,
                ..GritConfig::full(&sim)
            },
            1,
        );
    }
}
