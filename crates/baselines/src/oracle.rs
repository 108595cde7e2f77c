//! A profile-guided *static oracle*: classify every page from the whole
//! trace's attributes (Table III applied offline with perfect knowledge),
//! and replay with the per-page best static scheme.
//!
//! This is not in the paper's evaluation — it is the natural upper bound
//! for any *static* per-page placement, sitting between the best uniform
//! scheme and the unrealizable Ideal. GRIT approaching the oracle shows
//! its online fault-driven classification recovers most of what offline
//! profiling would; GRIT *beating* it on an app shows the value of
//! re-deciding per phase (the oracle cannot express Fig. 10's read-only →
//! read-write transitions).

use grit_metrics::PageAttrTracker;
use grit_sim::{FxHashMap, PageId, Scheme};
use grit_uvm::{
    CentralPageTable, FaultInfo, PageState, PlacementPolicy, PolicyDecision, Resolution,
};

/// The static oracle policy.
///
/// ```
/// use grit_baselines::OraclePolicy;
/// use grit_metrics::PageAttrTracker;
/// use grit_sim::{AccessKind, GpuId, PageId, Scheme};
/// use grit_uvm::PlacementPolicy;
///
/// let mut profile = PageAttrTracker::new(16);
/// profile.record(GpuId::new(0), PageId(1), AccessKind::Read);
/// profile.record(GpuId::new(1), PageId(1), AccessKind::Read);
/// let oracle = OraclePolicy::from_profile(&profile);
/// assert_eq!(oracle.scheme_for(PageId(1)), Scheme::Duplication);
/// ```
#[derive(Clone, Debug)]
pub struct OraclePolicy {
    schemes: FxHashMap<PageId, Scheme>,
}

impl OraclePolicy {
    /// Builds the oracle from whole-run page attributes (a workload's
    /// `page_attrs()`), applying Table III with whole-run knowledge: private pages pin with
    /// on-touch, read-shared pages duplicate, written shared pages use
    /// counter-based migration.
    pub fn from_profile(profile: &PageAttrTracker) -> Self {
        let schemes = profile
            .iter_pages()
            .map(|(vpn, sharers, written, _)| {
                let scheme = match (sharers > 1, written) {
                    (false, _) => Scheme::OnTouch,
                    (true, false) => Scheme::Duplication,
                    (true, true) => Scheme::AccessCounter,
                };
                (vpn, scheme)
            })
            .collect();
        OraclePolicy { schemes }
    }

    /// The oracle's scheme for a page (on-touch for unprofiled pages).
    pub fn scheme_for(&self, vpn: PageId) -> Scheme {
        self.schemes.get(&vpn).copied().unwrap_or(Scheme::OnTouch)
    }
}

impl PlacementPolicy for OraclePolicy {
    fn on_fault(
        &mut self,
        fault: &FaultInfo,
        page: &PageState,
        table: &mut CentralPageTable,
    ) -> PolicyDecision {
        let scheme = self.scheme_for(fault.vpn);
        table.set_scheme(fault.vpn, scheme);
        let resolution = match scheme {
            Scheme::OnTouch => Resolution::Migrate,
            Scheme::AccessCounter => {
                // Host-resident pages still land on first touch (Volta
                // semantics); peers then map remotely.
                if page.owner.gpu().is_none() && !page.is_duplicated() {
                    Resolution::Migrate
                } else {
                    Resolution::MapRemote
                }
            }
            Scheme::Duplication => Resolution::Duplicate,
        };
        PolicyDecision::plain(resolution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::{AccessKind, GpuId};
    use grit_uvm::FaultKind;

    fn profile() -> PageAttrTracker {
        let mut t = PageAttrTracker::new(128);
        // Page 1: private.
        t.record(GpuId::new(0), PageId(1), AccessKind::Write);
        // Page 2: read-shared.
        t.record(GpuId::new(0), PageId(2), AccessKind::Read);
        t.record(GpuId::new(1), PageId(2), AccessKind::Read);
        // Page 3: written and shared.
        t.record(GpuId::new(0), PageId(3), AccessKind::Write);
        t.record(GpuId::new(2), PageId(3), AccessKind::Read);
        t
    }

    #[test]
    fn classification_applies_table3_offline() {
        let o = OraclePolicy::from_profile(&profile());
        assert_eq!(o.scheme_for(PageId(1)), Scheme::OnTouch);
        assert_eq!(o.scheme_for(PageId(2)), Scheme::Duplication);
        assert_eq!(o.scheme_for(PageId(3)), Scheme::AccessCounter);
        assert_eq!(o.scheme_for(PageId(99)), Scheme::OnTouch);
    }

    #[test]
    fn schemes_do_not_depend_on_recording_order_or_storage() {
        let accesses = [(0, 90), (1, 90), (0, 7), (2, 64), (2, 64), (3, 7), (1, 5)];
        let mut forward = PageAttrTracker::new(128);
        let mut backward = PageAttrTracker::new(128);
        for &(g, p) in &accesses {
            forward.record(GpuId::new(g), PageId(p), AccessKind::Write);
        }
        for &(g, p) in accesses.iter().rev() {
            backward.record(GpuId::new(g), PageId(p), AccessKind::Write);
        }
        let oracles = [&forward, &backward].map(OraclePolicy::from_profile);
        for p in 0..128 {
            let want = oracles[0].scheme_for(PageId(p));
            assert!(
                oracles.iter().all(|o| o.scheme_for(PageId(p)) == want),
                "{p}"
            );
        }
        assert_eq!(oracles[0].scheme_for(PageId(90)), Scheme::AccessCounter);
    }

    #[test]
    fn faults_resolve_per_classification() {
        let mut o = OraclePolicy::from_profile(&profile());
        let mut table = CentralPageTable::new();
        let f = FaultInfo {
            now: 0,
            gpu: GpuId::new(1),
            vpn: PageId(2),
            kind: AccessKind::Read,
            fault: FaultKind::Local,
        };
        let st = table.note_fault(f.gpu, f.vpn, false);
        let d = o.on_fault(&f, &st, &mut table);
        assert_eq!(d.resolution, Resolution::Duplicate);
        assert_eq!(table.scheme_of(PageId(2)), Some(Scheme::Duplication));
    }
}
