//! The unrealizable Ideal of Fig. 1: every page read (except the first cold
//! touch) hits local memory, and every write completes with zero NUMA
//! latency. Used only to expose the optimization headroom.

use grit_uvm::{
    CentralPageTable, FaultInfo, PageState, PlacementPolicy, PolicyDecision, Resolution,
};

/// The Ideal upper-bound policy.
///
/// ```
/// use grit_baselines::IdealPolicy;
/// use grit_uvm::PlacementPolicy;
/// let p = IdealPolicy::new();
/// assert!(p.is_ideal());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct IdealPolicy;

impl IdealPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        IdealPolicy
    }
}

impl PlacementPolicy for IdealPolicy {
    fn on_fault(
        &mut self,
        _fault: &FaultInfo,
        _page: &PageState,
        _table: &mut CentralPageTable,
    ) -> PolicyDecision {
        PolicyDecision::plain(Resolution::Ideal)
    }

    fn is_ideal(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::{AccessKind, GpuId, PageId};
    use grit_uvm::FaultKind;

    #[test]
    fn always_ideal() {
        let mut p = IdealPolicy::new();
        let mut t = CentralPageTable::new();
        let f = FaultInfo {
            now: 0,
            gpu: GpuId::new(3),
            vpn: PageId(9),
            kind: AccessKind::Write,
            fault: FaultKind::Local,
        };
        let st = t.note_fault(f.gpu, f.vpn, true);
        let d = p.on_fault(&f, &st, &mut t);
        assert_eq!(d.resolution, Resolution::Ideal);
        assert_eq!(d.decision_latency, 0);
    }
}
