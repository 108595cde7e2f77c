//! First-touch migration (paper §VI-D): the page is pinned on the GPU that
//! touches it first; every other GPU accesses it through peer load/stores
//! for the rest of the execution.

use grit_sim::Scheme;
use grit_uvm::{
    CentralPageTable, FaultInfo, PageState, PlacementPolicy, PolicyDecision, Resolution,
};

/// The first-touch pinning policy.
///
/// ```
/// use grit_baselines::FirstTouchPolicy;
/// use grit_uvm::PlacementPolicy;
/// // No epochs: every decision is made per fault.
/// assert!(FirstTouchPolicy::new().epoch_len().is_none());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstTouchPolicy;

impl FirstTouchPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FirstTouchPolicy
    }
}

impl PlacementPolicy for FirstTouchPolicy {
    fn on_fault(
        &mut self,
        fault: &FaultInfo,
        page: &PageState,
        table: &mut CentralPageTable,
    ) -> PolicyDecision {
        // Scheme bits stay at on-touch so the Volta counters (which only
        // fire for access-counter pages) never migrate a pinned page.
        table.set_scheme(fault.vpn, Scheme::OnTouch);
        let resolution = if page.owner.gpu().is_none() {
            Resolution::Migrate // first touch: land the page here, forever
        } else {
            Resolution::MapRemote // peer access, no migration ever again
        };
        PolicyDecision::plain(resolution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::{AccessKind, GpuId, MemLoc, PageId};
    use grit_uvm::FaultKind;

    #[test]
    fn pins_on_first_toucher_and_peers_afterwards() {
        let mut p = FirstTouchPolicy::new();
        let mut t = CentralPageTable::new();
        let f = FaultInfo {
            now: 0,
            gpu: GpuId::new(0),
            vpn: PageId(1),
            kind: AccessKind::Read,
            fault: FaultKind::Local,
        };
        let cold = t.note_fault(f.gpu, f.vpn, false);
        assert_eq!(
            p.on_fault(&f, &cold, &mut t).resolution,
            Resolution::Migrate
        );

        t.page_mut(PageId(1)).owner = MemLoc::Gpu(GpuId::new(0));
        let f2 = FaultInfo {
            gpu: GpuId::new(2),
            ..f
        };
        let warm = t.note_fault(f2.gpu, f2.vpn, false);
        assert_eq!(
            p.on_fault(&f2, &warm, &mut t).resolution,
            Resolution::MapRemote
        );
        // Counters never fire: scheme bits are not access-counter.
        assert_eq!(t.scheme_of(PageId(1)), Some(Scheme::OnTouch));
    }
}
