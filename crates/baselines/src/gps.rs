//! GPS — a global publish-subscribe model for multi-GPU memory (Muthukrishnan
//! et al., MICRO 2021), reimplemented at the page-placement abstraction
//! level (paper §VI-C2).
//!
//! GPS tracks the *subscribers* of every page (the GPUs that accessed it)
//! and keeps a physical replica in each subscriber's local memory; stores
//! are proactively broadcast to all subscribers at fine granularity, so
//! reads are always local and replicas never collapse. The cost — the one
//! GRIT's comparison exploits — is memory capacity: with mostly-shared
//! workloads nearly every page replicates on every GPU, and the 70 %
//! capacity configuration forces heavy eviction/re-subscription traffic.

use grit_sim::Scheme;
use grit_uvm::{
    CentralPageTable, FaultInfo, PageState, PlacementPolicy, PolicyDecision, Resolution, WriteMode,
};

/// The GPS publish-subscribe policy.
///
/// ```
/// use grit_baselines::GpsPolicy;
/// use grit_uvm::{PlacementPolicy, WriteMode};
/// let p = GpsPolicy::new();
/// assert_eq!(p.write_mode(), WriteMode::Broadcast);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct GpsPolicy;

impl GpsPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        GpsPolicy
    }
}

impl PlacementPolicy for GpsPolicy {
    fn on_fault(
        &mut self,
        fault: &FaultInfo,
        page: &PageState,
        table: &mut CentralPageTable,
    ) -> PolicyDecision {
        // Mark as duplication so metrics see the replica-based scheme; the
        // Volta access counters never fire (they only watch AC pages).
        table.set_scheme(fault.vpn, Scheme::Duplication);
        let resolution = if page.owner.gpu().is_none() && !page.is_duplicated() {
            // First toucher becomes the home node of the page.
            Resolution::Migrate
        } else {
            // Every later accessor subscribes: local replica, even for
            // writers (their stores broadcast instead of collapsing).
            Resolution::Duplicate
        };
        PolicyDecision::plain(resolution)
    }

    fn write_mode(&self) -> WriteMode {
        WriteMode::Broadcast
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::{AccessKind, GpuId, MemLoc, PageId};
    use grit_uvm::FaultKind;

    fn fault(gpu: u8, kind: AccessKind) -> FaultInfo {
        FaultInfo {
            now: 0,
            gpu: GpuId::new(gpu),
            vpn: PageId(1),
            kind,
            fault: FaultKind::Local,
        }
    }

    #[test]
    fn first_touch_homes_then_subscribes() {
        let mut p = GpsPolicy::new();
        let mut t = CentralPageTable::new();
        let cold = t.note_fault(GpuId::new(0), PageId(1), false);
        assert_eq!(
            p.on_fault(&fault(0, AccessKind::Read), &cold, &mut t).resolution,
            Resolution::Migrate
        );
        t.page_mut(PageId(1)).owner = MemLoc::Gpu(GpuId::new(0));
        let warm = t.note_fault(GpuId::new(1), PageId(1), false);
        assert_eq!(
            p.on_fault(&fault(1, AccessKind::Read), &warm, &mut t).resolution,
            Resolution::Duplicate
        );
        // Writers subscribe too (stores broadcast, no collapse).
        let wr = t.note_fault(GpuId::new(2), PageId(1), true);
        assert_eq!(
            p.on_fault(&fault(2, AccessKind::Write), &wr, &mut t).resolution,
            Resolution::Duplicate
        );
    }

    #[test]
    fn broadcast_write_mode() {
        assert_eq!(GpsPolicy::new().write_mode(), WriteMode::Broadcast);
    }
}
