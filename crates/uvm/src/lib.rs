//! # grit-uvm
//!
//! The unified-virtual-memory driver model of the GRIT reproduction
//! (paper §II): a centralized page table on the CPU, per-GPU local page
//! tables, page-fault servicing over PCIe, and the full mechanism set the
//! placement policies choose from — on-touch migration, access-counter
//! migration with Volta-style 64 KB-group counters, page duplication with
//! write-collapse, GPS-style store broadcast, prefetch fills and
//! capacity-pressure eviction.
//!
//! Policies (the three uniform schemes here, GRIT in `grit-core`, the
//! comparators in `grit-baselines`) implement [`PlacementPolicy`]; the
//! [`UvmDriver`] executes their decisions and attributes every cycle to
//! the six latency classes of Fig. 3.
//!
//! # Example
//!
//! ```
//! use grit_sim::{AccessKind, GpuId, PageId, Scheme, SimConfig};
//! use grit_uvm::{FaultInfo, FaultKind, StaticPolicy, UvmDriver};
//!
//! let mut driver = UvmDriver::new(
//!     SimConfig::default(),
//!     1024,
//!     Box::new(StaticPolicy::new(Scheme::OnTouch)),
//! );
//! let fault = FaultInfo {
//!     now: 0,
//!     gpu: GpuId::new(0),
//!     vpn: PageId(3),
//!     kind: AccessKind::Read,
//!     fault: FaultKind::Local,
//! };
//! let outcome = driver.handle_fault(fault);
//! assert!(outcome.done_at > 0);
//! ```

#![warn(missing_docs)]

pub mod central;
pub mod counters;
pub mod driver;
pub mod pagesize;
pub mod policy;
pub mod prefetch;
pub mod pte;

pub use central::{CentralPageTable, PageState};
pub use counters::AccessCounters;
pub use driver::{DriverOutcome, InvariantViolation, UvmDriver};
pub use pagesize::{LargePageTable, PageSizeCounters};
pub use policy::{
    Directive, FaultInfo, FaultKind, PlacementPolicy, PolicyDecision, Resolution, StaticPolicy,
    WriteMode,
};
pub use prefetch::Prefetcher;
pub use pte::{PaTableEntryBits, Pte};

// Tests of the large-page table (the `pagesize` module).
#[cfg(test)]
mod tests {
    use crate::pagesize::*;
    use grit_sim::{GpuId, PageId, PageSizeMode};
    use grit_trace::SplinterCause;

    fn private(owner: GpuId) -> impl FnMut(PageId) -> Option<GpuId> {
        move |_| Some(owner)
    }

    #[test]
    fn uniform4k_is_inert() {
        let mixed = LargePageTable::from_config(PageSizeMode::Mixed, 4096, 1 << 20);
        assert!(mixed.enabled());
        assert_eq!(mixed.pages_per_frame(), 512);
        let mut t = LargePageTable::from_config(PageSizeMode::Uniform4k, 4096, 1 << 20);
        assert!(!t.enabled());
        assert!(t.coalesce_candidate(PageId(0), private(GpuId::new(0))).is_none());
        t.coalesce(PageId(0), GpuId::new(0));
        assert_eq!(t.coalesced_now(), 0);
        assert_eq!(t.coalesced_frame(PageId(0)), None);
    }

    #[test]
    fn coalesce_requires_single_unreplicated_owner() {
        let t = LargePageTable::new(4, 64);
        let g0 = GpuId::new(0);
        // Fully private: eligible.
        assert_eq!(
            t.coalesce_candidate(PageId(6), private(g0)),
            Some((PageId(4), g0))
        );
        // One page on another GPU: not eligible.
        let split = |vpn: PageId| Some(GpuId::new((vpn.vpn() == 5) as u8));
        assert_eq!(t.coalesce_candidate(PageId(6), split), None);
        // One page replicated or host-resident, so held by no GPU
        // privately: not eligible.
        let shared = |vpn: PageId| (vpn.vpn() != 7).then_some(g0);
        assert_eq!(t.coalesce_candidate(PageId(6), shared), None);
    }

    #[test]
    fn footprint_tail_frames_never_coalesce() {
        let t = LargePageTable::new(4, 6);
        // Footprint of 6 pages: frame 1 (pages 4..8) sticks out past it.
        assert_eq!(
            t.coalesce_candidate(PageId(5), private(GpuId::new(0))),
            None
        );
        assert!(t.coalesce_candidate(PageId(1), private(GpuId::new(0))).is_some());
    }

    #[test]
    fn splinter_undoes_coalesce_and_counts_causes() {
        let mut t = LargePageTable::new(4, 64);
        let g = GpuId::new(3);
        t.coalesce(PageId(8), g);
        t.coalesce(PageId(8), g); // idempotent
        assert_eq!(t.counters().coalesces, 1);
        assert_eq!(t.coalesced_frame(PageId(11)), Some(PageId(8)));
        assert_eq!(t.frame_owner(PageId(9)), Some(g));
        assert_eq!(
            t.splinter(PageId(10), SplinterCause::FalseSharing),
            Some((PageId(8), g))
        );
        // Already splintered: no-op.
        assert_eq!(t.splinter(PageId(10), SplinterCause::Eviction), None);
        assert_eq!(t.counters().splinters_false_sharing, 1);
        assert_eq!(t.counters().splinters_eviction, 0);
        assert_eq!(t.counters().splinters(), 1);
        assert_eq!(t.coalesced_now(), 0);
        assert_eq!(t.counters().coalesced_peak, 1);
    }

    #[test]
    #[should_panic(expected = "page:0x40 is outside the footprint of 64 pages")]
    fn frames_past_the_footprint_panic() {
        LargePageTable::new(4, 64).coalesce(PageId(64), GpuId::new(0));
    }

    #[test]
    fn counter_trips_track_aliasing() {
        let mut t = LargePageTable::new(512, 1024);
        t.note_counter_trip(0);
        t.note_counter_trip(32);
        t.note_counter_trip(32);
        let c = t.counters();
        assert_eq!(c.counter_trips_base, 1);
        assert_eq!(c.counter_trips_large, 2);
        assert_eq!(c.counter_groups_aliased, 64);
        let series = t.counter_series();
        assert_eq!(series.len(), 9);
        assert_eq!(series[4], 1.0);
        assert_eq!(series[5], 2.0);
        assert_eq!(series[6], 64.0);
    }
}
