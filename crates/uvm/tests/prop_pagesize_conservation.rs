//! Property test: per-hop byte conservation for frame migration. When a
//! coalesced 2 MB frame's aliased access counter trips, the driver
//! migrates the frame to the heavy accessor as base pages — and every
//! hop must move each base page exactly once (no page left behind on
//! the source, none double-transferred) — exactly one frame's worth of
//! bytes per hop — for any frame geometry, GPU count and number of
//! hops. The frame must also re-coalesce on the destination after each
//! hop, so the next hop again moves it whole.

use proptest::prelude::*;

use grit_sim::{AccessKind, GpuId, MemLoc, PageId, PageSizeMode, Scheme, SimConfig};
use grit_uvm::{FaultInfo, FaultKind, StaticPolicy, UvmDriver};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frame_trips_conserve_bytes_on_every_hop(
        shift in 0u32..3,       // 256 KB..1 MB base pages: 8/4/2 per frame
        gpus in 2usize..=4,
        hops in 1usize..=3,
    ) {
        let mut cfg = SimConfig::with_gpus(gpus);
        cfg.page_size = (256 * 1024u64) << shift;
        cfg.page_size_mode = PageSizeMode::Mixed;
        let ppf = cfg.pages_per_large_frame();
        let page_size = cfg.page_size;
        let mut d = UvmDriver::new(
            cfg,
            ppf * 2,
            Box::new(StaticPolicy::new(Scheme::AccessCounter)),
        );

        // GPU0 faults every base page of frame 0: fully private, coalesced.
        for p in 0..ppf {
            d.handle_fault(FaultInfo {
                now: p * 100_000,
                gpu: GpuId::new(0),
                vpn: PageId(p),
                kind: AccessKind::Read,
                fault: FaultKind::Local,
            });
        }
        prop_assert_eq!(d.coalesced_frame(PageId(0)), Some(PageId(0)));

        let mut now = ppf * 100_000 + 1_000_000;
        let mut from = 0u8;
        for hop in 0..hops {
            let to = GpuId::new((from + 1) % gpus as u8);
            let before = d.fault_counters().migrations;
            let mut tripped = false;
            for i in 0..1024 {
                if d.record_remote_access(now + i, to, PageId(0)).is_some() {
                    tripped = true;
                    break;
                }
            }
            prop_assert!(tripped, "hop {hop}: frame counter must trip");

            // Conservation: exactly `ppf` base-page moves this hop —
            // `ppf * page_size` bytes left `from` and all arrived at `to`.
            let moved = d.fault_counters().migrations - before;
            prop_assert_eq!(
                moved, ppf,
                "hop {}: moved {} of {} base pages ({} of {} bytes)",
                hop, moved, ppf, moved * page_size, ppf * page_size
            );
            for p in 0..ppf {
                prop_assert_eq!(d.central().page(PageId(p)).owner, MemLoc::Gpu(to));
            }
            // The whole frame re-coalesces on the destination, so the
            // next hop again migrates it as one unit.
            prop_assert_eq!(d.large_pages().frame_owner(PageId(0)), Some(to));
            d.check_invariants().expect("driver invariants hold after the hop");

            now += 10_000_000;
            from = to.index() as u8;
        }
        let c = d.large_pages().counters();
        prop_assert_eq!(c.counter_trips_large, hops as u64);
        prop_assert_eq!(c.counter_trips_base, 0);
    }
}
