//! Property tests for the large-page table: splintering must be the
//! exact inverse of coalescing — for any frame geometry, owner and
//! cause, `splinter(coalesce(range))` returns the table to its prior
//! state (same eligibility, empty coalesced set, counters moved exactly
//! once) — and arbitrary operation interleavings must agree with a
//! trivial shadow model.

use proptest::prelude::*;

use grit_sim::{GpuId, PageId};
use grit_trace::SplinterCause;
use grit_uvm::LargePageTable;

fn cause_strategy() -> impl Strategy<Value = SplinterCause> {
    prop_oneof![
        Just(SplinterCause::FalseSharing),
        Just(SplinterCause::Eviction),
        Just(SplinterCause::Retirement),
    ]
}

fn private(owner: GpuId) -> impl FnMut(PageId) -> Option<GpuId> {
    move |_| Some(owner)
}

proptest! {
    #[test]
    fn splinter_is_the_exact_inverse_of_coalesce(
        ppf in 2u64..=512,
        frame in 0u64..64,
        owner in 0u8..8,
        cause in cause_strategy(),
        probe in 0u64..512,
    ) {
        let footprint = (frame + 1) * ppf;
        let mut t = LargePageTable::new(ppf, footprint);
        let owner = GpuId::new(owner);
        let base = PageId(frame * ppf);
        let inside = PageId(base.vpn() + probe % ppf);

        // A fully-private frame is eligible from any of its pages.
        prop_assert_eq!(
            t.coalesce_candidate(inside, private(owner)),
            Some((base, owner))
        );
        t.coalesce(base, owner);
        prop_assert_eq!(t.coalesced_frame(inside), Some(base));
        prop_assert_eq!(t.frame_owner(inside), Some(owner));
        prop_assert_eq!(t.coalesced_now(), 1);
        // Coalesced frames are not candidates again.
        prop_assert_eq!(t.coalesce_candidate(inside, private(owner)), None);

        // Splintering from any page of the frame reports the frame base
        // and prior owner, and restores the pre-coalesce state exactly.
        prop_assert_eq!(t.splinter(inside, cause), Some((base, owner)));
        prop_assert_eq!(t.coalesced_now(), 0);
        prop_assert_eq!(t.coalesced_frame(inside), None);
        prop_assert_eq!(t.frame_owner(inside), None);
        prop_assert_eq!(
            t.coalesce_candidate(inside, private(owner)),
            Some((base, owner))
        );
        // A second splinter is a no-op.
        prop_assert_eq!(t.splinter(inside, cause), None);

        // The round trip moved each counter exactly once.
        prop_assert_eq!(t.counters().coalesces, 1);
        prop_assert_eq!(t.counters().splinters(), 1);
        prop_assert_eq!(t.counters().coalesced_peak, 1);
    }

    #[test]
    fn arbitrary_interleavings_match_a_shadow_set(
        ppf in 2u64..=64,
        ops in prop::collection::vec((any::<bool>(), 0u64..16, 0u8..4), 0..64),
    ) {
        let mut t = LargePageTable::new(ppf, 16 * ppf);
        let mut shadow: std::collections::HashMap<u64, GpuId> = Default::default();
        let (mut coalesces, mut splinters) = (0u64, 0u64);
        let mut peak = 0u64;
        for (do_coalesce, frame, owner) in ops {
            let base = PageId(frame * ppf);
            if do_coalesce {
                let owner = GpuId::new(owner);
                t.coalesce(base, owner);
                if shadow.insert(frame, owner).is_none() {
                    coalesces += 1;
                }
                peak = peak.max(shadow.len() as u64);
            } else {
                let got = t.splinter(base, SplinterCause::FalseSharing);
                let want = shadow.remove(&frame).map(|o| (base, o));
                prop_assert_eq!(got, want);
                if want.is_some() {
                    splinters += 1;
                }
            }
        }
        prop_assert_eq!(t.coalesced_now(), shadow.len() as u64);
        for (frame, owner) in &shadow {
            let base = PageId(frame * ppf);
            prop_assert_eq!(t.coalesced_frame(base), Some(base));
            prop_assert_eq!(t.frame_owner(base), Some(*owner));
        }
        prop_assert_eq!(t.counters().coalesces, coalesces);
        prop_assert_eq!(t.counters().splinters(), splinters);
        prop_assert_eq!(t.counters().coalesced_peak, peak);
    }
}
