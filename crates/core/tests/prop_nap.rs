//! Property tests for Neighboring-Aware Prediction invariants.

use proptest::prelude::*;

use grit_core::Nap;
use grit_sim::{GroupSize, PageId, Scheme};
use grit_uvm::CentralPageTable;

const FOOTPRINT: u64 = 2048;

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::OnTouch),
        Just(Scheme::AccessCounter),
        Just(Scheme::Duplication),
    ]
}

/// Every group-bit marking in the table must sit on a base page aligned to
/// its size, and the covering groups of any two pages in the same aligned
/// window must agree.
fn check_group_alignment(table: &CentralPageTable) -> Result<(), String> {
    for (vpn, state) in table.iter() {
        let pages = state.group.pages();
        if pages > 1 && vpn.vpn() % pages != 0 {
            return Err(format!(
                "group bits {:?} on unaligned page {}",
                state.group, vpn
            ));
        }
    }
    Ok(())
}

/// No page may be covered by two different promoted groups.
fn check_disjoint_cover(table: &CentralPageTable) -> Result<(), String> {
    for p in 0..FOOTPRINT {
        let mut covers = 0;
        for size in [
            GroupSize::Eight,
            GroupSize::SixtyFour,
            GroupSize::FiveTwelve,
        ] {
            let base = PageId(p).group_base(size.pages());
            if table.group_of(base) == size {
                covers += 1;
            }
        }
        if covers > 1 {
            return Err(format!("page {p} covered by {covers} groups"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_change_sequences_preserve_invariants(
        changes in prop::collection::vec((0u64..FOOTPRINT, scheme_strategy()), 1..60)
    ) {
        let mut table = CentralPageTable::new();
        let mut nap = Nap::new(FOOTPRINT);
        for (vpn, scheme) in changes {
            let prev = table.scheme_of(PageId(vpn));
            if prev == Some(scheme) {
                continue; // the policy skips NAP for unchanged decisions
            }
            table.set_scheme(PageId(vpn), scheme);
            nap.on_scheme_change(&mut table, PageId(vpn), scheme, prev);
            check_group_alignment(&table).map_err(TestCaseError::fail)?;
            check_disjoint_cover(&table).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn promotion_requires_majority(
        base in (0u64..FOOTPRINT / 8).prop_map(|b| b * 8),
        members in prop::collection::vec(any::<bool>(), 8),
    ) {
        // Prepare an 8-page window where `members` marks duplication pages;
        // then change the last matching page and check the promotion
        // decision agrees with the majority rule (> 4 of 8).
        let mut table = CentralPageTable::new();
        let mut nap = Nap::new(FOOTPRINT);
        let matching: Vec<u64> =
            (0..8).filter(|&i| members[i as usize]).collect();
        prop_assume!(!matching.is_empty());
        for &i in &matching {
            table.set_scheme(PageId(base + i), Scheme::Duplication);
        }
        let trigger = PageId(base + *matching.last().unwrap());
        nap.on_scheme_change(&mut table, trigger, Scheme::Duplication, None);
        let promoted = table.group_of(PageId(base)) == GroupSize::Eight;
        prop_assert_eq!(
            promoted,
            matching.len() > 4,
            "promotion with {} matching members",
            matching.len()
        );
        if promoted {
            for i in 0..8 {
                prop_assert_eq!(
                    table.scheme_of(PageId(base + i)),
                    Some(Scheme::Duplication)
                );
            }
        }
    }

    #[test]
    fn degradation_always_removes_the_big_group(
        vpn in 0u64..512,
        old in scheme_strategy(),
    ) {
        let new = match old {
            Scheme::OnTouch => Scheme::AccessCounter,
            _ => Scheme::OnTouch,
        };
        let mut table = CentralPageTable::new();
        for p in 0..512 {
            table.set_scheme(PageId(p), old);
        }
        table.set_group(PageId(0), GroupSize::FiveTwelve);
        let mut nap = Nap::new(FOOTPRINT);
        table.set_scheme(PageId(vpn), new);
        nap.on_scheme_change(&mut table, PageId(vpn), new, Some(old));
        prop_assert!(
            table.group_of(PageId(0)) != GroupSize::FiveTwelve,
            "512-group must degrade after a divergent change"
        );
        check_group_alignment(&table).map_err(TestCaseError::fail)?;
        check_disjoint_cover(&table).map_err(TestCaseError::fail)?;
        // The changed page's own 8-window is dissolved to singles.
        prop_assert_eq!(
            table.group_of(PageId(vpn).group_base(8)),
            GroupSize::One
        );
    }
}
