//! Property tests for the PA-Table + PA-Cache store: regardless of cache
//! geometry, evictions and write-backs, the combined structure must count
//! faults exactly like a plain per-page counter.

use std::collections::HashMap;

use proptest::prelude::*;

use grit_core::{PaEntry, PaStore};
use grit_sim::PageId;

#[derive(Clone, Debug)]
enum Op {
    /// `(vpn, is_write)`
    Fault(u64, bool),
    Delete(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => ((0u64..96), any::<bool>()).prop_map(|(v, w)| Op::Fault(v, w)),
        1 => (0u64..96).prop_map(Op::Delete),
    ]
}

fn check_against_model(mut store: PaStore, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut model: HashMap<u64, PaEntry> = HashMap::new();
    for op in ops {
        match op {
            Op::Fault(vpn, is_write) => {
                let (entry, latency) = store.record_fault(PageId(vpn), is_write);
                let m = model.entry(vpn).or_default();
                m.apply_fault(is_write);
                prop_assert_eq!(entry, *m, "page {} diverged", vpn);
                prop_assert!(latency > 0, "every lookup path has a cost");
            }
            Op::Delete(vpn) => {
                store.delete(PageId(vpn));
                model.remove(&vpn);
            }
        }
        // Spot-check a handful of pages through the read path.
        for probe in [0u64, 17, 42, 95] {
            prop_assert_eq!(
                store.get(PageId(probe)),
                model.get(&probe).copied(),
                "probe {} diverged",
                probe
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paper_geometry_counts_exactly(ops in prop::collection::vec(op_strategy(), 1..300)) {
        check_against_model(PaStore::new(true, 2, 200, 96), ops)?;
    }

    #[test]
    fn tiny_cache_counts_exactly_despite_thrashing(
        ops in prop::collection::vec(op_strategy(), 1..300)
    ) {
        // An 8-entry cache thrashes constantly over 96 pages: every count
        // survives the write-back/refill churn.
        check_against_model(PaStore::with_geometry(Some(8), 2, 200, 96), ops)?;
    }

    #[test]
    fn table_only_counts_exactly(ops in prop::collection::vec(op_strategy(), 1..300)) {
        check_against_model(PaStore::new(false, 2, 200, 96), ops)?;
    }

    #[test]
    fn cached_store_is_never_slower_in_total(
        vpns in prop::collection::vec(0u64..32, 1..200)
    ) {
        let mut cached = PaStore::new(true, 2, 200, 96);
        let mut bare = PaStore::new(false, 2, 200, 96);
        let (mut cached_total, mut bare_total) = (0u64, 0u64);
        for v in vpns {
            cached_total += cached.record_fault(PageId(v), false).1;
            bare_total += bare.record_fault(PageId(v), false).1;
        }
        prop_assert!(
            cached_total <= bare_total,
            "PA-Cache must not add total latency: {} vs {}",
            cached_total,
            bare_total
        );
    }
}
