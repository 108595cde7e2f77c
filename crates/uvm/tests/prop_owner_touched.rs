//! Property test: a GPU owns only pages it has touched, so a coalesced
//! frame is fully touched although coalescing checks only that one GPU
//! holds every base page with no replicas. Random accesses drive a
//! mixed-mode driver (512 KB base pages, four per 2 MB frame) under a
//! tight capacity, so frames coalesce, splinter and get evicted; the
//! driver's invariants, "owner implies touched" among them, are swept
//! after every operation.

use proptest::prelude::*;

use grit_mem::Mapping;
use grit_sim::{AccessKind, GpuId, MemLoc, PageId, PageSizeMode, Scheme, SimConfig};
use grit_uvm::{FaultInfo, FaultKind, StaticPolicy, UvmDriver, WriteMode};

/// Eight 2 MB frames of four base pages each.
const FOOTPRINT_PAGES: u64 = 32;

/// One access: `(page, stray, gpu, kind)`. Seven in ten come from the
/// frame's home GPU (`frame % gpus`), so whole frames turn private; the
/// rest come from `gpu` and share or steal pages.
type Op = (u64, u8, u8, AccessKind);

/// Replays `ops` as the system runner would, after a fixed prefix in
/// which GPU0 writes all of frame 0: a missing translation raises a local
/// fault, a write to a replica a protection fault (or a store
/// broadcast), and a remote mapping counts a remote access. Checks the
/// invariants and every coalesced page after each op; returns the number
/// of frames coalesced.
fn replay(scheme: Scheme, gpus: usize, ops: &[Op]) -> Result<u64, String> {
    let mut cfg = SimConfig::with_gpus(gpus);
    cfg.page_size = 512 * 1024;
    cfg.page_size_mode = PageSizeMode::Mixed;
    cfg.capacity_ratio = 0.25;
    cfg.access_counter_threshold = 4;
    let mut d = UvmDriver::new(cfg, FOOTPRINT_PAGES, Box::new(StaticPolicy::new(scheme)));
    let prefix = (0..4).map(|p| (p, 0, 0, AccessKind::Write));
    for (i, (page, stray, gpu, kind)) in prefix.chain(ops.iter().copied()).enumerate() {
        let now = (i as u64 + 1) * 5_000;
        let vpn = PageId(page);
        let gpu = if stray < 7 { page / 4 } else { u64::from(gpu) };
        let gpu = GpuId::new((gpu % gpus as u64) as u8);
        let write = kind.is_write();
        let fault = |fault| FaultInfo {
            now,
            gpu,
            vpn,
            kind,
            fault,
        };
        match d.translate(gpu, vpn) {
            None => drop(d.handle_fault(fault(FaultKind::Local))),
            Some(Mapping::Replica) if write && d.write_mode() == WriteMode::Broadcast => {
                d.broadcast_store(now, gpu, vpn);
            }
            Some(Mapping::Replica) if write => drop(d.handle_fault(fault(FaultKind::Protection))),
            Some(Mapping::Remote(_) | Mapping::RemoteHost) => {
                d.record_remote_access(now, gpu, vpn);
            }
            Some(_) => {}
        }
        d.check_invariants().map_err(|v| format!("op {i}: {v}"))?;
        for p in (0..FOOTPRINT_PAGES).map(PageId) {
            let st = d.central().page(p);
            if let Some(g) = d.large_pages().frame_owner(p) {
                if st.owner != MemLoc::Gpu(g) || !st.replicas.is_empty() || !st.touched {
                    return Err(format!("op {i}: {p} in {g}'s coalesced frame: {st:?}"));
                }
            }
        }
    }
    Ok(d.large_pages().counters().coalesces)
}

fn kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gpu_owned_pages_are_touched_under_random_ops(
        gpus in 2usize..=4,
        ops in prop::collection::vec((0..FOOTPRINT_PAGES, 0u8..10, 0u8..4, kind()), 1..300),
    ) {
        for scheme in Scheme::ALL {
            match replay(scheme, gpus, &ops) {
                Ok(coalesces) => prop_assert!(coalesces > 0, "{scheme}: frame 0 never coalesced"),
                Err(e) => prop_assert!(false, "{scheme}: {e}"),
            }
        }
    }
}
