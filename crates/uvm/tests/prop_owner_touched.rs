//! Property test: the driver's VM state stays valid across page size ×
//! fault injection × policy. Random accesses drive a driver under a tight
//! capacity, with uniform base pages or mixed mode (512 KB base pages,
//! four per 2 MB frame), with and without an injected outage and frame
//! retirement, under every static scheme; frames coalesce, splinter and
//! get evicted. After every operation the driver's invariants are swept
//! — "a GPU owns only pages it has touched" among them, so a coalesced
//! frame is fully touched although coalescing checks only that one GPU
//! holds every base page with no replicas — and every coalesced page is
//! checked. At the end the traced placement events must equal the fault
//! counters.

use proptest::prelude::*;

use grit_mem::Mapping;
use grit_sim::{AccessKind, GpuId, InjectConfig, MemLoc, PageId, PageSizeMode, Scheme, SimConfig};
use grit_trace::{EventCategory, SplinterCause, TraceConfig, TraceEvent, Tracer};
use grit_uvm::{FaultInfo, FaultKind, StaticPolicy, UvmDriver, WriteMode};

/// Eight 2 MB frames of four base pages each in mixed mode.
const FOOTPRINT_PAGES: u64 = 32;

/// An outage on every wire and the retirement of half of GPU0's frames,
/// both inside the op window: the prefix ends at cycle 20,000 and ops
/// follow every 5,000 cycles, so the retirement lands on op 49, once
/// GPU0 has had time to gather pages and replicas.
const FAULTS: &str = "outage@100000:wire=*:for=300000;retire@250000:gpu=0:pct=50";

/// One access: `(page, stray, gpu, kind)`. Seven in ten come from the
/// frame's home GPU (`frame % gpus`), so whole frames turn private; the
/// rest come from `gpu` and share or steal pages.
type Op = (u64, u8, u8, AccessKind);

/// Replays `ops` as the system runner would, after a fixed prefix in
/// which GPU0 writes all of frame 0: due injections apply first, then a
/// missing translation raises a local fault, a write to a replica a
/// protection fault (or a store broadcast), and a remote mapping counts
/// a remote access. Checks the invariants and every coalesced page after
/// each op, and the traced Eviction, Migration, Duplication and Collapse
/// events against the fault counters at the end; returns the driver and
/// its events.
fn replay(
    mode: PageSizeMode,
    inject: Option<&str>,
    scheme: Scheme,
    gpus: usize,
    ops: &[Op],
) -> Result<(UvmDriver, Vec<TraceEvent>), String> {
    let mut cfg = SimConfig::with_gpus(gpus);
    if mode == PageSizeMode::Mixed {
        cfg.page_size = 512 * 1024;
    }
    cfg.page_size_mode = mode;
    cfg.capacity_ratio = 0.25;
    cfg.access_counter_threshold = 4;
    if let Some(spec) = inject {
        cfg.inject = InjectConfig::parse(spec).expect("valid inject spec");
    }
    let mut d = UvmDriver::new(cfg, FOOTPRINT_PAGES, Box::new(StaticPolicy::new(scheme)));
    let tracer = Tracer::new(TraceConfig::default());
    d.set_tracer(tracer.clone());
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
        d.maybe_run_epoch(now);
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
    let events = tracer.take_events();
    let f = d.fault_counters();
    for (cat, counter) in [
        (EventCategory::Eviction, f.evictions),
        (EventCategory::Migration, f.migrations),
        (EventCategory::Duplication, f.duplications),
        (EventCategory::Collapse, f.collapses),
    ] {
        let seen = events.iter().filter(|e| e.category() == cat).count() as u64;
        if seen != counter {
            return Err(format!("{cat:?}: {seen} events vs counter {counter}"));
        }
    }
    Ok((d, events))
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
        for mode in PageSizeMode::ALL {
            for inject in [None, Some(FAULTS)] {
                for scheme in Scheme::ALL {
                    let cell = format!("{}/{inject:?}/{scheme}", mode.name());
                    match replay(mode, inject, scheme, gpus, &ops) {
                        Ok((d, _)) => prop_assert!(
                            mode == PageSizeMode::Uniform4k
                                || d.large_pages().counters().coalesces > 0,
                            "{cell}: frame 0 never coalesced"
                        ),
                        Err(e) => prop_assert!(false, "{cell}: {e}"),
                    }
                }
            }
        }
    }
}

/// GPU0 holds the coalesced frame 0 and then all of frame 1, so the
/// retirement of half its frames force-evicts frame 0's pages: the frame
/// splinters with cause `retirement`, and each page is counted and traced
/// once as an eviction.
#[test]
fn retirement_splinters_the_coalesced_frame() {
    // GPU0 reads frame 1, then re-reads page 4 (a no-op) until op 49
    // applies the retirement.
    let ops: Vec<Op> = (4..8)
        .map(|p| (p, 9, 0, AccessKind::Read))
        .chain(std::iter::repeat_n((4, 9, 0, AccessKind::Read), 42))
        .collect();
    for scheme in Scheme::ALL {
        let (d, events) = replay(PageSizeMode::Mixed, Some(FAULTS), scheme, 4, &ops)
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_eq!(d.resilience_counters().pages_force_evicted, 4, "{scheme}");
        assert_eq!(
            d.large_pages().counters().splinters_retirement,
            1,
            "{scheme}"
        );
        let splinters: Vec<_> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::PageSplintered {
                    gpu, vpn, cause, ..
                } => Some((gpu, vpn, cause)),
                _ => None,
            })
            .collect();
        assert_eq!(
            splinters,
            vec![(GpuId::new(0), PageId(0), SplinterCause::Retirement)],
            "{scheme}"
        );
        for p in 0..4 {
            assert_ne!(
                d.central().page(PageId(p)).owner,
                MemLoc::Gpu(GpuId::new(0))
            );
        }
    }
}
