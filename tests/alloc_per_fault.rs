//! Allocation gate on the fault path: once warm, servicing a fault
//! touches the heap not at all. A counting global allocator tallies the
//! allocations `Simulation::try_run` makes on the calling thread, so
//! tests running beside it on other threads do not count. The workload
//! and the policy are built outside the counted window. A cell may make
//! at most 0.1 allocations per fault; the exact counts print with
//! `cargo test --test alloc_per_fault -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grit::experiments::{ExpConfig, PolicyKind};
use grit::prelude::*;
use grit_sim::PageSizeMode;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MAX_PER_FAULT: f64 = 0.1;

/// Runs BFS and ST under the four Fig. 17 policies on `cfg` and asserts
/// the allocation ceiling for each cell.
fn gate(machine: &str, cfg: SimConfig) {
    let exp = ExpConfig::default();
    let policies = [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
    ];
    for app in [App::Bfs, App::St] {
        for policy in policies {
            let workload = WorkloadBuilder::new(app)
                .num_gpus(cfg.num_gpus)
                .scale(exp.scale)
                .intensity(exp.intensity)
                .seed(exp.seed)
                .page_size(cfg.page_size)
                .build();
            let policy_box = policy.build(&cfg, workload.footprint_pages);
            let sim = Simulation::try_new(cfg.clone(), workload, policy_box).expect("valid cell");
            let before = ALLOCATIONS.with(Cell::get);
            let out = sim.try_run().expect("cell runs");
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            let f = out.metrics.faults;
            let faults = f.local_faults + f.protection_faults;
            assert!(faults > 0, "{machine} {app} {}: no faults", policy.label());
            let per_fault = allocations as f64 / faults as f64;
            println!(
                "{machine} {app} {}: {allocations} allocations, {faults} faults, \
                 {per_fault:.4} per fault",
                policy.label()
            );
            assert!(
                per_fault <= MAX_PER_FAULT,
                "{machine} {app} {}: {allocations} allocations over {faults} faults \
                 ({per_fault:.3} per fault, ceiling {MAX_PER_FAULT})",
                policy.label()
            );
        }
    }
}

#[test]
fn table1_machine_faults_allocate_nothing() {
    gate("table1", SimConfig::default());
}

#[test]
fn tight_mixed_page_machine_faults_allocate_nothing() {
    let cfg = SimConfig {
        capacity_ratio: 0.3,
        page_size_mode: PageSizeMode::Mixed,
        ..SimConfig::default()
    };
    gate("capacity0.3-mixed", cfg);
}
