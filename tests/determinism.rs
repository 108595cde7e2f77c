//! Reproducibility: every figure in the reproduction must be re-runnable
//! bit-for-bit, so full-system runs are pure functions of (workload seed,
//! configuration, policy).

use grit::experiments::{run_cell, ExpConfig, PolicyKind};
use grit::prelude::*;

fn tiny() -> ExpConfig {
    ExpConfig {
        scale: 0.02,
        intensity: 0.5,
        seed: 0x5EED,
    }
}

fn fingerprint(app: App, p: PolicyKind, exp: &ExpConfig) -> (u64, u64, u64, u64, u64, u64) {
    let m = run_cell(app, p, exp).metrics;
    (
        m.total_cycles,
        m.accesses,
        m.faults.total_faults(),
        m.faults.migrations,
        m.remote_accesses,
        m.nvlink_bytes,
    )
}

#[test]
fn identical_seeds_identical_metrics() {
    for p in [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
        PolicyKind::Gps,
        PolicyKind::GriffinDpc,
    ] {
        for app in [App::Gemm, App::St, App::Bfs] {
            let a = fingerprint(app, p, &tiny());
            let b = fingerprint(app, p, &tiny());
            assert_eq!(a, b, "{app}/{}: runs must be deterministic", p.label());
        }
    }
}

#[test]
fn different_seeds_change_random_apps() {
    let a = fingerprint(App::Bfs, PolicyKind::Static(Scheme::OnTouch), &tiny());
    let b = fingerprint(
        App::Bfs,
        PolicyKind::Static(Scheme::OnTouch),
        &ExpConfig {
            seed: 0xFACE,
            ..tiny()
        },
    );
    assert_ne!(a, b, "different seeds must change BFS's random trace");
}

#[test]
fn policies_share_the_same_trace() {
    // The access count is a property of the workload, not the policy.
    let base = run_cell(App::Mm, PolicyKind::Static(Scheme::OnTouch), &tiny()).metrics.accesses;
    for p in [
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
        PolicyKind::Ideal,
        PolicyKind::FirstTouch,
    ] {
        let acc = run_cell(App::Mm, p, &tiny()).metrics.accesses;
        assert_eq!(
            acc,
            base,
            "{}: trace must not depend on the policy",
            p.label()
        );
    }
}

#[test]
fn serialized_traces_simulate_identically() {
    use grit_workloads::{read_trace, write_trace, WorkloadBuilder};
    let build = || WorkloadBuilder::new(App::Gemm).scale(0.02).seed(11).build();
    let cfg = SimConfig::default();

    let direct = {
        let w = build();
        let p = PolicyKind::GRIT.build(&cfg, w.footprint_pages);
        Simulation::try_new(cfg.clone(), w, p).unwrap().try_run().unwrap().metrics
    };
    let via_disk = {
        let mut buf = Vec::new();
        write_trace(&build(), &mut buf).unwrap();
        let w = read_trace(buf.as_slice()).unwrap();
        let p = PolicyKind::GRIT.build(&cfg, w.footprint_pages);
        Simulation::try_new(cfg.clone(), w, p).unwrap().try_run().unwrap().metrics
    };
    assert_eq!(direct.total_cycles, via_disk.total_cycles);
    assert_eq!(direct.faults.total_faults(), via_disk.faults.total_faults());
    assert_eq!(direct.remote_accesses, via_disk.remote_accesses);
}
