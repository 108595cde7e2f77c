//! Per-baseline semantic contracts, asserted on full system runs: each
//! comparator must exhibit exactly the mechanism it models.

use grit::experiments::workload_cache::shared_workload;
use grit::experiments::{run_cell, run_cell_with, ExpConfig, PolicyKind};
use grit::prelude::*;
use grit_baselines::OraclePolicy;
use grit_workloads::WorkloadBuilder;

fn exp() -> ExpConfig {
    ExpConfig::quick()
}

#[test]
fn first_touch_never_migrates_a_page_twice() {
    for app in [App::Bfs, App::St, App::Gemm] {
        let out = run_cell(app, PolicyKind::FirstTouch, &exp());
        // One migration per page maximum (the first touch); capacity
        // evictions can re-home a page, adding at most one more.
        let pages = shared_workload(app, &exp(), &SimConfig::default())
            .page_attrs()
            .summary()
            .total_pages;
        let budget = pages + out.metrics.faults.evictions;
        assert!(
            out.metrics.faults.migrations <= budget,
            "{app}: {} migrations for {pages} pages (+{} evictions)",
            out.metrics.faults.migrations,
            out.metrics.faults.evictions
        );
        assert_eq!(
            out.metrics.faults.collapses, 0,
            "{app}: first-touch never collapses"
        );
    }
}

/// First-touch and Ideal fault once per (GPU, page) pair the trace
/// holds, and first-touch lands each page once, so without capacity
/// evictions their whole-run counters follow from the trace alone.
#[test]
fn first_touch_and_ideal_counters_follow_from_the_trace() {
    let mut checked = Vec::new();
    for gpus in [2, 4, 8, 16] {
        let cfg = SimConfig::with_gpus(gpus);
        for app in App::TABLE2 {
            let attrs = shared_workload(app, &exp(), &cfg).page_attrs();
            let pairs: u64 = attrs.iter_pages().map(|(_, sharers, _, _)| sharers as u64).sum();
            let pages = attrs.summary().total_pages;
            let run = |policy| run_cell_with(app, policy, &exp(), cfg.clone(), None).metrics.faults;
            let ft = run(PolicyKind::FirstTouch);
            if ft.evictions > 0 {
                continue;
            }
            assert_eq!(ft.local_faults, pairs, "{app} x{gpus}: first-touch faults");
            assert_eq!(
                ft.migrations, pages,
                "{app} x{gpus}: first-touch migrations"
            );
            let ideal = run(PolicyKind::Ideal);
            assert_eq!(ideal.local_faults, pairs, "{app} x{gpus}: Ideal faults");
            assert_eq!(ideal.migrations, 0, "{app} x{gpus}: Ideal migrations");
            checked.push((app, gpus));
        }
    }
    // The Table I machine has the room for every app.
    for app in App::TABLE2 {
        assert!(checked.contains(&(app, 4)), "{app}: evictions on 4 GPUs");
    }
}

#[test]
fn gps_never_collapses_and_replicates_aggressively() {
    for app in [App::Bfs, App::Bs] {
        let out = run_cell(app, PolicyKind::Gps, &exp());
        assert_eq!(
            out.metrics.faults.collapses, 0,
            "{app}: GPS broadcasts, never collapses"
        );
        assert_eq!(
            out.metrics.faults.protection_faults, 0,
            "{app}: replicas stay writable"
        );
        assert!(
            out.metrics.faults.duplications > 0,
            "{app}: GPS must subscribe with replicas"
        );
    }
}

#[test]
fn griffin_dpc_migrates_between_epochs_not_on_faults() {
    let out = run_cell(App::St, PolicyKind::GriffinDpc, &exp());
    // Fault-path migrations are only first touches; page movement beyond
    // that comes from epoch directives, so total migrations exceed the
    // page count only through DPC's interval decisions.
    assert!(out.metrics.faults.migrations > 0);
    assert_eq!(out.metrics.faults.duplications, 0, "DPC never replicates");
    assert_eq!(out.metrics.faults.collapses, 0);
}

#[test]
fn ideal_never_moves_pages() {
    for app in App::TABLE2 {
        let out = run_cell(app, PolicyKind::Ideal, &exp());
        assert_eq!(out.metrics.faults.migrations, 0, "{app}");
        assert_eq!(out.metrics.faults.duplications, 0, "{app}");
        assert_eq!(out.metrics.faults.collapses, 0, "{app}");
        assert_eq!(
            out.metrics.remote_accesses, 0,
            "{app}: ideal reads are local"
        );
        assert_eq!(
            out.metrics.faults.evictions, 0,
            "{app}: ideal has no pressure"
        );
    }
}

#[test]
fn oracle_beats_every_uniform_scheme_on_static_apps() {
    // On workloads whose page behaviour never changes (GEMM: inputs stay
    // read-shared, outputs stay private), perfect offline classification
    // must dominate every uniform choice.
    let cfg = SimConfig::default();
    let e = exp();
    let w = WorkloadBuilder::new(App::Gemm)
        .scale(e.scale)
        .intensity(e.intensity)
        .seed(e.seed)
        .build();
    let oracle_policy = OraclePolicy::from_profile(&w.page_attrs());
    let oracle = Simulation::try_new(cfg, w, Box::new(oracle_policy))
        .unwrap()
        .try_run()
        .unwrap()
        .metrics
        .total_cycles;
    for scheme in Scheme::ALL {
        let uniform = run_cell(App::Gemm, PolicyKind::Static(scheme), &exp()).metrics.total_cycles;
        assert!(
            oracle <= uniform,
            "oracle {oracle} must beat uniform {scheme} {uniform}"
        );
    }
}

#[test]
fn transfw_speeds_up_fault_bound_runs() {
    use grit_baselines::apply_transfw;
    let base = run_cell(App::Fir, PolicyKind::Static(Scheme::OnTouch), &exp())
        .metrics
        .total_cycles;
    let mut cfg = SimConfig::default();
    apply_transfw(&mut cfg);
    let accelerated = grit::experiments::run_cell_with(
        App::Fir,
        PolicyKind::Static(Scheme::OnTouch),
        &exp(),
        cfg,
        None,
    )
    .metrics
    .total_cycles;
    assert!(
        accelerated < base,
        "Trans-FW must accelerate the fault-bound FIR: {accelerated} vs {base}"
    );
}

#[test]
fn acud_speeds_up_migration_heavy_runs() {
    use grit_baselines::apply_acud;
    let base = run_cell(App::Bs, PolicyKind::Static(Scheme::OnTouch), &exp())
        .metrics
        .total_cycles;
    let mut cfg = SimConfig::default();
    apply_acud(&mut cfg);
    let accelerated = grit::experiments::run_cell_with(
        App::Bs,
        PolicyKind::Static(Scheme::OnTouch),
        &exp(),
        cfg,
        None,
    )
    .metrics
    .total_cycles;
    assert!(
        accelerated < base,
        "ACUD must accelerate ping-pong-heavy BS: {accelerated} vs {base}"
    );
}

#[test]
fn prefetcher_is_neutral_or_better_for_every_policy() {
    use grit_baselines::TreePrefetcher;
    for policy in [PolicyKind::Static(Scheme::OnTouch), PolicyKind::GRIT] {
        let cfg = SimConfig::default();
        let e = exp();
        let build = || {
            WorkloadBuilder::new(App::Sc)
                .scale(e.scale)
                .intensity(e.intensity)
                .seed(e.seed)
                .build()
        };
        let w = build();
        let p = policy.build(&cfg, w.footprint_pages);
        let plain = Simulation::try_new(cfg.clone(), w, p).unwrap().try_run().unwrap().metrics;
        let w = build();
        let p = policy.build(&cfg, w.footprint_pages);
        let sim = SimulationBuilder::new(cfg.clone(), w, p)
            .prefetcher(Box::new(TreePrefetcher::new()))
            .build()
            .unwrap();
        let fetched = sim.try_run().unwrap().metrics;
        assert!(
            fetched.faults.local_faults < plain.faults.local_faults,
            "{}: prefetching must absorb cold faults",
            policy.label()
        );
    }
}
