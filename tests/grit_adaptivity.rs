//! End-to-end GRIT behaviour: the policy must converge to the right scheme
//! per page class, reduce faults, and respect its design parameters.

use grit::experiments::workload_cache::shared_workload;
use grit::experiments::{run_cell, ExpConfig, PolicyKind};
use grit::prelude::*;

fn exp() -> ExpConfig {
    ExpConfig::quick()
}

#[test]
fn grit_converges_to_duplication_for_read_shared_inputs() {
    // GEMM's B matrix is read by all four GPUs: after four faults GRIT
    // flips those pages to duplication and NAP propagates it (§VI-A).
    let out = run_cell(App::Gemm, PolicyKind::GRIT, &exp());
    let (_, _, dup) = out.metrics.scheme_mix.fractions();
    assert!(
        dup > 0.2,
        "GEMM under GRIT must use substantial duplication: {dup}"
    );
    assert!(out.metrics.faults.duplications > 0);
}

#[test]
fn grit_keeps_private_apps_on_touch() {
    // FIR/SC pages fault once and never reach the threshold: the entire
    // execution stays on the on-touch baseline (Fig. 19).
    for app in [App::Fir, App::Sc] {
        let out = run_cell(app, PolicyKind::GRIT, &exp());
        let pages = shared_workload(app, &exp(), &SimConfig::default())
            .page_attrs()
            .summary()
            .total_pages;
        let (ot, _, _) = out.metrics.scheme_mix.fractions();
        assert!(ot > 0.90, "{app} must stay ~fully on-touch, got {ot}");
        // The only scheme changes come from the few read-shared halo pages
        // at partition borders.
        assert!(
            out.metrics.faults.scheme_changes <= pages / 20,
            "{app}: {} changes across {pages} pages",
            out.metrics.faults.scheme_changes,
        );
    }
}

#[test]
fn grit_flips_write_shared_pages_to_access_counter() {
    let out = run_cell(App::Bs, PolicyKind::GRIT, &exp());
    let (_, ac, _) = out.metrics.scheme_mix.fractions();
    assert!(ac > 0.15, "BS must shift toward access-counter: {ac}");
    assert!(out.metrics.faults.scheme_changes > 0);
    assert!(
        out.metrics.remote_accesses > 0,
        "AC pages are accessed remotely"
    );
}

#[test]
fn grit_matches_or_beats_on_touch_on_every_app() {
    for app in App::TABLE2 {
        let ot = run_cell(app, PolicyKind::Static(Scheme::OnTouch), &exp()).metrics.total_cycles;
        let grit = run_cell(app, PolicyKind::GRIT, &exp()).metrics.total_cycles;
        // GRIT starts from the on-touch baseline: on apps where on-touch
        // is right it must stay within a small overhead; elsewhere it must
        // win outright.
        assert!(
            (grit as f64) < 1.10 * ot as f64,
            "{app}: grit {grit} must be within 10% of on-touch {ot} or better"
        );
    }
}

#[test]
fn grit_reduces_total_faults_versus_on_touch() {
    let mut grit_total = 0u64;
    let mut ot_total = 0u64;
    for app in App::TABLE2 {
        ot_total += run_cell(app, PolicyKind::Static(Scheme::OnTouch), &exp())
            .metrics
            .faults
            .total_faults();
        grit_total += run_cell(app, PolicyKind::GRIT, &exp()).metrics.faults.total_faults();
    }
    assert!(
        grit_total < ot_total,
        "GRIT faults {grit_total} must undercut on-touch {ot_total} (Fig. 18)"
    );
}

#[test]
fn lower_threshold_adapts_faster() {
    // Threshold 2 changes schemes earlier than threshold 16, so it must
    // perform at least as well on the adaptation-hungry shared apps.
    for app in [App::Bfs, App::St] {
        let fast = run_cell(
            app,
            PolicyKind::Grit {
                threshold: 2,
                pa_cache: true,
                nap: true,
            },
            &exp(),
        )
        .metrics
        .total_cycles;
        let slow = run_cell(
            app,
            PolicyKind::Grit {
                threshold: 16,
                pa_cache: true,
                nap: true,
            },
            &exp(),
        )
        .metrics
        .total_cycles;
        assert!(fast < slow, "{app}: threshold 2 ({fast}) vs 16 ({slow})");
    }
}

#[test]
fn nap_accelerates_adaptation() {
    // With NAP, neighbor pages adopt the predicted scheme without reaching
    // the threshold -> fewer scheme-change interrupts per converged page
    // and at least comparable performance on neighbor-friendly BFS.
    let with = run_cell(
        App::Bfs,
        PolicyKind::Grit {
            threshold: 4,
            pa_cache: true,
            nap: true,
        },
        &exp(),
    )
    .metrics;
    let without = run_cell(
        App::Bfs,
        PolicyKind::Grit {
            threshold: 4,
            pa_cache: true,
            nap: false,
        },
        &exp(),
    )
    .metrics;
    assert!(
        with.total_cycles as f64 <= 1.05 * without.total_cycles as f64,
        "NAP must not hurt BFS: {} vs {}",
        with.total_cycles,
        without.total_cycles
    );
    // NAP propagation means fewer pages have to earn their change through
    // the full fault threshold.
    assert!(
        with.faults.scheme_changes <= without.faults.scheme_changes,
        "NAP should reduce explicit scheme changes: {} vs {}",
        with.faults.scheme_changes,
        without.faults.scheme_changes
    );
}

#[test]
fn pa_cache_absorbs_table_traffic() {
    let cfg = SimConfig::default();
    let workload = WorkloadBuilder::new(App::St).scale(0.04).intensity(1.5).build();
    // Isolate the cache: both runs keep NAP off and differ only in the
    // PA-Cache bit, so the comparison is identical but for where PA-Table
    // lookups are served.
    let no_nap = GritConfig {
        nap: false,
        ..GritConfig::full(&cfg)
    };
    let policy = GritPolicy::new(no_nap, workload.footprint_pages);
    // Drive through the full system, then inspect the policy indirectly:
    // a second, identical run with the PA-Cache disabled must charge more
    // decision latency, visible as extra host-class cycles.
    let with_cache = Simulation::try_new(cfg.clone(), workload, Box::new(policy))
        .unwrap()
        .try_run()
        .unwrap()
        .metrics
        .breakdown
        .get(LatencyClass::Host);
    let workload = WorkloadBuilder::new(App::St).scale(0.04).intensity(1.5).build();
    let no_cache = GritPolicy::new(
        GritConfig {
            pa_cache: false,
            ..no_nap
        },
        workload.footprint_pages,
    );
    let without_cache = Simulation::try_new(cfg, workload, Box::new(no_cache))
        .unwrap()
        .try_run()
        .unwrap()
        .metrics
        .breakdown
        .get(LatencyClass::Host);
    assert!(
        with_cache < without_cache,
        "PA-Cache must reduce host-side handling: {with_cache} vs {without_cache}"
    );
}

#[test]
fn scheme_changes_only_happen_on_shared_pages() {
    // Per §V-C a private page faults once and never re-registers; scheme
    // changes therefore imply sharing. Run GRIT and verify no app records
    // more scheme changes than it has shared pages (each page can flip
    // between schemes a handful of times).
    for app in App::TABLE2 {
        let out = run_cell(app, PolicyKind::GRIT, &exp());
        let shared = shared_workload(app, &exp(), &SimConfig::default())
            .page_attrs()
            .summary()
            .shared_pages;
        let changes = out.metrics.faults.scheme_changes;
        assert!(
            changes <= shared * 8,
            "{app}: {changes} scheme changes for {shared} shared pages"
        );
        if shared == 0 {
            assert_eq!(
                changes, 0,
                "{app}: private-only app must never change schemes"
            );
        }
    }
}
