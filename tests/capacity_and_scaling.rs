//! Oversubscription, GPU-count and page-size behaviour of the full system
//! (the §III-B capacity model and the §VI-B sensitivity studies).

use grit::experiments::workload_cache::shared_workload;
use grit::experiments::{run_cell, run_cell_with, ExpConfig, PolicyKind};
use grit::prelude::*;

fn exp() -> ExpConfig {
    ExpConfig::quick()
}

#[test]
fn replication_oversubscribes_where_single_copies_fit() {
    // The 70 %-of-footprint memory (§III-B) fits one copy of everything
    // comfortably across four GPUs, but replication-heavy placement must
    // evict (§II-B3: duplication "is subject to memory oversubscription").
    let ot = run_cell(App::Bfs, PolicyKind::Static(Scheme::OnTouch), &exp()).metrics;
    let dup = run_cell(App::Bfs, PolicyKind::Static(Scheme::Duplication), &exp()).metrics;
    assert_eq!(ot.faults.evictions, 0, "single copies must fit");
    assert!(
        dup.faults.evictions > 0,
        "replicating a >70% working set on every GPU must evict"
    );
    assert!(dup.oversubscription_rate > ot.oversubscription_rate);
}

#[test]
fn gps_oversubscribes_more_than_grit() {
    // §VI-C2: GPS subscribes every accessor, GRIT replicates selectively.
    let gps = run_cell(App::Bfs, PolicyKind::Gps, &exp()).metrics;
    let grit = run_cell(App::Bfs, PolicyKind::GRIT, &exp()).metrics;
    assert!(
        gps.oversubscription_rate > grit.oversubscription_rate,
        "GPS {} vs GRIT {}",
        gps.oversubscription_rate,
        grit.oversubscription_rate
    );
}

#[test]
fn tighter_capacity_hurts_duplication() {
    let tight = SimConfig {
        capacity_ratio: 0.35,
        ..SimConfig::default()
    };
    let loose = run_cell(App::Gemm, PolicyKind::Static(Scheme::Duplication), &exp())
        .metrics
        .total_cycles;
    let squeezed = run_cell_with(
        App::Gemm,
        PolicyKind::Static(Scheme::Duplication),
        &exp(),
        tight,
        None,
    )
    .metrics
    .total_cycles;
    assert!(
        squeezed > loose,
        "halving memory must slow replication: {squeezed} vs {loose}"
    );
}

#[test]
fn grit_works_at_every_gpu_count() {
    for gpus in [2usize, 8, 16] {
        let cfg = SimConfig::with_gpus(gpus);
        let ot = run_cell_with(
            App::Gemm,
            PolicyKind::Static(Scheme::OnTouch),
            &exp(),
            cfg.clone(),
            None,
        )
        .metrics;
        let grit = run_cell_with(App::Gemm, PolicyKind::GRIT, &exp(), cfg, None).metrics;
        assert!(ot.total_cycles > 0 && grit.total_cycles > 0);
        // At 2 GPUs GEMM's replicas sit right at the capacity edge, so
        // GRIT's duplication choice can re-fault evicted pages; beyond
        // that it must raise strictly fewer faults than on-touch.
        let limit = if gpus == 2 {
            ot.faults.total_faults() * 3 / 2
        } else {
            ot.faults.total_faults()
        };
        assert!(
            grit.faults.total_faults() <= limit,
            "{gpus} GPUs: GRIT faults {} vs on-touch {}",
            grit.faults.total_faults(),
            ot.faults.total_faults()
        );
    }
}

#[test]
fn more_gpus_mean_more_sharing() {
    // §VI-B2: pages become more frequently shared as GPUs are added
    // (input size held constant). Sharing is a property of the trace.
    let attrs = |gpus| {
        shared_workload(App::St, &exp(), &SimConfig::with_gpus(gpus))
            .page_attrs()
            .summary()
    };
    let few = attrs(2);
    let many = attrs(8);
    assert!(
        many.shared_page_frac() >= few.shared_page_frac(),
        "sharing must not shrink with more GPUs: {} vs {}",
        many.shared_page_frac(),
        few.shared_page_frac()
    );
}

#[test]
fn large_pages_coarsen_the_footprint() {
    let cfg = SimConfig {
        page_size: PAGE_SIZE_2M,
        ..SimConfig::default()
    };
    let big = ExpConfig {
        scale: 0.8,
        ..exp()
    };
    let attrs = shared_workload(App::St, &big, &cfg).page_attrs().summary();
    let out = run_cell_with(App::St, PolicyKind::GRIT, &big, cfg, None);
    // 33 MB x 0.8 at 2 MB pages = ~14 pages minimum footprint guard (64).
    assert!(out.metrics.total_cycles > 0);
    assert!(
        attrs.total_pages <= 128,
        "2MB pages collapse the page count"
    );
}

#[test]
fn large_pages_shrink_grits_edge() {
    // §VI-B3: 2 MB pages mix read and read-write data in one translation
    // unit; GRIT's relative gain over on-touch must shrink vs 4 KB pages.
    let exp_big = ExpConfig {
        scale: 0.6,
        ..exp()
    };
    let gain = |page_size: u64| {
        let cfg = SimConfig {
            page_size,
            ..SimConfig::default()
        };
        let ot = run_cell_with(
            App::Gemm,
            PolicyKind::Static(Scheme::OnTouch),
            &exp_big,
            cfg.clone(),
            None,
        )
        .metrics
        .total_cycles;
        let grit = run_cell_with(App::Gemm, PolicyKind::GRIT, &exp_big, cfg, None)
            .metrics
            .total_cycles;
        ot as f64 / grit as f64
    };
    let gain_4k = gain(PAGE_SIZE_4K);
    let gain_2m = gain(PAGE_SIZE_2M);
    assert!(
        gain_2m < gain_4k,
        "2MB-page gain ({gain_2m}) must trail 4KB-page gain ({gain_4k})"
    );
}

#[test]
fn prefetching_cuts_cold_faults_without_breaking_invariants() {
    let cfg = SimConfig::default();
    let base = {
        let w = WorkloadBuilder::new(App::Sc).scale(0.04).intensity(1.5).build();
        let p = PolicyKind::Static(Scheme::OnTouch).build(&cfg, w.footprint_pages);
        Simulation::try_new(cfg.clone(), w, p)
            .unwrap()
            .try_run()
            .unwrap()
            .metrics
            .faults
            .local_faults
    };
    let with_pf = {
        let w = WorkloadBuilder::new(App::Sc).scale(0.04).intensity(1.5).build();
        let p = PolicyKind::Static(Scheme::OnTouch).build(&cfg, w.footprint_pages);
        let sim = SimulationBuilder::new(cfg.clone(), w, p)
            .prefetcher(Box::new(TreePrefetcher::new()))
            .build()
            .unwrap();
        sim.try_run().unwrap().metrics.faults.local_faults
    };
    assert!(
        with_pf < base,
        "prefetching must absorb faults: {with_pf} vs {base}"
    );
}
