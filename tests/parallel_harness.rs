//! The parallel experiment harness must be invisible in the output: a
//! batched figure returns a byte-identical table no matter how many
//! workers run it, and the shared workload cache builds each distinct
//! trace exactly once however many cells request it.

use grit::experiments::{
    fig17_grit, run_batch_with, set_batch_defaults, workload_cache, BatchOptions, CellSpec,
    ExpConfig, PolicyKind,
};
use grit_sim::SimConfig;

#[test]
fn fig17_table_is_identical_serial_and_parallel() {
    let exp = ExpConfig::quick();
    set_batch_defaults(BatchOptions::new().jobs(1));
    let serial = fig17_grit::run(&exp);
    set_batch_defaults(BatchOptions::new().jobs(4));
    let parallel = fig17_grit::run(&exp);
    set_batch_defaults(BatchOptions::new());
    assert_eq!(
        serial, parallel,
        "worker count must not change a figure's table"
    );
    assert_eq!(serial.to_text(), parallel.to_text());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn fig17_grid_builds_each_app_trace_exactly_once() {
    // A seed no other test uses, so this test owns its cache entries even
    // though the cache is global to the test binary.
    let exp = ExpConfig {
        seed: 0xB111D,
        ..ExpConfig::quick()
    };
    let _ = fig17_grit::run(&exp);
    let cfg = SimConfig::default();
    for app in grit_workloads::App::TABLE2 {
        let key = workload_cache::WorkloadKey::new(app, &exp, &cfg);
        assert_eq!(
            workload_cache::global().build_count(key),
            1,
            "{app:?}: five policies share one trace, built once"
        );
    }
}

#[test]
fn batch_outputs_preserve_declaration_order() {
    // Unique seed for the same reason as above.
    let exp = ExpConfig {
        seed: 0x0DE2,
        ..ExpConfig::quick()
    };
    let apps = [
        grit_workloads::App::Fir,
        grit_workloads::App::Bfs,
        grit_workloads::App::Gemm,
    ];
    let cells: Vec<CellSpec> =
        apps.iter().map(|&a| CellSpec::new(a, PolicyKind::GRIT, &exp)).collect();
    let serial = run_batch_with(&cells, &BatchOptions::new().jobs(1));
    let parallel = run_batch_with(&cells, &BatchOptions::new().jobs(3));
    for ((s, p), app) in serial.iter().zip(&parallel).zip(apps) {
        let s = s.as_ref().expect("cell must succeed");
        let p = p.as_ref().expect("cell must succeed");
        assert_eq!(s.metrics.accesses, p.metrics.accesses, "{app:?}");
        assert_eq!(s.metrics.total_cycles, p.metrics.total_cycles, "{app:?}");
    }
}
