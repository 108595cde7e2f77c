//! The campaign server's result store is opened once per process, not
//! once per cell: served hits on a bounded store share one running size,
//! so the whole directory is scanned when the runner is built and never
//! again while every cell is a hit.
//!
//! This is the only test in its binary, so the process-wide rescan
//! count it reads is not perturbed by other tests' stores.

use grit::experiments::result_store::process_rescans;
use grit::service::{run_spec, spec_runner};
use grit_sim::RunSpec;

#[test]
fn served_hits_rescan_a_bounded_store_once() {
    let dir = std::env::temp_dir().join(format!("grit-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs: Vec<RunSpec> = ["GEMM", "FIR", "BFS", "ST"]
        .into_iter()
        .map(|app| RunSpec::new(app, "grit").scale(0.02).intensity(0.5).seed(0x5707E))
        .collect();
    // Fill the store through an unbounded open, which never scans.
    for spec in &specs {
        run_spec(spec, Some(&dir), None, None).expect("fresh cell runs");
    }
    assert_eq!(process_rescans(), 0);

    let runner = spec_runner(Some(dir.clone()), Some(1 << 30));
    let rounds = 8;
    for _ in 0..rounds {
        for spec in &specs {
            let res = runner(spec).expect("stored cell is served");
            assert!(res.store_hit, "{} missed the store", spec.canonical());
            assert_eq!((res.store_hits, res.store_misses), (1, 0));
        }
    }
    assert_eq!(
        process_rescans(),
        1,
        "{} served hits must share the store opened with the runner",
        rounds * specs.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
