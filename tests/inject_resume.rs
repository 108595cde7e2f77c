//! Fault-injected campaigns through the resilient batch harness: an
//! interrupted `--inject` run resumed from the on-disk result store is
//! byte-identical to an uninterrupted one, and the injection schedule is
//! part of the cache identity — a cached healthy result can never be
//! served to an injected cell or vice versa.

use std::path::PathBuf;

use grit::prelude::*;
use grit_sim::{InjectConfig, ResilienceCounters, SimConfig};
use grit_trace::metrics_to_json;
use grit_workloads::App;

const OUTAGE: &str = "outage@20000:wire=*:for=120000";

fn exp() -> ExpConfig {
    ExpConfig {
        scale: 0.02,
        intensity: 0.5,
        seed: 0x1217,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("grit-resume-inject-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A cell with an explicit fault schedule (empty `spec` = healthy).
fn injected_cell(app: App, spec: &str) -> CellSpec {
    CellSpec {
        app,
        policy: PolicySpec::Kind(PolicyKind::GRIT),
        exp: exp(),
        cfg: SimConfig {
            inject: InjectConfig::parse(spec).expect("spec is grammatical"),
            ..SimConfig::with_gpus(4)
        },
        observer: None,
        prefetcher: None,
        trace: None,
    }
}

/// Canonical byte representation of a cell's result, including the
/// resilience counter series (which ride in the aux map; floats print in
/// their shortest exact form).
fn fingerprint(r: &Result<RunOutput, CellError>) -> String {
    metrics_to_json(&r.as_ref().expect("cell must succeed").metrics).to_string()
}

#[test]
fn interrupted_injected_campaign_resumes_byte_identical() {
    let cells: Vec<CellSpec> = [App::Bfs, App::Fir, App::Gemm]
        .into_iter()
        .map(|a| injected_cell(a, OUTAGE))
        .collect();

    // The uninterrupted reference campaign.
    let fresh = run_batch_with(&cells, &BatchOptions::new().jobs(1));
    let reference: Vec<String> = fresh.iter().map(fingerprint).collect();

    // The injected runs must actually have injected something, or this
    // test proves nothing.
    for r in &fresh {
        let series = r.as_ref().unwrap().metrics.aux("resilience_counters");
        let rep = ResilienceCounters::from_aux(series.unwrap_or_default());
        assert!(rep.faults_injected > 0, "outage plan must fire: {rep:?}");
        assert!(rep.all_blocked_resolved(), "{rep:?}");
    }

    let dir = tmp_dir("resume");
    let with_store = |jobs: usize| BatchOptions::new().jobs(jobs).resume_dir(&dir);

    // "Kill" the campaign after the first cell lands in the store.
    let partial = run_batch_with(&cells[..1], &with_store(1));
    assert!(partial[0].is_ok());

    // Resume serially and in parallel: same bytes as the fresh run — the
    // fault schedule round-trips through the store untouched.
    for jobs in [1, 4] {
        let resumed = run_batch_with(&cells, &with_store(jobs));
        let got: Vec<String> = resumed.iter().map(fingerprint).collect();
        assert_eq!(got, reference, "--jobs {jobs} injected resume diverged");
        assert!(
            resumed[0].as_ref().unwrap().timing.resumed,
            "--jobs {jobs}: first cell must come from the store"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injection_schedule_is_part_of_the_cache_identity() {
    let dir = tmp_dir("keyed");
    let opts = BatchOptions::new().jobs(1).resume_dir(&dir);

    // Seed the store with a healthy run.
    let healthy = run_batch_with(&[injected_cell(App::Bfs, "")], &opts);
    assert!(!healthy[0].as_ref().unwrap().timing.resumed);

    // The same cell under an outage plan must be recomputed, not served
    // the healthy bytes: the schedule is baked into the resume key.
    let injected = run_batch_with(&[injected_cell(App::Bfs, OUTAGE)], &opts);
    let out = injected[0].as_ref().unwrap();
    assert!(
        !out.timing.resumed,
        "healthy cache hit leaked into an injected run"
    );
    assert_ne!(
        fingerprint(&healthy[0]),
        fingerprint(&injected[0]),
        "outage must change the result"
    );

    // Each variant still resumes against its own cached result.
    for (spec, label) in [("", "healthy"), (OUTAGE, "injected")] {
        let again = run_batch_with(&[injected_cell(App::Bfs, spec)], &opts);
        assert!(
            again[0].as_ref().unwrap().timing.resumed,
            "{label} rerun must hit its own cache entry"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
