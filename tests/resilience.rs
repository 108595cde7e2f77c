//! Resilient batch execution: a failing cell becomes a structured
//! `CellError` row instead of killing the campaign, zero-budget timeouts
//! fire deterministically, and an interrupted campaign resumed from the
//! on-disk result store renders byte-identical tables at any worker count.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use grit::prelude::*;
use grit_trace::metrics_to_json;
use grit_workloads::App;

fn exp(seed: u64) -> ExpConfig {
    ExpConfig {
        scale: 0.02,
        intensity: 0.5,
        seed,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("grit-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Canonical byte representation of a successful cell's result.
fn fingerprint(r: &Result<RunOutput, CellError>) -> String {
    let out = r.as_ref().expect("cell must succeed");
    metrics_to_json(&out.metrics).to_string()
}

#[test]
fn panicking_cell_does_not_abort_the_batch() {
    let e = exp(0xFA11);
    let boom: PolicySpec = PolicySpec::Factory(Arc::new(|_, _| panic!("injected factory failure")));
    let cells = vec![
        CellSpec::new(App::Bfs, PolicyKind::GRIT, &e),
        CellSpec::new(App::Fir, boom, &e),
        CellSpec::new(App::Gemm, PolicyKind::GRIT, &e),
    ];
    let results = run_batch_with(&cells, &BatchOptions::new().jobs(2));
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok(), "healthy cell before the panic survives");
    assert!(results[2].is_ok(), "healthy cell after the panic survives");
    match &results[1] {
        Err(CellError::Panicked { message }) => {
            assert!(
                message.contains("injected factory failure"),
                "panic payload must be preserved: {message}"
            );
        }
        other => panic!("expected CellError::Panicked, got {other:?}"),
    }
}

#[test]
fn zero_budget_times_out_with_partial_counters() {
    let e = exp(0x71ED);
    let cells = vec![CellSpec::new(App::Bfs, PolicyKind::GRIT, &e)];
    let opts = BatchOptions::new().jobs(1).timeout(Duration::ZERO);
    let results = run_batch_with(&cells, &opts);
    match &results[0] {
        Err(CellError::TimedOut {
            budget_seconds,
            accesses,
            ..
        }) => {
            assert_eq!(*budget_seconds, 0.0);
            assert_eq!(
                *accesses, 0,
                "a zero budget must expire at the first cancellation poll"
            );
        }
        other => panic!("expected CellError::TimedOut, got {other:?}"),
    }
    // The NaN bridge: a failed cell renders as the error marker, never as
    // a number.
    assert!(results[0].cycles().is_nan());
    let mut t = Table::new("timeout", vec!["grit".into()]);
    t.push_row("BFS", vec![results[0].cycles()]);
    assert!(t.to_text().contains(Table::ERROR_MARKER));
}

#[test]
fn fail_fast_cancels_the_rest_of_the_batch() {
    let e = exp(0xFF57);
    let boom: PolicySpec = PolicySpec::Factory(Arc::new(|_, _| panic!("fail-fast trigger")));
    let cells = vec![
        CellSpec::new(App::Bfs, boom, &e),
        CellSpec::new(App::Fir, PolicyKind::GRIT, &e),
        CellSpec::new(App::Gemm, PolicyKind::GRIT, &e),
    ];
    let results = run_batch_with(&cells, &BatchOptions::new().jobs(1).fail_fast(true));
    assert!(matches!(&results[0], Err(CellError::Panicked { .. })));
    for r in &results[1..] {
        assert!(
            matches!(r, Err(CellError::Cancelled)),
            "unstarted cells must report Cancelled under fail-fast, got {r:?}"
        );
    }
    assert!(grit::experiments::fail_fast_triggered());
}

#[test]
fn interrupted_campaign_resumes_byte_identical_at_any_jobs() {
    let e = exp(0x2E5);
    let cells: Vec<CellSpec> = [App::Bfs, App::Fir, App::Gemm]
        .into_iter()
        .map(|a| CellSpec::new(a, PolicyKind::GRIT, &e))
        .collect();

    // The uninterrupted reference campaign.
    let fresh = run_batch_with(&cells, &BatchOptions::new().jobs(1));
    let reference: Vec<String> = fresh.iter().map(fingerprint).collect();

    let dir = tmp_dir("resume");
    let with_store = |jobs: usize| BatchOptions::new().jobs(jobs).resume_dir(&dir);

    // "Interrupt" the campaign: only the first cell completes and lands in
    // the store.
    let partial = run_batch_with(&cells[..1], &with_store(1));
    assert!(partial[0].is_ok());

    // Resume serially and in parallel: same bytes as the fresh run, and
    // the pre-completed cell is served from the store.
    for jobs in [1, 4] {
        let resumed = run_batch_with(&cells, &with_store(jobs));
        let got: Vec<String> = resumed.iter().map(fingerprint).collect();
        assert_eq!(got, reference, "--jobs {jobs} resume diverged");
        assert!(
            resumed[0].as_ref().unwrap().timing.resumed,
            "--jobs {jobs}: first cell must come from the store"
        );
    }

    // The rendered table — what `repro` actually prints — is identical too.
    let render = |rs: &[Result<RunOutput, CellError>]| {
        let mut t = Table::new("resume", vec!["grit".into()]);
        let base = rs[0].cycles();
        for (r, app) in rs.iter().zip([App::Bfs, App::Fir, App::Gemm]) {
            t.push_row(app.abbr(), vec![base / r.cycles()]);
        }
        t.to_text()
    };
    let resumed = run_batch_with(&cells, &with_store(4));
    assert_eq!(render(&fresh), render(&resumed));

    let _ = std::fs::remove_dir_all(&dir);
}
