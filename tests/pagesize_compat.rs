//! Backward-compatibility pin for multi-page-size memory: with the
//! default `uniform4k` mode, figure tables and JSONL trace streams must
//! be byte-identical to the pre-pagesize code — the large-page machinery
//! must be invisible when disabled (no new aux series, no new trace
//! events, no timing drift).
//!
//! This reuses the `tests/golden/` fixtures captured before the
//! large-page subsystem landed: a diff here means `uniform4k` stopped
//! being a faithful reproduction of the old single-page-size model.
//! Re-bless only for an intentional model change:
//! `GRIT_BLESS=1 cargo test --test topology_compat`.

use std::fs;
use std::path::PathBuf;

use grit::experiments as ex;
use grit::experiments::{run_batch_with, BatchOptions, CellSpec, ExpConfig, PolicyKind};
use grit_sim::Scheme;
use grit_trace::{events_to_jsonl, metrics_to_json, TraceConfig};
use grit_workloads::App;

fn tiny() -> ExpConfig {
    ExpConfig {
        scale: 0.02,
        intensity: 0.5,
        seed: 0xABCD,
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` against the checked-in fixture. Unlike the
/// topology pin this never blesses: the fixtures belong to
/// `topology_compat.rs`, and this test only proves `uniform4k` still
/// reproduces them.
fn check_golden(name: &str, actual: &str) {
    if std::env::var_os("GRIT_BLESS").is_some() {
        return; // topology_compat.rs owns re-blessing these fixtures
    }
    let path = golden_dir().join(name);
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name}: uniform4k diverged from the pre-pagesize golden output"
    );
}

/// The same figure tables `topology_compat.rs` pins, rendered under the
/// default (uniform4k) page-size mode.
fn render_tables() -> String {
    let exp = tiny();
    let mut out = String::new();
    out.push_str(&ex::fig17_grit::run(&exp).to_text());
    out.push('\n');
    out.push_str(&ex::fig18_faults::run(&exp).to_text());
    out.push('\n');
    for gpus in [2, 8] {
        let (perf, faults) = ex::fig22_gpu_scaling::run_gpus(gpus, &exp);
        out.push_str(&perf.to_text());
        out.push('\n');
        out.push_str(&faults.to_text());
        out.push('\n');
    }
    out
}

fn traced_grid() -> Vec<CellSpec> {
    let exp = ExpConfig {
        scale: 0.02,
        intensity: 0.5,
        seed: 0x70B0,
    };
    [App::Bfs, App::Fir]
        .into_iter()
        .flat_map(|app| {
            [PolicyKind::Static(Scheme::OnTouch), PolicyKind::GRIT]
                .map(|p| CellSpec::new(app, p, &exp).traced(TraceConfig::default()))
        })
        .collect()
}

#[test]
fn default_mode_tables_match_pre_pagesize_goldens() {
    check_golden("fig_tables_alltoall.txt", &render_tables());
}

#[test]
fn explicit_uniform4k_override_is_identical_to_the_default() {
    // `--page-size-mode uniform4k` must be a no-op: the override path
    // through `set_override_spec` renders the very same tables as no
    // override at all.
    let baseline = render_tables();
    ex::set_override_spec(Some(
        grit_sim::RunSpec::default().page_size_mode("uniform4k"),
    ));
    let explicit = render_tables();
    ex::set_override_spec(None);
    assert_eq!(
        baseline, explicit,
        "an explicit uniform4k override changed the default output"
    );
}

#[test]
fn default_mode_trace_stream_matches_pre_pagesize_golden() {
    let outputs = run_batch_with(&traced_grid(), &BatchOptions::new().jobs(1));
    let stream: String = outputs
        .iter()
        .map(|out| {
            let out = out.as_ref().expect("cell must succeed");
            events_to_jsonl(out.events.as_deref().expect("tracing was enabled"))
        })
        .collect();
    assert!(!stream.is_empty(), "the grid must emit events");
    check_golden("trace_stream_alltoall.jsonl", &stream);

    // uniform4k runs must not leak large-page artifacts into reports:
    // no pagesize aux series, no 2 MB TLB series.
    for out in &outputs {
        let report = metrics_to_json(&out.as_ref().unwrap().metrics).to_string();
        for leaked in [
            "pagesize_counters",
            "tlb_l1_hit_rate_2m",
            "tlb_l2_hit_rate_2m",
        ] {
            assert!(
                !report.contains(leaked),
                "uniform4k report leaked the {leaked} series"
            );
        }
    }
}
