//! Backward-compatibility pin for the topology-driven fabric: with the
//! default `AllToAll` topology, figure tables and JSONL trace streams must
//! be byte-identical to the pre-topology code at `--jobs 1` and `--jobs 4`.
//!
//! The `tests/golden/` fixtures were captured from the tree *before*
//! routed topologies landed (same commit series, one commit earlier), so a diff
//! here means the refactor changed observable behaviour of the default
//! fabric. Re-bless only for an intentional model change:
//! `GRIT_BLESS=1 cargo test --test topology_compat`.

use std::fs;
use std::path::PathBuf;

use grit::experiments as ex;
use grit::experiments::{run_batch_with, BatchOptions, CellSpec, ExpConfig, PolicyKind};
use grit_sim::Scheme;
use grit_trace::{events_to_jsonl, TraceConfig};
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

/// Compares `actual` against the checked-in fixture, or rewrites the
/// fixture when `GRIT_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("GRIT_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("create golden dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} diverged from the pre-topology golden output"
    );
}

/// All pinned figure tables rendered at the current global jobs setting.
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

/// Concatenated JSONL of the traced grid, in declaration order.
fn stream(jobs: usize) -> String {
    run_batch_with(&traced_grid(), &BatchOptions::new().jobs(jobs))
        .iter()
        .map(|out| {
            let out = out.as_ref().expect("cell must succeed");
            events_to_jsonl(out.events.as_deref().expect("tracing was enabled"))
        })
        .collect()
}

#[test]
fn default_topology_tables_match_pre_topology_goldens_at_any_jobs() {
    ex::set_batch_defaults(BatchOptions::new().jobs(1));
    let serial = render_tables();
    ex::set_batch_defaults(BatchOptions::new().jobs(4));
    let parallel = render_tables();
    ex::set_batch_defaults(BatchOptions::new());
    assert_eq!(
        serial, parallel,
        "tables diverge between --jobs 1 and --jobs 4"
    );
    check_golden("fig_tables_alltoall.txt", &serial);
}

#[test]
fn explicit_all_to_all_override_is_identical_to_the_default() {
    // `--topology all-to-all` must be a no-op: the override path through
    // `set_override_spec` renders the very same tables as no override at
    // all.
    let baseline = render_tables();
    ex::set_override_spec(Some(grit_sim::RunSpec::default().topology("all-to-all")));
    let explicit = render_tables();
    ex::set_override_spec(None);
    assert_eq!(
        baseline, explicit,
        "an explicit all-to-all override changed the default output"
    );
}

#[test]
fn default_topology_trace_stream_matches_pre_topology_golden_at_any_jobs() {
    let serial = stream(1);
    assert!(!serial.is_empty(), "the grid must emit events");
    let parallel = stream(4);
    assert_eq!(
        serial, parallel,
        "trace streams diverge between --jobs 1 and --jobs 4"
    );
    check_golden("trace_stream_alltoall.jsonl", &serial);
}
