//! Process-wide run-report collector.
//!
//! The `repro` binary runs figure drivers that know nothing about report
//! files; this module gives the batch executor a place to deposit what it
//! observed (cells, timings, cache behaviour) so that one `run_report.json`
//! can be assembled after all targets finish. Each row is written as JSON
//! when it is recorded, so this module is the one description of the
//! report's layout. Recording is off by default and every `record_*` call
//! is a cheap no-op until [`enable`] flips the switch, so figure drivers
//! and tests pay nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

use grit_metrics::{IntervalSeries, RunMetrics};
use grit_sim::{CellError, SimConfig};
use grit_trace::report::RUN_REPORT_SCHEMA;
use grit_trace::{metrics_to_json, CycleProfile, Json, StoreCounters};

use crate::runner::RunOutput;

use super::batch::CellSpec;
use super::workload_cache::{self, CacheCounters};
use super::ExpConfig;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The report rows recorded so far, plus the run-wide totals that are
/// written once at the end.
#[derive(Default)]
struct CollectorState {
    targets: Vec<Json>,
    batches: Vec<Json>,
    cells: Vec<Json>,
    /// Every successful cell's `prof_*` series, merged in sequence order.
    cycle: CycleProfile,
    store: StoreCounters,
}

static STATE: LazyLock<Mutex<CollectorState>> = LazyLock::new(Mutex::default);

fn state() -> std::sync::MutexGuard<'static, CollectorState> {
    STATE.lock().expect("report collector poisoned")
}

/// A JSON object with `fields`, in order.
fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Turns recording on for the rest of the process (the `repro` binary
/// calls this when `--metrics-out` is given).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether [`enable`] has been called.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one cell. Called by the batch executor in declaration order, so
/// `seq` doubles as the trace-stream cell sequence number, and a failed
/// cell keeps its slot as an error row.
pub fn record_cell(spec: &CellSpec, result: Result<&RunOutput, &CellError>) {
    if !enabled() {
        return;
    }
    let mut st = state();
    let seq = st.cells.len() as u64;
    st.cells.push(cell_row(seq, spec, result));
    if let Ok(out) = result {
        st.cycle.absorb_aux(&out.metrics.aux);
    }
}

/// One `cells` row: the cell's identity, what running it produced (with
/// the observer series it asked for), and its canonical `RunSpec`. A
/// failed cell's row has zeroed metrics, a machine-readable `status`
/// label and the error message.
fn cell_row(seq: u64, spec: &CellSpec, result: Result<&RunOutput, &CellError>) -> Json {
    let mut fields = vec![
        ("seq", seq.into()),
        ("app", spec.app.to_string().into()),
        ("policy", spec.policy_label().into()),
        ("num_gpus", spec.cfg.num_gpus.into()),
        ("page_size", spec.cfg.page_size.into()),
        ("scale", spec.exp.scale.into()),
        ("intensity", spec.exp.intensity.into()),
        ("seed", spec.exp.seed.into()),
    ];
    fields.extend(match result {
        Ok(out) => {
            let mut series = Vec::new();
            if let Some(obs) = &out.observer {
                for (name, s) in [
                    ("page_by_gpu", &obs.page_by_gpu),
                    ("page_rw", &obs.page_rw),
                    ("scheme_timeline", &obs.scheme_timeline),
                ] {
                    if let Some(s) = s {
                        series.push(series_row(name, s));
                    }
                }
            }
            [
                ("build_seconds", out.timing.build_seconds.into()),
                ("sim_seconds", out.timing.sim_seconds.into()),
                ("workload_cache_hit", out.timing.workload_cache_hit.into()),
                (
                    "events_recorded",
                    out.events.as_ref().map_or(0, Vec::len).into(),
                ),
                (
                    "status",
                    if out.timing.resumed { "resumed" } else { "ok" }.into(),
                ),
                ("error", Json::Null),
                ("metrics", metrics_to_json(&out.metrics)),
                ("series", Json::Arr(series)),
            ]
        }
        Err(err) => [
            ("build_seconds", Json::Float(0.0)),
            ("sim_seconds", Json::Float(0.0)),
            ("workload_cache_hit", false.into()),
            ("events_recorded", Json::UInt(0)),
            ("status", err.status().into()),
            ("error", err.to_string().into()),
            ("metrics", metrics_to_json(&RunMetrics::default())),
            ("series", Json::Arr(Vec::new())),
        ],
    });
    fields.push(("spec", spec.to_run_spec().canonical().into()));
    obj(fields)
}

/// One observer time series: its interval and one row of bucket counters
/// per interval.
fn series_row(name: &str, s: &IntervalSeries) -> Json {
    let rows = s.iter().map(|(_, row)| Json::Arr(row.iter().map(|&v| v.into()).collect()));
    obj(vec![
        ("name", name.into()),
        ("interval_cycles", s.interval_cycles().into()),
        ("rows", Json::Arr(rows.collect())),
    ])
}

/// Records one batch: its cells, its workers, the wall-clock time since
/// `start` and the workload-cache traffic since `cache_before`.
pub fn record_batch(cells: usize, jobs: usize, start: Instant, cache_before: CacheCounters) {
    if !enabled() {
        return;
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    let cache = workload_cache::global().stats();
    state().batches.push(obj(vec![
        ("cells", cells.into()),
        ("jobs", jobs.into()),
        ("wall_seconds", wall_seconds.into()),
        (
            "workload_cache_hits",
            cache.hits.saturating_sub(cache_before.hits).into(),
        ),
        (
            "workload_cache_misses",
            cache.misses.saturating_sub(cache_before.misses).into(),
        ),
    ]));
}

/// Records a target's wall-clock time (the `time:` lines `repro` prints).
pub fn record_target(name: &str, seconds: f64) {
    if !enabled() {
        return;
    }
    state().targets.push(obj(vec![
        ("name", name.into()),
        ("seconds", seconds.into()),
    ]));
}

/// Accumulates one batch's result-store traffic (hits, misses,
/// quarantined files) into the run-wide totals reported under the
/// run report's `store` object.
pub fn record_store(counters: StoreCounters) {
    if !enabled() || !counters.any() {
        return;
    }
    state().store.absorb(counters);
}

/// Assembles the full `run_report.json` document from everything recorded
/// so far. A `profiled` run gets the `profile` object: the wall-clock
/// totals of every phase that recorded a span, then the merged cycle
/// profile. The `store` object of a run without store traffic is left out.
pub fn build_report(exp: &ExpConfig, jobs: usize, total_seconds: f64, profiled: bool) -> Json {
    let st = state();
    let system = SimConfig::default().describe().into_iter().map(|(k, v)| (k, v.into()));
    let mut fields = vec![
        ("schema", RUN_REPORT_SCHEMA.into()),
        ("scale", exp.scale.into()),
        ("intensity", exp.intensity.into()),
        ("seed", exp.seed.into()),
        ("jobs", jobs.into()),
        ("total_seconds", total_seconds.into()),
        ("system", obj(system.collect())),
        ("targets", Json::Arr(st.targets.clone())),
        ("batches", Json::Arr(st.batches.clone())),
        ("cells", Json::Arr(st.cells.clone())),
    ];
    if profiled {
        let wall = grit_prof::phase_totals().into_iter().filter(|t| t.count > 0).map(|t| {
            obj(vec![
                ("phase", t.phase.name().into()),
                ("nanos", t.nanos.into()),
                ("count", t.count.into()),
            ])
        });
        fields.push((
            "profile",
            obj(vec![
                ("wall", Json::Arr(wall.collect())),
                ("cycle", st.cycle.to_json()),
            ]),
        ));
    }
    if st.store.any() {
        fields.push(("store", st.store.to_json()));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::PolicyKind;
    use grit_workloads::App;

    // `enable` is process-global and sticky, so these tests only exercise
    // the disabled path plus pure assembly; the enabled path is covered by
    // the `repro` CLI integration tests, which own their process.

    #[test]
    fn disabled_recording_is_a_no_op() {
        assert!(!enabled(), "nothing in the test binary calls enable()");
        record_target("figX", 1.0);
        assert!(state().targets.is_empty());
    }

    #[test]
    fn empty_report_assembles() {
        let exp = ExpConfig::quick();
        let report = build_report(&exp, 2, 0.0, false);
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some(RUN_REPORT_SCHEMA)
        );
        assert_eq!(report.get("jobs").and_then(Json::as_u64), Some(2));
        assert!(!report.get("system").and_then(Json::as_obj).unwrap().is_empty());
        assert_eq!(
            report.get("cells").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
        assert!(report.get("profile").is_none() && report.get("store").is_none());
        let profiled = build_report(&exp, 2, 0.0, true);
        assert!(profiled.get("profile").unwrap().get("cycle").is_some());
    }

    #[test]
    fn ok_and_error_rows_share_one_key_order() {
        let exp = ExpConfig {
            scale: 0.02,
            intensity: 0.5,
            seed: 0x5EED,
        };
        let spec = CellSpec::new(App::Bfs, PolicyKind::GRIT, &exp);
        let keys = |row: &Json| -> Vec<String> {
            row.as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect()
        };
        let out = spec.run();
        let ok = cell_row(0, &spec, Ok(&out));
        let err = CellError::Panicked {
            message: "boom".into(),
        };
        let failed = cell_row(1, &spec, Err(&err));
        assert_eq!(keys(&ok), keys(&failed));
        assert_eq!(keys(&ok)[..3], ["seq", "app", "policy"]);
        assert_eq!(keys(&ok).last().map(String::as_str), Some("spec"));
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));

        // A failed cell keeps its identity, names its failure and zeroes
        // the outcome.
        assert_eq!(failed.get("seq").and_then(Json::as_u64), Some(1));
        assert_eq!(failed.get("app"), ok.get("app"));
        assert_eq!(failed.get("spec"), ok.get("spec"));
        assert_eq!(
            failed.get("status").and_then(Json::as_str),
            Some("panicked")
        );
        assert_eq!(
            failed.get("error").and_then(Json::as_str),
            Some(err.to_string().as_str())
        );
        let metrics = failed.get("metrics").unwrap();
        assert_eq!(metrics.get("total_cycles").and_then(Json::as_u64), Some(0));
        assert_eq!(
            failed.get("series").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
    }
}
