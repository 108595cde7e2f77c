//! End-to-end check of the `repro` observability flags: the trace stream
//! and `run_report.json` must be valid and agree with each other.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use grit_trace::{CycleProfile, EventCategory, Json};

/// Per-test scratch directory: tests run concurrently, so each owns a
/// distinct tree it can wipe freely.
fn scratch_dir_for(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grit-repro-cli-{}-{label}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn trace_and_reports_agree() {
    let dir = scratch_dir_for("trace");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics");
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "fig18",
            "--quick",
            "--jobs",
            "2",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("repro runs");
    assert!(
        status.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );

    // Every trace line parses; events are grouped under cell headers.
    let text = fs::read_to_string(&trace).expect("trace file written");
    let mut per_cell: Vec<HashMap<EventCategory, u64>> = Vec::new();
    let mut declared_events: Vec<u64> = Vec::new();
    let mut seen_in_cell = 0u64;
    for line in text.lines() {
        let v = Json::parse(line).expect("trace line is valid JSON");
        let ty = v.get("type").and_then(Json::as_str).expect("line has a type");
        if ty == "cell" {
            if let Some(expected) = declared_events.last() {
                assert_eq!(seen_in_cell, *expected, "cell header event count");
            }
            let seq = v.get("seq").and_then(Json::as_u64).expect("cell seq");
            assert_eq!(
                seq,
                per_cell.len() as u64,
                "cell sequence numbers are dense"
            );
            declared_events.push(v.get("events").and_then(Json::as_u64).expect("cell events"));
            per_cell.push(HashMap::new());
            seen_in_cell = 0;
        } else {
            let category = EventCategory::parse(ty).expect("event line has a known type");
            *per_cell
                .last_mut()
                .expect("events follow a header")
                .entry(category)
                .or_insert(0) += 1;
            seen_in_cell += 1;
        }
    }
    if let Some(expected) = declared_events.last() {
        assert_eq!(seen_in_cell, *expected, "last cell header event count");
    }
    assert!(!per_cell.is_empty(), "trace holds at least one cell");

    // The run report agrees with the trace, cell by cell.
    let report_text = fs::read_to_string(metrics.join("run_report.json")).expect("run report");
    let report = Json::parse(&report_text).expect("report is valid JSON");
    let field = |key: &str| report.get(key).unwrap_or_else(|| panic!("report has no {key:?}"));
    let list = |key: &str| field(key).as_arr().unwrap_or_else(|| panic!("{key:?} is a list"));
    let cells = list("cells");
    assert_eq!(cells.len(), per_cell.len(), "report and trace cell counts");
    assert_eq!(field("jobs").as_u64(), Some(2));
    assert!(
        !list("targets").is_empty(),
        "per-target time: lines recorded"
    );
    assert!(!list("batches").is_empty(), "batch profiles recorded");
    assert!(
        !field("system").as_obj().expect("system object").is_empty(),
        "system parameters recorded"
    );
    for (cell, counts) in cells.iter().zip(&per_cell) {
        let seq = cell.get("seq").and_then(Json::as_u64).expect("cell seq");
        let faults = cell.get("metrics").and_then(|m| m.get("faults")).expect("fault counters");
        let get = |c: EventCategory| counts.get(&c).copied().unwrap_or(0);
        for (cat, counter) in [
            (EventCategory::Fault, "total_faults"),
            (EventCategory::Migration, "migrations"),
            (EventCategory::Duplication, "duplications"),
            (EventCategory::Collapse, "collapses"),
            (EventCategory::Eviction, "evictions"),
            (EventCategory::SchemeChange, "scheme_changes"),
        ] {
            let expected = faults.get(counter).and_then(Json::as_u64);
            assert_eq!(Some(get(cat)), expected, "cell {seq} {counter}");
        }
        let total: u64 = counts.values().sum();
        let recorded = cell.get("events_recorded").and_then(Json::as_u64);
        assert_eq!(Some(total), recorded, "cell {seq} event total");
    }

    assert!(field("total_seconds").as_f64().expect("total_seconds") > 0.0);

    // The run report is the only file `--metrics-out` writes.
    let written: Vec<String> = fs::read_dir(&metrics)
        .expect("metrics dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(written, ["run_report.json"]);

    let _ = fs::remove_dir_all(&dir);
}

/// `--profile` / `--profile-out` end to end: the report gains a `profile`
/// object, the span trace is Chrome-trace JSON, `repro profile` renders
/// it, and `--metrics-out` refuses to overwrite without `--force`.
#[test]
fn profile_flags_end_to_end() {
    let dir = scratch_dir_for("profile");
    fs::create_dir_all(&dir).expect("create profile scratch dir");
    let prof = dir.join("prof.json");
    let run = |extra: &[&str]| {
        let mut args = vec!["fig18", "--quick", "--jobs", "1"];
        args.extend_from_slice(extra);
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .output()
            .expect("repro runs")
    };

    let dir_s = dir.to_str().unwrap().to_string();
    let out = run(&[
        "--profile",
        "--profile-out",
        prof.to_str().unwrap(),
        "--metrics-out",
        &dir_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // run_report.json carries the profile object.
    let report_text = fs::read_to_string(dir.join("run_report.json")).expect("run report");
    let report = Json::parse(&report_text).expect("valid JSON");
    let profile = report.get("profile").expect("--profile adds the profile object");
    let wall = profile.get("wall").and_then(Json::as_arr).expect("wall rows");
    assert!(!wall.is_empty(), "phase totals recorded");
    let samples = |name: &str| {
        let h = profile.get("cycle").and_then(|c| c.get(name)).expect(name);
        h.get("samples").and_then(Json::as_u64).expect("samples")
    };
    assert!(
        samples("fault_occupancy") > 0,
        "cycle-domain histograms populated"
    );

    // The span trace is well-formed Chrome trace-event JSON.
    let trace = Json::parse(&fs::read_to_string(&prof).expect("profile trace written"))
        .expect("trace is valid JSON");
    let events = trace.get("traceEvents").expect("traceEvents key");
    match events {
        Json::Arr(evs) => assert!(!evs.is_empty(), "span events recorded"),
        _ => panic!("traceEvents is not an array"),
    }

    // The text renderer accepts the report.
    let rendered = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["profile", dir.join("run_report.json").to_str().unwrap()])
        .output()
        .expect("repro profile runs");
    assert!(rendered.status.success());
    let text = String::from_utf8_lossy(&rendered.stdout);
    assert!(text.contains("wall-clock phases"), "{text}");
    assert!(text.contains("fault_occupancy"), "{text}");

    // Overwrite guard: same --metrics-out dir fails without --force.
    let refused = run(&["--metrics-out", &dir_s]);
    assert!(!refused.status.success(), "overwrite must be refused");
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("--force"),
        "refusal names the escape hatch"
    );
    let forced = run(&["--metrics-out", &dir_s, "--force"]);
    assert!(forced.status.success(), "--force overwrites");

    let _ = fs::remove_dir_all(&dir);
}

/// Runs `repro` with `args`, which it must reject before any target
/// runs: a nonzero exit and nothing on stdout. Returns stderr.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "{args:?} must be rejected");
    assert_eq!(out.status.code(), Some(1), "{args:?}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: a target ran before the rejection"
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A command that a later flag or an unknown target rejects creates
/// neither the `--csv` nor the `--metrics-out` directory.
#[test]
fn rejected_commands_leave_no_output_directory() {
    let dir = scratch_dir_for("rejected-dirs");
    for flag in ["--csv", "--metrics-out"] {
        for cause in [&["--jobs", "0"][..], &["fig99"]] {
            let out = dir.join(flag.trim_start_matches('-'));
            let mut args = vec!["fig4", "--quick", flag, out.to_str().unwrap()];
            args.extend(cause);
            rejected(&args);
            assert!(!out.exists(), "{args:?} left {} behind", out.display());
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `repro profile` reads a report's `schema` tag and `profile` object
/// only, and refuses every schema but the current one with one stderr
/// line naming the tag it found.
#[test]
fn profile_rejects_other_report_schemas() {
    let dir = scratch_dir_for("profile-schema");
    let path = dir.join("run_report.json");
    let write = |tag: &str| {
        let report = Json::Obj(vec![
            ("schema".into(), Json::Str(tag.into())),
            (
                "profile".into(),
                Json::Obj(vec![
                    ("wall".into(), Json::Arr(Vec::new())),
                    ("cycle".into(), CycleProfile::default().to_json()),
                ]),
            ),
        ]);
        fs::write(&path, report.to_string()).expect("write report");
    };
    let path_arg = path.to_str().unwrap();
    for tag in ["grit-run-report/v8", "grit-run-report/v999"] {
        write(tag);
        let stderr = rejected(&["profile", path_arg]);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.contains(tag), "{stderr}");
    }
    write("grit-run-report/v9");
    assert!(succeeded(&["profile", path_arg]).contains("fault_occupancy"));
    let _ = fs::remove_dir_all(&dir);
}

/// An unknown flag is rejected while the arguments are parsed, before any
/// target runs.
#[test]
fn unknown_flag_is_rejected_before_any_target_runs() {
    for flag in ["--threshold", "--bogus-flag", "--check-invariants"] {
        let stderr = rejected(&["fig4", "--quick", flag, "300"]);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
}

/// Every value flag rejects a missing or malformed value while the
/// arguments are read, and the message names the flag.
#[test]
fn malformed_flag_values_are_rejected_naming_the_flag() {
    for (flag, value) in [
        ("--jobs", Some("0")),
        ("--trace-sample", Some("0")),
        ("--store-max-bytes", Some("0")),
        ("--port", Some("70000")),
        ("--max-queued", Some("x")),
        ("--seed", Some("-1")),
        ("--trace-filter", Some("bogus")),
        ("--scale", None),
    ] {
        let mut args = vec!["fig4", "--quick", flag];
        args.extend(value);
        let stderr = rejected(&args);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

/// A cell budget that is no representable duration is rejected while the
/// arguments are parsed, not panicked on when the first batch starts.
#[test]
fn unrepresentable_cell_timeout_is_rejected() {
    for secs in ["inf", "1e300"] {
        let stderr = rejected(&["fig4", "--quick", "--cell-timeout", secs]);
        assert!(stderr.contains("invalid timeout_secs"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// The configuration the flags make is checked as a whole before anything
/// is built: a scale or intensity that is not a finite positive number,
/// and overrides that each parse but conflict, exit 1 naming the field.
#[test]
fn bad_configurations_are_rejected_before_any_target_runs() {
    for (args, field) in [
        (&["--scale", "inf"][..], "invalid scale"),
        (&["--intensity", "nan"], "invalid intensity"),
        (
            &["--page-size", "2097152", "--page-size-mode", "mixed"],
            "invalid page_size_mode",
        ),
        (
            &["--inject", "outage@0:wire=99:for=10"],
            "wire 99 out of range",
        ),
    ] {
        let mut argv = vec!["fig4", "--quick", "--jobs", "2"];
        argv.extend(args);
        let stderr = rejected(&argv);
        assert!(stderr.contains(field), "{argv:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
    }
}

/// Every positional target is resolved before any runs: an unknown name
/// after a valid one fails without printing the valid one's table.
#[test]
fn unknown_target_is_rejected_before_any_target_runs() {
    let stderr = rejected(&["fig4", "fig99", "--quick"]);
    assert!(stderr.contains("unknown figure: fig99"), "{stderr}");
}

/// The removed second large-page mode is an unknown mode, not an alias
/// of `mixed`.
#[test]
fn removed_page_size_mode_is_rejected() {
    let stderr = rejected(&["fig18", "--quick", "--page-size-mode", "uniform2m"]);
    assert!(
        stderr.contains("expected one of uniform4k, mixed"),
        "{stderr}"
    );
}

/// `dump-trace` accepts every app the simulator runs, the extension
/// workloads included, and `trace-info` reads each dump back.
#[test]
fn dump_trace_round_trips_every_app_kind() {
    let dir = scratch_dir_for("dump-trace");
    for app in ["SPMV", "GEMM"] {
        let path = dir.join(format!("{app}.bin"));
        let path = path.to_str().unwrap();
        let dump = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["dump-trace", app, path, "--quick"])
            .output()
            .expect("repro runs");
        assert!(
            dump.status.success(),
            "dump-trace {app}: {}",
            String::from_utf8_lossy(&dump.stderr)
        );
        let info = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["trace-info", path])
            .output()
            .expect("repro runs");
        assert!(
            info.status.success(),
            "trace-info {app}: {}",
            String::from_utf8_lossy(&info.stderr)
        );
        let stdout = String::from_utf8_lossy(&info.stdout);
        assert!(stdout.contains(&format!("app:        {app}\n")), "{stdout}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Runs `repro` with `args`, which must exit 0. Returns stdout.
fn succeeded(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `repro validate` exits 1 when a generator drifts from its band, with
/// one stderr line saying so, and 0 when every band holds.
#[test]
fn validate_exits_nonzero_on_drift() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["validate", "--scale", "0.001", "--intensity", "0.2"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("DRIFTED"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().filter(|l| l.contains("drifted")).collect();
    assert_eq!(
        lines,
        ["[repro] at least one generator drifted from its band"],
        "{stderr}"
    );
    let ok = succeeded(&["validate", "--quick"]);
    assert!(!ok.contains("DRIFTED"), "{ok}");
}

/// Figs. 4 and 9 read page attributes from the trace, so their report
/// has no cell rows.
#[test]
fn attribute_figures_simulate_no_cells() {
    let dir = scratch_dir_for("fig4-fig9");
    let stdout = succeeded(&[
        "fig4",
        "fig9",
        "--quick",
        "--metrics-out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        stdout.contains("Fig 4:") && stdout.contains("Fig 9:"),
        "{stdout}"
    );
    let report = Json::parse(&fs::read_to_string(dir.join("run_report.json")).unwrap()).unwrap();
    let cells = report.get("cells").and_then(Json::as_arr).expect("cells array");
    assert!(cells.is_empty(), "{} cell rows", cells.len());
    let _ = fs::remove_dir_all(&dir);
}

/// fig10's observed run goes through the batch executor, so a cell
/// budget no run can meet yields the one-cell error table.
#[test]
fn fig10_honours_the_cell_timeout() {
    let out = succeeded(&["fig10", "--quick", "--cell-timeout", "0.0001"]);
    assert!(out.contains("(cell failed)"), "{out}");
    assert!(out.contains("err!"), "{out}");
}

/// Every observed figure runs each of its cells once, and each cell row
/// carries only the series its observer asked for: the tracked-page
/// pair for Figs. 5 and 10, none for the grids of Figs. 6-8 (they are
/// not report series), the scheme timeline for the adaptation timeline.
#[test]
fn observed_figures_write_one_row_per_cell() {
    let dir = scratch_dir_for("observed");
    succeeded(&[
        "fig5",
        "fig6",
        "fig10",
        "adapt",
        "--quick",
        "--metrics-out",
        dir.to_str().unwrap(),
    ]);
    let report = Json::parse(&fs::read_to_string(dir.join("run_report.json")).unwrap()).unwrap();
    let rows: Vec<(String, Vec<String>)> = report
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells array")
        .iter()
        .map(|cell| {
            let app = cell.get("app").and_then(Json::as_str).unwrap().to_string();
            let series = cell.get("series").and_then(Json::as_arr).unwrap();
            let names = series.iter().map(|s| s.get("name").and_then(Json::as_str).unwrap());
            (app, names.map(String::from).collect())
        })
        .collect();
    let tracked = || vec!["page_by_gpu".to_string(), "page_rw".to_string()];
    let timeline = || vec!["scheme_timeline".to_string()];
    let expected = [
        ("C2D", tracked()),
        ("ST", tracked()),
        ("GEMM", vec![]),
        ("ST", vec![]),
        ("ST", tracked()),
        ("GEMM", timeline()),
        ("ST", timeline()),
    ]
    .map(|(app, names)| (app.to_string(), names));
    assert_eq!(rows, expected);
    let _ = fs::remove_dir_all(&dir);
}

/// A GRIT recipe that parses but names a policy that cannot be built is
/// an unknown policy: rejected before any cell runs.
#[test]
fn submit_rejects_unbuildable_grit_recipes() {
    for policy in [
        "grit(pa-cache=0)",
        "grit(pa-cache=6)",
        "grit(t=0,cache=true,nap=true)",
    ] {
        let args = [
            "submit",
            "--local",
            "--apps",
            "FIR",
            "--policies",
            policy,
            "--quick",
        ];
        let stderr = rejected(&args);
        assert!(stderr.contains("unknown policy"), "{policy}: {stderr}");
    }
}

/// `repro submit` prints a failed cell as `err!`, as the figure tables
/// do, never as a zero cycle count; the process exits 1.
#[test]
fn submit_renders_failed_cells_as_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "submit",
            "--local",
            "--apps",
            "FIR",
            "--policies",
            "on-touch,grit",
        ])
        .args(["--quick", "--jobs", "1", "--cell-timeout", "0.0001"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("err!"), "{stdout}");
    assert!(!stdout.contains("0.000"), "{stdout}");
}

/// `repro stats` runs its 8 x 5 grid as one batch: a failed cell prints
/// an `APP POLICY err!` line in its place and the process still exits 0.
#[test]
fn stats_renders_failed_cells_as_error_rows() {
    let out = succeeded(&["stats", "--quick", "--cell-timeout", "0.0001"]);
    assert_eq!(out.lines().count(), 40, "{out}");
    assert!(
        out.lines().any(|l| l.starts_with("BFS   on-touch         err!")),
        "{out}"
    );
}

/// fig10's one observed cell lands in the result store, so a second run
/// serves it without simulating.
#[test]
fn fig10_cells_resume_from_the_store() {
    let dir = scratch_dir_for("fig10-resume");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let metrics = dir.join("metrics");
    let metrics = metrics.to_str().unwrap();
    let first = succeeded(&["fig10", "--quick", "--resume-dir", store]);
    let second = succeeded(&[
        "fig10",
        "--quick",
        "--resume-dir",
        store,
        "--metrics-out",
        metrics,
        "--force",
    ]);
    assert_eq!(first, second);
    let text = fs::read_to_string(dir.join("metrics/run_report.json")).expect("report written");
    let report = Json::parse(&text).expect("valid JSON");
    let store = report.get("store").expect("store counters recorded");
    let count = |key: &str| store.get(key).and_then(Json::as_u64);
    assert_eq!((count("hits"), count("misses")), (Some(1), Some(0)));
    let _ = fs::remove_dir_all(&dir);
}

/// Kills and reaps a child process when dropped, so a failing test
/// leaves no server behind.
struct Reaped(std::process::Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `repro serve` on an ephemeral port with `args`, and returns it
/// with its address once the port file names one.
fn spawn_server(dir: &std::path::Path, args: &[&str]) -> (Reaped, String) {
    let port_file = dir.join("port.txt");
    let mut server = Reaped(
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["serve", "--port", "0", "--jobs", "1", "--port-file"])
            .arg(&port_file)
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn repro serve"),
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let text = fs::read_to_string(&port_file).unwrap_or_default();
        if !text.trim().is_empty() {
            return (server, text.trim().to_string());
        }
        assert!(
            server.0.try_wait().expect("poll server").is_none(),
            "server exited early"
        );
        assert!(std::time::Instant::now() < deadline, "no port file");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// `repro serve` keeps its results in the batch store directory, so
/// `--resume-dir` chooses it as `--store` does.
#[test]
fn serve_stores_results_under_the_resume_dir() {
    let dir = scratch_dir_for("serve-resume-dir");
    let store = dir.join("store");
    let (mut server, addr) = spawn_server(&dir, &["--resume-dir", store.to_str().unwrap()]);
    let out = succeeded(&[
        "submit",
        "--connect",
        &addr,
        "--apps",
        "GEMM",
        "--scale",
        "0.02",
        "--intensity",
        "0.5",
        "--shutdown",
    ]);
    assert!(out.contains("GEMM"), "{out}");
    assert!(server.0.wait().expect("server exits").success());
    let stored = fs::read_dir(&store)
        .expect("store directory written")
        .filter(|e| e.as_ref().expect("dir entry").path().extension() == Some("json".as_ref()))
        .count();
    assert_eq!(stored, 1, "one cell, one store file");
    let _ = fs::remove_dir_all(&dir);
}

/// A served spec runs exactly the machine it names: the server's own
/// machine flags do not reach it, so a campaign over `--connect` prints
/// what the same campaign prints through `--local`.
#[test]
fn served_specs_ignore_the_server_machine_flags() {
    let dir = scratch_dir_for("serve-machine-flags");
    let store = dir.join("store");
    let (mut server, addr) = spawn_server(
        &dir,
        &[
            "--topology",
            "ring",
            "--page-size-mode",
            "mixed",
            "--store",
            store.to_str().unwrap(),
        ],
    );
    let campaign = ["--apps", "BFS", "--policies", "grit", "--quick"];
    for machine in [&[][..], &["--topology", "nvswitch:4"][..]] {
        let local = succeeded(&[&["submit", "--local"][..], &campaign, machine].concat());
        let served = succeeded(
            &[
                &["submit", "--connect", addr.as_str()][..],
                &campaign,
                machine,
            ]
            .concat(),
        );
        assert_eq!(served, local, "{machine:?}");
    }
    succeeded(&["submit", "--connect", &addr, "--shutdown"]);
    assert!(server.0.wait().expect("server exits").success());
    let _ = fs::remove_dir_all(&dir);
}

/// CI checks the schema tags of the files `repro` writes with `jq`; each
/// tag it names must be the one the code writes, or the step fails.
#[test]
fn ci_names_the_current_schema_tags() {
    let ci = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/.github/workflows/ci.yml"
    ))
    .expect("read ci.yml");
    for current in [
        grit::experiments::result_store::STORE_SCHEMA,
        grit_trace::report::RUN_REPORT_SCHEMA,
    ] {
        let (family, _) = current.rsplit_once('/').expect("schema tags are `name/vN`");
        let prefix = format!("{family}/v");
        let named: Vec<String> = ci
            .match_indices(&prefix)
            .map(|(at, _)| {
                let digits = ci[at + prefix.len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>();
                format!("{prefix}{digits}")
            })
            .collect();
        assert!(!named.is_empty(), "ci.yml checks no {family} tag");
        for tag in named {
            assert_eq!(tag, current, "ci.yml names a stale {family} tag");
        }
    }
}
