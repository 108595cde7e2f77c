//! Smoke test: a tiny run of every workload in `BENCHMARK.json`, untraced
//! and traced, passes its output checks and emits exactly the metrics the
//! file lists for that mode, each with its listed unit.

use std::path::Path;
use std::process::Command;

use grit_trace::Json;

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key}"))
}

/// `(name, unit)` of every metric in one section, sorted.
fn listed(doc: &Json, section: &str) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = doc
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing section {section}"))
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
            )
        })
        .collect();
    v.sort();
    v
}

#[test]
fn tiny_runs_emit_every_listed_metric_with_its_unit() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| str_field(w, "name").to_string())
        .collect();
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("run perfbench");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{stderr}"
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let mut got: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(name, m)| (name.clone(), str_field(m, "unit").to_string()))
                .collect();
            got.sort();
            assert_eq!(got, listed(&doc, section), "{workload} trace={trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
