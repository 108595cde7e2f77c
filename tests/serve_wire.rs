//! Wire-schema pins for `grit-serve/v1`.
//!
//! The golden fixture `tests/golden/serve_v1.jsonl` holds one line per
//! protocol message. Each line must (a) parse into the typed message,
//! (b) re-serialize byte-identically, so the on-the-wire encoding can
//! never drift silently. Re-bless after an intentional protocol change:
//! `GRIT_BLESS=1 cargo test --test serve_wire`.

use std::fs;
use std::path::PathBuf;

use grit_serve::{CellResult, Request, Response};
use grit_sim::RunSpec;
use grit_trace::Json;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_v1.jsonl")
}

/// One of every message, exercising both sparse and fully-loaded specs.
fn exemplar_lines() -> Vec<String> {
    let plain = RunSpec::new("GEMM", "grit");
    let loaded = RunSpec::new("BFS", "on-touch")
        .scale(0.25)
        .intensity(1.5)
        .seed(42)
        .gpus(8)
        .page_size(2 * 1024 * 1024)
        .topology("nvswitch")
        .inject("retire@10:gpu=0:frames=1")
        .timeout_secs(30.0)
        .trace(true)
        .trace_filter("fault,migration")
        .trace_sample(16);
    let requests = [
        Request::Submit { id: 0, spec: plain },
        Request::Submit {
            id: 1,
            spec: loaded,
        },
        Request::Ping,
        Request::Shutdown,
    ];
    let responses = [
        Response::Hello {
            version: "0.1.0".into(),
        },
        Response::Accepted { id: 0 },
        Response::Progress {
            id: 0,
            state: "running".into(),
        },
        Response::Trace {
            id: 1,
            event: Json::Obj(vec![
                ("type".into(), Json::Str("fault".into())),
                ("cycle".into(), Json::UInt(1024)),
            ]),
        },
        Response::Result({
            let mut r = CellResult::default();
            r.status = "ok".into();
            r.store_hit = true;
            r.total_cycles = 140_740;
            r.accesses = 65_536;
            r.local_faults = 128;
            r.migrations = 32;
            r.sim_seconds = 0.125;
            r
        }),
        Response::Result({
            let mut r = CellResult::default();
            r.id = 1;
            r.status = "timed-out".into();
            r.error = Some("cell exceeded its 30s budget".into());
            r
        }),
        Response::Pong,
        Response::Error {
            id: Some(7),
            message: "unknown app 'quake'".into(),
        },
        Response::Done { results: 2 },
    ];
    requests
        .iter()
        .map(|r| r.to_json().to_string())
        .chain(responses.into_iter().map(|r| r.into_json().to_string()))
        .collect()
}

#[test]
fn golden_v1_lines_parse_and_reserialize_byte_identically() {
    let actual: String = exemplar_lines().iter().map(|l| format!("{l}\n")).collect();
    let path = golden_path();
    if std::env::var_os("GRIT_BLESS").is_some() {
        fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "the grit-serve/v1 encoding drifted from tests/golden/serve_v1.jsonl"
    );
    // Every fixture line must survive a full parse -> reserialize loop.
    for line in expected.lines() {
        let v = Json::parse(line).expect("fixture line is JSON");
        let reserialized = match Request::from_json(&v) {
            Ok(req) => req.to_json().to_string(),
            Err(_) => Response::from_json(&v)
                .unwrap_or_else(|e| panic!("unparseable fixture line {line}: {e}"))
                .into_json()
                .to_string(),
        };
        assert_eq!(reserialized, line, "round trip changed the bytes");
    }
}

#[test]
fn unknown_fields_from_a_newer_peer_are_ignored() {
    // A hypothetical v1.1 server/client may add fields; v1 must parse
    // the line and drop what it does not know.
    let future_result = r#"{"schema":"grit-serve/v1","type":"result","id":3,"status":"ok",
        "store_hit":false,"total_cycles":9,"accesses":9,"local_faults":0,"migrations":0,
        "sim_seconds":0.5,"energy_joules":12.5,"carbon_grams":0.01}"#;
    let resp = Response::from_json(&Json::parse(future_result).unwrap()).unwrap();
    let Response::Result(r) = resp else {
        panic!("parsed as {resp:?}")
    };
    assert_eq!((r.id, r.total_cycles), (3, 9));

    let future_submit = r#"{"schema":"grit-serve/v1","type":"submit","id":1,"priority":"high",
        "spec":{"app":"FIR","policy":"ideal","scale":0.5,"gpu_clock_mhz":1410}}"#;
    let req = Request::from_json(&Json::parse(future_submit).unwrap()).unwrap();
    let Request::Submit { spec, .. } = req else {
        panic!("parsed as {req:?}")
    };
    assert_eq!(spec.app, "FIR");
    assert_eq!(spec.scale, 0.5);
    // Unknown spec fields fall back to defaults, not errors.
    assert_eq!(spec.seed, grit_sim::spec::DEFAULT_SEED);
}

#[test]
fn missing_required_fields_are_rejected_with_field_names() {
    let no_spec = r#"{"schema":"grit-serve/v1","type":"submit","id":1}"#;
    let err = Request::from_json(&Json::parse(no_spec).unwrap()).unwrap_err();
    assert!(err.contains("spec"), "unhelpful error: {err}");
    let no_policy = r#"{"schema":"grit-serve/v1","type":"submit","id":1,"spec":{"app":"BFS"}}"#;
    let err = Request::from_json(&Json::parse(no_policy).unwrap()).unwrap_err();
    assert!(err.contains("policy"), "unhelpful error: {err}");
}
