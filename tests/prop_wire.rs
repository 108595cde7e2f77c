//! Property tests for the `grit-serve/v1` wire protocol under hostile
//! input: random garbage, truncated submit lines, and structured
//! mutations of valid requests. Two invariants, checked against both
//! the parser in isolation and a live server:
//!
//! * parsing never panics — every malformed line becomes an `Err`;
//! * a malformed line costs exactly one `error` response, and the
//!   connection (and server) keep working: a valid submission on the
//!   same connection still runs to an ordered `result` + `done`.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use grit_serve::{CellResult, Request, Response, ServeOptions, Server, SpecRunner};
use grit_sim::RunSpec;
use grit_trace::Json;
use proptest::prelude::*;

/// One stub-backed server shared by every generated case; it is never
/// shut down (the test process exit reaps it), which is itself part of
/// the property — hundreds of malformed lines must not wedge it.
fn shared_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let runner: SpecRunner = Arc::new(|spec: &RunSpec| {
            let mut res = CellResult::default();
            res.total_cycles = spec.seed;
            Ok(res)
        });
        let server = Server::start(&ServeOptions::new().jobs(2), runner).expect("start server");
        let addr = server.local_addr();
        std::thread::spawn(move || server.run());
        addr
    })
}

fn valid_submit_line(id: u64) -> String {
    let spec = RunSpec::new("GEMM", "grit").seed(id);
    format!("{}\n", Request::Submit { id, spec }.to_json())
}

/// Does this byte sequence parse as a well-formed request line? Such
/// (astronomically unlikely for garbage, by construction for the
/// mutation corpus) cases are assumed away: they would be *accepted*,
/// not answered with an error.
fn parses_as_request(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let text = text.trim();
    !text.is_empty() && Json::parse(text).ok().is_some_and(|v| Request::from_json(&v).is_ok())
}

/// Lines that the server ignores outright (blank after trimming) get no
/// error response and are assumed away too.
fn trims_empty(bytes: &[u8]) -> bool {
    String::from_utf8_lossy(bytes).trim().is_empty()
}

fn garbage_line() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..64).prop_map(|mut bytes| {
        bytes.retain(|&b| b != b'\n');
        bytes.push(b'\n');
        bytes
    })
}

/// A valid submit line cut to a proper prefix — the torn final write of
/// a dying client.
fn truncated_line() -> impl Strategy<Value = Vec<u8>> {
    (0u64..1000, 0.0f64..1.0).prop_map(|(id, frac)| {
        let line = valid_submit_line(id);
        let body = line.trim_end();
        let cut = 1 + ((body.len() - 2) as f64 * frac) as usize;
        let mut bytes = body.as_bytes()[..cut].to_vec();
        bytes.push(b'\n');
        bytes
    })
}

/// Well-formed JSON that violates the request schema in one targeted
/// way: unknown or mistyped `type`, wrong or null `schema`, mistyped
/// `id` or `spec`.
fn mutated_line() -> impl Strategy<Value = Vec<u8>> {
    (0u64..1000, 0usize..6).prop_map(|(id, kind)| {
        let line = valid_submit_line(id);
        let mutated = match kind {
            0 => line.replacen("\"type\":\"submit\"", "\"type\":\"frobnicate\"", 1),
            1 => line.replacen("\"type\":\"submit\"", "\"type\":42", 1),
            2 => line.replacen("grit-serve/v1", "grit-serve/v9", 1),
            3 => line.replacen("\"grit-serve/v1\"", "null", 1),
            4 => line.replacen(&format!("\"id\":{id}"), &format!("\"id\":\"{id}\""), 1),
            _ => line.replacen("\"spec\":", "\"spec\":7,\"junk\":", 1),
        };
        mutated.into_bytes()
    })
}

/// Sends `bad` followed by a valid submission on one connection and
/// asserts the canonical reaction: one `error` (before the valid cell's
/// acknowledgement), the valid cell's `result`, and a `done` for
/// exactly one accepted submission.
fn assert_survives(bad: &[u8]) -> Result<(), TestCaseError> {
    let stream = TcpStream::connect(shared_server()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut write = stream.try_clone().expect("clone");
    write.write_all(bad).expect("write bad line");
    write.write_all(valid_submit_line(77).as_bytes()).expect("write valid line");
    write.shutdown(Shutdown::Write).expect("half-close");

    let mut errors = 0usize;
    let mut seen = Vec::new();
    let mut result_cycles = None;
    let mut done = None;
    for raw in BufReader::new(stream).lines() {
        let raw = raw.expect("read response line");
        let v = Json::parse(&raw).expect("response line is JSON");
        let resp = Response::from_json(&v).expect("response parses");
        match resp {
            Response::Error { id: None, .. } => errors += 1,
            Response::Result(r) => {
                prop_assert_eq!(r.id, 77u64, "result for the wrong cell");
                result_cycles = Some(r.total_cycles);
            }
            Response::Done { results } => {
                done = Some(results);
                break;
            }
            _ => {}
        }
        seen.push(raw);
    }
    prop_assert_eq!(
        errors,
        1usize,
        "malformed line must cost exactly one error: {:?}",
        seen
    );
    prop_assert_eq!(
        result_cycles,
        Some(77u64),
        "valid cell after the bad line must still run"
    );
    prop_assert_eq!(
        done,
        Some(1u64),
        "done must count only the accepted submission"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn garbage_parses_to_error_not_panic(bytes in garbage_line()) {
        // The parse itself must not panic, whatever the bytes.
        let _ = Json::parse(&String::from_utf8_lossy(&bytes)).map(|v| Request::from_json(&v));
        prop_assume!(!trims_empty(&bytes) && !parses_as_request(&bytes));
        assert_survives(&bytes)?;
    }

    #[test]
    fn truncated_submit_parses_to_error_not_panic(bytes in truncated_line()) {
        prop_assert!(!parses_as_request(&bytes), "a proper prefix must not parse");
        assert_survives(&bytes)?;
    }

    #[test]
    fn schema_violations_parse_to_error_not_panic(bytes in mutated_line()) {
        prop_assert!(!parses_as_request(&bytes), "every mutation must break the schema");
        assert_survives(&bytes)?;
    }
}
