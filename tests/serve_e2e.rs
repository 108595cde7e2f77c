//! End-to-end campaign-server tests: a real `Server` on an ephemeral
//! port, the production `spec_runner`, and `ServeClient` over TCP.

use std::path::PathBuf;
use std::thread;

use grit::service::{parse_spec_cell, spec_runner};
use grit_serve::{ServeClient, ServeOptions, Server};
use grit_sim::RunSpec;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grit-serve-e2e-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny_spec(app: &str, policy: &str) -> RunSpec {
    RunSpec::new(app, policy).scale(0.02).intensity(0.5).seed(0x5E12)
}

fn campaign() -> Vec<RunSpec> {
    ["GEMM", "BFS"]
        .into_iter()
        .flat_map(|app| ["grit", "on-touch"].map(|p| tiny_spec(app, p)))
        .collect()
}

/// Runs `specs` through a fresh client connection, in declaration
/// order, and returns the per-cell results.
fn run_campaign(addr: std::net::SocketAddr, specs: &[RunSpec]) -> Vec<grit_serve::CellResult> {
    let mut client = ServeClient::connect(addr).expect("connect");
    for (id, spec) in specs.iter().enumerate() {
        client.submit(id as u64, spec).expect("submit");
    }
    let outcome = client.finish().expect("finish");
    assert_eq!(outcome.errors, Vec::<String>::new(), "protocol errors");
    assert_eq!(outcome.done_results, Some(specs.len() as u64));
    outcome.results
}

/// Sends raw request `lines` on a fresh connection, half-closes it, and
/// returns the results that come back before `done`, in id order.
fn raw_results(addr: std::net::SocketAddr, lines: &str) -> Vec<grit_serve::CellResult> {
    use std::io::{BufRead, BufReader, Write};

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(lines.as_bytes()).expect("send");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut results = Vec::new();
    for line in BufReader::new(stream).lines() {
        let v = grit_trace::Json::parse(&line.expect("recv")).expect("JSON line");
        match grit_serve::Response::from_json(&v).expect("v1 response") {
            grit_serve::Response::Result(r) => results.push(r),
            grit_serve::Response::Done { .. } => break,
            _ => {}
        }
    }
    results.sort_by_key(|r| r.id);
    results
}

#[test]
fn campaign_round_trip_hits_the_shared_store_and_keeps_declaration_order() {
    let store = scratch_dir("roundtrip");
    let server = Server::start(
        &ServeOptions::new().jobs(4),
        spec_runner(Some(store.clone()), None),
    )
    .expect("start server");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());

    let specs = campaign();
    // Fresh campaign: every cell simulates, nothing hits the store.
    let first = run_campaign(addr, &specs);
    assert_eq!(first.len(), specs.len());
    for (i, r) in first.iter().enumerate() {
        assert_eq!(r.id, i as u64, "results must arrive in submission order");
        assert_eq!(r.status, "ok", "cell {i}: {:?}", r.error);
        assert!(!r.store_hit, "cell {i} hit a store that should be cold");
        assert!(r.total_cycles > 0);
    }

    // The same campaign again, at the same jobs: everything is served
    // from the store with identical cycles, still in declaration order.
    let second = run_campaign(addr, &specs);
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(b.id, i as u64);
        assert!(b.store_hit, "cell {i} missed the warm store");
        assert_eq!(
            a.total_cycles, b.total_cycles,
            "cell {i} changed cycles between a fresh and a resumed run"
        );
    }

    // A ping on a fresh connection still round-trips while idle.
    let mut prober = ServeClient::connect(addr).expect("connect prober");
    prober.ping().expect("ping");
    prober.shutdown_server().expect("shutdown");
    drop(prober.finish());
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.cells, 2 * specs.len() as u64);
    assert_eq!(summary.store_hits, specs.len() as u64);
    assert_eq!(summary.errors, 0);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn invalid_specs_become_error_results_not_dead_connections() {
    let server =
        Server::start(&ServeOptions::new().jobs(2), spec_runner(None, None)).expect("start server");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());

    let specs = [
        tiny_spec("GEMM", "grit"),
        tiny_spec("QUAKE", "grit"),                  // unknown app
        tiny_spec("BFS", "belady"),                  // unknown policy
        tiny_spec("BFS", "on-touch"),                // healthy again
        tiny_spec("FIR", "grit").timeout_secs(-1.0), // no such duration
        tiny_spec("FIR", "on-touch"),                // healthy again
        tiny_spec("FIR", "grit").inject("outage@0:wire=99:for=10"), // no such wire
        tiny_spec("GEMM", "on-touch"),               // healthy again
    ];
    let results = run_campaign(addr, &specs);
    assert_eq!(results.len(), 8);
    assert_eq!(results[0].status, "ok");
    assert_eq!(results[1].status, "invalid-spec");
    assert!(results[1].error.as_deref().unwrap_or("").contains("QUAKE"));
    assert_eq!(results[2].status, "invalid-spec");
    assert!(results[2].error.as_deref().unwrap_or("").contains("belady"));
    assert_eq!(results[3].status, "ok");
    assert_eq!(results[4].status, "invalid-spec");
    assert!(results[4].error.as_deref().unwrap_or("").contains("timeout_secs"));
    assert_eq!(results[5].status, "ok");
    assert_eq!(results[6].status, "invalid-spec");
    assert!(results[6].error.as_deref().unwrap_or("").contains("wire 99"));
    assert_eq!(results[7].status, "ok");

    // JSON reads `1e400` as infinity: the cell is answered, never built,
    // and the next cell on the same connection still runs.
    let infinite = r#""app":"FIR","policy":"grit","scale":1e400,"intensity":0.5,"seed":24082"#;
    let healthy = r#""app":"FIR","policy":"grit","scale":0.02,"intensity":0.5,"seed":24082"#;
    let raw = raw_results(
        addr,
        &format!(
            "{{\"schema\":\"grit-serve/v1\",\"type\":\"submit\",\"id\":0,\"spec\":{{{infinite}}}}}\n\
             {{\"schema\":\"grit-serve/v1\",\"type\":\"submit\",\"id\":1,\"spec\":{{{healthy}}}}}\n\
             {{\"schema\":\"grit-serve/v1\",\"type\":\"shutdown\"}}\n"
        ),
    );
    let [infinite, next] = &raw[..] else {
        panic!("expected two results, got {raw:?}")
    };
    assert_eq!(infinite.status, "invalid-spec");
    assert!(
        infinite.error.as_deref().unwrap_or("").contains("scale"),
        "{infinite:?}"
    );
    assert_eq!(next.status, "ok", "{:?}", next.error);
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.errors, 5);
}

#[test]
fn traced_cells_stream_their_events_before_the_result() {
    let server =
        Server::start(&ServeOptions::new().jobs(2), spec_runner(None, None)).expect("start server");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());

    // Two traced cells, so an event attached to the wrong result shows.
    let specs = [
        tiny_spec("FIR", "grit").trace(true).trace_filter("fault"),
        tiny_spec("FIR", "on-touch").trace(true).trace_filter("fault"),
    ];
    let mut client = ServeClient::connect(addr).expect("connect");
    for (id, spec) in specs.iter().enumerate() {
        client.submit(id as u64, spec).expect("submit");
    }
    client.shutdown_server().expect("shutdown");
    let outcome = client.finish().expect("finish");
    handle.join().expect("server thread");
    assert_eq!(outcome.results.len(), 2);
    for (spec, served) in specs.iter().zip(&outcome.results) {
        assert!(!served.trace.is_empty(), "a traced cell must carry events");
        for ev in &served.trace {
            assert_eq!(
                ev.get("type").and_then(grit_trace::Json::as_str),
                Some("fault"),
                "the fault filter leaked another category"
            );
        }
        // Each result's events are its own in-process run's, line for line.
        let local = parse_spec_cell(spec).expect("valid spec").run();
        let local = grit_trace::events_to_jsonl(&local.events.expect("traced cell"));
        let served: String = served.trace.iter().map(|ev| format!("{ev}\n")).collect();
        assert_eq!(served, local, "{}", spec.canonical());
    }
    assert_ne!(
        outcome.results[0].trace, outcome.results[1].trace,
        "the two policies fault differently"
    );
}

/// Older clients may still send the retired spec fields `"sim_threads"`,
/// `"check_invariants"` and `"profile"`. The server must accept the line
/// and answer with exactly the counters of the same spec without them.
#[test]
fn submits_carrying_sim_threads_run_like_submits_without_it() {
    let server =
        Server::start(&ServeOptions::new().jobs(2), spec_runner(None, None)).expect("start server");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());

    let spec = r#""app":"FIR","policy":"grit","scale":0.02,"intensity":0.5,"seed":24082"#;
    let results = raw_results(
        addr,
        &format!(
            "{{\"schema\":\"grit-serve/v1\",\"type\":\"submit\",\"id\":0,\"spec\":{{{spec}}}}}\n\
             {{\"schema\":\"grit-serve/v1\",\"type\":\"submit\",\"id\":1,\"spec\":{{{spec},\"sim_threads\":2,\"check_invariants\":true,\"profile\":true}}}}\n\
             {{\"schema\":\"grit-serve/v1\",\"type\":\"shutdown\"}}\n"
        ),
    );
    handle.join().expect("server thread");

    let [plain, legacy] = &results[..] else {
        panic!("expected two results, got {results:?}")
    };
    assert_eq!(plain.status, "ok", "{:?}", plain.error);
    assert_eq!(legacy.status, "ok", "{:?}", legacy.error);
    assert!(plain.total_cycles > 0);
    let counters = |r: &grit_serve::CellResult| {
        (
            r.total_cycles,
            r.accesses,
            r.local_faults,
            r.migrations,
            r.store_hit,
        )
    };
    assert_eq!(counters(plain), counters(legacy));
}
