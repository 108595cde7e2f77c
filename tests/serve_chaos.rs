//! Chaos tests for the campaign service: every fault is injected on a
//! deterministic byte/line schedule (via [`grit_serve::ChaosProxy`]) or
//! through explicit process control (SIGKILL, gated runners), so each
//! scenario replays identically at `--jobs 1` and `--jobs 4`.
//!
//! Covered invariants:
//!
//! * A campaign severed mid-submission and finished by
//!   `repro submit --retry` against a restarted server (same port, same
//!   store, the original SIGKILLed) renders a byte-identical table —
//!   even when the retry connection duplicates every response line.
//! * Corrupted store entries are quarantined exactly once, re-run, and
//!   surfaced through the client-visible counters.
//! * A client that stops reading is cut loose (bounded sink + write
//!   timeout) while concurrent clients keep declaration order.
//! * An over-bound queue answers `busy` + `retry_after_ms`, and backing
//!   off then resubmitting succeeds.
//! * A runner's `Ok` result reaches the client as `"ok"`.
//! * A request stream truncated mid-line yields a per-line `error`
//!   response and the server keeps serving.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use grit_serve::{
    CellResult, ChaosFault, ChaosProxy, Request, Response, ServeClient, ServeOptions, Server,
    SpecRunner,
};
use grit_sim::RunSpec;
use grit_trace::Json;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grit-chaos-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const EXP_FLAGS: [&str; 6] = ["--scale", "0.02", "--intensity", "0.5", "--seed", "4919"];

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// `repro submit --local`: the uninterrupted reference rendering.
fn submit_local(jobs: &str, apps: &str) -> String {
    let out = repro()
        .arg("submit")
        .arg("--local")
        .args(["--jobs", jobs])
        .args(["--apps", apps])
        .args(["--policies", "grit,on-touch"])
        .args(EXP_FLAGS)
        .output()
        .expect("run repro submit --local");
    assert!(
        out.status.success(),
        "submit --local failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout utf8")
}

fn spawn_server(port: u16, port_file: &PathBuf, store: &PathBuf, jobs: &str) -> Child {
    repro()
        .arg("serve")
        .args(["--port", &port.to_string()])
        .arg("--port-file")
        .arg(port_file)
        .arg("--store")
        .arg(store)
        .args(["--jobs", jobs])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro serve")
}

fn wait_for_port(port_file: &PathBuf, server: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        if let Some(status) = server.try_wait().expect("poll server") {
            panic!("server exited early: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote {port_file:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }
}

/// An OS-assigned free port the next bind can (racily but reliably in
/// practice) reuse — needed so a killed server can be restarted at the
/// address the chaos proxy targets.
fn free_port() -> u16 {
    TcpListener::bind(("127.0.0.1", 0))
        .expect("probe bind")
        .local_addr()
        .unwrap()
        .port()
}

fn shutdown_server(addr: &str, server: &mut Child) {
    let out = repro()
        .arg("submit")
        .args(["--connect", addr])
        .arg("--shutdown")
        .output()
        .expect("run repro submit --shutdown");
    assert!(
        out.status.success(),
        "shutdown failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = server.wait();
}

/// SIGKILL a campaign server after it persisted part of the campaign,
/// restart it on the same port and store, and finish the whole campaign
/// with `repro submit --retry` through a chaos proxy that severs the
/// first connection mid-submission and duplicates every response line
/// of the second. The table must match the uninterrupted run byte for
/// byte, with the pre-kill cells arriving as store hits.
fn kill_retry_scenario(jobs: &str) {
    let scratch = scratch_dir(&format!("kill-retry-{jobs}"));
    let store = scratch.join("store");
    let reference = submit_local(jobs, "GEMM,BFS");
    assert!(
        reference.contains("campaign total cycles"),
        "unexpected table: {reference}"
    );

    let port = free_port();
    let port_file_a = scratch.join("port-a.txt");
    let mut server_a = spawn_server(port, &port_file_a, &store, jobs);
    let addr = wait_for_port(&port_file_a, &mut server_a);

    // Half the campaign lands in the store...
    let out = repro()
        .arg("submit")
        .args(["--connect", &addr])
        .args(["--apps", "GEMM"])
        .args(["--policies", "grit,on-touch"])
        .args(EXP_FLAGS)
        .output()
        .expect("run repro submit");
    assert!(
        out.status.success(),
        "partial submit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // ... then the server dies without cleanup and is restarted on the
    // same port over the same store.
    server_a.kill().expect("SIGKILL server");
    let _ = server_a.wait();
    let port_file_b = scratch.join("port-b.txt");
    let mut server_b = spawn_server(port, &port_file_b, &store, jobs);
    let addr_b = wait_for_port(&port_file_b, &mut server_b);
    assert_eq!(addr_b, addr, "restart did not reuse the port");

    // Attempt 1 is severed after 64 request bytes (mid first submit
    // line); attempt 2 goes through but every response line arrives
    // twice, so resolution must be idempotent.
    let target: SocketAddr = addr.parse().expect("server addr");
    let proxy = ChaosProxy::start(
        target,
        vec![
            ChaosFault::CloseAfterRequestBytes(64),
            ChaosFault::DuplicateResponseLines,
        ],
    )
    .expect("start chaos proxy");

    let out = repro()
        .arg("submit")
        .arg("--retry")
        .args(["--connect", &proxy.local_addr().to_string()])
        .args(["--apps", "GEMM,BFS"])
        .args(["--policies", "grit,on-touch"])
        .args(EXP_FLAGS)
        .env("GRIT_SUBMIT_RETRY_BASE_MS", "50")
        .output()
        .expect("run repro submit --retry");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "retry submit failed: {stderr}");
    let table = String::from_utf8(out.stdout).expect("stdout utf8");
    assert_eq!(
        table, reference,
        "kill-and-retry table differs from the uninterrupted run"
    );
    assert!(
        stderr.contains("retrying in"),
        "expected a retry on stderr, got: {stderr}"
    );
    assert!(
        stderr.contains("2 store hits"),
        "expected the pre-kill cells as store hits, got: {stderr}"
    );

    drop(proxy);
    shutdown_server(&addr, &mut server_b);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn sigkilled_server_plus_retry_renders_byte_identical_table_jobs_1() {
    kill_retry_scenario("1");
}

#[test]
fn sigkilled_server_plus_retry_renders_byte_identical_table_jobs_4() {
    kill_retry_scenario("4");
}

/// Store files in the top-level store directory (quarantined files are
/// moved into `quarantine/` and must not be counted here).
fn store_entries(store: &PathBuf) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(store)
        .expect("read store dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    entries
}

#[test]
fn corrupt_store_entries_are_quarantined_once_and_rerun() {
    let scratch = scratch_dir("quarantine");
    let store = scratch.join("store");
    let port_file = scratch.join("port.txt");
    let mut server = spawn_server(0, &port_file, &store, "2");
    let addr = wait_for_port(&port_file, &mut server);

    let campaign = |label: &str| -> (String, String) {
        let out = repro()
            .arg("submit")
            .args(["--connect", &addr])
            .args(["--apps", "GEMM"])
            .args(["--policies", "grit,on-touch"])
            .args(EXP_FLAGS)
            .output()
            .expect("run repro submit");
        assert!(
            out.status.success(),
            "{label} submit failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8(out.stdout).expect("stdout utf8"),
            String::from_utf8(out.stderr).expect("stderr utf8"),
        )
    };

    let (table1, status1) = campaign("first");
    assert!(
        status1.contains("2 cells, 0 store hits"),
        "fresh run hit the store: {status1}"
    );

    // Flip one digit inside a persisted payload; the checksum no longer
    // matches, so serving this file would return altered results.
    let entries = store_entries(&store);
    assert_eq!(
        entries.len(),
        2,
        "expected 2 store entries, got {entries:?}"
    );
    let victim = &entries[0];
    let text = std::fs::read_to_string(victim).expect("read store entry");
    let corrupted = text.replacen("\"total_cycles\":", "\"total_cycles\":9", 1);
    assert_ne!(text, corrupted, "corruption had no effect on {victim:?}");
    std::fs::write(victim, corrupted).expect("write corrupted entry");

    let (table2, status2) = campaign("corrupted");
    assert!(
        status2.contains("server quarantined 1 corrupt store files"),
        "expected one quarantine, got: {status2}"
    );
    assert!(
        status2.contains("2 cells, 1 store hits"),
        "expected 1 hit + 1 re-run: {status2}"
    );
    assert_eq!(table2, table1, "re-run after quarantine changed the table");
    let quarantine = store.join("quarantine");
    assert_eq!(
        store_entries(&quarantine).len(),
        1,
        "quarantine dir should hold the bad file"
    );

    // The re-run refilled the slot: a third pass is all hits and
    // quarantines nothing more.
    let (table3, status3) = campaign("healed");
    assert!(
        status3.contains("2 cells, 2 store hits"),
        "expected all hits: {status3}"
    );
    assert!(
        !status3.contains("quarantined"),
        "no second quarantine expected: {status3}"
    );
    assert_eq!(table3, table1);
    assert_eq!(store_entries(&quarantine).len(), 1);

    shutdown_server(&addr, &mut server);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A stub runner: instant results, `total_cycles` echoing the spec seed
/// and, for the `STALL` app, a multi-megabyte trace payload that will
/// wedge any client that stops reading.
fn stub_runner() -> (SpecRunner, Arc<AtomicU64>) {
    let ran = Arc::new(AtomicU64::new(0));
    let ran2 = Arc::clone(&ran);
    let runner: SpecRunner = Arc::new(move |spec: &RunSpec| {
        ran2.fetch_add(1, Ordering::SeqCst);
        let mut res = CellResult::default();
        res.total_cycles = spec.seed;
        if spec.app == "STALL" {
            // ~4 MiB of valid trace JSON per cell: far past any socket
            // buffer, so a non-reading client forces the write timeout.
            let pad = Json::Obj(vec![("pad".into(), Json::Str("x".repeat(1024)))]);
            res.trace = vec![pad; 4096];
        }
        Ok(res)
    });
    (runner, ran)
}

/// One client stops reading mid-campaign; the write timeout + bounded
/// sink cut it loose, and the three healthy clients still get complete,
/// declaration-ordered campaigns. The server draining to completion is
/// itself the proof: an unbounded sink would leave `run()` waiting on
/// the wedged connection forever.
fn stalled_reader_scenario(jobs: usize) {
    let (runner, _ran) = stub_runner();
    let server = Server::start(
        &ServeOptions::new().jobs(jobs).max_sink_bytes(256 * 1024).write_timeout_ms(250),
        runner,
    )
    .expect("start server");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run());

    // The stalled client: submits traced cells, then never reads.
    let mut stalled = TcpStream::connect(addr).expect("stalled connect");
    for id in 0..2u64 {
        let spec = RunSpec::new("STALL", "grit").seed(7).trace(true);
        let line = format!("{}\n", Request::Submit { id, spec }.to_json());
        stalled.write_all(line.as_bytes()).expect("stalled submit");
    }

    let clients: Vec<_> = (0..3)
        .map(|c| {
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                for id in 0..20u64 {
                    let spec = RunSpec::new("FAST", "grit").seed(1000 + id * 10 + c);
                    client.submit(id, &spec).expect("submit");
                }
                let outcome = client.finish().expect("finish");
                assert_eq!(outcome.errors, Vec::<String>::new());
                assert_eq!(outcome.results.len(), 20, "client {c} lost results");
                for (i, r) in outcome.results.iter().enumerate() {
                    assert_eq!(r.id, i as u64, "client {c}: result {i} out of order");
                    assert_eq!(
                        r.total_cycles,
                        1000 + r.id * 10 + c,
                        "client {c}: wrong payload"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // All healthy clients are done; drain. This hangs (and the test
    // harness times out) if the stalled connection can pin the server.
    handle.shutdown();
    let summary = server_thread.join().expect("server thread");
    drop(stalled);
    assert_eq!(summary.errors, 0);
    assert!(
        summary.cells >= 60,
        "healthy campaigns incomplete: {summary:?}"
    );
}

#[test]
fn stalled_reader_is_cut_loose_while_others_keep_order_jobs_1() {
    stalled_reader_scenario(1);
}

#[test]
fn stalled_reader_is_cut_loose_while_others_keep_order_jobs_4() {
    stalled_reader_scenario(4);
}

#[test]
fn queue_overflow_answers_busy_and_resubmission_succeeds() {
    // One worker, one queue slot. The worker is parked on a gated cell,
    // a second cell fills the queue, and the third submission must be
    // answered `busy` — then succeed once the gate opens.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate = Mutex::new(gate_rx);
    let runner: SpecRunner = Arc::new(move |spec: &RunSpec| {
        if spec.app == "GATE" {
            gate.lock().unwrap().recv().expect("gate");
        }
        let mut res = CellResult::default();
        res.total_cycles = spec.seed;
        Ok(res)
    });
    let server =
        Server::start(&ServeOptions::new().jobs(1).max_queued(1), runner).expect("start server");
    let addr = server.local_addr();
    let server_thread = thread::spawn(move || server.run());

    let mut a = ServeClient::connect(addr).expect("connect a");
    a.submit(0, &RunSpec::new("GATE", "grit").seed(1)).expect("submit gate");
    // `progress` proves the worker holds cell 0 (the queue is empty).
    loop {
        match a.next_response().expect("read a") {
            Some(Response::Progress { id: 0, .. }) => break,
            Some(_) => continue,
            None => panic!("server closed early"),
        }
    }
    a.submit(1, &RunSpec::new("FAST", "grit").seed(2)).expect("submit filler");
    loop {
        match a.next_response().expect("read a") {
            Some(Response::Accepted { id: 1 }) => break,
            Some(_) => continue,
            None => panic!("server closed early"),
        }
    }

    // The queue is provably full now; a third submission bounces.
    let mut b = ServeClient::connect(addr).expect("connect b");
    b.submit(0, &RunSpec::new("FAST", "grit").seed(3)).expect("submit over budget");
    let retry_after = match b.next_response().expect("read b") {
        Some(Response::Busy {
            id: 0,
            retry_after_ms,
        }) => retry_after_ms,
        Some(other) => panic!("expected busy, got {other:?}"),
        None => panic!("server closed early"),
    };
    assert_eq!(
        retry_after, 2_000,
        "busy must carry the documented backoff hint"
    );

    // Open the gate and resubmit: same id, same connection. The gate
    // only unblocks the worker — the queue slot frees when the worker
    // pops the filler cell, so the resubmission may still bounce a few
    // times first. Backing off and retrying is exactly the documented
    // client protocol.
    gate_tx.send(()).expect("open gate");
    let mut rejections = 1u64;
    'resubmit: loop {
        b.submit(0, &RunSpec::new("FAST", "grit").seed(3)).expect("resubmit");
        match b.next_response().expect("read b") {
            Some(Response::Busy { id: 0, .. }) => {
                rejections += 1;
                thread::sleep(Duration::from_millis(20));
            }
            Some(Response::Accepted { id: 0 }) => break 'resubmit,
            Some(other) => panic!("expected busy or accepted, got {other:?}"),
            None => panic!("server closed early"),
        }
    }
    let outcome_b = b.finish().expect("finish b");
    assert_eq!(outcome_b.results.len(), 1);
    assert_eq!(outcome_b.results[0].total_cycles, 3);

    let outcome_a = a.finish().expect("finish a");
    assert_eq!(outcome_a.results.len(), 2);
    assert_eq!(outcome_a.results[0].total_cycles, 1);
    assert_eq!(outcome_a.results[1].total_cycles, 2);

    let mut closer = ServeClient::connect(addr).expect("connect closer");
    closer.shutdown_server().expect("shutdown");
    drop(closer.finish());
    let summary = server_thread.join().expect("server thread");
    assert_eq!(summary.rejected, rejections, "every bounce was counted");
    assert_eq!(summary.cells, 3);
}

/// A runner's `Ok` is the cell's success: the server marks it `"ok"`
/// on the wire whatever status the runner left on the result.
#[test]
fn ok_runner_result_is_served_as_ok() {
    let runner: SpecRunner = Arc::new(|_: &RunSpec| Ok(CellResult::default()));
    let server = Server::start(&ServeOptions::new().jobs(1), runner).expect("start server");
    let addr = server.local_addr();
    let server_thread = thread::spawn(move || server.run());

    let mut client = ServeClient::connect(addr).expect("connect");
    client.submit(0, &RunSpec::new("GEMM", "grit")).expect("submit");
    let outcome = client.finish().expect("finish");
    assert_eq!(outcome.results.len(), 1);
    assert!(outcome.results[0].is_ok(), "{:?}", outcome.results[0]);

    let mut closer = ServeClient::connect(addr).expect("connect closer");
    closer.shutdown_server().expect("shutdown");
    drop(closer.finish());
    assert_eq!(server_thread.join().expect("server thread").errors, 0);
}

/// End-to-end flavor of the overflow scenario: a real campaign against
/// `repro serve --max-queued 1` finishes under `--retry` and renders
/// the reference table, however many submissions bounced along the way.
#[test]
fn bounded_queue_campaign_succeeds_under_retry() {
    let scratch = scratch_dir("busy-retry");
    let store = scratch.join("store");
    let port_file = scratch.join("port.txt");
    let reference = submit_local("1", "GEMM,BFS");
    let mut server = repro()
        .arg("serve")
        .args(["--port", "0"])
        .arg("--port-file")
        .arg(&port_file)
        .arg("--store")
        .arg(&store)
        .args(["--jobs", "1"])
        .args(["--max-queued", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro serve");
    let addr = wait_for_port(&port_file, &mut server);

    let out = repro()
        .arg("submit")
        .arg("--retry")
        .args(["--connect", &addr])
        .args(["--apps", "GEMM,BFS"])
        .args(["--policies", "grit,on-touch"])
        .args(EXP_FLAGS)
        .env("GRIT_SUBMIT_RETRY_BASE_MS", "100")
        .output()
        .expect("run repro submit --retry");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "retry submit failed: {stderr}");
    let table = String::from_utf8(out.stdout).expect("stdout utf8");
    assert_eq!(
        table, reference,
        "bounded-queue campaign diverged from the reference"
    );

    shutdown_server(&addr, &mut server);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn truncated_request_line_gets_error_and_server_keeps_serving() {
    let (runner, _ran) = stub_runner();
    let server = Server::start(&ServeOptions::new().jobs(1), runner).expect("start server");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run());

    // 10 bytes of a submit line, then EOF (responses keep flowing).
    let proxy =
        ChaosProxy::start(addr, vec![ChaosFault::TruncateRequestAfterBytes(10)]).expect("proxy");
    let stream = TcpStream::connect(proxy.local_addr()).expect("connect proxy");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut write = stream.try_clone().expect("clone");
    let spec = RunSpec::new("FAST", "grit").seed(1);
    let line = format!("{}\n", Request::Submit { id: 0, spec }.to_json());
    write.write_all(line.as_bytes()).expect("write truncated submit");
    let mut kinds = Vec::new();
    for raw in BufReader::new(stream).lines() {
        let raw = raw.expect("read response line");
        let v = Json::parse(&raw).expect("response is JSON");
        let resp = Response::from_json(&v).expect("response parses");
        kinds.push(match resp {
            Response::Hello { .. } => "hello",
            Response::Error { id: None, .. } => "error",
            Response::Done { results: 0 } => "done",
            other => panic!("unexpected response {other:?}"),
        });
    }
    assert_eq!(
        kinds,
        ["hello", "error", "done"],
        "torn line must get a per-line error"
    );
    drop(proxy);

    // The mangled connection cost the server nothing: a normal campaign
    // on a fresh connection completes.
    let mut client = ServeClient::connect(addr).expect("connect");
    client.submit(0, &RunSpec::new("FAST", "grit").seed(42)).expect("submit");
    let outcome = client.finish().expect("finish");
    assert_eq!(outcome.results.len(), 1);
    assert_eq!(outcome.results[0].total_cycles, 42);

    handle.shutdown();
    let summary = server_thread.join().expect("server thread");
    assert_eq!(summary.cells, 1);
}
