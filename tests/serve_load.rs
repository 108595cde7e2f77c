//! Load tests for the campaign server: several concurrent clients
//! pumping queued cells through one shared worker pool and one shared
//! store, with per-client declaration-order delivery asserted on every
//! connection. The test is CI-sized; served throughput is measured by
//! perfbench's `serve-resweep` workload.

use std::path::PathBuf;
use std::thread;

use grit::service::spec_runner;
use grit_serve::{ServeClient, ServeOptions, Server};
use grit_sim::RunSpec;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grit-serve-load-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A pool of 16 distinct cheap specs; campaigns cycle through it so
/// most submissions repeat an earlier spec and exercise the store-hit
/// path while the first occurrence of each spec still simulates.
fn spec_pool() -> Vec<RunSpec> {
    let mut pool = Vec::new();
    for app in ["GEMM", "FIR", "BFS", "ST"] {
        for policy in ["grit", "on-touch"] {
            for seed in [0x10AD_u64, 0x10AE] {
                pool.push(RunSpec::new(app, policy).scale(0.02).intensity(0.5).seed(seed));
            }
        }
    }
    pool
}

/// Runs `clients` concurrent campaigns of `cells_each` submissions and
/// returns the total store hits. Every client asserts its own
/// declaration order before returning.
fn hammer(clients: usize, cells_each: usize, jobs: usize, label: &str) -> u64 {
    let store = scratch_dir(label);
    let server = Server::start(
        &ServeOptions::new().jobs(jobs),
        spec_runner(Some(store.clone()), None),
    )
    .expect("start server");
    let addr = server.local_addr();
    let server_handle = thread::spawn(move || server.run());

    let pool = spec_pool();
    let client_handles: Vec<_> = (0..clients)
        .map(|c| {
            let pool = pool.clone();
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                for id in 0..cells_each {
                    // Offset per client so clients collide on specs at
                    // different times (mixed hit/miss traffic).
                    let spec = &pool[(id + c * 7) % pool.len()];
                    client.submit(id as u64, spec).expect("submit");
                }
                let outcome = client.finish().expect("finish");
                assert_eq!(outcome.errors, Vec::<String>::new());
                assert_eq!(outcome.results.len(), cells_each, "client {c} lost results");
                for (i, r) in outcome.results.iter().enumerate() {
                    assert_eq!(
                        r.id, i as u64,
                        "client {c}: result {i} out of declaration order"
                    );
                    assert_eq!(r.status, "ok", "client {c} cell {i}: {:?}", r.error);
                    assert!(r.total_cycles > 0);
                }
                outcome.results.iter().filter(|r| r.store_hit).count() as u64
            })
        })
        .collect();
    let hits: u64 = client_handles.into_iter().map(|h| h.join().expect("client thread")).sum();

    let mut closer = ServeClient::connect(addr).expect("connect closer");
    closer.shutdown_server().expect("shutdown");
    drop(closer.finish());
    let summary = server_handle.join().expect("server thread");
    assert_eq!(summary.cells, (clients * cells_each) as u64);
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.store_hits, hits);
    let _ = std::fs::remove_dir_all(&store);
    hits
}

#[test]
fn four_concurrent_clients_keep_declaration_order_under_mixed_traffic() {
    let hits = hammer(4, 48, 4, "small");
    // 192 submissions over 16 distinct specs: the vast majority must be
    // store hits (at most one miss per distinct spec, racing aside).
    assert!(
        hits >= 128,
        "expected mostly store hits over a 16-spec pool, got {hits}/192"
    );
}
