//! `serve-resweep`: campaigns through an in-process `grit-serve` server.
//!
//! Set-up builds the traces of two per-client grids (8 Table II apps × 4
//! non-Ideal policies, scale 0.02, intensity 0.5), stores their 64 cells
//! through the batch executor into a fresh result store, and starts a
//! `Server` with two jobs on that store. Two client threads then run
//! closed loops of campaigns. A campaign is one connection that submits
//! 32 cells pipelined, as `repro submit` does: the client's 31 stored
//! grid cells (store hits) and one fresh cell, a grid cell under a seed
//! never used before (trace build, simulation, store write). Each client
//! draws its own seeds, so every campaign has exactly 31 hits whatever
//! the interleaving of the two clients.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use grit::experiments::workload_cache::{self, WorkloadCache, WorkloadKey};
use grit::experiments::{fig17_grit, run_batch_with, BatchOptions, PolicyKind};
use grit::RunOutput;
use grit_serve::{
    CellResult, Response, ServeClient, ServeOptions, ServeSummary, Server, ShutdownHandle,
    SpecRunner,
};
use grit_sim::{RunSpec, SimConfig};
use grit_workloads::App;

use crate::grid::{jobs, push_component_ns, push_model, push_self_time};
use crate::measure::{
    cpu_seconds, digest_of, median, peak_rss_mb, percentile, push_counters, Outcome,
};
use crate::spans::{self, Recorder, Span};
use crate::{replay, Args};

/// Cells per campaign: 31 stored ones and one fresh one.
const CAMPAIGN_CELLS: usize = 32;
/// Concurrent clients (at most the machine's two cores' worth of load).
const CLIENTS: usize = 2;
/// Set-ups before the warm-up campaigns. An untimed run adds one more
/// before each of its `CHUNKS` timed chunks, so that `setup_s`, their
/// median, samples the host over the whole run as the timed metrics do.
const SETUP_UPFRONT: usize = 3;
/// Chunks of the untraced timed phase.
const CHUNKS: u64 = 6;
/// Fresh served cells per client re-run in process for comparison.
const VERIFY_FRESH: usize = 8;
/// Untimed warm-up campaigns per client.
const WARMUP_CAMPAIGNS: u64 = 20;
/// Timed campaigns per client per requested second (about what one
/// client completes per second on a 2-vCPU host).
const CAMPAIGNS_PER_CLIENT_PER_S: f64 = 45.0;
/// Repetitions of each replay.
const REPLAY_REPEATS: usize = 5;

fn policies() -> Vec<PolicyKind> {
    fig17_grit::policies().into_iter().filter(|p| *p != PolicyKind::Ideal).collect()
}

/// SplitMix64 of a seed and two coordinates: distinct per-client and
/// per-campaign generator seeds.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn grid_spec(i: usize, seed: u64, tiny: bool) -> RunSpec {
    let pols = policies();
    let app = App::TABLE2[i / pols.len()];
    RunSpec::new(app.abbr(), pols[i % pols.len()].label())
        .scale(if tiny { 0.01 } else { 0.02 })
        .intensity(if tiny { 0.25 } else { 0.5 })
        .seed(seed)
        .sim_threads(1)
}

/// The 32 specs of client `client`'s campaign `k`, and which one is fresh.
fn campaign_specs(args: &Args, client: usize, k: u64) -> (Vec<RunSpec>, usize) {
    let fresh = (k % CAMPAIGN_CELLS as u64) as usize;
    let specs = (0..CAMPAIGN_CELLS)
        .map(|i| {
            let seed = if i == fresh {
                mix(args.seed, client as u64, k + 1)
            } else {
                mix(args.seed, client as u64, 0)
            };
            grid_spec(i, seed, args.tiny)
        })
        .collect();
    (specs, fresh)
}

/// `run_spec` intervals seen by the server while tracing is on.
struct ServerSpan {
    start: f64,
    end: f64,
    canonical: String,
}

/// The server-side hook of the traced run: times each `run_spec` call.
struct ServerTrace {
    on: AtomicBool,
    rec: Recorder,
    spans: Mutex<Vec<ServerSpan>>,
    /// Spec canonical string → indices of its round-trip spans.
    round_trips: Mutex<HashMap<String, Vec<usize>>>,
}

struct Running {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<ServeSummary>,
}

impl Running {
    fn stop(self) -> Result<ServeSummary, String> {
        self.shutdown.shutdown();
        self.thread.join().map_err(|_| "server thread panicked".to_string())
    }
}

/// One set-up: build the traces, store the two grids, start the server.
struct Setup {
    seconds: f64,
    build_ms: Vec<f64>,
    accesses_built: u64,
    specs: Vec<RunSpec>,
    outputs: Vec<RunOutput>,
    server: Running,
}

/// The traces are built into the process-wide cache, or for a repeated
/// set-up into a private `cache` (the stored cells then find their traces
/// in the process-wide cache, as in the first set-up).
fn setup(
    args: &Args,
    dir: &Path,
    trace: &Option<Arc<ServerTrace>>,
    cache: Option<&WorkloadCache>,
) -> Result<Setup, String> {
    let specs: Vec<RunSpec> = (0..CLIENTS)
        .flat_map(|c| {
            let seed = mix(args.seed, c as u64, 0);
            (0..CAMPAIGN_CELLS).map(move |i| grid_spec(i, seed, args.tiny))
        })
        .collect();
    let cells = specs
        .iter()
        .map(grit::service::parse_spec_cell)
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut build_ms = Vec::new();
    let mut accesses_built = 0;
    for cell in cells.iter().step_by(policies().len()) {
        let t = Instant::now();
        let key = WorkloadKey::new(cell.app, &cell.exp, &cell.cfg);
        let w = cache.unwrap_or_else(|| workload_cache::global()).get_or_build(key);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        accesses_built += w.total_accesses();
    }
    let opts = BatchOptions::new().jobs(jobs()).sim_threads(1).resume_dir(dir);
    let outputs = run_batch_with(&cells, &opts)
        .into_iter()
        .zip(&specs)
        .map(|(r, s)| r.map_err(|e| format!("set-up cell {} failed: {e}", s.canonical())))
        .collect::<Result<Vec<_>, _>>()?;
    let inner = grit::service::spec_runner(Some(dir.to_path_buf()), None);
    let runner: SpecRunner = match trace.clone() {
        None => inner,
        Some(t) => Arc::new(move |spec: &RunSpec| {
            if !t.on.load(Ordering::Relaxed) {
                return inner(spec);
            }
            let start = t.rec.now();
            let res = inner(spec);
            let end = t.rec.now();
            t.spans.lock().expect("server spans poisoned").push(ServerSpan {
                start,
                end,
                canonical: spec.canonical(),
            });
            res
        }),
    };
    let server = Server::start(&ServeOptions::new().jobs(jobs()), runner)?;
    let running = Running {
        addr: server.local_addr(),
        shutdown: server.shutdown_handle(),
        thread: std::thread::spawn(move || server.run()),
    };
    Ok(Setup {
        seconds: start.elapsed().as_secs_f64(),
        build_ms,
        accesses_built,
        specs,
        outputs,
        server: running,
    })
}

/// What one client saw.
#[derive(Default)]
struct ClientStats {
    campaign_ms: Vec<f64>,
    gap_us: Vec<f64>,
    submitted: u64,
    results: u64,
    ok: u64,
    hits: u64,
    busy: u64,
    errors: u64,
    quarantined: u64,
    fresh_accesses: u64,
    fresh_sim_s: Vec<f64>,
    fresh_samples: Vec<(RunSpec, CellResult)>,
    mismatches: Vec<String>,
}

impl ClientStats {
    fn merge(&mut self, other: ClientStats) {
        self.campaign_ms.extend(other.campaign_ms);
        self.gap_us.extend(other.gap_us);
        self.submitted += other.submitted;
        self.results += other.results;
        self.ok += other.ok;
        self.hits += other.hits;
        self.busy += other.busy;
        self.errors += other.errors;
        self.quarantined += other.quarantined;
        self.fresh_accesses += other.fresh_accesses;
        self.fresh_sim_s.extend(other.fresh_sim_s);
        self.fresh_samples.extend(other.fresh_samples);
        self.mismatches.extend(other.mismatches);
    }

    fn failed(&self) -> u64 {
        self.submitted - self.ok
    }
}

/// The reply counters a stored cell must reproduce.
fn reply_counters(
    total_cycles: u64,
    accesses: u64,
    local_faults: u64,
    migrations: u64,
) -> [u64; 4] {
    [total_cycles, accesses, local_faults, migrations]
}

/// One client's closed loop of `count` campaigns from campaign `*k` on.
fn client_loop(
    args: &Args,
    addr: SocketAddr,
    client: usize,
    k: &mut u64,
    count: u64,
    stored: &HashMap<String, [u64; 4]>,
    trace: Option<&ServerTrace>,
) -> Result<ClientStats, String> {
    let mut st = ClientStats::default();
    for _ in 0..count {
        let (specs, fresh) = campaign_specs(args, client, *k);
        let campaign = ((client as u64) << 32) | *k;
        *k += 1;
        let span = trace.map(|t| t.rec.open("campaign", "serve", None, campaign));
        let start = Instant::now();
        let mut conn = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut round_trips = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            if let Some(t) = trace {
                let idx = t.rec.open("round_trip", "serve", span, campaign);
                round_trips.push(idx);
                let mut map = t.round_trips.lock().expect("round trips poisoned");
                map.entry(spec.canonical()).or_default().push(idx);
            }
            conn.submit(i as u64, spec).map_err(|e| format!("submit: {e}"))?;
        }
        st.submitted += CAMPAIGN_CELLS as u64;
        let (mut answered, mut last) = (0, None::<Instant>);
        while answered < CAMPAIGN_CELLS {
            match conn.next_response().map_err(|e| format!("receive: {e}"))? {
                Some(Response::Result(r)) => {
                    let now = Instant::now();
                    if let Some(prev) = last {
                        st.gap_us.push((now - prev).as_secs_f64() * 1e6);
                    }
                    last = Some(now);
                    answered += 1;
                    if let (Some(t), Some(&idx)) = (trace, round_trips.get(r.id as usize)) {
                        t.rec.close(idx, r.accesses);
                    }
                    check_result(&mut st, &specs, fresh, stored, r);
                }
                Some(Response::Busy { .. }) => {
                    st.busy += 1;
                    answered += 1;
                }
                Some(Response::Error { id, message }) => {
                    st.errors += 1;
                    st.mismatches.push(format!("server error for cell {id:?}: {message}"));
                    if id.is_none() {
                        break;
                    }
                    answered += 1;
                }
                Some(_) => {}
                None => break,
            }
        }
        let done = conn.finish().map_err(|e| format!("finish: {e}"))?;
        st.campaign_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let (Some(t), Some(idx)) = (trace, span) {
            t.rec.close(idx, 0);
        }
        if done.done_results.is_none() {
            st.errors += 1;
            st.mismatches.push("campaign ended without `done`".into());
        }
    }
    Ok(st)
}

fn check_result(
    st: &mut ClientStats,
    specs: &[RunSpec],
    fresh: usize,
    stored: &HashMap<String, [u64; 4]>,
    r: CellResult,
) {
    st.results += 1;
    st.quarantined += r.store_quarantined;
    let Some(spec) = specs.get(r.id as usize) else {
        st.mismatches.push(format!("result for unknown cell id {}", r.id));
        return;
    };
    if !r.is_ok() {
        st.mismatches.push(format!(
            "cell {} ended {}: {:?}",
            spec.canonical(),
            r.status,
            r.error
        ));
        return;
    }
    st.ok += 1;
    st.hits += u64::from(r.store_hit);
    let got = reply_counters(r.total_cycles, r.accesses, r.local_faults, r.migrations);
    if r.id as usize == fresh {
        if r.store_hit {
            st.mismatches.push(format!("fresh cell {} hit the store", spec.canonical()));
        }
        st.fresh_accesses += r.accesses;
        st.fresh_sim_s.push(r.sim_seconds);
        if st.fresh_samples.len() < VERIFY_FRESH {
            st.fresh_samples.push((spec.clone(), r));
        }
    } else if !r.store_hit {
        st.mismatches.push(format!("stored cell {} missed the store", spec.canonical()));
    } else if stored.get(&spec.canonical()) != Some(&got) {
        st.mismatches.push(format!("stored cell {} served {got:?}", spec.canonical()));
    }
}

/// `count` campaigns on each client; returns merged stats and the wall
/// time.
fn timed_phase(
    args: &Args,
    addr: SocketAddr,
    next: &mut [u64; CLIENTS],
    count: u64,
    stored: &HashMap<String, [u64; 4]>,
    trace: Option<&ServerTrace>,
) -> Result<(ClientStats, f64), String> {
    let start = Instant::now();
    let per_client: Vec<Result<ClientStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = next
            .iter_mut()
            .enumerate()
            .map(|(c, k)| scope.spawn(move || client_loop(args, addr, c, k, count, stored, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut all = ClientStats::default();
    for st in per_client {
        all.merge(st?);
    }
    Ok((all, wall))
}

/// Runs `serve-resweep`.
pub fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let trace = args.trace.then(|| {
        Arc::new(ServerTrace {
            on: AtomicBool::new(false),
            rec: Recorder::new(),
            spans: Mutex::new(Vec::new()),
            round_trips: Mutex::new(HashMap::new()),
        })
    });

    let s = setup(args, &run_dir.join("store-0"), &trace, None)?;
    let store_dir = run_dir.join("store-0");
    let mut setups = vec![s.seconds];
    let mut build_ms = vec![s.build_ms.clone()];
    let mut repeat = |r: usize| -> Result<(), String> {
        let dir = run_dir.join(format!("store-{r}"));
        let again = setup(args, &dir, &None, Some(&WorkloadCache::new()))?;
        setups.push(again.seconds);
        build_ms.push(again.build_ms);
        again.server.stop().map(drop)
    };
    for r in 1..SETUP_UPFRONT {
        repeat(r)?;
    }

    let reference: Vec<&RunOutput> = s.outputs.iter().collect();
    o.digest = digest_of(&reference);
    let stored: HashMap<String, [u64; 4]> = s
        .specs
        .iter()
        .zip(&s.outputs)
        .map(|(spec, out)| {
            let m = &out.metrics;
            let c = reply_counters(
                m.total_cycles,
                m.accesses,
                m.faults.local_faults,
                m.faults.migrations,
            );
            (spec.canonical(), c)
        })
        .collect();

    // Untimed warm-up campaigns (checked like the rest), then the timed
    // phase: a fixed number of campaigns per client, so that the traces
    // the server accumulates, and with them peak RSS, do not depend on
    // the host's speed. An untraced run splits it into chunks with a
    // repeated set-up before each.
    let mut next = [0u64; CLIENTS];
    let (mut stats, _) = timed_phase(
        args,
        s.server.addr,
        &mut next,
        WARMUP_CAMPAIGNS,
        &stored,
        None,
    )?;
    let mut quota = (args.seconds * CAMPAIGNS_PER_CLIENT_PER_S).ceil() as u64;
    let chunks = if args.trace {
        quota = quota.div_ceil(2);
        1
    } else {
        CHUNKS
    };
    let cache0 = workload_cache::global().stats();
    let (mut a, mut wall, mut cpu) = (ClientStats::default(), 0.0, 0.0);
    for c in 0..chunks {
        if !args.trace {
            repeat(SETUP_UPFRONT + c as usize)?;
        }
        let cpu0 = cpu_seconds();
        let (chunk, w) = timed_phase(
            args,
            s.server.addr,
            &mut next,
            quota.div_ceil(chunks),
            &stored,
            None,
        )?;
        cpu += cpu_seconds() - cpu0;
        wall += w;
        a.merge(chunk);
    }
    let untraced_p50 = median(&a.campaign_ms);
    let p90 = percentile(&a.campaign_ms, 0.9);
    let gap_p50 = median(&a.gap_us);
    let (timed_ok, timed_fresh_accesses, campaigns) = (a.ok, a.fresh_accesses, a.campaign_ms.len());
    stats.merge(a);
    let mut traced = None;
    if let Some(t) = &trace {
        t.on.store(true, Ordering::Relaxed);
        let (b, wall_b) = timed_phase(args, s.server.addr, &mut next, quota, &stored, Some(t))?;
        t.on.store(false, Ordering::Relaxed);
        traced = Some((median(&b.campaign_ms), wall_b));
        stats.merge(b);
    }
    let cache1 = workload_cache::global().stats();
    let summary = s.server.stop()?;

    o.attempted = stats.submitted;
    o.failed = stats.failed();
    o.failures.extend(stats.mismatches.iter().take(20).cloned());
    o.check(
        stats.hits * CAMPAIGN_CELLS as u64 == stats.results * (CAMPAIGN_CELLS as u64 - 1),
        || {
            format!(
                "store hits {} of {} results, not exactly 31/32",
                stats.hits, stats.results
            )
        },
    );
    o.check(stats.quarantined == 0, || {
        format!("{} store files quarantined", stats.quarantined)
    });
    o.check(summary.rejected == stats.busy, || {
        format!(
            "server rejected {} cells, clients saw {} busy",
            summary.rejected, stats.busy
        )
    });
    for (spec, served) in &stats.fresh_samples {
        match grit::service::run_spec(spec, None, None, None) {
            Ok(local) => {
                let want = reply_counters(
                    local.total_cycles,
                    local.accesses,
                    local.local_faults,
                    local.migrations,
                );
                let got = reply_counters(
                    served.total_cycles,
                    served.accesses,
                    served.local_faults,
                    served.migrations,
                );
                o.check(got == want, || {
                    format!(
                        "served {} gave {got:?}, in-process run_spec {want:?}",
                        spec.canonical()
                    )
                });
            }
            Err(e) => o.failures.push(format!("in-process run_spec {}: {e:?}", spec.canonical())),
        }
    }
    eprintln!(
        "perfbench: {campaigns} timed campaigns; {} results, {} store hits in all",
        stats.results, stats.hits
    );

    if !args.trace {
        o.push("setup_s", median(&setups), "s");
        o.push("cells_per_s", timed_ok as f64 / wall, "1/s");
        o.push(
            "maccess_per_core_s",
            timed_fresh_accesses as f64 / 1e6 / cpu,
            "M/s",
        );
        o.push("campaign_p50_ms", untraced_p50, "ms");
        o.push("campaign_p90_ms", p90, "ms");
        o.push(
            "ok_share",
            stats.ok as f64 / stats.submitted.max(1) as f64,
            "ratio",
        );
        o.push("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(o);
    }

    let t = trace.expect("traced run");
    let (traced_p50, wall_b) = traced.expect("traced phase ran");
    let server_spans = std::mem::take(&mut *t.spans.lock().expect("server spans poisoned"));
    let busy_s: f64 = server_spans.iter().map(|s| s.end - s.start).sum();
    let spans = attach_server_spans(&t, server_spans);
    let path = args.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    spans::write_jsonl(&spans, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        path.display()
    );

    let lookups = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    let fresh_ms: Vec<f64> = stats.fresh_sim_s.iter().map(|s| s * 1e3).collect();
    let ns_per_access =
        stats.fresh_sim_s.iter().sum::<f64>() * 1e9 / stats.fresh_accesses.max(1) as f64;

    let cfg = SimConfig::default();
    let cells: Vec<_> =
        s.specs.iter().map(grit::service::parse_spec_cell).collect::<Result<_, _>>()?;
    let workloads: Vec<_> = cells
        .iter()
        .step_by(policies().len())
        .map(|c| workload_cache::shared_workload(c.app, &c.exp, &c.cfg))
        .collect();
    let ns = replay::components(&workloads, &cfg, REPLAY_REPEATS);
    let entries: Vec<(String, &RunOutput)> = cells
        .iter()
        .zip(&reference)
        .map(|(c, out)| (c.resume_key().expect("spec cells have a store key"), *out))
        .collect();
    let (save_us, load_us) = replay::store_us(run_dir, &entries, 3)?;
    let run_spec_us = replay::run_spec_hit_us(&store_dir, &s.specs, REPLAY_REPEATS)?;
    let prof = prof_ratio(&cells);

    let key_ms: Vec<f64> = (0..build_ms[0].len())
        .map(|k| median(&build_ms.iter().map(|v| v[k]).collect::<Vec<_>>()))
        .collect();
    o.push("workloads.build_ms", median(&key_ms), "ms");
    o.push(
        "workloads.maccess_built",
        s.accesses_built as f64 / 1e6,
        "M",
    );
    o.push(
        "experiments.workload_cache_hit_ratio",
        (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    o.push(
        "experiments.worker_idle_share",
        1.0 - busy_s / (jobs() as f64 * wall_b),
        "ratio",
    );
    o.push("runner.cell_ms_p50", percentile(&fresh_ms, 0.5), "ms");
    o.push("runner.cell_ms_p90", percentile(&fresh_ms, 0.9), "ms");
    o.push("runner.ns_per_access", ns_per_access, "ns");
    push_counters(&mut o, &reference);
    push_component_ns(&mut o, &ns);
    o.push("result_store.load_us", load_us, "us");
    o.push("result_store.save_us", save_us, "us");
    o.push(
        "result_store.hit_ratio",
        stats.hits as f64 / stats.results.max(1) as f64,
        "ratio",
    );
    o.push(
        "result_store.quarantined",
        stats.quarantined as f64,
        "count",
    );
    o.push("service.run_spec_hit_us", run_spec_us, "us");
    o.push("serve.result_gap_us_p50", gap_p50, "us");
    o.push("serve.busy", stats.busy as f64, "count");
    o.push("serve.errors", stats.errors as f64, "count");
    o.push("prof.overhead_ratio", prof, "ratio");
    o.push("trace.overhead_ratio", traced_p50 / untraced_p50, "ratio");
    push_self_time(&mut o, &spans::self_time_shares(&spans));
    push_model(
        &mut o,
        crate::grid::model(&policies(), &reference[..CAMPAIGN_CELLS]),
    );
    Ok(o)
}

/// Gives each server-side `run_spec` interval the round trip it served
/// as parent: the round trip of the same spec whose interval contains it.
fn attach_server_spans(t: &ServerTrace, server: Vec<ServerSpan>) -> Vec<Span> {
    let mut spans = t.rec.snapshot();
    let map = t.round_trips.lock().expect("round trips poisoned");
    for s in server {
        let parent = map.get(&s.canonical).and_then(|idxs| {
            idxs.iter()
                .copied()
                .find(|&i| spans[i].start <= s.start && s.start <= spans[i].end)
        });
        let campaign = parent.map_or(u64::MAX, |p| spans[p].campaign);
        spans.push(Span {
            name: "run_spec",
            layer: "service",
            start: s.start,
            end: s.end,
            parent,
            campaign,
            accesses: 0,
        });
    }
    spans
}

/// Host time of the stored grids with `grit-prof` spans on over off,
/// alternating five pairs of passes (no store, so every cell simulates).
fn prof_ratio(cells: &[grit::experiments::CellSpec]) -> f64 {
    let opts = BatchOptions::new().jobs(jobs()).sim_threads(1);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        run_batch_with(cells, &opts);
        off.push(t.elapsed().as_secs_f64());
        grit_prof::set_enabled(true);
        let t = Instant::now();
        run_batch_with(cells, &opts);
        on.push(t.elapsed().as_secs_f64());
        grit_prof::set_enabled(false);
        grit_prof::reset();
    }
    median(&on) / median(&off)
}
