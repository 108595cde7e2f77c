//! The in-process workloads: a grid of cells run through
//! `run_batch_with`, as `repro figN` runs them.
//!
//! * `paper-mix` — the Fig. 17 grid (Table II apps × on-touch,
//!   access-counter, duplication, GRIT, Ideal) on the Table I machine at
//!   intensity 2. The per-access path (translate, caches) dominates.
//! * `fault-heavy` — the same apps × the four non-Ideal policies at low
//!   reuse (intensity 0.25), capacity 0.3 and mixed 2 MB pages, inputs
//!   enlarged as `ext-pagesize` does. Fault service, eviction, migration
//!   and coalescing take the larger share.
//!
//! A run warms the workload cache (set-up, timed and repeated) and runs
//! one untimed warm-up pass that becomes the reference output. It then either times grid passes (`--trace 0`) or
//! alternates untraced, traced and profiled passes and replays each
//! component (`--trace 1`). It ends with a serial (`jobs = 1`) pass that
//! must match the reference exactly.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use grit::experiments::result_store::ResultStore;
use grit::experiments::{
    ext_pagesize, fig17_grit, run_batch_with, workload_cache, BatchOptions, CellSpec, ExpConfig,
    PolicyKind, PolicySpec,
};
use grit::{RunOutput, SimulationBuilder};
use grit_sim::{CellError, PageSizeMode, Scheme, SimConfig};
use grit_workloads::App;

use crate::measure::{
    cell_counters, cpu_seconds, digest_of, geomean, median, peak_rss_mb, percentile, push_counters,
    Outcome,
};
use crate::spans::{self, Recorder};
use crate::{replay, Args, Workload};

/// Set-ups before the warm-up pass, and again at the end of an untraced
/// run (after peak RSS is read), so that `setup_s`, their median, samples
/// the host at both ends of the run.
const SETUP_REPEATS: usize = 4;
/// Repetitions of each component replay; each metric is their median.
const REPLAY_REPEATS: usize = 5;
/// Minimum rounds of the traced run (untraced, traced, profiled pass).
const MIN_TRACE_ROUNDS: usize = 2;

/// One workload's grid.
pub struct Grid {
    exp: ExpConfig,
    cfg: SimConfig,
    apps: Vec<App>,
    policies: Vec<PolicyKind>,
}

impl Grid {
    /// The grid of an in-process workload at `seed`.
    pub fn new(workload: Workload, seed: u64, tiny: bool) -> Grid {
        let fig17 = fig17_grit::policies();
        match workload {
            Workload::PaperMix => Grid {
                exp: ExpConfig {
                    scale: if tiny { 0.02 } else { 0.1 },
                    intensity: if tiny { 0.5 } else { 2.0 },
                    seed,
                },
                cfg: SimConfig::default(),
                apps: App::TABLE2.to_vec(),
                policies: fig17.to_vec(),
            },
            Workload::FaultHeavy => Grid {
                exp: ExpConfig {
                    scale: if tiny {
                        0.05
                    } else {
                        0.1 * ext_pagesize::INPUT_ENLARGEMENT
                    },
                    intensity: 0.25,
                    seed,
                },
                cfg: SimConfig {
                    capacity_ratio: 0.3,
                    page_size_mode: PageSizeMode::Mixed,
                    ..SimConfig::default()
                },
                apps: App::TABLE2.to_vec(),
                policies: fig17.into_iter().filter(|p| *p != PolicyKind::Ideal).collect(),
            },
            Workload::ServeResweep => unreachable!("serve-resweep is not an in-process grid"),
        }
    }

    /// Cells in app-major order.
    pub fn cells(&self) -> Vec<CellSpec> {
        self.apps
            .iter()
            .flat_map(|&app| {
                self.policies.iter().map(move |&p| {
                    // Built literally so no process-wide override applies.
                    CellSpec {
                        app,
                        policy: PolicySpec::Kind(p),
                        exp: self.exp,
                        cfg: self.cfg.clone(),
                        observer: None,
                        prefetcher: None,
                        trace: None,
                    }
                })
            })
            .collect()
    }
}

/// `model.grit_vs_*`: geomean over apps of a static scheme's simulated
/// cycles over GRIT's, for on-touch, access-counter and duplication;
/// `outs` is an app-major grid over `policies`.
pub fn model(policies: &[PolicyKind], outs: &[&RunOutput]) -> [f64; 3] {
    let col = |k: PolicyKind| policies.iter().position(|&p| p == k).expect("policy in grid");
    let grit = col(PolicyKind::GRIT);
    let np = policies.len();
    [Scheme::OnTouch, Scheme::AccessCounter, Scheme::Duplication].map(|s| {
        let c = col(PolicyKind::Static(s));
        let ratios: Vec<f64> = outs
            .chunks(np)
            .map(|row| row[c].metrics.total_cycles as f64 / row[grit].metrics.total_cycles as f64)
            .collect();
        geomean(&ratios)
    })
}

/// Worker count: the machine's parallelism, at most 2.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Timing of one grid pass, plus what the per-layer metrics need.
struct Pass {
    wall: f64,
    cpu: f64,
    accesses: u64,
    /// Per cell: (workload fetch + simulation seconds, simulation seconds).
    cell_seconds: Vec<(f64, f64)>,
}

/// Accumulates attempted/failed counts and compares every pass with the
/// reference pass, cell by cell.
struct Checker {
    reference: Vec<[u64; 9]>,
    labels: Vec<String>,
}

impl Checker {
    fn tally(&self, o: &mut Outcome, what: &str, results: &[Result<RunOutput, CellError>]) {
        o.attempted += results.len() as u64;
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(out) => {
                    let got = cell_counters(out);
                    o.check(got == self.reference[i], || {
                        format!(
                            "{what}: cell {} counters {got:?} differ from the reference {:?}",
                            self.labels[i], self.reference[i]
                        )
                    });
                }
                Err(e) => {
                    o.failed += 1;
                    o.failures.push(format!("{what}: cell {} failed: {e}", self.labels[i]));
                }
            }
        }
    }
}

fn untraced_pass(cells: &[CellSpec], jobs: usize) -> (Vec<Result<RunOutput, CellError>>, Pass) {
    let opts = BatchOptions::new().jobs(jobs).sim_threads(1);
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let results = run_batch_with(cells, &opts);
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    let ok: Vec<&RunOutput> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let pass = Pass {
        wall,
        cpu,
        accesses: ok.iter().map(|o| o.metrics.accesses).sum(),
        cell_seconds: ok
            .iter()
            .map(|o| {
                (
                    o.timing.build_seconds + o.timing.sim_seconds,
                    o.timing.sim_seconds,
                )
            })
            .collect(),
    };
    (results, pass)
}

/// A grid pass on the benchmark's own two-worker pool, calling the
/// workload cache and the simulation builder directly so that each layer
/// call gets a span: campaign → cell → workload, simulate.
fn traced_pass(
    cells: &[CellSpec],
    jobs: usize,
    rec: &Recorder,
    campaign: u64,
) -> Vec<Result<RunOutput, CellError>> {
    let root = rec.open("campaign", "experiments", None, campaign);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunOutput, CellError>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let cs = rec.open("cell", "experiments", Some(root), campaign);
                let ws = rec.open("workload", "workloads", Some(cs), campaign);
                let (w, _) =
                    workload_cache::shared_workload_tracked(cell.app, &cell.exp, &cell.cfg);
                rec.close(ws, w.total_accesses());
                let ss = rec.open("simulate", "runner", Some(cs), campaign);
                let policy = match &cell.policy {
                    PolicySpec::Kind(k) => k.build(&cell.cfg, w.footprint_pages),
                    PolicySpec::Factory(make) => make(&cell.cfg, w.footprint_pages),
                };
                let out = SimulationBuilder::new(cell.cfg.clone(), w, policy)
                    .sim_threads(1)
                    .build()
                    .map_err(CellError::Config)
                    .and_then(|sim| sim.try_run().map_err(CellError::from));
                let accesses = out.as_ref().map_or(0, |o| o.metrics.accesses);
                rec.close(ss, accesses);
                rec.close(cs, accesses);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    let results: Vec<Result<RunOutput, CellError>> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned").expect("every cell ran"))
        .collect();
    let total = results.iter().filter_map(|r| r.as_ref().ok()).map(|o| o.metrics.accesses).sum();
    rec.close(root, total);
    results
}

/// Set-up samples: seconds per set-up, and build ms per workload key.
#[derive(Default)]
struct Setups {
    seconds: Vec<f64>,
    key_ms: Vec<Vec<f64>>,
    accesses_built: u64,
}

impl Setups {
    /// Times one set-up: building every distinct workload of the grid
    /// into the cleared process-wide cache.
    fn take(&mut self, grid: &Grid) {
        workload_cache::global().clear();
        self.key_ms.resize(grid.apps.len(), Vec::new());
        self.accesses_built = 0;
        let start = Instant::now();
        for (k, &app) in grid.apps.iter().enumerate() {
            let t = Instant::now();
            let w = workload_cache::shared_workload(app, &grid.exp, &grid.cfg);
            self.key_ms[k].push(t.elapsed().as_secs_f64() * 1e3);
            self.accesses_built += w.total_accesses();
        }
        self.seconds.push(start.elapsed().as_secs_f64());
    }

    /// p50 over keys of each key's median build time.
    fn build_ms(&self) -> f64 {
        median(&self.key_ms.iter().map(|v| median(v)).collect::<Vec<_>>())
    }
}

/// Runs `paper-mix` or `fault-heavy`.
pub fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let grid = Grid::new(args.workload, args.seed, args.tiny);
    let cells = grid.cells();
    let jobs = jobs();
    let mut o = Outcome::default();

    let mut setups = Setups::default();
    for _ in 0..SETUP_REPEATS {
        setups.take(&grid);
    }

    let (warm, _) = untraced_pass(&cells, jobs);
    let labels: Vec<String> =
        cells.iter().map(|c| format!("{}/{}", c.app.abbr(), c.policy_label())).collect();
    let reference: Vec<&RunOutput> = warm
        .iter()
        .zip(&labels)
        .map(|(r, l)| r.as_ref().map_err(|e| format!("warm-up cell {l} failed: {e}")))
        .collect::<Result<_, _>>()?;
    let checker = Checker {
        reference: reference.iter().map(|o| cell_counters(o)).collect(),
        labels,
    };
    checker.tally(&mut o, "warm-up", &warm);
    o.digest = digest_of(&reference);
    for (cell, out) in cells.iter().zip(&reference) {
        let generated =
            workload_cache::shared_workload(cell.app, &cell.exp, &cell.cfg).total_accesses();
        o.check(out.metrics.accesses == generated, || {
            format!(
                "cell {}/{} replayed {} accesses of {generated} generated",
                cell.app.abbr(),
                cell.policy_label(),
                out.metrics.accesses
            )
        });
    }

    let mut passes = Vec::new();
    if args.trace {
        traced_run(args, run_dir, &grid, &cells, &reference, &checker, &mut o)?;
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        loop {
            let (results, pass) = untraced_pass(&cells, jobs);
            checker.tally(&mut o, "timed pass", &results);
            passes.push(pass);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    let (serial, _) = untraced_pass(&cells, 1);
    checker.tally(&mut o, "jobs=1 pass", &serial);
    if args.trace {
        o.push("workloads.build_ms", setups.build_ms(), "ms");
        o.push(
            "workloads.maccess_built",
            setups.accesses_built as f64 / 1e6,
            "M",
        );
        return Ok(o);
    }

    let ok = (o.attempted - o.failed) as f64 / o.attempted as f64;
    let rss = peak_rss_mb();
    for _ in 0..SETUP_REPEATS {
        setups.take(&grid);
    }
    let n = cells.len() as f64;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let rates: Vec<f64> = passes.iter().map(|p| n / p.wall).collect();
    let mps: Vec<f64> = passes.iter().map(|p| p.accesses as f64 / 1e6 / p.cpu).collect();
    eprintln!(
        "perfbench: {} timed grid passes of {} cells",
        passes.len(),
        cells.len()
    );
    o.push("setup_s", median(&setups.seconds), "s");
    o.push("cells_per_s", median(&rates), "1/s");
    o.push("maccess_per_core_s", median(&mps), "M/s");
    o.push("campaign_p50_ms", median(&walls) * 1e3, "ms");
    o.push("campaign_p90_ms", percentile(&walls, 0.9) * 1e3, "ms");
    o.push("ok_share", ok, "ratio");
    o.push("peak_rss_mb", rss, "MB");
    Ok(o)
}

/// The per-layer run: rounds of one untraced, one traced and one profiled
/// pass until the deadline, then the component replays.
fn traced_run(
    args: &Args,
    run_dir: &Path,
    grid: &Grid,
    cells: &[CellSpec],
    reference: &[&RunOutput],
    checker: &Checker,
    o: &mut Outcome,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let jobs = jobs();
    let rec = Recorder::new();
    let cache0 = workload_cache::global().stats();
    let (mut plain, mut traced, mut profiled) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = 0u64;
    loop {
        let (results, pass) = untraced_pass(cells, jobs);
        checker.tally(o, "untraced pass", &results);
        plain.push(pass);

        let start = Instant::now();
        let results = traced_pass(cells, jobs, &rec, round);
        traced.push(start.elapsed().as_secs_f64());
        checker.tally(o, "traced pass", &results);

        grit_prof::set_enabled(true);
        let (results, pass) = untraced_pass(cells, jobs);
        grit_prof::set_enabled(false);
        grit_prof::reset();
        checker.tally(o, "profiled pass", &results);
        profiled.push(pass.wall);

        round += 1;
        if round as usize >= MIN_TRACE_ROUNDS && Instant::now() >= deadline {
            break;
        }
    }
    let cache1 = workload_cache::global().stats();
    let lookups = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    let hit_ratio = (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64;

    let plain_walls: Vec<f64> = plain.iter().map(|p| p.wall).collect();
    let idle: Vec<f64> = plain
        .iter()
        .map(|p| 1.0 - p.cell_seconds.iter().map(|c| c.0).sum::<f64>() / (jobs as f64 * p.wall))
        .collect();
    let cell_ms: Vec<f64> =
        plain.iter().flat_map(|p| p.cell_seconds.iter().map(|c| c.1 * 1e3)).collect();
    let ns_per_access: Vec<f64> = plain
        .iter()
        .map(|p| p.cell_seconds.iter().map(|c| c.1).sum::<f64>() * 1e9 / p.accesses as f64)
        .collect();

    let workloads: Vec<_> = grid
        .apps
        .iter()
        .map(|&app| workload_cache::shared_workload(app, &grid.exp, &grid.cfg))
        .collect();
    let ns = replay::components(&workloads, &grid.cfg, REPLAY_REPEATS);

    let entries: Vec<(String, &RunOutput)> = cells
        .iter()
        .zip(reference)
        .map(|(c, out)| (c.resume_key().expect("plain cells have a store key"), *out))
        .collect();
    let (save_us, load_us) = replay::store_us(run_dir, &entries, 3)?;

    // `run_spec` hits: the GRIT cell of every app, saved under the key
    // the service derives from the cell's spec.
    let service_dir = run_dir.join("service-store");
    let store = ResultStore::open(&service_dir).map_err(|e| format!("open store: {e}"))?;
    let mut specs = Vec::new();
    for (cell, out) in cells.iter().zip(reference) {
        if matches!(cell.policy, PolicySpec::Kind(k) if k == PolicyKind::GRIT) {
            let spec = cell.to_run_spec();
            let key = grit::service::parse_spec_cell(&spec)?
                .resume_key()
                .expect("spec cells have a store key");
            store.save(&key, out).map_err(|e| format!("store save: {e}"))?;
            specs.push(spec);
        }
    }
    let run_spec_us = replay::run_spec_hit_us(&service_dir, &specs, REPLAY_REPEATS)?;

    let spans = rec.snapshot();
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
    let shares = spans::self_time_shares(&spans);
    let model = model(&grid.policies, reference);

    o.push("experiments.workload_cache_hit_ratio", hit_ratio, "ratio");
    o.push("experiments.worker_idle_share", median(&idle), "ratio");
    o.push("runner.cell_ms_p50", percentile(&cell_ms, 0.5), "ms");
    o.push("runner.cell_ms_p90", percentile(&cell_ms, 0.9), "ms");
    o.push("runner.ns_per_access", median(&ns_per_access), "ns");
    push_counters(o, reference);
    push_component_ns(o, &ns);
    o.push("result_store.load_us", load_us, "us");
    o.push("result_store.save_us", save_us, "us");
    // No store is on the in-process timed path.
    o.push("result_store.hit_ratio", 0.0, "ratio");
    o.push("result_store.quarantined", 0.0, "count");
    o.push("service.run_spec_hit_us", run_spec_us, "us");
    o.push("serve.result_gap_us_p50", 0.0, "us");
    o.push("serve.busy", 0.0, "count");
    o.push("serve.errors", 0.0, "count");
    o.push(
        "prof.overhead_ratio",
        median(&profiled) / median(&plain_walls),
        "ratio",
    );
    o.push(
        "trace.overhead_ratio",
        median(&traced) / median(&plain_walls),
        "ratio",
    );
    push_self_time(o, &shares);
    push_model(o, model);
    Ok(())
}

/// The component replay metrics.
pub fn push_component_ns(o: &mut Outcome, ns: &replay::ComponentNs) {
    o.push("mem.tlb_translate_ns", ns.tlb_translate, "ns");
    o.push("mem.cache_get_insert_ns", ns.cache_get_insert, "ns");
    o.push("mem.walk_ns", ns.walk, "ns");
    o.push("mem.dram_insert_touch_ns", ns.dram_insert_touch, "ns");
    o.push("uvm.handle_fault_ns", ns.handle_fault, "ns");
    o.push("core.on_fault_ns", ns.on_fault, "ns");
    o.push("interconnect.gpu_to_gpu_ns", ns.gpu_to_gpu, "ns");
}

/// Self time per layer, as shares of the traced passes' self time.
pub fn push_self_time(o: &mut Outcome, shares: &[f64; spans::LAYERS.len()]) {
    const NAMES: [&str; spans::LAYERS.len()] = [
        "selftime.experiments_share",
        "selftime.workloads_share",
        "selftime.runner_share",
        "selftime.service_share",
        "selftime.serve_share",
    ];
    for (name, v) in NAMES.iter().zip(shares) {
        o.push(name, *v, "ratio");
    }
}

/// The simulated speedups of GRIT, printed beside the paper's.
pub fn push_model(o: &mut Outcome, model: [f64; 3]) {
    eprintln!(
        "perfbench: model GRIT speedup vs on-touch {:.3} (paper 1.60), access-counter {:.3} \
         (paper 1.49), duplication {:.3} (paper 1.29); simulated, not validated against hardware",
        model[0], model[1], model[2]
    );
    o.push("model.grit_vs_on_touch", model[0], "x");
    o.push("model.grit_vs_access_counter", model[1], "x");
    o.push("model.grit_vs_duplication", model[2], "x");
}
