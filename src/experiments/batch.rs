//! Resilient parallel experiment execution.
//!
//! A figure driver declares its grid as [`CellSpec`] recipes — plain data
//! describing *what* to run — and [`run_batch`] fans the cells across a
//! scoped worker pool. Results come back in declaration order, so drivers
//! assemble tables exactly as the serial loops did and the printed output
//! is byte-identical regardless of the worker count.
//!
//! The API is **Result-first**: every cell yields a
//! `Result<RunOutput, CellError>`, so one poisoned cell — a panic inside
//! the simulator, an expired wall-clock budget, a violated invariant —
//! becomes a marked row in the tables and `run_report.json` instead of
//! aborting the whole campaign. Execution knobs travel in one
//! [`BatchOptions`] struct (worker count, per-cell timeout, resume
//! directory, fail-fast, store size budget). A process installs its
//! defaults once with [`set_batch_defaults`] (the `repro` execution flags
//! land there), and [`run_batch`] runs under them.
//!
//! Every cell runs through this executor: [`CellSpec::run`] is a one-cell
//! [`run_batch`], and [`run_grid`] is the keyed shape of a figure's grid.
//!
//! Fault isolation is three-layered:
//! 1. `catch_unwind` around each cell converts panics into
//!    [`CellError::Panicked`] rows;
//! 2. a [`CancelToken`] threaded into the simulation loop enforces
//!    per-cell soft timeouts ([`CellError::TimedOut`], with partial
//!    progress counters) and batch-wide fail-fast aborts
//!    ([`CellError::Cancelled`]);
//! 3. an optional content-addressed [`ResultStore`] makes campaigns
//!    resumable: completed cells are persisted under a
//!    `(app, exp, config, policy, code-version)` key, and a re-run with
//!    the same store skips them.
//!
//! Workers pull cells from a shared index, so a long cell (e.g. a full
//! GRIT run) never blocks the queue behind it. Workloads come from the
//! shared [`super::workload_cache`], which builds each distinct trace once
//! no matter how many cells (or workers) request it.
//!
//! The worker count is resolved, in priority order, from the installed
//! defaults' `jobs` (`repro --jobs N`), the `GRIT_JOBS` environment
//! variable, and the machine's available parallelism.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grit_sim::{CancelState, CancelToken, CellError, RunSpec, SimConfig};
use grit_trace::{writer as trace_writer, CellMeta, CellTiming, TraceConfig, Tracer};
use grit_uvm::{PlacementPolicy, Prefetcher};
use grit_workloads::{App, MultiGpuWorkload};

use crate::runner::{ObserverConfig, RunOutput, SimulationBuilder};

use super::result_store::{ResultStore, STORE_SCHEMA};
use super::{report_sink, workload_cache, ExpConfig, PolicyKind};

/// Constructor for [`PolicySpec::Factory`] cells: receives the run's
/// `SimConfig` and footprint pages, returns the policy object.
pub type PolicyFactory = Arc<dyn Fn(&SimConfig, u64) -> Box<dyn PlacementPolicy> + Send + Sync>;

/// How a cell obtains its policy object.
#[derive(Clone)]
pub enum PolicySpec {
    /// A declarative recipe (the common case).
    Kind(PolicyKind),
    /// An arbitrary constructor, for cells whose policy is derived from
    /// earlier results (e.g. oracle policies seeded with a profile).
    Factory(PolicyFactory),
}

impl std::fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicySpec::Kind(k) => write!(f, "Kind({k:?})"),
            PolicySpec::Factory(_) => write!(f, "Factory(..)"),
        }
    }
}

impl From<PolicyKind> for PolicySpec {
    fn from(kind: PolicyKind) -> Self {
        PolicySpec::Kind(kind)
    }
}

/// One experiment cell: everything needed to run `(app, policy)` under an
/// experiment and system configuration.
#[derive(Clone)]
pub struct CellSpec {
    /// The workload-generating application.
    pub app: App,
    /// The placement policy recipe.
    pub policy: PolicySpec,
    /// Scale/intensity/seed knobs.
    pub exp: ExpConfig,
    /// System configuration (GPU count, latencies, page size).
    pub cfg: SimConfig,
    /// Optional instrumentation.
    pub observer: Option<ObserverConfig>,
    /// Optional prefetcher constructor (prefetchers are stateful, so each
    /// cell builds its own instance).
    pub prefetcher: Option<Arc<dyn Fn() -> Box<dyn Prefetcher> + Send + Sync>>,
    /// Per-cell trace configuration. `None` falls back to the process-wide
    /// writer's configuration (installed by `repro --trace`); tracing is
    /// fully disabled when neither is present.
    pub trace: Option<TraceConfig>,
}

impl std::fmt::Debug for CellSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellSpec")
            .field("app", &self.app)
            .field("policy", &self.policy)
            .field("exp", &self.exp)
            .field("observer", &self.observer.is_some())
            .field("prefetcher", &self.prefetcher.is_some())
            .finish_non_exhaustive()
    }
}

impl CellSpec {
    /// A cell with the baseline system configuration (under the
    /// process-wide override [`RunSpec`] installed by
    /// [`set_override_spec`], so `repro --topology` / `--inject` reshape
    /// every figure driver).
    pub fn new(app: App, policy: impl Into<PolicySpec>, exp: &ExpConfig) -> Self {
        CellSpec::pinned(app, policy, exp, apply_cell_overrides(SimConfig::default()))
    }

    /// A cell on exactly the machine `cfg` describes: the process-wide
    /// override [`RunSpec`] does not touch it, so a study that sweeps the
    /// topology, page-size mode or fault schedule itself keeps its own
    /// values under `repro --topology` / `--page-size-mode` / `--inject`.
    pub fn pinned(
        app: App,
        policy: impl Into<PolicySpec>,
        exp: &ExpConfig,
        cfg: SimConfig,
    ) -> Self {
        CellSpec {
            app,
            policy: policy.into(),
            exp: *exp,
            cfg,
            observer: None,
            prefetcher: None,
            trace: None,
        }
    }

    /// Replaces the system configuration. The process-wide overrides
    /// still apply on top; [`CellSpec::pinned`] builds a cell they leave
    /// alone.
    pub fn with_cfg(mut self, cfg: SimConfig) -> Self {
        self.cfg = apply_cell_overrides(cfg);
        self
    }

    /// Attaches observer instrumentation.
    pub fn observed(mut self, observer: ObserverConfig) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a prefetcher, built fresh for each run.
    pub fn with_prefetcher(
        mut self,
        make: impl Fn() -> Box<dyn Prefetcher> + Send + Sync + 'static,
    ) -> Self {
        self.prefetcher = Some(Arc::new(make));
        self
    }

    /// Attaches an explicit trace configuration (overrides the
    /// process-wide writer's configuration for this cell).
    pub fn traced(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Label for the policy column in reports.
    pub fn policy_label(&self) -> String {
        match &self.policy {
            PolicySpec::Kind(kind) => kind.label(),
            PolicySpec::Factory(_) => "factory".into(),
        }
    }

    /// Trace-stream cell header metadata.
    pub fn meta(&self) -> CellMeta {
        CellMeta {
            app: self.app.to_string(),
            policy: self.policy_label(),
            gpus: self.cfg.num_gpus,
        }
    }

    /// Projects the cell back onto the serializable [`RunSpec`] surface:
    /// app and policy by their stable labels, experiment knobs verbatim,
    /// and machine overrides recorded only where the configuration
    /// differs from [`SimConfig::default`]. This is the `spec` column of
    /// `run_report.json` cell rows and the backbone of [`resume_key`],
    /// so the CLI, the store, the report, and the `grit-serve/v1` wire
    /// all name cells the same way.
    ///
    /// Execution knobs that live outside the cell (timeouts) are
    /// batch-level and stay unset here.
    ///
    /// [`resume_key`]: CellSpec::resume_key
    pub fn to_run_spec(&self) -> RunSpec {
        let d = SimConfig::default();
        let mut spec = RunSpec::new(self.app.abbr(), self.policy_label())
            .scale(self.exp.scale)
            .intensity(self.exp.intensity)
            .seed(self.exp.seed);
        if self.cfg.num_gpus != d.num_gpus {
            spec = spec.gpus(self.cfg.num_gpus);
        }
        if self.cfg.page_size != d.page_size {
            spec = spec.page_size(self.cfg.page_size);
        }
        if self.cfg.page_size_mode != d.page_size_mode {
            spec = spec.page_size_mode(self.cfg.page_size_mode.name());
        }
        if self.cfg.topology != d.topology {
            spec = spec.topology(self.cfg.topology.to_string());
        }
        if !self.cfg.inject.is_empty() {
            spec = spec.inject(self.cfg.inject.to_string());
        }
        spec.trace(self.trace.is_some())
    }

    /// The cell's content-address in a [`ResultStore`], or `None` when the
    /// cell is ineligible for resumption: opaque policy factories can't be
    /// keyed, and prefetchers / per-cell tracing produce outputs the store
    /// can't fully reconstruct.
    ///
    /// The key embeds [`MODEL_HASH`], a hash of the simulator's sources,
    /// so results never survive a change to the model; the cell itself is
    /// named by [`RunSpec::canonical`] (one encoding shared with reports
    /// and the serve wire), backed by the full `Debug` form of the
    /// configuration so drivers that reshape `SimConfig` fields beyond
    /// the spec surface (latency sweeps, cache geometry ablations) still
    /// get distinct keys.
    pub fn resume_key(&self) -> Option<String> {
        self.resume_key_under(MODEL_HASH)
    }

    /// [`CellSpec::resume_key`] as a build whose sources hash to `model`
    /// would compute it.
    fn resume_key_under(&self, model: &str) -> Option<String> {
        if self.prefetcher.is_some() || self.trace.is_some() {
            return None;
        }
        if matches!(self.policy, PolicySpec::Factory(_)) {
            return None;
        }
        Some(format!(
            "store={STORE_SCHEMA};model={model};spec={};cfg={:?};observer={:?}",
            self.to_run_spec().canonical(),
            self.cfg,
            self.observer,
        ))
    }

    /// The cell's workload, from the process-wide cache that its run
    /// reads too. Trace properties such as page attributes
    /// ([`MultiGpuWorkload::page_attrs`]) come from here, without a run.
    pub fn workload(&self) -> MultiGpuWorkload {
        workload_cache::shared_workload(self.app, &self.exp, &self.cfg)
    }

    /// Runs this cell as a one-cell [`run_batch`]: the convenience entry
    /// point for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics when the cell fails; call [`run_batch`] to get the failure
    /// as a [`CellError`] value instead.
    pub fn run(&self) -> RunOutput {
        run_batch(std::slice::from_ref(self))
            .pop()
            .expect("one result per cell")
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the cell without submitting to the global sinks, threading a
    /// cancellation token into the simulation loop. The batch executor
    /// submits results in declaration order after the whole batch
    /// finishes, keeping the trace stream byte-identical at any worker
    /// count.
    fn run_inner(&self, cancel: &CancelToken) -> Result<RunOutput, CellError> {
        let build_start = Instant::now();
        let (workload, cache_hit) = {
            let _prof = grit_prof::span(grit_prof::Phase::TraceBuild);
            workload_cache::shared_workload_tracked(self.app, &self.exp, &self.cfg)
        };
        let build_seconds = build_start.elapsed().as_secs_f64();
        let policy = match &self.policy {
            PolicySpec::Kind(kind) => kind.build(&self.cfg, workload.footprint_pages),
            PolicySpec::Factory(make) => make(&self.cfg, workload.footprint_pages),
        };
        let mut builder =
            SimulationBuilder::new(self.cfg.clone(), workload, policy).cancel(cancel.clone());
        if let Some(obs) = &self.observer {
            builder = builder.observer(obs.clone());
        }
        if let Some(make) = &self.prefetcher {
            builder = builder.prefetcher(make());
        }
        let tracer = self.trace.or_else(trace_writer::global_config).map(Tracer::new);
        if let Some(t) = &tracer {
            builder = builder.tracer(t.clone());
        }
        let sim = builder.build().map_err(CellError::Config)?;
        let sim_start = Instant::now();
        let mut out = sim.try_run()?;
        out.timing = CellTiming {
            build_seconds,
            sim_seconds: sim_start.elapsed().as_secs_f64(),
            workload_cache_hit: cache_hit,
            resumed: false,
        };
        out.events = tracer.map(|t| t.take_events());
        Ok(out)
    }
}

/// Convenience accessors for one batch result, so drivers can build
/// tables without matching on every cell: failed cells read as NaN, which
/// [`grit_metrics::Table`] renders as an error marker and
/// [`grit_metrics::geomean`] skips.
pub trait CellResultExt {
    /// The output, when the cell completed.
    fn output(&self) -> Option<&RunOutput>;
    /// Simulated total cycles, or NaN when the cell failed.
    fn cycles(&self) -> f64;
    /// An arbitrary metric projection, or NaN when the cell failed.
    fn metric(&self, f: impl FnOnce(&RunOutput) -> f64) -> f64;
}

impl CellResultExt for Result<RunOutput, CellError> {
    fn output(&self) -> Option<&RunOutput> {
        self.as_ref().ok()
    }

    fn cycles(&self) -> f64 {
        self.metric(|o| o.metrics.total_cycles as f64)
    }

    fn metric(&self, f: impl FnOnce(&RunOutput) -> f64) -> f64 {
        self.as_ref().map_or(f64::NAN, f)
    }
}

/// Execution knobs for one [`run_batch_with`] call.
///
/// The defaults ([`BatchOptions::default`]) run every cell with
/// [`effective_jobs`] workers, no timeout, no resume store, and
/// keep-going semantics; [`BatchOptions::from_defaults`] returns the
/// process-wide value installed by [`set_batch_defaults`] (the `repro`
/// execution flags); `BatchOptions::from(&RunSpec)` lifts the execution
/// knobs out of one explicit spec (the serve path).
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads; `None` resolves via [`effective_jobs`].
    pub jobs: Option<usize>,
    /// Per-cell wall-clock budget; `None` disables timeouts.
    pub timeout: Option<Duration>,
    /// Directory of the on-disk [`ResultStore`]; `None` disables
    /// resumption.
    pub resume_dir: Option<PathBuf>,
    /// Abort the batch on the first failed cell (remaining cells report
    /// [`CellError::Cancelled`]) instead of running everything.
    pub fail_fast: bool,
    /// Size budget for the on-disk [`ResultStore`] in bytes; `None`
    /// means unbounded. After every save the store evicts oldest-first
    /// until it fits.
    pub store_max_bytes: Option<u64>,
}

impl BatchOptions {
    /// All-default options (every field off / auto).
    pub fn new() -> Self {
        BatchOptions::default()
    }

    /// The process-wide options installed by [`set_batch_defaults`];
    /// all-default options when none are installed.
    pub fn from_defaults() -> Self {
        DEFAULTS
            .lock()
            .expect("batch defaults lock poisoned")
            .clone()
            .unwrap_or_default()
    }

    /// Sets an explicit worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Sets a per-cell wall-clock budget.
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.timeout = Some(budget);
        self
    }

    /// Enables the on-disk result store rooted at `dir`.
    pub fn resume_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume_dir = Some(dir.into());
        self
    }

    /// Aborts the batch on the first failure.
    pub fn fail_fast(mut self, yes: bool) -> Self {
        self.fail_fast = yes;
        self
    }

    /// Accepted for compatibility and ignored: every cell runs its event
    /// loop on one thread; [`BatchOptions::jobs`] is the parallelism.
    pub fn sim_threads(self, _n: usize) -> Self {
        self
    }

    /// Bounds the on-disk result store to `bytes`.
    pub fn store_max_bytes(mut self, bytes: u64) -> Self {
        self.store_max_bytes = Some(bytes);
        self
    }
}

impl From<&RunSpec> for BatchOptions {
    /// Lifts the execution knob (`timeout_secs`) out of a spec.
    /// Batch-level knobs a single-cell spec cannot name (worker count,
    /// resume directory, fail-fast, store budget) stay at their defaults
    /// so the caller composes them explicitly.
    fn from(spec: &RunSpec) -> Self {
        BatchOptions {
            jobs: None,
            timeout: spec.timeout_secs.map(Duration::from_secs_f64),
            resume_dir: None,
            fail_fast: false,
            store_max_bytes: None,
        }
    }
}

/// FNV-1a hash of the simulator's sources (`src/` and `crates/*/src`),
/// computed by `build.rs`: the model identity every resume key embeds.
pub const MODEL_HASH: &str = env!("GRIT_MODEL_HASH");

/// The process-wide batch options (the `repro` execution flags `--jobs`,
/// `--cell-timeout`, `--resume`, `--fail-fast`, `--store-max-bytes`);
/// `None` until [`set_batch_defaults`] installs a value.
static DEFAULTS: Mutex<Option<BatchOptions>> = Mutex::new(None);
/// Latched when any batch aborts due to fail-fast; the CLI exit code.
static FAIL_FAST_TRIGGERED: AtomicBool = AtomicBool::new(false);
/// The process-wide override [`RunSpec`]: the single place the `repro`
/// machine-shaping flags (`--topology`, `--page-size`, `--inject`) land.
/// Its fields flow into every subsequently declared [`CellSpec`].
static OVERRIDE_SPEC: Mutex<Option<RunSpec>> = Mutex::new(None);
/// Process-wide progress-heartbeat opt-in (the `repro --progress` flag).
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Turns the stderr progress heartbeat on or off for subsequent batches
/// (the `repro --progress` flag). Deliberately process-wide rather than a
/// `SimConfig` field: resume keys must not depend on how a run is observed.
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether the progress heartbeat is on.
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Installs the process-wide override [`RunSpec`] (`None` clears every
/// override). The `repro` machine-shaping flags build one spec and land
/// it here: its `gpus`, `page_size`, `topology` and `inject` fields are
/// applied to every subsequently declared [`CellSpec`] — flowing into
/// each cell's `SimConfig`, so resume keys and run reports distinguish
/// overridden runs automatically. The spec's `app`/`policy`/experiment
/// knobs and its timeout are ignored: cells already name the former, and
/// the timeout travels in [`BatchOptions`].
pub fn set_override_spec(spec: Option<RunSpec>) {
    *OVERRIDE_SPEC.lock().expect("override spec lock poisoned") = spec;
}

/// The current process-wide override [`RunSpec`]; a default spec (a
/// no-op when applied) when none is installed.
pub fn override_spec() -> RunSpec {
    OVERRIDE_SPEC
        .lock()
        .expect("override spec lock poisoned")
        .clone()
        .unwrap_or_default()
}

fn apply_cell_overrides(mut cfg: SimConfig) -> SimConfig {
    let spec = override_spec();
    if let Err(e) = spec.apply_to(&mut cfg) {
        // The CLI checks the spec against the default configuration
        // before installing it, so this only fires when an override
        // conflicts with a cell's own configuration; the cell keeps what
        // could be applied.
        eprintln!("override spec: {e}");
    }
    cfg
}

/// Installs the process-wide [`BatchOptions`] that
/// [`BatchOptions::from_defaults`] returns and [`run_batch`] runs under.
/// `repro` fills one value from its execution flags and installs it once.
pub fn set_batch_defaults(opts: BatchOptions) {
    *DEFAULTS.lock().expect("batch defaults lock poisoned") = Some(opts);
}

/// Whether any batch in this process aborted due to fail-fast; `repro`
/// exits nonzero exactly when this is set.
pub fn fail_fast_triggered() -> bool {
    FAIL_FAST_TRIGGERED.load(Ordering::Relaxed)
}

/// The worker count [`run_batch`] will use: the installed defaults'
/// `jobs`, else `GRIT_JOBS`, else the machine's available parallelism.
pub fn effective_jobs() -> usize {
    let installed = DEFAULTS
        .lock()
        .expect("batch defaults lock poisoned")
        .as_ref()
        .and_then(|o| o.jobs);
    if let Some(n) = installed {
        return n;
    }
    if let Some(n) = std::env::var("GRIT_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs every cell under [`BatchOptions::from_defaults`] and returns
/// per-cell results in declaration order.
pub fn run_batch(cells: &[CellSpec]) -> Vec<Result<RunOutput, CellError>> {
    run_batch_with(cells, &BatchOptions::from_defaults())
}

/// Runs every cell under explicit options. `jobs <= 1` runs serially on
/// the calling thread; either way, results come back in declaration order
/// and successful outputs are identical to a serial run's.
///
/// Failed cells are reported to the process-wide report sink as
/// structured error rows and logged to stderr; they never abort the batch
/// unless `fail_fast` is set, in which case the shared abort flag stops
/// in-flight cells at the next cancellation poll and unstarted cells
/// yield [`CellError::Cancelled`].
pub fn run_batch_with(
    cells: &[CellSpec],
    opts: &BatchOptions,
) -> Vec<Result<RunOutput, CellError>> {
    let store = opts
        .resume_dir
        .as_ref()
        .filter(|_| trace_writer::global_config().is_none())
        .and_then(|dir| open_store(dir, opts.store_max_bytes));
    run_batch_on(cells, opts, store.as_ref()).0
}

/// Opens the result store at `dir`, or logs why it cannot and runs
/// without one (a missing store only costs re-runs).
pub(crate) fn open_store(dir: &Path, max_bytes: Option<u64>) -> Option<ResultStore> {
    ResultStore::open_with(dir, max_bytes)
        .map_err(|e| eprintln!("resume: cannot open store at {}: {e}", dir.display()))
        .ok()
}

/// [`run_batch_with`] on an already open `store` instead of the one
/// `opts` names (`opts.resume_dir` and `opts.store_max_bytes` are not
/// read), additionally returning this batch's result-store traffic (hits,
/// misses, quarantined files): a long-lived process opens its store once
/// and shares it between batches. The counters cover exactly these cells
/// — the campaign service reports them per cell to remote clients; they
/// are all zero without a store.
pub(crate) fn run_batch_on(
    cells: &[CellSpec],
    opts: &BatchOptions,
    store: Option<&ResultStore>,
) -> (Vec<Result<RunOutput, CellError>>, grit_trace::StoreCounters) {
    #[cfg(test)]
    tests::BATCHES_ON_THREAD.with(|n| n.set(n.get() + 1));
    let cache_before = workload_cache::global().stats();
    let start = Instant::now();
    // A one-cell batch (every served cell) runs on one worker whatever
    // the setting, so skip resolving it: `available_parallelism` reads
    // cgroup files, which costs as much as a small store hit.
    let jobs = match cells.len() {
        0 | 1 => 1,
        n => opts.jobs.unwrap_or_else(effective_jobs).clamp(1, n),
    };
    // The store cannot reproduce trace events, so resumption is disabled
    // batch-wide while a global trace writer is active: a resumed run must
    // never silently drop cells from the event stream.
    let store = store
        .filter(|_| trace_writer::global_config().is_none())
        .map(ResultStore::with_fresh_counters);
    // The abort flag exists only under fail-fast, so keep-going batches
    // run with inert (zero-cost) tokens unless a timeout is configured.
    let batch_token = if opts.fail_fast {
        CancelToken::shared()
    } else {
        CancelToken::new()
    };
    // The heartbeat monitor: a detached-until-joined thread printing one
    // stderr line per second with completed cells and an ETA extrapolated
    // from the mean cell time so far.
    let done_count = Arc::new(AtomicUsize::new(0));
    let heartbeat_stop = Arc::new(AtomicBool::new(false));
    let monitor = (progress_enabled() && !cells.is_empty()).then(|| {
        let done = Arc::clone(&done_count);
        let stop = Arc::clone(&heartbeat_stop);
        let total = cells.len();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1000));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let d = done.load(Ordering::Relaxed);
                let elapsed = t0.elapsed().as_secs_f64();
                let eta = if d > 0 {
                    format!("{:.0}s", elapsed / d as f64 * (total - d) as f64)
                } else {
                    "?".into()
                };
                eprintln!("progress: {d}/{total} cells done, {elapsed:.0}s elapsed, eta {eta}");
            }
        })
    });
    let run_guarded = |cell: &CellSpec| -> Result<RunOutput, CellError> {
        if batch_token.poll() == CancelState::Cancelled {
            done_count.fetch_add(1, Ordering::Relaxed);
            return Err(CellError::Cancelled);
        }
        let key = store.as_ref().and_then(|_| cell.resume_key());
        if let (Some(store), Some(key)) = (&store, &key) {
            if let Some(out) = store.load(key) {
                done_count.fetch_add(1, Ordering::Relaxed);
                return Ok(out);
            }
        }
        let token = batch_token.child(opts.timeout);
        let result =
            catch_unwind(AssertUnwindSafe(|| cell.run_inner(&token))).unwrap_or_else(|payload| {
                let message = if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(CellError::Panicked { message })
            });
        match &result {
            Ok(out) => {
                if let (Some(store), Some(key)) = (&store, &key) {
                    if let Err(e) = store.save(key, out) {
                        eprintln!("resume: failed to store cell result: {e}");
                    }
                }
            }
            Err(_) if opts.fail_fast => {
                FAIL_FAST_TRIGGERED.store(true, Ordering::Relaxed);
                batch_token.cancel();
            }
            Err(_) => {}
        }
        done_count.fetch_add(1, Ordering::Relaxed);
        result
    };
    let results: Vec<Result<RunOutput, CellError>> = if jobs <= 1 {
        cells.iter().map(run_guarded).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<RunOutput, CellError>>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let out = run_guarded(cell);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every cell ran to completion")
            })
            .collect()
    };
    heartbeat_stop.store(true, Ordering::Relaxed);
    if let Some(m) = monitor {
        let _ = m.join();
    }
    // Submit in declaration order, after all workers finished: the trace
    // stream and report are independent of the worker count (the serial
    // path is already in declaration order, but flows through the same
    // code so error accounting is uniform).
    for (cell, result) in cells.iter().zip(&results) {
        match result {
            Ok(out) => {
                if let Some(events) = &out.events {
                    if let Err(e) = trace_writer::submit_global(&cell.meta(), events) {
                        eprintln!("trace: failed to write events for {}: {e}", cell.app);
                    }
                }
            }
            Err(e) => {
                eprintln!(
                    "cell failed [{}]: app={} policy={}: {e}",
                    e.status(),
                    cell.app,
                    cell.policy_label()
                );
            }
        }
        report_sink::record_cell(cell, result.as_ref());
    }
    if !cells.is_empty() {
        report_sink::record_batch(cells.len(), jobs, start, cache_before);
    }
    let store_counters = store.as_ref().map(ResultStore::counters).unwrap_or_default();
    report_sink::record_store(store_counters);
    (results, store_counters)
}

/// Runs a figure's grid: `row(key)` declares the cells of each key's row
/// (an app, or a tuple such as `(topology, gpus, app)`), every row runs
/// in one batch in key order, and each key comes back with its row of
/// results. Drivers read rows by key instead of computing batch offsets.
pub fn run_grid<K: Copy, R: IntoIterator<Item = CellSpec>>(
    keys: &[K],
    row: impl Fn(K) -> R,
) -> Vec<(K, Vec<Result<RunOutput, CellError>>)> {
    let mut cells = Vec::new();
    let widths: Vec<usize> = keys
        .iter()
        .map(|&key| {
            let before = cells.len();
            cells.extend(row(key));
            cells.len() - before
        })
        .collect();
    let mut results = run_batch(&cells).into_iter();
    keys.iter()
        .zip(widths)
        .map(|(&key, width)| (key, results.by_ref().take(width).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::{Scheme, TopologyConfig, TopologyKind};

    fn exp() -> ExpConfig {
        ExpConfig {
            scale: 0.02,
            intensity: 0.5,
            seed: 0x7E57,
        }
    }

    fn grid() -> Vec<CellSpec> {
        let policies = [
            PolicyKind::Static(Scheme::OnTouch),
            PolicyKind::FirstTouch,
            PolicyKind::GRIT,
        ];
        [App::Bfs, App::Fir]
            .into_iter()
            .flat_map(|app| policies.map(|p| CellSpec::new(app, p, &exp())))
            .collect()
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let cells = grid();
        let serial = run_batch_with(&cells, &BatchOptions::new().jobs(1));
        let parallel = run_batch_with(&cells, &BatchOptions::new().jobs(4));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.metrics.total_cycles, p.metrics.total_cycles);
            assert_eq!(s.metrics.accesses, p.metrics.accesses);
            assert_eq!(s.metrics.faults.local_faults, p.metrics.faults.local_faults);
        }
    }

    #[test]
    fn factory_policies_run() {
        let factory = PolicySpec::Factory(Arc::new(|_, _| {
            Box::new(grit_uvm::StaticPolicy::new(Scheme::OnTouch))
        }));
        let cell = CellSpec::pinned(App::Fir, factory, &exp(), SimConfig::default());
        assert!(cell.resume_key().is_none(), "factories are not resumable");
        let by_factory = cell.run();
        let by_kind = CellSpec::new(App::Fir, PolicyKind::Static(Scheme::OnTouch), &exp()).run();
        assert_eq!(
            by_factory.metrics.total_cycles,
            by_kind.metrics.total_cycles
        );
    }

    #[test]
    fn jobs_resolution_prefers_override() {
        // No override: some positive count.
        set_batch_defaults(BatchOptions::new());
        assert!(effective_jobs() >= 1);
        set_batch_defaults(BatchOptions::new().jobs(3));
        assert_eq!(effective_jobs(), 3);
        assert_eq!(BatchOptions::from_defaults().jobs, Some(3));
        set_batch_defaults(BatchOptions::new());
    }

    #[test]
    fn batch_options_lift_execution_knobs_from_spec() {
        let spec = RunSpec::default().timeout_secs(1.5);
        let opts = BatchOptions::from(&spec);
        assert_eq!(opts.timeout, Some(Duration::from_secs_f64(1.5)));
        assert!(opts.jobs.is_none() && opts.resume_dir.is_none());
        assert!(!opts.fail_fast && opts.store_max_bytes.is_none());
        // A spec without execution knobs lifts to all-default options.
        let plain = BatchOptions::from(&RunSpec::default());
        assert!(plain.timeout.is_none());
    }

    thread_local! {
        /// Batches started on this thread, so a test can count the
        /// batches behind one call without racing other tests.
        pub(super) static BATCHES_ON_THREAD: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    #[test]
    fn run_grid_returns_rows_in_key_order_from_one_batch() {
        let ot = PolicyKind::Static(Scheme::OnTouch);
        let row = |app: App| {
            let policies = if app == App::Fir {
                vec![ot]
            } else {
                vec![ot, PolicyKind::GRIT]
            };
            policies.into_iter().map(move |p| CellSpec::new(app, p, &exp()))
        };
        let keys = [App::Fir, App::Bfs, App::Gemm];
        let before = BATCHES_ON_THREAD.with(|n| n.get());
        let rows = run_grid(&keys, row);
        assert_eq!(BATCHES_ON_THREAD.with(|n| n.get()) - before, 1);
        assert_eq!(rows.iter().map(|(k, _)| *k).collect::<Vec<_>>(), keys);
        for (app, results) in &rows {
            let expected: Vec<u64> = row(*app).map(|c| c.run().metrics.total_cycles).collect();
            let got: Vec<u64> = results.iter().map(|r| r.cycles() as u64).collect();
            assert_eq!(got, expected, "{app}");
        }
        assert!(run_grid(&[] as &[App], row).is_empty());
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_batch(&[]).is_empty());
    }

    #[test]
    fn cell_result_ext_maps_failures_to_nan() {
        let err: Result<RunOutput, CellError> = Err(CellError::Cancelled);
        assert!(err.output().is_none());
        assert!(err.cycles().is_nan());
        assert!(err.metric(|_| 1.0).is_nan());
    }

    #[test]
    fn to_run_spec_names_the_machine_and_rebuilds_it() {
        let cfg = SimConfig {
            num_gpus: 8,
            topology: TopologyConfig::of(TopologyKind::Ring),
            ..SimConfig::default()
        };
        let cell = CellSpec::pinned(App::Fir, PolicyKind::GRIT, &exp(), cfg);
        let spec = cell.to_run_spec();
        assert_eq!(spec.app, "FIR");
        assert_eq!(spec.policy, "grit");
        assert_eq!(spec.gpus, Some(8));
        assert_eq!(spec.topology.as_deref(), Some("ring"));
        assert_eq!(spec.scale, exp().scale);
        // Applying the projected spec to a default machine reconstructs
        // the cell's configuration, so spec naming loses nothing.
        let mut rebuilt = SimConfig::default();
        spec.apply_to(&mut rebuilt).unwrap();
        assert_eq!(rebuilt, cell.cfg);
        // The canonical spec string is embedded verbatim in the resume
        // key: one naming scheme across store, report, and wire.
        assert!(cell.resume_key().unwrap().contains(&spec.canonical()));
        // A default-machine cell projects to a spec with no overrides.
        let plain = CellSpec::new(App::Bfs, PolicyKind::GRIT, &exp()).to_run_spec();
        assert!(plain.gpus.is_none() && plain.topology.is_none() && plain.inject.is_none());
    }

    #[test]
    fn resume_keys_distinguish_cells_and_versions() {
        let a = CellSpec::new(App::Bfs, PolicyKind::GRIT, &exp()).resume_key().unwrap();
        let b = CellSpec::new(App::Fir, PolicyKind::GRIT, &exp()).resume_key().unwrap();
        let c = CellSpec::new(App::Bfs, PolicyKind::FirstTouch, &exp()).resume_key().unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.contains(&format!(";model={MODEL_HASH};")));
        let observed = CellSpec::new(App::Bfs, PolicyKind::GRIT, &exp()).observed(ObserverConfig {
            grid_page_bins: 50,
            ..ObserverConfig::default()
        });
        assert_ne!(observed.resume_key().unwrap(), a);
    }

    #[test]
    fn a_model_change_changes_every_key() {
        // Stored results are keyed by the sources that computed them:
        // the same cell under two source hashes has two keys.
        let cell = CellSpec::new(App::Bfs, PolicyKind::GRIT, &exp());
        let old = cell.resume_key_under("0123456789abcdef").unwrap();
        let new = cell.resume_key_under("0123456789abcdee").unwrap();
        assert_ne!(old, new);
        assert_eq!(cell.resume_key(), cell.resume_key_under(MODEL_HASH));
        assert_eq!(MODEL_HASH.len(), 16);
        assert!(MODEL_HASH.bytes().all(|b| b.is_ascii_hexdigit()));
    }
}
