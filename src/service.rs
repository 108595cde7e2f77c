//! Glue between the campaign server (`grit-serve`) and the experiment
//! engine: turns a serialized [`RunSpec`] into a [`CellSpec`], runs it
//! through the resilient batch executor, and packages the outcome for
//! the wire.
//!
//! `grit-serve` itself knows nothing about simulations — it executes
//! cells through an opaque [`SpecRunner`] callback. This module is the
//! one place that callback is implemented for real, which keeps the
//! dependency arrow pointing the right way (`grit` → `grit-serve`, not
//! the reverse) and means every served cell goes through exactly the
//! same engine — workload cache, result store, catch-unwind isolation —
//! as a `repro` batch run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use grit_serve::{CellResult, ServeOptions, ServeSummary, Server, SpecFailure, SpecRunner};
use grit_sim::{CellError, RunSpec, SimConfig};
use grit_trace::{CategoryMask, TraceConfig, TraceEvent};
use grit_workloads::App;

use crate::experiments::batch::{open_store, run_batch_on};
use crate::experiments::result_store::ResultStore;
use crate::experiments::{BatchOptions, CellSpec, ExpConfig, PolicyKind};
use crate::runner::RunOutput;

/// Per-cell deadline applied by the server when the spec carries none,
/// so one runaway cell cannot wedge a shared campaign server forever.
pub const DEFAULT_CELL_TIMEOUT_SECS: f64 = 600.0;

/// Resolves a wire-level [`RunSpec`] into a runnable [`CellSpec`] on
/// exactly the machine the spec names: the process-wide override spec
/// (the server's own `--topology`, `--page-size`, `--inject`, ...) does
/// not reach it.
///
/// # Errors
///
/// A message naming the offending field: unknown app or policy label,
/// or machine knobs [`RunSpec::apply_to`] rejects.
pub fn parse_spec_cell(spec: &RunSpec) -> Result<CellSpec, String> {
    let app = App::parse(&spec.app).ok_or_else(|| format!("unknown app '{}'", spec.app))?;
    let policy = PolicyKind::parse(&spec.policy)
        .ok_or_else(|| format!("unknown policy '{}'", spec.policy))?;
    let mut cfg = SimConfig::default();
    spec.apply_to(&mut cfg).map_err(|e| e.to_string())?;
    let mut cell = CellSpec::pinned(app, policy, &ExpConfig::from(spec), cfg);
    if spec.trace {
        cell = cell.traced(trace_config(spec)?);
    }
    Ok(cell)
}

/// The event filter and sampling `spec` asks for.
///
/// # Errors
///
/// The first unknown category name in `trace_filter`.
pub fn trace_config(spec: &RunSpec) -> Result<TraceConfig, String> {
    let categories = match &spec.trace_filter {
        Some(filter) => CategoryMask::parse(filter)?,
        None => CategoryMask::ALL,
    };
    Ok(TraceConfig {
        categories,
        sample_every: spec.trace_sample.max(1),
    })
}

/// A finished batch cell as its wire result: the counters, whether the
/// store answered it, and its trace events; a failed cell is its
/// status and message. The store-traffic counters and the `id` are the
/// caller's to fill in.
///
/// # Errors
///
/// The failed cell's [`SpecFailure`].
pub fn cell_result(out: Result<RunOutput, CellError>) -> Result<CellResult, SpecFailure> {
    let out = out.map_err(|err| SpecFailure::new(err.status(), err.to_string()))?;
    let mut res = CellResult::default();
    res.status = "ok".into();
    res.store_hit = out.timing.resumed;
    res.total_cycles = out.metrics.total_cycles;
    res.accesses = out.metrics.accesses;
    res.local_faults = out.metrics.faults.local_faults;
    res.migrations = out.metrics.faults.migrations;
    res.sim_seconds = out.timing.sim_seconds;
    res.trace = out.events.iter().flatten().map(TraceEvent::to_json).collect();
    Ok(res)
}

/// Runs one spec through the batch engine, honoring the spec's own
/// `timeout_secs`, on the store at `store_dir` (opened for this call).
/// When the spec carries no deadline, `default_timeout` (if any) is
/// applied as a batch-level timeout — *not* written into the spec, which
/// would change its canonical store key and break the
/// resubmit-hits-the-store guarantee.
pub fn run_spec(
    spec: &RunSpec,
    store_dir: Option<&Path>,
    store_max_bytes: Option<u64>,
    default_timeout: Option<Duration>,
) -> Result<CellResult, SpecFailure> {
    let store = store_dir.and_then(|dir| open_store(dir, store_max_bytes));
    run_spec_on(spec, store.as_ref(), default_timeout)
}

/// [`run_spec`] on an already open store.
fn run_spec_on(
    spec: &RunSpec,
    store: Option<&ResultStore>,
    default_timeout: Option<Duration>,
) -> Result<CellResult, SpecFailure> {
    let cell =
        parse_spec_cell(spec).map_err(|message| SpecFailure::new("invalid-spec", message))?;
    let mut opts = BatchOptions::from(spec);
    if spec.timeout_secs.is_none() {
        if let Some(deadline) = default_timeout {
            opts = opts.timeout(deadline);
        }
    }
    let (mut results, store) = run_batch_on(std::slice::from_ref(&cell), &opts, store);
    let mut res = cell_result(results.pop().expect("one cell in, one result out"))?;
    res.store_hits = store.hits;
    res.store_misses = store.misses;
    res.store_quarantined = store.quarantined;
    Ok(res)
}

/// Builds the production [`SpecRunner`]: every cell (from any client)
/// shares this process's workload cache and one result store, opened
/// here once — so a bounded store keeps one running size instead of
/// rescanning its directory per cell. Cells whose spec carries no
/// deadline get none either; [`serve`] gives them
/// [`DEFAULT_CELL_TIMEOUT_SECS`].
pub fn spec_runner(store_dir: Option<PathBuf>, store_max_bytes: Option<u64>) -> SpecRunner {
    spec_runner_with(store_dir, store_max_bytes, None)
}

/// [`spec_runner`] with a deadline for specs that carry none.
fn spec_runner_with(
    store_dir: Option<PathBuf>,
    store_max_bytes: Option<u64>,
    default_timeout: Option<Duration>,
) -> SpecRunner {
    let store = store_dir.and_then(|dir| open_store(&dir, store_max_bytes));
    Arc::new(move |spec: &RunSpec| run_spec_on(spec, store.as_ref(), default_timeout))
}

/// Starts a campaign server and blocks until a client asks it to shut
/// down, or SIGINT/SIGTERM arrives (drain-then-exit: queued cells are
/// answered and every open connection gets its `done` before the
/// process returns). Prints the bound address to stderr (and to
/// `opts.port_file` when set) so scripts started with port 0 can find
/// it.
///
/// Served cells whose spec carries no deadline run under
/// [`DEFAULT_CELL_TIMEOUT_SECS`].
///
/// # Errors
///
/// Bind or port-file failures, as a message.
pub fn serve(
    opts: &ServeOptions,
    store_dir: Option<PathBuf>,
    store_max_bytes: Option<u64>,
) -> Result<ServeSummary, String> {
    let deadline = Duration::from_secs_f64(DEFAULT_CELL_TIMEOUT_SECS);
    let runner = spec_runner_with(store_dir, store_max_bytes, Some(deadline));
    let server = Server::start(opts, runner)?;
    eprintln!("repro serve: listening on {}", server.local_addr());
    #[cfg(unix)]
    drain_on_signals(server.shutdown_handle());
    Ok(server.run())
}

/// Arranges a graceful drain on SIGINT/SIGTERM. The handler itself only
/// flips a flag (the only async-signal-safe thing it may do); a
/// detached poller thread notices within ~100ms and triggers the
/// server's [`grit_serve::ShutdownHandle`], which locks and allocates
/// freely.
#[cfg(unix)]
fn drain_on_signals(handle: grit_serve::ShutdownHandle) {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    // `signal(2)` comes from the C runtime std already links; declaring
    // it directly avoids a libc crate dependency. SIG_ERR replies are
    // ignorable: worst case the default handler stays and the process
    // dies undrained, which is exactly the pre-handler behaviour.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            eprintln!("repro serve: signal received, draining queued cells before exit");
            handle.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    });
}
