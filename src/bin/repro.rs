//! `repro` — regenerates every table and figure of the GRIT paper.
//!
//! ```text
//! repro all                # every figure at the default scale
//! repro fig17 --quick      # one figure, CI-sized inputs
//! repro all --jobs 8       # cap the worker pool (default: all cores)
//! repro list               # every target and flag
//! ```
//!
//! The command line is two tables: `TARGETS` (names, aliases, what each
//! does and the runner) and `FLAGS` (names, value, help and where the
//! value lands). One loop reads the flags, [`RunSpec::apply_to`] checks the
//! configuration they make before any target runs, and `repro list` prints
//! both tables.
//!
//! Experiment cells fan out across a worker pool sized by `--jobs`, the
//! `GRIT_JOBS` environment variable, or the machine's core count; tables
//! are byte-identical to a serial run regardless of the worker count. A
//! failed cell — panic, timeout, invariant violation — renders as an `err!`
//! row in the affected tables and as a structured error record in
//! `run_report.json`; the process exits nonzero only under `--fail-fast`.

use std::collections::HashMap;
use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use grit::experiments::{self as ex, report_sink, ExpConfig};
use grit_metrics::Table;
use grit_sim::{RunSpec, SimConfig};
use grit_trace::report::RUN_REPORT_SCHEMA;
use grit_trace::{writer as trace_writer, CategoryMask, Json};

/// Everything the command line sets. Scale, intensity, seed, the machine
/// overrides, the cell timeout and the trace knobs land in `spec`, the
/// same `RunSpec` the result store keys on and the serve wire carries; the
/// batch execution flags land in `batch`.
#[derive(Default)]
struct Args {
    spec: RunSpec,
    batch: ex::BatchOptions,
    /// Targets, and the operands of a command.
    positional: Vec<String>,
    csv_dir: Option<PathBuf>,
    trace_path: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    force: bool,
    profile: bool,
    profile_out: Option<PathBuf>,
    serve: grit_serve::ServeOptions,
    connect: Option<String>,
    apps: Option<String>,
    policies: Option<String>,
    local: bool,
    retry: bool,
    shutdown: bool,
}

/// One command-line flag.
struct Flag {
    /// The flag, then its aliases.
    names: &'static [&'static str],
    help: &'static str,
    set: Set,
}

/// Where a flag's value lands.
enum Set {
    /// A flag without a value.
    Switch(fn(&mut Args)),
    /// A flag followed by one value, named by the placeholder; the setter
    /// returns `None` for a malformed value.
    Value(&'static str, fn(&mut Args, &str) -> Option<()>),
}

use Set::{Switch, Value};

/// A value that parses as a positive number.
fn positive<T: std::str::FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

/// `--quick` / `--full`: a preset's scale and intensity.
fn preset(a: &mut Args, exp: ExpConfig) {
    a.spec.scale = exp.scale;
    a.spec.intensity = exp.intensity;
}

const FLAGS: &[Flag] = &[
    Flag {
        names: &["--quick"],
        help: "CI-sized inputs (scale 0.04, intensity 1.5)",
        set: Switch(|a| preset(a, ExpConfig::quick())),
    },
    Flag {
        names: &["--full"],
        help: "Table II full footprints (scale 1, intensity 2; slow)",
        set: Switch(|a| preset(a, ExpConfig::full())),
    },
    Flag {
        names: &["--scale"],
        help: "footprint scale relative to Table II, finite and positive (default 0.1)",
        set: Value("X", |a, v| v.parse().ok().map(|x| a.spec.scale = x)),
    },
    Flag {
        names: &["--intensity"],
        help: "trace-length multiplier, finite and positive (default 2)",
        set: Value("X", |a, v| v.parse().ok().map(|x| a.spec.intensity = x)),
    },
    Flag {
        names: &["--seed"],
        help: "workload seed, an unsigned integer (default 48879)",
        set: Value("N", |a, v| v.parse().ok().map(|n| a.spec.seed = n)),
    },
    Flag {
        names: &["--jobs", "-j"],
        help: "worker threads for experiment cells (also GRIT_JOBS; default: all cores)",
        set: Value("N", |a, v| positive(v).map(|n| a.batch.jobs = Some(n))),
    },
    Flag {
        names: &["--csv"],
        help: "also write each table as DIR/<table>.csv",
        set: Value("DIR", |a, v| {
            a.csv_dir = Some(PathBuf::from(v));
            Some(())
        }),
    },
    Flag {
        names: &["--trace"],
        help: "write a structured JSONL event stream",
        set: Value("PATH", |a, v| {
            a.spec.trace = true;
            a.trace_path = Some(PathBuf::from(v));
            Some(())
        }),
    },
    Flag {
        names: &["--trace-filter"],
        help: "comma-separated event categories, e.g. fault,migration (default: all)",
        set: Value("LIST", |a, v| {
            CategoryMask::parse(v).ok().map(|_| a.spec.trace_filter = Some(v.to_string()))
        }),
    },
    Flag {
        names: &["--trace-sample"],
        help: "keep every Nth event per category, N at least 1 (default 1)",
        set: Value("N", |a, v| positive(v).map(|n| a.spec.trace_sample = n)),
    },
    Flag {
        names: &["--metrics-out"],
        help: "write DIR/run_report.json (refuses to overwrite one without --force)",
        set: Value("DIR", |a, v| {
            a.metrics_dir = Some(PathBuf::from(v));
            Some(())
        }),
    },
    Flag {
        names: &["--force"],
        help: "allow overwriting an existing run_report.json",
        set: Switch(|a| a.force = true),
    },
    Flag {
        names: &["--profile"],
        help: "wall-clock phase timers, also in run_report.json (no overhead when off)",
        set: Switch(|a| a.profile = true),
    },
    Flag {
        names: &["--profile-out"],
        help: "write a Chrome trace-event / Perfetto JSON span trace (implies --profile)",
        set: Value("PATH", |a, v| {
            a.profile = true;
            a.profile_out = Some(PathBuf::from(v));
            Some(())
        }),
    },
    Flag {
        names: &["--progress"],
        help: "1 Hz heartbeat: cells done, ETA",
        set: Switch(|_| ex::set_progress(true)),
    },
    Flag {
        names: &["--cell-timeout"],
        help: "wall-clock budget per cell (expired cells become err! rows)",
        set: Value("SECS", |a, v| {
            v.parse().ok().map(|s| a.spec.timeout_secs = Some(s))
        }),
    },
    Flag {
        names: &["--resume"],
        help: "store finished cells under .grit-resume/ and skip them on re-run",
        set: Switch(|a| a.batch.resume_dir = Some(PathBuf::from(".grit-resume"))),
    },
    Flag {
        names: &["--resume-dir", "--store"],
        help: "like --resume, in DIR; also the store of serve (default .grit-serve-store/)",
        set: Value("DIR", |a, v| {
            v.parse().ok().map(|d| a.batch.resume_dir = Some(d))
        }),
    },
    Flag {
        names: &["--store-max-bytes"],
        help: "bound any result store; oldest entries are evicted deterministically",
        set: Value("N", |a, v| {
            positive(v).map(|n| a.batch.store_max_bytes = Some(n))
        }),
    },
    Flag {
        names: &["--fail-fast"],
        help: "abort the campaign (exit nonzero) on the first failed cell",
        set: Switch(|a| a.batch.fail_fast = true),
    },
    Flag {
        names: &["--keep-going"],
        help: "render failed cells as rows and keep running (default)",
        set: Switch(|a| a.batch.fail_fast = false),
    },
    Flag {
        names: &["--topology"],
        help: "all-to-all (default), nvswitch[:RADIX], ring, mesh2d or hierarchical links",
        set: Value("T", |a, v| {
            v.parse().ok().map(|s| a.spec.topology = Some(s))
        }),
    },
    Flag {
        names: &["--page-size"],
        help: "base page size in bytes for every cell (default 4096)",
        set: Value("N", |a, v| {
            v.parse().ok().map(|n| a.spec.page_size = Some(n))
        }),
    },
    Flag {
        names: &["--page-size-mode"],
        help: "uniform4k (default) or mixed: coalesce private pages into 2 MB frames",
        set: Value("M", |a, v| {
            v.parse().ok().map(|s| a.spec.page_size_mode = Some(s))
        }),
    },
    Flag {
        names: &["--inject"],
        help: "fault schedule, e.g. 'outage@1000:wire=0:for=5000;retire@2000:gpu=1:pct=10'",
        set: Value("SPEC", |a, v| {
            v.parse().ok().map(|s| a.spec.inject = Some(s))
        }),
    },
    Flag {
        names: &["--port"],
        help: "serve: TCP port (default 0, an ephemeral port)",
        set: Value("N", |a, v| v.parse().ok().map(|n| a.serve.port = n)),
    },
    Flag {
        names: &["--port-file"],
        help: "serve: write the bound address to PATH",
        set: Value("PATH", |a, v| {
            v.parse().ok().map(|s| a.serve.port_file = Some(s))
        }),
    },
    Flag {
        names: &["--max-queued"],
        help: "serve: admission bound on queued cells (default 0, unbounded)",
        set: Value("N", |a, v| v.parse().ok().map(|n| a.serve.max_queued = n)),
    },
    Flag {
        names: &["--connect"],
        help: "submit: run the campaign on the server at HOST:PORT",
        set: Value("HOST:PORT", |a, v| {
            v.parse().ok().map(|s| a.connect = Some(s))
        }),
    },
    Flag {
        names: &["--apps"],
        help: "submit: comma-separated apps, e.g. GEMM,BFS",
        set: Value("LIST", |a, v| v.parse().ok().map(|s| a.apps = Some(s))),
    },
    Flag {
        names: &["--policies"],
        help: "submit: comma-separated policies, e.g. grit,on-touch (default grit)",
        set: Value("LIST", |a, v| v.parse().ok().map(|s| a.policies = Some(s))),
    },
    Flag {
        names: &["--local"],
        help: "submit: run the campaign through the in-process engine",
        set: Switch(|a| a.local = true),
    },
    Flag {
        names: &["--retry"],
        help: "submit: resubmit unresolved cells with capped exponential backoff",
        set: Switch(|a| a.retry = true),
    },
    Flag {
        names: &["--shutdown"],
        help: "submit: stop the server afterwards (alone: only stop it)",
        set: Switch(|a| a.shutdown = true),
    },
];

/// One named target.
struct Target {
    /// The name, then its aliases.
    names: &'static [&'static str],
    help: &'static str,
    run: Run,
}

/// Prints a target's tables for the experiment config.
type Tables = fn(&ExpConfig, &mut Out);

/// A command: the flags and the operands after its name.
type Command = fn(&Args, &[String]) -> Result<(), String>;

/// How a target runs.
enum Run {
    /// A figure of the evaluation: `all` runs every one, in slice order.
    Figure(Tables),
    /// Prints tables like a figure, but only when named.
    Named(Tables),
    /// Runs alone, on the operands its placeholders name.
    Command(&'static str, Command),
}

const TARGETS: &[Target] = &[
    Target {
        names: &["fig1"],
        help: "Uniform schemes + Ideal vs on-touch (motivation)",
        run: Run::Figure(|exp, out| out.emit(&ex::fig01_schemes::run(exp), "fig1")),
    },
    Target {
        names: &["fig3"],
        help: "Page-handling latency breakdown per scheme",
        run: Run::Figure(|exp, out| out.emit(&ex::fig03_breakdown::run(exp), "fig3")),
    },
    Target {
        names: &["fig4"],
        help: "Private/shared pages and accesses",
        run: Run::Figure(|exp, out| out.emit(&ex::fig04_sharing::run(exp), "fig4")),
    },
    Target {
        names: &["fig5"],
        help: "Shared-page access mix over time (C2D, ST)",
        run: Run::Figure(|exp, out| {
            for (i, t) in ex::fig05_page_timeline::run(exp).into_iter().enumerate() {
                out.emit(&t, &format!("fig5_{i}"));
            }
        }),
    },
    Target {
        names: &["fig6", "fig7", "fig8"],
        help: "Attribute grids: GEMM & ST (Figs 6-8)",
        run: Run::Figure(|exp, out| out.emit(&ex::fig06_attr_grids::run(exp), "fig6_8")),
    },
    Target {
        names: &["fig9"],
        help: "Accesses to read vs read-write pages",
        run: Run::Figure(|exp, out| out.emit(&ex::fig09_rw::run(exp), "fig9")),
    },
    Target {
        names: &["fig10"],
        help: "Read/write mix over time for one RW page (ST)",
        run: Run::Figure(|exp, out| out.emit(&ex::fig10_rw_timeline::run(exp), "fig10")),
    },
    Target {
        names: &["fig17"],
        help: "HEADLINE: GRIT vs uniform schemes",
        run: Run::Figure(|exp, out| {
            let t = ex::fig17_grit::run(exp);
            out.emit(&t, "fig17");
            let (ot, ac, d) = ex::fig17_grit::headline(&t);
            println!(
                "headline: GRIT vs on-touch +{:.0}%  vs access-counter +{:.0}%  vs duplication +{:.0}%",
                100.0 * ot,
                100.0 * ac,
                100.0 * d
            );
            println!(
                "paper:    GRIT vs on-touch +60%  vs access-counter +49%  vs duplication +29%\n"
            );
            out.fig17 = Some(t);
        }),
    },
    Target {
        names: &["fig18"],
        help: "GPU page faults per policy",
        run: Run::Figure(|exp, out| {
            let t = ex::fig18_faults::run(exp);
            out.emit(&t, "fig18");
            out.fig18 = Some(t);
        }),
    },
    Target {
        names: &["fig19"],
        help: "Scheme mix under GRIT",
        run: Run::Figure(|exp, out| out.emit(&ex::fig19_scheme_mix::run(exp), "fig19")),
    },
    Target {
        names: &["fig20"],
        help: "Component ablation",
        run: Run::Figure(|exp, out| out.emit(&ex::fig20_ablation::run(exp), "fig20")),
    },
    Target {
        names: &["fig21"],
        help: "Fault-threshold sensitivity",
        run: Run::Figure(|exp, out| out.emit(&ex::fig21_threshold::run(exp), "fig21")),
    },
    Target {
        names: &["fig22", "fig23", "fig24"],
        help: "2/8/16-GPU scaling (Figs 22-24)",
        run: Run::Figure(|exp, out| {
            for (n, perf, faults) in ex::fig22_gpu_scaling::run(exp) {
                println!("--- {n} GPUs ---");
                out.emit(&perf, &format!("fig22_24_{n}gpu_perf"));
                out.emit(&faults, &format!("fig22_24_{n}gpu_faults"));
            }
        }),
    },
    Target {
        names: &["fig25"],
        help: "2MB pages with enlarged inputs",
        run: Run::Figure(|exp, out| out.emit(&ex::fig25_large_pages::run(exp), "fig25")),
    },
    Target {
        names: &["fig26"],
        help: "Griffin comparison",
        run: Run::Figure(|exp, out| out.emit(&ex::fig26_griffin::run(exp), "fig26")),
    },
    Target {
        names: &["fig27"],
        help: "GPS comparison",
        run: Run::Figure(|exp, out| out.emit(&ex::fig27_gps::run(exp), "fig27")),
    },
    Target {
        names: &["fig28"],
        help: "Griffin-DPC + Trans-FW comparison",
        run: Run::Figure(|exp, out| out.emit(&ex::fig28_transfw::run(exp), "fig28")),
    },
    Target {
        names: &["fig29"],
        help: "First-touch comparison",
        run: Run::Figure(|exp, out| out.emit(&ex::fig29_first_touch::run(exp), "fig29")),
    },
    Target {
        names: &["fig30"],
        help: "Prefetching combination",
        run: Run::Figure(|exp, out| out.emit(&ex::fig30_prefetch::run(exp), "fig30")),
    },
    Target {
        names: &["fig31"],
        help: "DNN model parallelism",
        run: Run::Figure(|exp, out| out.emit(&ex::fig31_dnn::run(exp), "fig31")),
    },
    Target {
        names: &["oracle"],
        help: "EXT: GRIT vs profile-guided static oracle",
        run: Run::Figure(|exp, out| out.emit(&ex::ext_oracle::run(exp), "oracle")),
    },
    Target {
        names: &["pacache"],
        help: "EXT: PA-Cache capacity sweep",
        run: Run::Figure(|exp, out| out.emit(&ex::ext_pa_cache::run(exp), "pacache")),
    },
    Target {
        names: &["sweeps"],
        help: "EXT: capacity / remote-gap / MLP sensitivity sweeps",
        run: Run::Figure(|exp, out| {
            out.emit(&ex::ext_sweeps::run_capacity(exp), "sweep_capacity");
            out.emit(&ex::ext_sweeps::run_remote_gap(exp), "sweep_remote_gap");
            out.emit(&ex::ext_sweeps::run_mlp(exp), "sweep_mlp");
        }),
    },
    Target {
        names: &["adapt"],
        help: "EXT: GRIT adaptation timeline (scheme mix over time)",
        run: Run::Figure(|exp, out| {
            for (i, t) in ex::ext_adaptation::run(exp).into_iter().enumerate() {
                out.emit(&t, &format!("adapt_{i}"));
            }
        }),
    },
    Target {
        names: &["extra"],
        help: "EXT: GRIT on SpMV and PageRank",
        run: Run::Figure(|exp, out| out.emit(&ex::ext_workloads::run(exp), "extra_workloads")),
    },
    Target {
        names: &["ext-topology", "topology"],
        help: "EXT: topology x GPU-count sweep (GRIT vs on-touch, fabric queueing)",
        run: Run::Figure(|exp, out| {
            let study = ex::ext_topology::run(exp);
            out.emit(&study.speedup, "ext_topology_speedup");
            out.emit(&study.queue, "ext_topology_queue");
        }),
    },
    Target {
        names: &["ext-resilience", "resilience"],
        help: "EXT: injected-fault scenarios x GPU count (slowdown vs healthy run)",
        run: Run::Figure(|exp, out| {
            let study = ex::ext_resilience::run(exp);
            out.emit(&study.slowdown, "ext_resilience_slowdown");
            for (scenario, r) in &study.counters {
                println!(
                    "[resilience] {scenario}: injected {} recovered {} blocked {} \
                     (retried-ok {} remote {} staged {}) retired-frames {} checks {}",
                    r.faults_injected,
                    r.recoveries,
                    r.migrations_blocked,
                    r.retry_successes,
                    r.fallback_remote,
                    r.host_staged,
                    r.frames_retired,
                    r.invariant_checks,
                );
                if !r.all_blocked_resolved() {
                    eprintln!("[repro] {scenario}: blocked migrations left unresolved");
                }
            }
        }),
    },
    Target {
        names: &["ext-pagesize", "pagesize"],
        help: "EXT: page-size mode x policy sweep (2MB coalescing, per-size TLBs)",
        run: Run::Figure(|exp, out| {
            let study = ex::ext_pagesize::run(exp);
            out.emit(&study.speedup, "ext_pagesize_speedup");
            out.emit(&study.tlb, "ext_pagesize_tlb");
            out.emit(&study.activity, "ext_pagesize_activity");
        }),
    },
    Target {
        names: &["summary"],
        help: "one-screen digest of the headline results",
        run: Run::Figure(run_summary),
    },
    Target {
        names: &["tables"],
        help: "print the configuration tables (Table I-V)",
        run: Run::Named(|_, _| print_config_tables()),
    },
    Target {
        names: &["validate"],
        help: "check every generator against its characterization band",
        run: Run::Named(|exp, out| {
            if !run_validate(exp) {
                out.failure = Some("[repro] at least one generator drifted from its band".into());
            }
        }),
    },
    Target {
        names: &["stats"],
        help: "per-cell counters of the Table II apps under five policies",
        run: Run::Named(|exp, _| run_stats(exp)),
    },
    Target {
        names: &["dump-trace"],
        help: "write one app's trace at the experiment scale",
        run: Run::Command("<APP> <PATH>", dump_trace),
    },
    Target {
        names: &["trace-info"],
        help: "summarize a trace file",
        run: Run::Command("<PATH>", trace_info),
    },
    Target {
        names: &["profile"],
        help: "render the profile section of a run_report.json",
        run: Run::Command("<REPORT>", cmd_profile),
    },
    Target {
        names: &["submit"],
        help: "run an --apps x --policies campaign on --connect HOST:PORT or --local",
        run: Run::Command("", cmd_submit),
    },
    Target {
        names: &["serve"],
        help: "campaign server (grit-serve/v1 over TCP); SIGINT/SIGTERM drain it",
        run: Run::Command("", cmd_serve),
    },
    Target {
        names: &["list", "--list", "-l"],
        help: "every target and flag",
        run: Run::Command("", list),
    },
];

/// The target named `name` (aliases included).
fn target(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.names.contains(&name))
}

const LIST_HINT: &str = "`repro list` shows every target and flag";

/// `repro list`: every target, then every flag.
fn list(_: &Args, _: &[String]) -> Result<(), String> {
    let row = |names: &[&str], arg: &str, help: &str| {
        eprintln!("  {:<28} {help}", format!("{} {arg}", names.join(", ")));
    };
    eprintln!("usage: repro <target>... [flags]   (all: every target up to summary)");
    eprintln!("targets:");
    for t in TARGETS {
        match t.run {
            Run::Command(operands, _) => row(t.names, operands, t.help),
            _ => row(t.names, "", t.help),
        }
    }
    eprintln!("flags:");
    for f in FLAGS {
        match f.set {
            Value(value, _) => row(f.names, value, f.help),
            Switch(_) => row(f.names, "", f.help),
        }
    }
    Ok(())
}

/// Reads the command line: every flag through `FLAGS`, everything else a
/// target or operand. Then checks the configuration the flags make, once,
/// before anything is built.
fn read_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    while let Some(arg) = argv.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.names.contains(&arg.as_str())) else {
            if arg.starts_with('-') && target(&arg).is_none() {
                return Err(format!("unknown flag {arg}; {LIST_HINT}"));
            }
            a.positional.push(arg);
            continue;
        };
        match flag.set {
            Switch(set) => set(&mut a),
            Value(value, set) => {
                if argv.next().and_then(|v| set(&mut a, &v)).is_none() {
                    return Err(format!("{} needs {value}: {}", flag.names[0], flag.help));
                }
            }
        }
    }
    a.spec.apply_to(&mut SimConfig::default()).map_err(|e| e.to_string())?;
    // A half-finished campaign must not silently clobber a report the user
    // still needs; make replacement an explicit decision.
    if let Some(path) = a.metrics_dir.as_ref().map(|dir| dir.join("run_report.json")) {
        if path.exists() && !a.force {
            return Err(format!(
                "refusing to overwrite existing {}; pass --force to replace it",
                path.display()
            ));
        }
    }
    a.batch.timeout = ex::BatchOptions::from(&a.spec).timeout;
    Ok(a)
}

fn main() -> ExitCode {
    match read_args(env::args().skip(1)).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Installs the flags' process-wide settings and runs the targets: a
/// command alone, on the operands after its name, or any number of
/// figures and reports in one session.
fn run(a: &Args) -> Result<(), String> {
    ex::set_override_spec(Some(a.spec.clone()));
    ex::set_batch_defaults(a.batch.clone());
    let Some((first, operands)) = a.positional.split_first() else {
        return Err(format!("usage: repro <target>... [flags]; {LIST_HINT}"));
    };
    if let Some(Run::Command(placeholders, command)) = target(first).map(|t| &t.run) {
        if operands.len() != placeholders.split_whitespace().count() {
            return Err(format!("usage: repro {first} {placeholders}"));
        }
        return command(a, operands);
    }
    // Resolve every target before running any, so an unknown name fails
    // before the targets ahead of it print their tables.
    let mut tables: Vec<(&str, Tables)> = Vec::new();
    for name in &a.positional {
        match target(name).map(|t| &t.run) {
            Some(Run::Figure(run) | Run::Named(run)) => tables.push((name, *run)),
            Some(Run::Command(..)) => {
                return Err(format!("{name} runs alone, as the first target"))
            }
            None if name == "all" => tables.extend(TARGETS.iter().filter_map(|t| match t.run {
                Run::Figure(run) => Some((t.names[0], run)),
                _ => None,
            })),
            None => return Err(format!("unknown figure: {name}; {LIST_HINT}")),
        }
    }
    if let Some(path) = &a.trace_path {
        let cfg = grit::service::trace_config(&a.spec)?;
        trace_writer::install_global(cfg, path)
            .map_err(|e| format!("cannot create trace file {}: {e}", path.display()))?;
    }
    let mut out = Out {
        csv_dir: a.csv_dir.clone(),
        ..Out::default()
    };
    session(a, tables.len(), |exp| {
        for (name, run) in &tables {
            eprintln!("[repro] running {name} ...");
            let started = Instant::now();
            run(exp, &mut out);
            let seconds = started.elapsed().as_secs_f64();
            report_sink::record_target(name, seconds);
            eprintln!("[repro] {name} time: {seconds:.2}s");
            if ex::fail_fast_triggered() {
                eprintln!(
                    "[repro] fail-fast: a cell failed during {name}; skipping remaining targets"
                );
                break;
            }
        }
        Ok(())
    })?;
    out.failure.map_or(Ok(()), Err)
}

/// Runs `body` between the banner and the closing reports: the total
/// time, the trace flush, the wall-clock profile and `run_report.json`.
fn session(
    a: &Args,
    targets: usize,
    body: impl FnOnce(&ExpConfig) -> Result<(), String>,
) -> Result<(), String> {
    let exp = ExpConfig::from(&a.spec);
    // Output directories are made only once the command line has passed
    // every check, so a rejected command leaves nothing behind.
    for dir in [&a.csv_dir, &a.metrics_dir].into_iter().flatten() {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    if a.metrics_dir.is_some() {
        report_sink::enable();
    }
    grit_prof::set_enabled(a.profile);
    grit_prof::set_capture(a.profile_out.is_some());
    eprintln!(
        "[repro] scale={} intensity={} seed={:#x} jobs={}",
        exp.scale,
        exp.intensity,
        exp.seed,
        ex::effective_jobs()
    );
    let t0 = Instant::now();
    body(&exp)?;
    let total_seconds = t0.elapsed().as_secs_f64();
    eprintln!(
        "[repro] total time: {total_seconds:.2}s ({targets} targets, {} jobs)",
        ex::effective_jobs()
    );
    trace_writer::flush_global().map_err(|e| format!("trace: flush failed: {e}"))?;
    if a.profile {
        let totals = grit_prof::phase_totals();
        let rows: Vec<PhaseRow> = totals
            .iter()
            .filter(|t| t.count > 0)
            .map(|t| (t.phase.name(), t.nanos, t.count))
            .collect();
        if rows.is_empty() {
            eprintln!("[repro] profile: no spans recorded");
        } else {
            eprintln!("[repro] wall-clock phases:");
            eprint!("{}", render_phase_table(rows));
        }
    }
    if let Some(path) = &a.profile_out {
        let (events, dropped) = grit_prof::drain_events();
        fs::write(path, grit_prof::chrome_trace_json(&events, dropped))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "[repro] wrote {} ({} span events, {} dropped)",
            path.display(),
            events.len(),
            dropped
        );
    }
    if let Some(dir) = &a.metrics_dir {
        let report =
            report_sink::build_report(&exp, ex::effective_jobs(), total_seconds, a.profile);
        let path = dir.join("run_report.json");
        fs::write(&path, format!("{report}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let cells = report.get("cells").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        eprintln!("[repro] wrote {} ({cells} cells)", path.display());
    }
    if ex::fail_fast_triggered() {
        return Err("[repro] exiting nonzero: a cell failed under --fail-fast".to_string());
    }
    Ok(())
}

/// `repro serve`: the campaign server, on the batch store (`--resume-dir`,
/// `--store`, `--resume`; `.grit-serve-store/` when none is given).
fn cmd_serve(a: &Args, _: &[String]) -> Result<(), String> {
    if a.trace_path.is_some() {
        // A global trace writer would disable the shared store for every
        // client; served cells opt into tracing per spec.
        eprintln!("serve ignores --trace; clients request traces per cell");
    }
    let spec = &a.spec;
    if spec.topology.is_some()
        || spec.page_size.is_some()
        || spec.page_size_mode.is_some()
        || spec.inject.is_some()
    {
        // A served cell runs exactly the machine its spec names.
        eprintln!("serve ignores machine flags; each submitted spec names its own machine");
    }
    session(a, 1, |_| {
        let sopts = a.serve.clone().jobs(ex::effective_jobs());
        let dir = a.batch.resume_dir.clone().unwrap_or_else(|| PathBuf::from(".grit-serve-store"));
        let started = Instant::now();
        let s = grit::service::serve(&sopts, Some(dir), a.batch.store_max_bytes)
            .map_err(|e| format!("serve: {e}"))?;
        report_sink::record_target("serve", started.elapsed().as_secs_f64());
        eprintln!(
            "[repro] serve: {} cells ({} store hits, {} errors) over {} connections",
            s.cells, s.store_hits, s.errors, s.connections
        );
        Ok(())
    })
}

/// Where targets print: stdout, the `--csv` directory, and the tables
/// later targets reuse — `repro all` runs fig17/fig18 before the summary,
/// and the digest must not re-run them.
#[derive(Default)]
struct Out {
    csv_dir: Option<PathBuf>,
    fig17: Option<Table>,
    fig18: Option<Table>,
    /// A failed check (`validate`): the session still finishes its
    /// reports, then exits 1 with this one line.
    failure: Option<String>,
}

impl Out {
    /// Prints a table and optionally writes its CSV rendering to the
    /// `--csv` directory.
    fn emit(&self, table: &Table, name: &str) {
        println!("{}", table.to_text());
        if let Some(dir) = &self.csv_dir {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = fs::write(&path, table.to_csv()) {
                eprintln!("[repro] failed to write {}: {e}", path.display());
            }
        }
    }
}

fn run_summary(exp: &ExpConfig, out: &mut Out) {
    use grit::experiments::fig17_grit;
    use grit::experiments::fig18_faults;
    let t17 = out.fig17.get_or_insert_with(|| fig17_grit::run(exp));
    let (ot, ac, d) = fig17_grit::headline(t17);
    let t18 = out.fig18.get_or_insert_with(|| fig18_faults::run(exp));
    println!("== GRIT reproduction digest ==");
    println!(
        "performance: GRIT vs on-touch {:+.0}%, vs access-counter {:+.0}%, vs duplication {:+.0}%",
        100.0 * ot,
        100.0 * ac,
        100.0 * d
    );
    println!("paper:       GRIT vs on-touch +60%, vs access-counter +49%, vs duplication +29%");
    let g18 = t18.cell("GEOMEAN", "grit").unwrap_or(1.0);
    println!(
        "page faults: GRIT raises {:.0}% fewer GPU faults than on-touch (paper: 39% fewer)",
        100.0 * (1.0 - g18)
    );
    println!("\nper-app speedup over on-touch (GRIT / best uniform scheme):");
    for (label, row) in t17.rows() {
        if label == "GEOMEAN" {
            continue;
        }
        let best = row[0].max(row[1]).max(row[2]);
        println!("  {label:<6} {:>6.2}x / {best:>5.2}x", row[3]);
    }
}

fn run_validate(exp: &ExpConfig) -> bool {
    use grit_workloads::{validate, App, WorkloadBuilder};
    let mut ok = true;
    println!("== generator characterization check ==");
    for app in App::TABLE2.into_iter().chain(App::DNN).chain(App::EXTRA) {
        let w = WorkloadBuilder::new(app)
            .scale(exp.scale)
            .intensity(exp.intensity)
            .seed(exp.seed)
            .build();
        match validate(app, &w) {
            Ok(s) => println!(
                "  {:<8} OK  ({} pages, {} accesses, {:.0}% shared, {:.0}% writes)",
                app.abbr(),
                s.total_pages,
                s.accesses(),
                100.0 * s.shared_page_frac(),
                100.0 * s.write_access_frac()
            ),
            Err(e) => {
                ok = false;
                println!("  {:<8} DRIFTED: {e}", app.abbr());
            }
        }
    }
    ok
}

/// `repro dump-trace <APP> <PATH>`: writes one app's trace at the
/// experiment scale.
fn dump_trace(a: &Args, operands: &[String]) -> Result<(), String> {
    use grit_workloads::{write_trace, App, WorkloadBuilder};
    use std::io::Write;
    let (app_name, path) = (&operands[0], &operands[1]);
    let app = App::parse(app_name).ok_or_else(|| format!("unknown app {app_name}"))?;
    let w = WorkloadBuilder::new(app)
        .scale(a.spec.scale)
        .intensity(a.spec.intensity)
        .seed(a.spec.seed)
        .build();
    let file = fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    write_trace(&w, &mut out).map_err(|e| format!("write failed: {e}"))?;
    // Dropping the writer would discard a failed final write.
    out.flush().map_err(|e| format!("write failed: {e}"))?;
    eprintln!(
        "[repro] wrote {}: {} accesses over {} pages",
        path,
        w.total_accesses(),
        w.footprint_pages
    );
    Ok(())
}

/// `repro trace-info <PATH>`: summarizes a trace file.
fn trace_info(_: &Args, operands: &[String]) -> Result<(), String> {
    use grit_workloads::read_trace;
    let path = &operands[0];
    let file = fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let w =
        read_trace(std::io::BufReader::new(file)).map_err(|e| format!("not a valid trace: {e}"))?;
    println!("app:        {}", w.app.abbr());
    println!("GPUs:       {}", w.streams.len());
    println!("footprint:  {} pages", w.footprint_pages);
    println!("accesses:   {}", w.total_accesses());
    println!("phases:     {}", w.barriers[0].len());
    let s = w.page_attrs().summary();
    println!("shared:     {:.1}% of pages", 100.0 * s.shared_page_frac());
    println!(
        "writes:     {:.1}% of accesses",
        100.0 * s.write_access_frac()
    );
    println!(
        "shared-RW:  {:.1}% of pages",
        100.0 * s.shared_read_write_frac()
    );
    Ok(())
}

/// One wall-clock phase row: name, total nanoseconds, spans.
type PhaseRow<'a> = (&'a str, u64, u64);

/// Renders wall-clock phase totals as an aligned text table, longest first.
fn render_phase_table(mut rows: Vec<PhaseRow>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<22} {:>12} {:>10} {:>12}\n",
        "phase", "total ms", "spans", "mean us"
    ));
    rows.sort_by_key(|&(_, nanos, _)| std::cmp::Reverse(nanos));
    for (phase, nanos, count) in rows {
        let ms = nanos as f64 / 1e6;
        let mean_us = if count > 0 {
            nanos as f64 / 1e3 / count as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {phase:<22} {ms:>12.2} {count:>10} {mean_us:>12.2}\n"
        ));
    }
    out
}

/// `repro profile <run_report.json>`: renders the report's `profile`
/// object — phase table and cycle-domain histograms. Only the `schema` tag
/// and the `profile` object are read.
fn cmd_profile(_: &Args, operands: &[String]) -> Result<(), String> {
    let path = &operands[0];
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let schema = json.get("schema").and_then(Json::as_str).unwrap_or_default();
    if schema != RUN_REPORT_SCHEMA {
        return Err(format!(
            "{path}: not a run report: unsupported run-report schema: {schema:?}"
        ));
    }
    let Some(profile) = json.get("profile") else {
        return Err(format!(
            "{path} has no profile section; re-run repro with --profile --metrics-out"
        ));
    };
    let text = render_profile(profile).map_err(|e| format!("{path}: not a run report: {e}"))?;
    print!("{text}");
    Ok(())
}

/// A report field that must be present.
fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// A report field that must be an integer.
fn num(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an integer"))
}

/// Renders a report's `profile` object: the wall-clock phase table, then
/// one line per cycle-domain histogram (`samples / mean / max` plus the
/// non-empty power-of-two buckets).
fn render_profile(profile: &Json) -> Result<String, String> {
    let mut rows = Vec::new();
    for row in field(profile, "wall")?.as_arr().unwrap_or_default() {
        let phase = field(row, "phase")?.as_str().unwrap_or_default();
        rows.push((phase, num(row, "nanos")?, num(row, "count")?));
    }
    let mut out = format!("== wall-clock phases ==\n{}", render_phase_table(rows));
    out.push_str("\n== cycle-domain (deterministic) ==\n");
    let cycle = field(profile, "cycle")?;
    for name in ["fault_occupancy", "migration_latency", "fabric_queue"] {
        let h = field(cycle, name)?;
        let mean = field(h, "mean")?.as_f64().unwrap_or_default();
        let buckets: Vec<String> = field(h, "buckets")?
            .as_arr()
            .unwrap_or_default()
            .iter()
            .map(|pair| {
                let n = |i: usize| pair.as_arr().and_then(|p| p.get(i)?.as_u64()).unwrap_or(0);
                format!("{}:{}", n(0), n(1))
            })
            .collect();
        out.push_str(&format!(
            "  {:<22} samples={:<10} mean={:<10.1} max={:<10} buckets[{}]\n",
            name,
            num(h, "samples")?,
            mean,
            num(h, "max")?,
            buckets.join(" ")
        ));
    }
    out.push_str(&format!(
        "  mlp_stall_cycles       {}\n",
        num(cycle, "mlp_stall_cycles")?
    ));
    Ok(out)
}

/// `repro stats`: one line of counters per cell of the Table II apps
/// under five policies, run as one batch; a failed cell prints `err!`.
fn run_stats(exp: &ExpConfig) {
    use grit::experiments::{run_grid, CellResultExt, CellSpec, PolicyKind};
    use grit_metrics::LatencyHistogram;
    use grit_sim::Scheme;
    let apps = grit_workloads::App::TABLE2;
    let policies = [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
        PolicyKind::Ideal,
    ];
    for (app, row) in run_grid(&apps, |app| policies.map(|p| CellSpec::new(app, p, exp))) {
        for (p, cell) in policies.iter().zip(&row) {
            let Some(out) = cell.output() else {
                println!("{:<5} {:<16} err!", app.abbr(), p.label());
                continue;
            };
            let m = &out.metrics;
            let fl = LatencyHistogram::from_flat(m.aux("fault_latency_hist").unwrap_or(&[]));
            println!(
                "{:<5} {:<16} cycles={:<12} acc={:<9} faults(l={},p={}) migr={} dup={} col={} evic={} remote={} fault-lat(mean={:.0} p99={:.0}) bd[{}]",
                app.abbr(),
                p.label(),
                m.total_cycles,
                m.accesses,
                m.faults.local_faults,
                m.faults.protection_faults,
                m.faults.migrations,
                m.faults.duplications,
                m.faults.collapses,
                m.faults.evictions,
                m.remote_accesses,
                fl.mean(),
                fl.percentile(0.99),
                m.breakdown,
            );
        }
    }
}

fn print_config_tables() {
    use grit_sim::SimConfig;
    use grit_workloads::App;
    let cfg = SimConfig::default();
    println!("== Table I: baseline multi-GPU configuration ==");
    println!("  GPUs                      {}", cfg.num_gpus);
    println!("  page size                 {} B", cfg.page_size);
    println!(
        "  DRAM per GPU              {:.0}% of footprint",
        100.0 * cfg.capacity_ratio
    );
    println!(
        "  L1 data cache             {} x 64 B, {}-way",
        cfg.l1_cache.entries, cfg.l1_cache.ways
    );
    println!(
        "  L2 data cache             {} x 64 B, {}-way",
        cfg.l2_cache.entries, cfg.l2_cache.ways
    );
    println!(
        "  L1 TLB                    {} entries, {}-way, {} cyc",
        cfg.l1_tlb.entries, cfg.l1_tlb.ways, cfg.l1_tlb.lookup_latency
    );
    println!(
        "  L2 TLB                    {} entries, {}-way, {} cyc",
        cfg.l2_tlb.entries, cfg.l2_tlb.ways, cfg.l2_tlb.lookup_latency
    );
    println!(
        "  page walkers              {} shared, {} cyc/level, {} levels",
        cfg.walk.walkers, cfg.walk.cycles_per_level, cfg.walk.levels
    );
    println!(
        "  page-walk cache / queue   {} / {} entries",
        cfg.walk.walk_cache_entries, cfg.walk.queue_capacity
    );
    println!(
        "  access-counter threshold  {}",
        cfg.access_counter_threshold
    );
    println!(
        "  NVLink / PCIe             {:.0} / {:.0} B per cycle",
        cfg.links.nvlink_bytes_per_cycle, cfg.links.pcie_bytes_per_cycle
    );
    println!();
    println!("== Table II: applications ==");
    println!(
        "  {:<5} {:<30} {:<12} {:<15} {:>9}",
        "abbr", "application", "suite", "pattern", "footprint"
    );
    for app in App::TABLE2 {
        println!(
            "  {:<5} {:<30} {:<12} {:<15} {:>6} MB",
            app.abbr(),
            app.full_name(),
            app.suite(),
            format!("{:?}", app.pattern()),
            app.footprint_bytes() / (1024 * 1024)
        );
    }
    println!();
    println!("== Table III: policy preference ==");
    use grit_core::{preference, RwClass, SharingClass};
    for (label, s) in [
        ("private", SharingClass::Private),
        ("pc-shared", SharingClass::PcShared),
        ("all-shared", SharingClass::AllShared),
    ] {
        for (rw_label, rw) in [("read", RwClass::Read), ("read-write", RwClass::ReadWrite)] {
            let pref: Vec<String> = preference(s, rw).iter().map(|x| x.to_string()).collect();
            println!("  {label:<10} {rw_label:<10} -> {}", pref.join(" / "));
        }
    }
    println!();
    println!("== Table IV: scheme bits ==");
    use grit_sim::Scheme;
    for s in Scheme::ALL {
        println!("  {:#04b}  {s}", s.bits());
    }
    println!();
    println!("== Table V: group bits ==");
    use grit_sim::GroupSize;
    for g in [
        GroupSize::One,
        GroupSize::Eight,
        GroupSize::SixtyFour,
        GroupSize::FiveTwelve,
    ] {
        println!(
            "  {:#04b}  {:>3} pages ({} KB)",
            g.bits(),
            g.pages(),
            g.pages() * 4
        );
    }
}

fn split_list(raw: &str) -> Vec<String> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

/// One connect → submit → drain pass over the given `(id, spec)` cells.
fn campaign_attempt(
    addr: &str,
    cells: &[(u64, &grit_sim::RunSpec)],
    shutdown: bool,
) -> Result<grit_serve::CampaignOutcome, grit_serve::ClientError> {
    let mut client = grit_serve::ServeClient::connect(addr)?;
    for (id, spec) in cells {
        client.submit(*id, spec)?;
    }
    if shutdown {
        client.shutdown_server()?;
    }
    client.finish()
}

/// Drives a served campaign to completion and returns each cell's
/// result, its trace events included, in declaration order; server
/// `error` lines go to stderr as they arrive. Without `retry` a single
/// attempt is made and any failure is final. With `retry`, connection
/// failures, timeouts, and `busy` admission rejections trigger a
/// reconnect that resubmits only the still-unresolved ids, backing off
/// on the capped exponential schedule of [`grit_sim::Backoff`]
/// (2s/4s/8s/16s; base overridable via `GRIT_SUBMIT_RETRY_BASE_MS` for
/// tests, floor also raised to any server-sent `retry_after_ms`).
/// Resubmission is idempotent: the server keys its result store by
/// canonical spec, so cells that already ran come back as store hits
/// and a kill-and-retry campaign renders the same table as an
/// uninterrupted one.
///
/// When both `shutdown` and `retry` are requested, the shutdown is
/// deferred to a dedicated final connection so a failed mid-campaign
/// attempt can never stop the server while cells are still unresolved.
fn run_served_campaign(
    addr: &str,
    specs: &[grit_sim::RunSpec],
    shutdown: bool,
    retry: bool,
) -> Result<Vec<grit_serve::CellResult>, String> {
    let mut backoff = grit_sim::Backoff::default();
    if let Some(ms) = env::var("GRIT_SUBMIT_RETRY_BASE_MS")
        .ok()
        .and_then(|raw| raw.parse::<u64>().ok())
    {
        backoff.base = ms.max(1);
    }
    let mut resolved: HashMap<u64, grit_serve::CellResult> = HashMap::new();
    let mut shutdown_pending = shutdown;
    let mut attempt: u32 = 0;
    let sleep_then_retry = |attempt: &mut u32, busy_hint: u64, why: &str| -> Result<(), String> {
        if *attempt >= backoff.max_attempts {
            return Err(format!("giving up after {} attempts: {why}", *attempt + 1));
        }
        let delay = backoff.delay(*attempt).max(busy_hint);
        eprintln!("[repro] submit: {why}; retrying in {delay}ms");
        std::thread::sleep(Duration::from_millis(delay));
        *attempt += 1;
        Ok(())
    };
    loop {
        let pending: Vec<(u64, &grit_sim::RunSpec)> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s))
            .filter(|(id, _)| !resolved.contains_key(id))
            .collect();
        if pending.is_empty() && !shutdown_pending {
            break;
        }
        // Under --retry the shutdown rides on its own final, empty
        // submission once every cell has a result.
        let send_shutdown = shutdown_pending && (!retry || pending.is_empty());
        match campaign_attempt(addr, &pending, send_shutdown) {
            Ok(outcome) => {
                for e in &outcome.errors {
                    eprintln!("[repro] server error: {e}");
                }
                // Duplicate `result` lines across attempts (or from a
                // duplicating link) are harmless: first resolution wins.
                let before = resolved.len();
                for r in outcome.results {
                    resolved.entry(r.id).or_insert(r);
                }
                if send_shutdown {
                    shutdown_pending = false;
                }
                let unresolved =
                    pending.iter().filter(|(id, _)| !resolved.contains_key(id)).count();
                if unresolved == 0 {
                    attempt = 0;
                    continue;
                }
                let busy_hint = outcome.busy.iter().map(|&(_, ms)| ms).max().unwrap_or(0);
                let why = format!(
                    "{unresolved} of {} cells unresolved ({} busy-rejected)",
                    specs.len(),
                    outcome.busy.len()
                );
                if !retry {
                    return Err(format!("{why}; pass --retry to resubmit"));
                }
                if resolved.len() > before {
                    attempt = 0;
                }
                sleep_then_retry(&mut attempt, busy_hint, &why)?;
            }
            Err(e) => {
                if !retry {
                    return Err(e.to_string());
                }
                sleep_then_retry(&mut attempt, 0, &e.to_string())?;
            }
        }
    }
    Ok((0..specs.len() as u64)
        .map(|id| resolved.remove(&id).expect("loop exits only once every id resolved"))
        .collect())
}

/// `repro submit`: run an app x policy campaign against a server
/// (`--connect`) or through the in-process engine (`--local`). Both
/// paths produce the cells' results in declaration order, and one block
/// reports them. Status goes to stderr; stdout carries only the table,
/// so the two paths can be diffed directly.
fn cmd_submit(a: &Args, _: &[String]) -> Result<(), String> {
    let apps = a.apps.as_deref().map(split_list).unwrap_or_default();
    let pols = a
        .policies
        .as_deref()
        .map(split_list)
        .unwrap_or_else(|| vec!["grit".to_string()]);
    if apps.is_empty() && !a.shutdown {
        return Err("submit needs --apps A,B,... (or --shutdown to only stop a server)".into());
    }
    let mut specs = Vec::new();
    for app in &apps {
        for p in &pols {
            let mut s = a.spec.clone();
            s.app = app.clone();
            s.policy = p.clone();
            specs.push(s);
        }
    }
    // Both paths resolve every spec first, so an unknown app or policy
    // fails the campaign before any cell runs.
    let cells = specs
        .iter()
        .map(grit::service::parse_spec_cell)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("submit: {e}"))?;

    let results = if a.local {
        let mut results = Vec::with_capacity(cells.len());
        for (id, out) in (0..).zip(ex::run_batch(&cells)) {
            let mut r = grit::service::cell_result(out).unwrap_or_else(Into::into);
            r.id = id;
            results.push(r);
        }
        results
    } else {
        let addr = a.connect.as_deref().ok_or("submit needs --connect HOST:PORT (or --local)")?;
        run_served_campaign(addr, &specs, a.shutdown, a.retry)
            .map_err(|e| format!("submit: {e}"))?
    };

    let mut errs = 0usize;
    for r in results.iter().filter(|r| !r.is_ok()) {
        errs += 1;
        eprintln!(
            "[repro] cell {}: {}{}",
            r.id,
            r.status,
            r.error.as_deref().map(|m| format!(": {m}")).unwrap_or_default()
        );
    }
    let quarantined: u64 = results.iter().map(|r| r.store_quarantined).sum();
    if quarantined > 0 {
        eprintln!("[repro] submit: server quarantined {quarantined} corrupt store files");
    }
    if let Some(path) = &a.trace_path {
        let mut text = String::new();
        for ev in results.iter().flat_map(|r| &r.trace) {
            text.push_str(&ev.to_string());
            text.push('\n');
        }
        fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!(
        "[repro] submit: {} cells, {} store hits, {} errors",
        specs.len(),
        results.iter().filter(|r| r.store_hit).count(),
        errs
    );
    if !specs.is_empty() {
        let cycles: Vec<f64> = results
            .iter()
            .map(|r| {
                if r.is_ok() {
                    r.total_cycles as f64
                } else {
                    f64::NAN
                }
            })
            .collect();
        let mut t = Table::new("campaign total cycles", pols.clone());
        for (app, row) in apps.iter().zip(cycles.chunks(pols.len())) {
            t.push_row(app, row.to_vec());
        }
        print!("{}", t.to_text());
    }
    if errs == 0 {
        Ok(())
    } else {
        Err(format!("[repro] submit: {errs} cells failed"))
    }
}
