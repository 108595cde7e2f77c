//! `repro` — regenerates every table and figure of the GRIT paper.
//!
//! ```text
//! repro all                # every figure at the default scale
//! repro fig17              # one figure
//! repro fig17 --quick      # CI-sized inputs
//! repro fig17 --full       # Table II full footprints (slow)
//! repro all --jobs 8       # cap the worker pool (default: all cores)
//! repro list               # figure index
//! ```
//!
//! Experiment cells fan out across a worker pool sized by `--jobs`, the
//! `GRIT_JOBS` environment variable, or the machine's core count; tables
//! are byte-identical to a serial run regardless of the worker count.
//!
//! Resilience flags:
//!
//! ```text
//! repro all --cell-timeout 120     # budget each cell; expired cells become err! rows
//! repro all --resume               # persist finished cells under .grit-resume/
//! repro all --resume-dir DIR       # ... under an explicit store directory
//! repro all --fail-fast            # abort the campaign on the first failed cell
//! repro all --keep-going           # (default) failed cells become rows, exit 0
//! ```
//!
//! The UVM driver sweeps its VM-state invariants at every epoch boundary
//! and after every injected fault, in every build. A failed cell — panic,
//! timeout, invariant violation — renders as an `err!` row in the affected
//! tables and as a structured error record in `run_report.json`; the
//! process exits nonzero only under `--fail-fast`.
//! Interrupting a `--resume` run and re-invoking it completes the
//! remaining cells and prints byte-identical tables at any `--jobs`.
//!
//! Observability flags:
//!
//! ```text
//! repro fig18 --trace t.jsonl          # structured event stream (JSONL)
//! repro fig18 --trace t.jsonl --trace-filter fault,migration --trace-sample 16
//! repro all --metrics-out out/         # out/run_report.json
//! ```
//!
//! Profiling flags and tooling:
//!
//! ```text
//! repro fig17 --profile                  # wall-clock phase timers
//! repro fig17 --profile-out prof.json    # Chrome trace-event / Perfetto JSON
//! repro all --progress                   # 1 Hz heartbeat (cells done, ETA, phase)
//! repro profile out/run_report.json      # render a report's profile section
//! ```
//!
//! Profiling is zero-overhead when disabled (one relaxed atomic load per
//! span site). `--metrics-out` refuses to overwrite an existing
//! `run_report.json` unless `--force` is given.

use std::collections::{HashMap, HashSet};
use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use grit::experiments::{self as ex, report_sink, ExpConfig};
use grit_metrics::Table;
use grit_trace::{
    writer as trace_writer, CategoryMask, HistReport, Json, PhaseEntry, RunReport, TraceConfig,
};

const FIGURES: &[(&str, &str)] = &[
    ("fig1", "Uniform schemes + Ideal vs on-touch (motivation)"),
    ("fig3", "Page-handling latency breakdown per scheme"),
    ("fig4", "Private/shared pages and accesses"),
    ("fig5", "Shared-page access mix over time (C2D, ST)"),
    ("fig6", "Attribute grids: GEMM & ST (Figs 6-8)"),
    ("fig9", "Accesses to read vs read-write pages"),
    ("fig10", "Read/write mix over time for one RW page (ST)"),
    ("fig17", "HEADLINE: GRIT vs uniform schemes"),
    ("fig18", "GPU page faults per policy"),
    ("fig19", "Scheme mix under GRIT"),
    ("fig20", "Component ablation"),
    ("fig21", "Fault-threshold sensitivity"),
    ("fig22", "2/8/16-GPU scaling (Figs 22-24)"),
    ("fig25", "2MB pages with enlarged inputs"),
    ("fig26", "Griffin comparison"),
    ("fig27", "GPS comparison"),
    ("fig28", "Griffin-DPC + Trans-FW comparison"),
    ("fig29", "First-touch comparison"),
    ("fig30", "Prefetching combination"),
    ("fig31", "DNN model parallelism"),
    ("oracle", "EXT: GRIT vs profile-guided static oracle"),
    ("pacache", "EXT: PA-Cache capacity sweep"),
    (
        "sweeps",
        "EXT: capacity / remote-gap / MLP sensitivity sweeps",
    ),
    (
        "adapt",
        "EXT: GRIT adaptation timeline (scheme mix over time)",
    ),
    ("extra", "EXT: GRIT on SpMV and PageRank"),
    (
        "ext-topology",
        "EXT: topology x GPU-count sweep (GRIT vs on-touch, fabric queueing)",
    ),
    (
        "ext-resilience",
        "EXT: injected-fault scenarios x GPU count (slowdown vs healthy run)",
    ),
    (
        "ext-pagesize",
        "EXT: page-size mode x policy sweep (2MB coalescing, per-size TLBs)",
    ),
];

/// Tables that later targets can reuse — `repro all` runs fig17/fig18
/// before the summary, and the digest must not re-run them.
#[derive(Default)]
struct TableCache {
    fig17: Option<Table>,
    fig18: Option<Table>,
}

fn run_summary(exp: &ExpConfig, cache: &mut TableCache) {
    use grit::experiments::fig17_grit;
    use grit::experiments::fig18_faults;
    let t17 = cache.fig17.get_or_insert_with(|| fig17_grit::run(exp));
    let (ot, ac, d) = fig17_grit::headline(t17);
    let t18 = cache.fig18.get_or_insert_with(|| fig18_faults::run(exp));
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
        match validate(app, w) {
            Ok(c) => println!(
                "  {:<8} OK  ({} pages, {} accesses, {:.0}% shared, {:.0}% writes)",
                app.abbr(),
                c.pages,
                c.accesses,
                100.0 * c.shared_pages,
                100.0 * c.write_accesses
            ),
            Err(e) => {
                ok = false;
                println!("  {:<8} DRIFTED: {e}", app.abbr());
            }
        }
    }
    ok
}

fn dump_trace(app_name: &str, path: &str, exp: &ExpConfig) -> bool {
    use grit_workloads::{write_trace, App, WorkloadBuilder};
    let Some(app) = App::parse(app_name) else {
        eprintln!("unknown app {app_name}");
        return false;
    };
    let w = WorkloadBuilder::new(app)
        .scale(exp.scale)
        .intensity(exp.intensity)
        .seed(exp.seed)
        .build();
    let file = match fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return false;
        }
    };
    match write_trace(&w, std::io::BufWriter::new(file)) {
        Ok(()) => {
            eprintln!(
                "[repro] wrote {}: {} accesses over {} pages",
                path,
                w.total_accesses(),
                w.footprint_pages
            );
            true
        }
        Err(e) => {
            eprintln!("write failed: {e}");
            false
        }
    }
}

fn trace_info(path: &str) -> bool {
    use grit_workloads::{characterize, read_trace};
    let file = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return false;
        }
    };
    match read_trace(std::io::BufReader::new(file)) {
        Ok(w) => {
            println!("app:        {}", w.app.abbr());
            println!("GPUs:       {}", w.streams.len());
            println!("footprint:  {} pages", w.footprint_pages);
            println!("accesses:   {}", w.total_accesses());
            println!("phases:     {}", w.barriers[0].len());
            let c = characterize(w);
            println!("shared:     {:.1}% of pages", 100.0 * c.shared_pages);
            println!("writes:     {:.1}% of accesses", 100.0 * c.write_accesses);
            println!("shared-RW:  {:.1}% of pages", 100.0 * c.shared_rw_pages);
            true
        }
        Err(e) => {
            eprintln!("not a valid trace: {e}");
            false
        }
    }
}

/// Renders wall-clock phase totals as an aligned text table.
fn render_phase_table(entries: &[PhaseEntry]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<22} {:>12} {:>10} {:>12}\n",
        "phase", "total ms", "spans", "mean us"
    ));
    let mut rows: Vec<&PhaseEntry> = entries.iter().collect();
    rows.sort_by_key(|e| std::cmp::Reverse(e.nanos));
    for e in rows {
        let ms = e.nanos as f64 / 1e6;
        let mean_us = if e.count > 0 {
            e.nanos as f64 / 1e3 / e.count as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<22} {:>12.2} {:>10} {:>12.2}\n",
            e.phase, ms, e.count, mean_us
        ));
    }
    out
}

/// Renders one cycle-domain histogram line (`samples / mean / max` plus the
/// non-empty power-of-two buckets).
fn render_hist(name: &str, h: &HistReport) -> String {
    let buckets: Vec<String> = h.buckets.iter().map(|(lb, c)| format!("{lb}:{c}")).collect();
    format!(
        "  {:<22} samples={:<10} mean={:<10.1} max={:<10} buckets[{}]",
        name,
        h.samples,
        h.mean,
        h.max,
        buckets.join(" ")
    )
}

fn load_json(path: &str) -> Option<Json> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return None;
        }
    };
    match Json::parse(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            None
        }
    }
}

/// `repro profile <run_report.json>`: renders the report's `profile`
/// object — phase table and cycle-domain histograms.
fn cmd_profile(path: &str) -> bool {
    let Some(json) = load_json(path) else {
        return false;
    };
    let report = match RunReport::from_json(&json) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: not a run report: {e}");
            return false;
        }
    };
    let Some(profile) = &report.profile else {
        eprintln!("{path} has no profile section; re-run repro with --profile --metrics-out");
        return false;
    };
    println!("== wall-clock phases ==");
    print!("{}", render_phase_table(&profile.wall));
    println!("\n== cycle-domain (deterministic) ==");
    println!(
        "{}",
        render_hist("fault_occupancy", &profile.cycle.fault_occupancy)
    );
    println!(
        "{}",
        render_hist("migration_latency", &profile.cycle.migration_latency)
    );
    println!(
        "{}",
        render_hist("fabric_queue", &profile.cycle.fabric_queue)
    );
    println!(
        "  mlp_stall_cycles       {}",
        profile.cycle.mlp_stall_cycles
    );
    true
}

fn print_usage() {
    eprintln!(
        "usage: repro <figN|all|tables|list> [--quick|--full] [--jobs N] [--scale X] [--intensity X] [--seed N] [--csv DIR] [--trace PATH] [--metrics-out DIR] [--cell-timeout SECS] [--resume|--resume-dir DIR] [--fail-fast|--keep-going]"
    );
    eprintln!("figures:");
    for (name, desc) in FIGURES {
        eprintln!("  {name:<7} {desc}");
    }
    eprintln!("  tables   print the configuration tables (Table I-V)");
    eprintln!("  summary  one-screen digest of the headline results");
    eprintln!("  validate check every generator against its characterization band");
    eprintln!("  dump-trace <APP> <PATH> / trace-info <PATH>  trace tooling");
    eprintln!(
        "  serve    long-lived campaign server (grit-serve/v1 over TCP): --port N (0 = ephemeral), --port-file PATH, --store DIR (default .grit-serve-store), --store-max-bytes N, --max-queued N (admission control; 0 = unbounded), --jobs N; SIGINT/SIGTERM drains queued cells before exit"
    );
    eprintln!(
        "  submit   run an --apps x --policies campaign: --connect HOST:PORT against a server (--shutdown stops it afterwards, --retry resubmits unresolved cells with capped exponential backoff), or --local through the in-process engine; stdout carries only the table"
    );
    eprintln!("  profile <REPORT>    render the profile section of a run_report.json");
    eprintln!(
        "  --jobs N  worker threads for experiment cells (also GRIT_JOBS; default: all cores)"
    );
    eprintln!(
        "  --topology T        interconnect for every cell: all-to-all (default), nvswitch[:RADIX], ring, mesh2d, hierarchical"
    );
    eprintln!("  --page-size N       base page size in bytes for every cell (default 4096)");
    eprintln!(
        "  --page-size-mode M  large-page management for every cell: uniform4k (default) or mixed (coalesce private 2 MB frames)"
    );
    eprintln!(
        "  --inject SPEC       deterministic fault schedule for every cell, e.g. 'outage@1000:wire=0:for=5000;retire@2000:gpu=1:pct=10'"
    );
    eprintln!("  --trace PATH        write a structured JSONL event stream");
    eprintln!("  --trace-filter L    comma-separated event categories (default: all)");
    eprintln!("  --trace-sample N    keep every Nth event per category (default: 1)");
    eprintln!(
        "  --metrics-out DIR   write run_report.json (refuses to overwrite an existing run_report.json without --force)"
    );
    eprintln!("  --force             allow overwriting an existing run_report.json");
    eprintln!(
        "  --profile           wall-clock phase timers (profile object in run_report.json; zero overhead when off)"
    );
    eprintln!(
        "  --profile-out PATH  write a Chrome trace-event / Perfetto JSON span trace (implies --profile)"
    );
    eprintln!("  --progress          1 Hz heartbeat: cells done, ETA, current phase");
    eprintln!("  --cell-timeout SECS wall-clock budget per cell (expired cells become err! rows)");
    eprintln!(
        "  --resume            store finished cells under .grit-resume/ and skip them on re-run"
    );
    eprintln!("  --resume-dir DIR    like --resume, with an explicit store directory");
    eprintln!(
        "  --store-max-bytes N bound any result store; oldest entries are evicted deterministically"
    );
    eprintln!("  --fail-fast         abort the campaign (exit nonzero) on the first failed cell");
    eprintln!("  --keep-going        render failed cells as rows and keep running (default)");
}

/// Prints a table and optionally appends its CSV rendering to `csv_dir`.
fn emit(table: &Table, name: &str, csv_dir: &Option<PathBuf>) {
    println!("{}", table.to_text());
    if let Some(dir) = csv_dir {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = fs::write(&path, table.to_csv()) {
            eprintln!("[repro] failed to write {}: {e}", path.display());
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

/// Runs one named target: the experiment config, the `--csv` directory
/// and the tables later targets reuse.
type Figure = fn(&ExpConfig, &Option<PathBuf>, &mut TableCache);

/// The runner for a target name (aliases included), or `None` for an
/// unknown name. `main` resolves every target before running any, so a
/// typo fails fast instead of after the targets before it.
fn figure(name: &str) -> Option<Figure> {
    Some(match name {
        "tables" => |_, _, _| print_config_tables(),
        "summary" => |exp, _, cache| run_summary(exp, cache),
        "validate" => |exp, _, _| {
            if !run_validate(exp) {
                eprintln!("[repro] at least one generator drifted from its band");
            }
        },
        "stats" => |exp, _, _| {
            use grit::experiments::{run_grid, CellResultExt, PolicyKind};
            use grit_sim::Scheme;
            let apps = grit_workloads::App::TABLE2;
            let policies = [
                PolicyKind::Static(Scheme::OnTouch),
                PolicyKind::Static(Scheme::AccessCounter),
                PolicyKind::Static(Scheme::Duplication),
                PolicyKind::GRIT,
                PolicyKind::Ideal,
            ];
            for (app, row) in apps.iter().zip(run_grid(&apps, &policies, exp)) {
                for (p, cell) in policies.iter().zip(&row) {
                    let Some(out) = cell.output() else {
                        println!("{:<5} {:<16} err!", app.abbr(), p.label());
                        continue;
                    };
                    let m = &out.metrics;
                    let fl = m.aux("fault_latency_summary").unwrap_or(&[]).to_vec();
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
                        fl.get(1).copied().unwrap_or(0.0),
                        fl.get(3).copied().unwrap_or(0.0),
                        m.breakdown,
                    );
                }
            }
        },
        "fig1" => |exp, csv_dir, _| emit(&ex::fig01_schemes::run(exp), "fig1", csv_dir),
        "fig3" => |exp, csv_dir, _| emit(&ex::fig03_breakdown::run(exp), "fig3", csv_dir),
        "fig4" => |exp, csv_dir, _| emit(&ex::fig04_sharing::run(exp), "fig4", csv_dir),
        "fig5" => |exp, csv_dir, _| {
            for (i, t) in ex::fig05_page_timeline::run(exp).into_iter().enumerate() {
                emit(&t, &format!("fig5_{i}"), csv_dir);
            }
        },
        "fig6" | "fig7" | "fig8" => {
            |exp, csv_dir, _| emit(&ex::fig06_attr_grids::run(exp), "fig6_8", csv_dir)
        }
        "fig9" => |exp, csv_dir, _| emit(&ex::fig09_rw::run(exp), "fig9", csv_dir),
        "fig10" => |exp, csv_dir, _| emit(&ex::fig10_rw_timeline::run(exp), "fig10", csv_dir),
        "fig17" => |exp, csv_dir, cache| {
            let t = ex::fig17_grit::run(exp);
            emit(&t, "fig17", csv_dir);
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
            cache.fig17 = Some(t);
        },
        "fig18" => |exp, csv_dir, cache| {
            let t = ex::fig18_faults::run(exp);
            emit(&t, "fig18", csv_dir);
            cache.fig18 = Some(t);
        },
        "fig19" => |exp, csv_dir, _| emit(&ex::fig19_scheme_mix::run(exp), "fig19", csv_dir),
        "fig20" => |exp, csv_dir, _| emit(&ex::fig20_ablation::run(exp), "fig20", csv_dir),
        "fig21" => |exp, csv_dir, _| emit(&ex::fig21_threshold::run(exp), "fig21", csv_dir),
        "fig22" | "fig23" | "fig24" => |exp, csv_dir, _| {
            for (n, perf, faults) in ex::fig22_gpu_scaling::run(exp) {
                println!("--- {n} GPUs ---");
                emit(&perf, &format!("fig22_24_{n}gpu_perf"), csv_dir);
                emit(&faults, &format!("fig22_24_{n}gpu_faults"), csv_dir);
            }
        },
        "fig25" => |exp, csv_dir, _| emit(&ex::fig25_large_pages::run(exp), "fig25", csv_dir),
        "fig26" => |exp, csv_dir, _| emit(&ex::fig26_griffin::run(exp), "fig26", csv_dir),
        "fig27" => |exp, csv_dir, _| emit(&ex::fig27_gps::run(exp), "fig27", csv_dir),
        "fig28" => |exp, csv_dir, _| emit(&ex::fig28_transfw::run(exp), "fig28", csv_dir),
        "fig29" => |exp, csv_dir, _| emit(&ex::fig29_first_touch::run(exp), "fig29", csv_dir),
        "fig30" => |exp, csv_dir, _| emit(&ex::fig30_prefetch::run(exp), "fig30", csv_dir),
        "fig31" => |exp, csv_dir, _| emit(&ex::fig31_dnn::run(exp), "fig31", csv_dir),
        "oracle" => |exp, csv_dir, _| emit(&ex::ext_oracle::run(exp), "oracle", csv_dir),
        "pacache" => |exp, csv_dir, _| emit(&ex::ext_pa_cache::run(exp), "pacache", csv_dir),
        "extra" => |exp, csv_dir, _| emit(&ex::ext_workloads::run(exp), "extra_workloads", csv_dir),
        "adapt" => |exp, csv_dir, _| {
            for (i, t) in ex::ext_adaptation::run(exp).into_iter().enumerate() {
                emit(&t, &format!("adapt_{i}"), csv_dir);
            }
        },
        "sweeps" => |exp, csv_dir, _| {
            emit(
                &ex::ext_sweeps::run_capacity(exp),
                "sweep_capacity",
                csv_dir,
            );
            emit(
                &ex::ext_sweeps::run_remote_gap(exp),
                "sweep_remote_gap",
                csv_dir,
            );
            emit(&ex::ext_sweeps::run_mlp(exp), "sweep_mlp", csv_dir);
        },
        "ext-topology" | "topology" => |exp, csv_dir, _| {
            let study = ex::ext_topology::run(exp);
            emit(&study.speedup, "ext_topology_speedup", csv_dir);
            emit(&study.queue, "ext_topology_queue", csv_dir);
        },
        "ext-pagesize" | "pagesize" => |exp, csv_dir, _| {
            let study = ex::ext_pagesize::run(exp);
            emit(&study.speedup, "ext_pagesize_speedup", csv_dir);
            emit(&study.tlb, "ext_pagesize_tlb", csv_dir);
            emit(&study.activity, "ext_pagesize_activity", csv_dir);
        },
        "ext-resilience" | "resilience" => |exp, csv_dir, _| {
            let study = ex::ext_resilience::run(exp);
            emit(&study.slowdown, "ext_resilience_slowdown", csv_dir);
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
        },
        _ => return None,
    })
}

/// Inputs to `repro submit`, collected from the flag loop.
struct SubmitArgs {
    /// Override spec with scale/intensity/seed and trace knobs applied;
    /// app and policy are filled per campaign cell.
    base: grit_sim::RunSpec,
    connect: Option<String>,
    apps: Option<String>,
    policies: Option<String>,
    shutdown: bool,
    local: bool,
    retry: bool,
    trace_path: Option<PathBuf>,
}

fn split_list(raw: &str) -> Vec<String> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

/// Renders an app x policy campaign as a total-cycles table. Both the
/// served and the `--local` paths funnel through here, so their stdout
/// is comparable byte for byte.
fn render_campaign(apps: &[String], pols: &[String], cycles: &[f64]) -> Table {
    let mut t = Table::new("campaign total cycles", pols.to_vec());
    for (ai, app) in apps.iter().enumerate() {
        let row: Vec<f64> = (0..pols.len()).map(|pi| cycles[ai * pols.len() + pi]).collect();
        t.push_row(app, row);
    }
    t
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

/// What a completed campaign hands back to `cmd_submit`: per-cell
/// results in declaration order, trace lines tagged by cell id, and any
/// server-side error strings.
type CampaignYield = (Vec<grit_serve::CellResult>, Vec<(u64, Json)>, Vec<String>);

/// Drives a served campaign to completion. Without `retry` a single
/// attempt is made and any failure is final. With `retry`, connection
/// failures, timeouts, and `busy` admission rejections trigger a
/// reconnect that resubmits only the still-unresolved ids, backing off
/// on the capped exponential schedule of [`grit_inject::Backoff`]
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
) -> Result<CampaignYield, String> {
    let mut backoff = grit_inject::Backoff::default();
    if let Some(ms) = env::var("GRIT_SUBMIT_RETRY_BASE_MS")
        .ok()
        .and_then(|raw| raw.parse::<u64>().ok())
    {
        backoff.base = ms.max(1);
    }
    let mut resolved: HashMap<u64, grit_serve::CellResult> = HashMap::new();
    let mut traces: Vec<(u64, Json)> = Vec::new();
    let mut server_errors: Vec<String> = Vec::new();
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
                server_errors.extend(outcome.errors);
                // Duplicate `result` lines across attempts (or from a
                // duplicating link) are harmless: first resolution wins,
                // and traces are kept only for ids resolved just now.
                let newly: HashSet<u64> = outcome
                    .results
                    .iter()
                    .map(|r| r.id)
                    .filter(|id| !resolved.contains_key(id))
                    .collect();
                traces.extend(outcome.traces.into_iter().filter(|(id, _)| newly.contains(id)));
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
                if !newly.is_empty() {
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
    let mut results = Vec::with_capacity(specs.len());
    for id in 0..specs.len() as u64 {
        results.push(resolved.remove(&id).expect("loop exits only once every id resolved"));
    }
    // Arrival order within one connection is id order already; a stable
    // sort normalizes trace order across multi-attempt campaigns while
    // preserving per-cell event order.
    traces.sort_by_key(|&(id, _)| id);
    Ok((results, traces, server_errors))
}

/// `repro submit`: run an app x policy campaign against a server
/// (`--connect`) or through the in-process engine (`--local`). Status
/// goes to stderr; stdout carries only the table, so the two paths can
/// be diffed directly.
fn cmd_submit(a: &SubmitArgs) -> ExitCode {
    let apps = a.apps.as_deref().map(split_list).unwrap_or_default();
    let pols = a
        .policies
        .as_deref()
        .map(split_list)
        .unwrap_or_else(|| vec!["grit".to_string()]);
    if apps.is_empty() && !a.shutdown {
        eprintln!("submit needs --apps A,B,... (or --shutdown to only stop a server)");
        return ExitCode::FAILURE;
    }
    for app in &apps {
        if grit_workloads::App::parse(app).is_none() {
            eprintln!("submit: unknown app '{app}'");
            return ExitCode::FAILURE;
        }
    }
    for p in &pols {
        if ex::PolicyKind::parse(p).is_none() {
            eprintln!("submit: unknown policy '{p}'");
            return ExitCode::FAILURE;
        }
    }
    let mut specs = Vec::new();
    for app in &apps {
        for p in &pols {
            let mut s = a.base.clone();
            s.app = app.clone();
            s.policy = p.clone();
            specs.push(s);
        }
    }

    let (cycles, hits, errs, trace_text) = if a.local {
        let mut cells = Vec::new();
        for spec in &specs {
            match grit::service::parse_spec_cell(spec) {
                Ok(c) => cells.push(c),
                Err(e) => {
                    eprintln!("submit: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let outs = ex::run_batch(&cells);
        let mut errs = 0usize;
        for (i, out) in outs.iter().enumerate() {
            if let Err(e) = out {
                errs += 1;
                eprintln!("[repro] cell {i}: {}: {e}", e.status());
            }
        }
        let hits = outs.iter().flatten().filter(|o| o.timing.resumed).count();
        let mut trace_text = String::new();
        for out in outs.iter().flatten() {
            if let Some(evs) = &out.events {
                trace_text.push_str(&grit_trace::events_to_jsonl(evs));
            }
        }
        let cycles: Vec<f64> = outs
            .iter()
            .map(|o| o.as_ref().map_or(0.0, |o| o.metrics.total_cycles as f64))
            .collect();
        (cycles, hits, errs, trace_text)
    } else {
        let Some(addr) = &a.connect else {
            eprintln!("submit needs --connect HOST:PORT (or --local)");
            return ExitCode::FAILURE;
        };
        let (results, traces, server_errors) =
            match run_served_campaign(addr, &specs, a.shutdown, a.retry) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("submit: {e}");
                    return ExitCode::FAILURE;
                }
            };
        for e in &server_errors {
            eprintln!("[repro] server error: {e}");
        }
        if let Some((i, r)) = results.iter().enumerate().find(|(i, r)| r.id != *i as u64) {
            eprintln!(
                "[repro] submit: result {i} carries id {} — declaration order broken",
                r.id
            );
            return ExitCode::FAILURE;
        }
        let mut errs = 0usize;
        for r in &results {
            if !r.is_ok() {
                errs += 1;
                eprintln!(
                    "[repro] cell {}: {}{}",
                    r.id,
                    r.status,
                    r.error.as_deref().map(|m| format!(": {m}")).unwrap_or_default()
                );
            }
        }
        let quarantined: u64 = results.iter().map(|r| r.store_quarantined).sum();
        if quarantined > 0 {
            eprintln!("[repro] submit: server quarantined {quarantined} corrupt store files");
        }
        let hits = results.iter().filter(|r| r.store_hit).count();
        let mut trace_text = String::new();
        for (_id, ev) in &traces {
            trace_text.push_str(&ev.to_string());
            trace_text.push('\n');
        }
        let cycles: Vec<f64> = results.iter().map(|r| r.total_cycles as f64).collect();
        (cycles, hits, errs, trace_text)
    };

    if let Some(path) = &a.trace_path {
        if let Err(e) = fs::write(path, &trace_text) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "[repro] submit: {} cells, {} store hits, {} errors",
        specs.len(),
        hits,
        errs
    );
    if !specs.is_empty() {
        print!("{}", render_campaign(&apps, &pols, &cycles).to_text());
    }
    if errs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }

    let mut exp = ExpConfig::default();
    let mut targets: Vec<String> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut trace_mask = CategoryMask::ALL;
    let mut trace_sample: u64 = 1;
    let mut metrics_dir: Option<PathBuf> = None;
    let mut profile_on = false;
    let mut profile_out: Option<PathBuf> = None;
    let mut force = false;
    // The machine/execution overrides accumulate into one RunSpec — the
    // same struct the result store keys on and the serve wire carries.
    let mut ospec = grit_sim::RunSpec::default();
    // The batch execution flags fill one BatchOptions, installed once
    // after the loop; the timeout comes from `ospec`.
    let mut bopts = ex::BatchOptions::new();
    let mut trace_filter_raw: Option<String> = None;
    let mut port: u16 = 0;
    let mut port_file: Option<PathBuf> = None;
    let mut store_dir: Option<PathBuf> = None;
    let mut connect_addr: Option<String> = None;
    let mut apps_raw: Option<String> = None;
    let mut policies_raw: Option<String> = None;
    let mut do_shutdown = false;
    let mut local_mode = false;
    let mut do_retry = false;
    let mut max_queued: usize = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => exp = ExpConfig::quick(),
            "--full" => exp = ExpConfig::full(),
            "--scale" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--scale needs a number");
                    return ExitCode::FAILURE;
                };
                exp.scale = v;
            }
            "--intensity" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--intensity needs a number");
                    return ExitCode::FAILURE;
                };
                exp.intensity = v;
            }
            "--seed" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                };
                exp.seed = v;
            }
            "--jobs" | "-j" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<usize>().ok()).filter(|&n| n > 0)
                else {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                };
                bopts.jobs = Some(v);
            }
            "--csv" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--csv needs a directory");
                    return ExitCode::FAILURE;
                };
                let dir = PathBuf::from(dir);
                if let Err(e) = fs::create_dir_all(&dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
                csv_dir = Some(dir);
            }
            "--trace" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--trace needs a file path");
                    return ExitCode::FAILURE;
                };
                trace_path = Some(PathBuf::from(path));
            }
            "--trace-filter" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    eprintln!("--trace-filter needs a comma-separated category list");
                    return ExitCode::FAILURE;
                };
                match CategoryMask::parse(list) {
                    Ok(mask) => trace_mask = mask,
                    Err(e) => {
                        eprintln!("--trace-filter: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                trace_filter_raw = Some(list.clone());
            }
            "--trace-sample" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse::<u64>().ok()).filter(|&n| n > 0)
                else {
                    eprintln!("--trace-sample needs a positive integer");
                    return ExitCode::FAILURE;
                };
                trace_sample = n;
            }
            "--metrics-out" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--metrics-out needs a directory");
                    return ExitCode::FAILURE;
                };
                let dir = PathBuf::from(dir);
                if let Err(e) = fs::create_dir_all(&dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
                metrics_dir = Some(dir);
            }
            "--profile" => profile_on = true,
            "--profile-out" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--profile-out needs a file path");
                    return ExitCode::FAILURE;
                };
                profile_out = Some(PathBuf::from(path));
                profile_on = true;
            }
            "--progress" => ex::set_progress(true),
            "--force" => force = true,
            "--cell-timeout" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--cell-timeout needs a non-negative number of seconds");
                    return ExitCode::FAILURE;
                };
                if let Err(e) = grit_sim::spec::timeout_from_secs(v) {
                    eprintln!("--cell-timeout: {e}");
                    return ExitCode::FAILURE;
                }
                ospec = ospec.timeout_secs(v);
            }
            "--resume" => bopts.resume_dir = Some(PathBuf::from(".grit-resume")),
            "--resume-dir" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--resume-dir needs a directory");
                    return ExitCode::FAILURE;
                };
                bopts.resume_dir = Some(PathBuf::from(dir));
            }
            "--fail-fast" => bopts.fail_fast = true,
            "--keep-going" => bopts.fail_fast = false,
            "--topology" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    eprintln!("--topology needs a name (all-to-all, nvswitch[:RADIX], ring, mesh2d, hierarchical)");
                    return ExitCode::FAILURE;
                };
                if let Err(e) = grit_sim::TopologyConfig::parse(spec) {
                    eprintln!("--topology: {e}");
                    return ExitCode::FAILURE;
                }
                ospec = ospec.topology(spec);
            }
            "--page-size" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("--page-size needs a byte count (e.g. 4096, 65536)");
                    return ExitCode::FAILURE;
                };
                if let Err(e) = grit_sim::lines_per_page_checked(v) {
                    eprintln!("--page-size: {e}");
                    return ExitCode::FAILURE;
                }
                ospec = ospec.page_size(v);
            }
            "--page-size-mode" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    eprintln!("--page-size-mode needs a mode (uniform4k, mixed)");
                    return ExitCode::FAILURE;
                };
                if let Err(e) = grit_sim::PageSizeMode::parse(spec) {
                    eprintln!("--page-size-mode: {e}");
                    return ExitCode::FAILURE;
                }
                ospec = ospec.page_size_mode(spec.as_str());
            }
            "--inject" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    eprintln!(
                        "--inject needs a spec, e.g. 'degrade@1000:wire=0:frac=0.25:for=100000'"
                    );
                    return ExitCode::FAILURE;
                };
                if let Err(e) = grit_sim::InjectConfig::parse(spec) {
                    eprintln!("--inject: {e}");
                    return ExitCode::FAILURE;
                }
                ospec = ospec.inject(spec);
            }
            "--store-max-bytes" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<u64>().ok()).filter(|&n| n > 0)
                else {
                    eprintln!("--store-max-bytes needs a positive byte count");
                    return ExitCode::FAILURE;
                };
                bopts.store_max_bytes = Some(v);
            }
            "--port" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<u16>().ok()) else {
                    eprintln!("--port needs a TCP port number (0 = ephemeral)");
                    return ExitCode::FAILURE;
                };
                port = v;
            }
            "--port-file" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--port-file needs a file path");
                    return ExitCode::FAILURE;
                };
                port_file = Some(PathBuf::from(path));
            }
            "--store" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--store needs a directory");
                    return ExitCode::FAILURE;
                };
                // One flag, one store: the serve store and the local
                // resume store are the same directory, so `submit
                // --local` and a server share hits.
                store_dir = Some(PathBuf::from(dir));
                bopts.resume_dir = Some(PathBuf::from(dir));
            }
            "--connect" => {
                i += 1;
                let Some(addr) = args.get(i) else {
                    eprintln!("--connect needs HOST:PORT");
                    return ExitCode::FAILURE;
                };
                connect_addr = Some(addr.clone());
            }
            "--apps" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    eprintln!("--apps needs a comma-separated list (e.g. GEMM,BFS)");
                    return ExitCode::FAILURE;
                };
                apps_raw = Some(list.clone());
            }
            "--policies" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    eprintln!("--policies needs a comma-separated list (e.g. grit,on-touch)");
                    return ExitCode::FAILURE;
                };
                policies_raw = Some(list.clone());
            }
            "--shutdown" => do_shutdown = true,
            "--local" => local_mode = true,
            "--retry" => do_retry = true,
            "--max-queued" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--max-queued needs a cell count (0 = unbounded)");
                    return ExitCode::FAILURE;
                };
                max_queued = v;
            }
            "list" | "--list" | "-l" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    ex::set_override_spec(Some(ospec.clone()));
    bopts.timeout = ex::BatchOptions::from(&ospec).timeout;
    ex::set_batch_defaults(bopts);

    // Trace tooling takes positional arguments.
    if targets.first().map(String::as_str) == Some("dump-trace") {
        let (Some(app), Some(path)) = (targets.get(1), targets.get(2)) else {
            eprintln!("usage: repro dump-trace <APP> <PATH> [--scale X]");
            return ExitCode::FAILURE;
        };
        return if dump_trace(app, path, &exp) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if targets.first().map(String::as_str) == Some("trace-info") {
        let Some(path) = targets.get(1) else {
            eprintln!("usage: repro trace-info <PATH>");
            return ExitCode::FAILURE;
        };
        return if trace_info(path) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if targets.first().map(String::as_str) == Some("profile") {
        let Some(path) = targets.get(1) else {
            eprintln!("usage: repro profile <run_report.json>");
            return ExitCode::FAILURE;
        };
        return if cmd_profile(path) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if targets.first().map(String::as_str) == Some("submit") {
        let mut base = ospec.clone().scale(exp.scale).intensity(exp.intensity).seed(exp.seed);
        if trace_path.is_some() {
            base = base.trace(true).trace_sample(trace_sample);
            if let Some(filter) = &trace_filter_raw {
                base = base.trace_filter(filter);
            }
        }
        return cmd_submit(&SubmitArgs {
            base,
            connect: connect_addr,
            apps: apps_raw,
            policies: policies_raw,
            shutdown: do_shutdown,
            local: local_mode,
            retry: do_retry,
            trace_path,
        });
    }

    // A half-finished campaign must not silently clobber a report the user
    // still needs; make replacement an explicit decision.
    if let Some(dir) = &metrics_dir {
        let path = dir.join("run_report.json");
        if path.exists() && !force {
            eprintln!(
                "refusing to overwrite existing {}; pass --force to replace it",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    }

    let serve_mode = targets.first().map(String::as_str) == Some("serve");
    if serve_mode && targets.len() > 1 {
        eprintln!("serve takes no figure targets");
        return ExitCode::FAILURE;
    }

    if targets.iter().any(|t| t == "all") {
        // Every figure, capped by the digest — which reuses the fig17 and
        // fig18 tables computed moments earlier.
        targets = FIGURES.iter().map(|(n, _)| n.to_string()).collect();
        targets.push("summary".to_string());
    }
    if targets.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }
    // Resolve every target before running any, so an unknown name fails
    // before the targets ahead of it print their tables.
    if let Some(t) = targets.iter().find(|t| !serve_mode && figure(t).is_none()) {
        eprintln!("unknown figure: {t}");
        print_usage();
        return ExitCode::FAILURE;
    }

    if let Some(path) = &trace_path {
        if serve_mode {
            // A global trace writer would disable the shared store for
            // every client; served cells opt into tracing per spec.
            eprintln!("serve ignores --trace; clients request traces per cell");
        } else {
            let cfg = TraceConfig {
                categories: trace_mask,
                sample_every: trace_sample,
            };
            if let Err(e) = trace_writer::install_global(cfg, path) {
                eprintln!("cannot create trace file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if metrics_dir.is_some() {
        report_sink::enable();
    }
    if profile_on {
        grit_prof::set_enabled(true);
    }
    if profile_out.is_some() {
        grit_prof::set_capture(true);
    }

    eprintln!(
        "[repro] scale={} intensity={} seed={:#x} jobs={}",
        exp.scale,
        exp.intensity,
        exp.seed,
        ex::effective_jobs()
    );
    let mut cache = TableCache::default();
    let t0 = Instant::now();
    if serve_mode {
        let mut sopts = grit_serve::ServeOptions::new()
            .port(port)
            .jobs(ex::effective_jobs())
            .max_queued(max_queued);
        if let Some(pf) = &port_file {
            sopts = sopts.port_file(pf);
        }
        let dir = store_dir.clone().unwrap_or_else(|| PathBuf::from(".grit-serve-store"));
        let started = Instant::now();
        let store_max_bytes = ex::BatchOptions::from_defaults().store_max_bytes;
        match grit::service::serve(&sopts, Some(dir), store_max_bytes) {
            Ok(s) => {
                report_sink::record_target("serve", started.elapsed().as_secs_f64());
                eprintln!(
                    "[repro] serve: {} cells ({} store hits, {} errors) over {} connections",
                    s.cells, s.store_hits, s.errors, s.connections
                );
            }
            Err(e) => {
                eprintln!("serve: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for t in &targets {
            eprintln!("[repro] running {t} ...");
            let started = Instant::now();
            let run = figure(t).expect("targets were resolved before the run");
            run(&exp, &csv_dir, &mut cache);
            let seconds = started.elapsed().as_secs_f64();
            report_sink::record_target(t, seconds);
            eprintln!("[repro] {t} time: {seconds:.2}s");
            if ex::fail_fast_triggered() {
                eprintln!(
                    "[repro] fail-fast: a cell failed during {t}; skipping remaining targets"
                );
                break;
            }
        }
    }
    let total_seconds = t0.elapsed().as_secs_f64();
    eprintln!(
        "[repro] total time: {total_seconds:.2}s ({} targets, {} jobs)",
        targets.len(),
        ex::effective_jobs()
    );

    if trace_path.is_some() {
        if let Err(e) = trace_writer::flush_global() {
            eprintln!("trace: flush failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if profile_on {
        let totals: Vec<PhaseEntry> = grit_prof::phase_totals()
            .iter()
            .filter(|t| t.count > 0)
            .map(|t| PhaseEntry {
                phase: t.phase.name().to_string(),
                nanos: t.nanos,
                count: t.count,
            })
            .collect();
        if totals.is_empty() {
            eprintln!("[repro] profile: no spans recorded");
        } else {
            eprintln!("[repro] wall-clock phases:");
            eprint!("{}", render_phase_table(&totals));
        }
    }
    if let Some(path) = &profile_out {
        let (events, dropped) = grit_prof::drain_events();
        if let Err(e) = fs::write(path, grit_prof::chrome_trace_json(&events, dropped)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[repro] wrote {} ({} span events, {} dropped)",
            path.display(),
            events.len(),
            dropped
        );
    }
    if let Some(dir) = &metrics_dir {
        let report = report_sink::build_report(&exp, ex::effective_jobs(), total_seconds);
        let path = dir.join("run_report.json");
        if let Err(e) = fs::write(&path, format!("{}\n", report.to_json())) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[repro] wrote {} ({} cells)",
            path.display(),
            report.cells.len()
        );
    }
    if ex::fail_fast_triggered() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
