//! End-to-end and per-layer benchmark of the GRIT simulator and its
//! campaign server.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-mix|fault-heavy|serve-resweep> --seed <n> \
//!     --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics (component replays,
//! counters, spans recorded around each layer call). Either way it checks
//! the simulated outputs, prints one `name = value unit` line per metric
//! on stderr, a counter digest on stdout, and, as the last stdout line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. A
//! failed output check sets `correct` to false and exits with code 1.
//!
//! Every number is taken from outside the program: the benchmark times its
//! own calls into each layer's public functions and reads the counters the
//! program already returns. `--tiny` shrinks every input for the smoke test.

mod grid;
mod measure;
mod replay;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Outcome;

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The Fig. 17 grid on the Table I machine: the per-access path.
    PaperMix,
    /// Low reuse, oversubscribed memory, large pages: the fault path.
    FaultHeavy,
    /// Campaigns through an in-process `grit-serve` server.
    ServeResweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-mix" => Some(Workload::PaperMix),
            "fault-heavy" => Some(Workload::FaultHeavy),
            "serve-resweep" => Some(Workload::ServeResweep),
            _ => None,
        }
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper-mix",
            Workload::FaultHeavy => "fault-heavy",
            Workload::ServeResweep => "serve-resweep",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Generator seed for every input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Shrunken inputs, for the smoke test.
    pub tiny: bool,
    /// Directory for the run's store files and span output.
    pub out_dir: PathBuf,
}

/// Seconds of busy host warm-up before any set-up or measurement.
const HOST_WARMUP_S: f64 = 2.0;

const USAGE: &str = "usage: perfbench --workload <paper-mix|fault-heavy|serve-resweep> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        out_dir: out_dir()?,
    })
}

/// `<target dir>/perfbench-out`: the executable lives in
/// `<target dir>/<profile>/`, so run files stay inside the build tree.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no target directory")?;
    Ok(target.join("perfbench-out"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    measure::warm_host(grid::jobs(), HOST_WARMUP_S);
    let outcome = match args.workload {
        Workload::PaperMix | Workload::FaultHeavy => grid::run(&args, &run_dir),
        Workload::ServeResweep => serve::run(&args, &run_dir),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(outcome) => report(&args, &outcome),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::from(1)
        }
    }
}

fn report(args: &Args, outcome: &Outcome) -> ExitCode {
    for m in &outcome.metrics {
        eprintln!("perfbench: {:<40} = {} {}", m.name, m.value, m.unit);
    }
    let mut failures = outcome.failures.clone();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            failures.push(format!("metric {} is not finite", m.name));
        }
    }
    for f in &failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "digest workload={} seed={} trace={} counters={:016x}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.digest
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
