//! Extension study: placement policies under injected hardware faults.
//!
//! The paper evaluates GRIT on healthy hardware; this study asks how
//! gracefully each policy degrades when the node gets sick. Three
//! deterministic fault scenarios ([`grit_sim::inject`]) — whole-fabric
//! bandwidth degradation, transient full-fabric outages, and ECC frame
//! retirement — are swept against GPU count with GRIT, on-touch and
//! first-touch over the Table II applications, through the resilient
//! batch harness (so `--jobs`, `--resume` and `run_report.json` all
//! apply).
//!
//! The table reports, per (policy, scenario) row and GPU-count column,
//! the geomean slowdown relative to the *same policy on healthy
//! hardware* — so the value isolates how much of the policy's
//! performance survives the fault, not the fault's raw cost.

use grit_metrics::{geomean, Table};
use grit_sim::{InjectConfig, ResilienceCounters, Scheme, SimConfig};
use grit_workloads::App;

use super::{run_batch, table2_apps, CellResultExt, CellSpec, ExpConfig, PolicyKind, PolicySpec};
use crate::runner::RunOutput;

/// GPU counts swept against every scenario.
pub const GPU_COUNTS: [usize; 3] = [2, 4, 8];

/// The fault scenarios, as GPU-count-independent inject specs
/// (`wire=*` targets every wire of whatever fabric the cell builds;
/// `pct=` scales retirement to the GPU's actual capacity).
pub const SCENARIOS: [(&str, &str); 4] = [
    ("none", ""),
    // Every wire runs at a quarter of nominal bandwidth for the bulk of
    // the run.
    ("degraded", "degrade@50000:wire=*:frac=0.25:for=1000000000"),
    // Two transient full-fabric outages: migrations block, retry, and
    // fall back while the windows last.
    (
        "outage",
        "outage@50000:wire=*:for=300000;outage@1000000:wire=*:for=300000",
    ),
    // ECC retires 30 % of two GPUs' DRAM frames early in the run.
    (
        "retirement",
        "retire@100000:gpu=0:pct=30;retire@200000:gpu=1:pct=30",
    ),
];

/// The study's outputs.
pub struct ResilienceStudy {
    /// Geomean slowdown vs the same policy on healthy hardware, one row
    /// per `policy/scenario`, one column per GPU count.
    pub slowdown: Table,
    /// Aggregated fault-injection outcome counters over every injected
    /// run, one [`ResilienceCounters`] per scenario (scenario `none`
    /// stays all-zero).
    pub counters: Vec<(&'static str, ResilienceCounters)>,
}

fn policies() -> [(&'static str, PolicyKind); 3] {
    [
        ("first-touch", PolicyKind::FirstTouch),
        ("on-touch", PolicyKind::Static(Scheme::OnTouch)),
        ("grit", PolicyKind::GRIT),
    ]
}

/// The resilience counters of one run (all-zero when uninjected).
fn resilience_of(o: &RunOutput) -> ResilienceCounters {
    ResilienceCounters::from_aux(o.metrics.aux("resilience_counters").unwrap_or_default())
}

fn add(acc: &mut ResilienceCounters, r: ResilienceCounters) {
    acc.faults_injected += r.faults_injected;
    acc.recoveries += r.recoveries;
    acc.frames_retired += r.frames_retired;
    acc.pages_force_evicted += r.pages_force_evicted;
    acc.storm_stalled_faults += r.storm_stalled_faults;
    acc.migrations_blocked += r.migrations_blocked;
    acc.migration_retries += r.migration_retries;
    acc.retry_successes += r.retry_successes;
    acc.fallback_remote += r.fallback_remote;
    acc.host_staged += r.host_staged;
    acc.invariant_checks += r.invariant_checks;
}

/// Runs the sweep over an explicit app set and GPU counts (tests shrink
/// both; [`run`] uses the full Table II set).
pub fn study(apps: &[App], gpu_counts: &[usize], exp: &ExpConfig) -> ResilienceStudy {
    // Cells are built literally (not via `CellSpec::new`) so each keeps
    // its explicit fault schedule even under an `--inject` global
    // override.
    let cell = |app: App, policy: PolicyKind, gpus: usize, spec: &str| CellSpec {
        app,
        policy: PolicySpec::Kind(policy),
        exp: *exp,
        cfg: SimConfig {
            inject: InjectConfig::parse(spec).expect("scenario specs are valid"),
            ..SimConfig::with_gpus(gpus)
        },
        observer: None,
        prefetcher: None,
        trace: None,
    };
    let mut cells = Vec::new();
    for (_, spec) in SCENARIOS {
        for &gpus in gpu_counts {
            for &app in apps {
                for (_, policy) in policies() {
                    cells.push(cell(app, policy, gpus, spec));
                }
            }
        }
    }
    let outputs = run_batch(&cells);

    let cols: Vec<String> = gpu_counts.iter().map(|n| format!("{n} GPUs")).collect();
    let mut slowdown = Table::new(
        "ext-resilience: geomean slowdown vs same-policy healthy run",
        cols,
    );
    // Chunk layout mirrors the declaration loops: per (scenario, gpus),
    // `apps.len()` consecutive policy triples.
    let per_combo = apps.len() * policies().len();
    let per_scenario = per_combo * gpu_counts.len();
    let healthy = &outputs[..per_scenario];
    let mut counters: Vec<(&'static str, ResilienceCounters)> = Vec::new();
    for (s, (scenario, _)) in SCENARIOS.iter().enumerate() {
        let block = &outputs[s * per_scenario..(s + 1) * per_scenario];
        let mut acc = ResilienceCounters::default();
        for out in block {
            if let Some(o) = out.output() {
                add(&mut acc, resilience_of(o));
            }
        }
        counters.push((scenario, acc));
        if s == 0 {
            continue; // the healthy scenario is the baseline, ratio 1.
        }
        for (p, (pname, _)) in policies().iter().enumerate() {
            let mut row = Vec::with_capacity(gpu_counts.len());
            for (g, _) in gpu_counts.iter().enumerate() {
                let per_app: Vec<f64> = (0..apps.len())
                    .map(|a| {
                        let idx = g * per_combo + a * policies().len() + p;
                        block[idx].cycles() / healthy[idx].cycles()
                    })
                    .collect();
                row.push(geomean(&per_app));
            }
            slowdown.push_row(format!("{pname}/{scenario}"), row);
        }
    }
    ResilienceStudy { slowdown, counters }
}

/// Runs the full study: every scenario × [`GPU_COUNTS`] × Table II apps.
pub fn run(exp: &ExpConfig) -> ResilienceStudy {
    study(&table2_apps(), &GPU_COUNTS, exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.02,
            intensity: 0.5,
            seed: 0xFA01,
        }
    }

    #[test]
    fn faults_slow_runs_down_but_never_break_them() {
        let s = study(&[App::Bfs, App::Fir], &[4], &tiny());
        for (policy, _) in policies() {
            for scenario in ["degraded", "outage", "retirement"] {
                let v = s.slowdown.cell(&format!("{policy}/{scenario}"), "4 GPUs").unwrap();
                assert!(v.is_finite() && v > 0.0, "{policy}/{scenario}: {v}");
            }
        }
        // Whole-fabric degradation must cost something somewhere.
        let d = s.slowdown.cell("on-touch/degraded", "4 GPUs").unwrap();
        assert!(d > 1.0, "quarter-bandwidth wires must slow on-touch: {d}");
    }

    #[test]
    fn every_blocked_migration_resolves_in_every_scenario() {
        let s = study(&[App::Bfs], &[2, 4], &tiny());
        let outage = s.counters.iter().find(|(n, _)| *n == "outage").unwrap().1;
        assert!(outage.faults_injected > 0, "outage transitions must fire");
        assert!(
            outage.all_blocked_resolved(),
            "blocked migrations must resolve: {outage:?}"
        );
        let none = s.counters.iter().find(|(n, _)| *n == "none").unwrap().1;
        assert_eq!(
            (none.faults_injected, none.migrations_blocked),
            (0, 0),
            "healthy runs must stay untouched"
        );
        let ret = s.counters.iter().find(|(n, _)| *n == "retirement").unwrap().1;
        assert!(ret.frames_retired > 0, "retirement must shrink DRAM");
        // None of the policies runs epochs, so the driver sweeps its
        // invariants exactly once per applied transition, in every build.
        for (name, c) in &s.counters {
            assert_eq!(
                c.invariant_checks,
                c.faults_injected + c.recoveries,
                "{name}: {c:?}"
            );
            assert_eq!(c.invariant_checks > 0, *name != "none", "{name}: {c:?}");
        }
    }
}
