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

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

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

/// Runs the sweep over an explicit app set and GPU counts (tests shrink
/// both; [`run`] uses the full Table II set).
pub fn study(apps: &[App], gpu_counts: &[usize], exp: &ExpConfig) -> ResilienceStudy {
    // Pinned cells keep their explicit fault schedule even under an
    // `--inject` global override.
    let keys: Vec<((&'static str, &'static str), usize, App)> = SCENARIOS
        .into_iter()
        .flat_map(|s| gpu_counts.iter().flat_map(move |&g| apps.iter().map(move |&a| (s, g, a))))
        .collect();
    let rows = run_grid(&keys, |((_, spec), gpus, app)| {
        let cfg = SimConfig {
            inject: InjectConfig::parse(spec).expect("scenario specs are valid"),
            ..SimConfig::with_gpus(gpus)
        };
        policies().map(|(_, p)| CellSpec::pinned(app, p, exp, cfg.clone()))
    });
    let scenario_rows = |scenario: &'static str| {
        rows.iter().filter(move |(((name, _), _, _), _)| *name == scenario)
    };
    // The rows of one (scenario, GPU count), in app order.
    let rows_of = |scenario: &'static str, gpus: usize| {
        scenario_rows(scenario)
            .filter(move |((_, g, _), _)| *g == gpus)
            .map(|(_, row)| row)
    };

    let counters: Vec<(&'static str, ResilienceCounters)> = SCENARIOS
        .iter()
        .map(|&(scenario, _)| {
            let mut sums = [0.0; ResilienceCounters::AUX_LEN];
            let outs = scenario_rows(scenario).flat_map(|(_, row)| row).filter_map(|r| r.output());
            for series in outs.filter_map(|o| o.metrics.aux("resilience_counters")) {
                sums.iter_mut().zip(series).for_each(|(sum, v)| *sum += v);
            }
            (scenario, ResilienceCounters::from_aux(&sums))
        })
        .collect();

    let cols: Vec<String> = gpu_counts.iter().map(|n| format!("{n} GPUs")).collect();
    let mut slowdown = Table::new(
        "ext-resilience: geomean slowdown vs same-policy healthy run",
        cols,
    );
    // The healthy scenario is the baseline, ratio 1, so it has no rows.
    let (healthy, _) = SCENARIOS[0];
    for &(scenario, _) in &SCENARIOS[1..] {
        for (p, (pname, _)) in policies().iter().enumerate() {
            let row = gpu_counts.iter().map(|&g| {
                let per_app: Vec<f64> = rows_of(scenario, g)
                    .zip(rows_of(healthy, g))
                    .map(|(sick, well)| sick[p].cycles() / well[p].cycles())
                    .collect();
                geomean(&per_app)
            });
            slowdown.push_row(format!("{pname}/{scenario}"), row.collect());
        }
    }
    ResilienceStudy { slowdown, counters }
}

/// Runs the full study: every scenario × [`GPU_COUNTS`] × Table II apps.
pub fn run(exp: &ExpConfig) -> ResilienceStudy {
    study(&App::TABLE2, &GPU_COUNTS, exp)
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
