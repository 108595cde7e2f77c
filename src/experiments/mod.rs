//! Experiment drivers: one module per figure of the paper's evaluation.
//!
//! Every driver returns a [`grit_metrics::Table`] (or a small set of them)
//! whose rows mirror the corresponding figure, normalized the same way the
//! paper normalizes. The `repro` binary prints them; `EXPERIMENTS.md`
//! records paper-vs-measured values.

pub mod fig01_schemes;
pub mod fig03_breakdown;
pub mod fig04_sharing;
pub mod fig05_page_timeline;
pub mod fig06_attr_grids;
pub mod fig09_rw;
pub mod fig10_rw_timeline;
pub mod fig17_grit;
pub mod fig18_faults;
pub mod fig19_scheme_mix;
pub mod fig20_ablation;
pub mod fig21_threshold;
pub mod fig22_gpu_scaling;
pub mod fig25_large_pages;
pub mod fig26_griffin;
pub mod fig27_gps;
pub mod fig28_transfw;
pub mod fig29_first_touch;
pub mod fig30_prefetch;
pub mod fig31_dnn;

pub mod ext_adaptation;
pub mod ext_oracle;
pub mod ext_pa_cache;
pub mod ext_pagesize;
pub mod ext_resilience;
pub mod ext_sweeps;
pub mod ext_topology;
pub mod ext_workloads;

pub mod batch;
pub mod report_sink;
pub mod result_store;
pub mod workload_cache;

pub use batch::{
    effective_jobs, fail_fast_triggered, override_spec, run_batch, run_batch_with, run_grid,
    run_scouted, set_batch_defaults, set_override_spec, set_progress, BatchOptions, CellResultExt,
    CellSpec, PolicySpec,
};

use grit_baselines::{FirstTouchPolicy, GpsPolicy, GriffinDpcPolicy, IdealPolicy};
use grit_core::{GritConfig, GritPolicy, PA_CACHE_WAYS};
use grit_metrics::Table;
use grit_sim::{RunSpec, Scheme, SimConfig};
use grit_uvm::{PlacementPolicy, StaticPolicy};
use grit_workloads::App;

use crate::runner::{ObserverConfig, RunOutput};

/// Which policy a run uses (a serializable recipe, since policies carry
/// per-run state).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PolicyKind {
    /// One uniform scheme for every page.
    Static(Scheme),
    /// The unrealizable Ideal of Fig. 1.
    Ideal,
    /// GRIT with the given configuration (latencies are re-derived from
    /// the run's `SimConfig`).
    Grit {
        /// Fault threshold (default 4).
        threshold: u8,
        /// PA-Cache enabled.
        pa_cache: bool,
        /// Neighboring-Aware Prediction enabled.
        nap: bool,
    },
    /// First-touch pinning (§VI-D).
    FirstTouch,
    /// Griffin's dynamic page classification (§VI-C1).
    GriffinDpc,
    /// GPS publish-subscribe (§VI-C2).
    Gps,
    /// GRIT with an explicit PA-Cache capacity (geometry ablation).
    GritWithCache {
        /// PA-Cache entries (4-way sets).
        entries: usize,
    },
}

impl PolicyKind {
    /// The full GRIT design.
    pub const GRIT: PolicyKind = PolicyKind::Grit {
        threshold: 4,
        pa_cache: true,
        nap: true,
    };

    /// Builds the policy object for a run.
    pub fn build(self, cfg: &SimConfig, footprint_pages: u64) -> Box<dyn PlacementPolicy> {
        match self {
            PolicyKind::Static(s) => Box::new(StaticPolicy::new(s)),
            PolicyKind::Ideal => Box::new(IdealPolicy::new()),
            PolicyKind::Grit {
                threshold,
                pa_cache,
                nap,
            } => {
                let gc = GritConfig {
                    fault_threshold: threshold,
                    pa_cache,
                    nap,
                    ..GritConfig::full(cfg)
                };
                Box::new(GritPolicy::new(gc, footprint_pages))
            }
            PolicyKind::FirstTouch => Box::new(FirstTouchPolicy::new()),
            PolicyKind::GriffinDpc => Box::new(GriffinDpcPolicy::new(cfg.num_gpus)),
            PolicyKind::Gps => Box::new(GpsPolicy::new()),
            PolicyKind::GritWithCache { entries } => {
                let gc = GritConfig {
                    pa_cache_entries: entries,
                    ..GritConfig::full(cfg)
                };
                Box::new(GritPolicy::new(gc, footprint_pages))
            }
        }
    }

    /// Report label.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Static(s) => s.to_string(),
            PolicyKind::Ideal => "ideal".into(),
            PolicyKind::Grit {
                threshold: 4,
                pa_cache: true,
                nap: true,
            } => "grit".into(),
            PolicyKind::Grit {
                threshold,
                pa_cache,
                nap,
            } => {
                format!("grit(t={threshold},cache={pa_cache},nap={nap})")
            }
            PolicyKind::FirstTouch => "first-touch".into(),
            PolicyKind::GriffinDpc => "griffin-dpc".into(),
            PolicyKind::Gps => "gps".into(),
            PolicyKind::GritWithCache { entries } => format!("grit(pa-cache={entries})"),
        }
    }

    /// Resolves a report label back to the policy recipe, the inverse of
    /// [`PolicyKind::label`]. This is how serialized [`grit_sim::RunSpec`]
    /// cells (CLI submissions, `grit-serve/v1` requests) name policies.
    /// `None` for unknown labels and for GRIT recipes that cannot be
    /// built: a zero fault threshold, or a PA-Cache whose entry count is
    /// not a positive multiple of [`PA_CACHE_WAYS`].
    pub fn parse(label: &str) -> Option<PolicyKind> {
        let label = label.trim();
        if let Some(s) = Scheme::ALL.into_iter().find(|s| s.to_string() == label) {
            return Some(PolicyKind::Static(s));
        }
        match label {
            "ideal" => return Some(PolicyKind::Ideal),
            "grit" => return Some(PolicyKind::GRIT),
            "first-touch" => return Some(PolicyKind::FirstTouch),
            "griffin-dpc" => return Some(PolicyKind::GriffinDpc),
            "gps" => return Some(PolicyKind::Gps),
            _ => {}
        }
        let body = label.strip_prefix("grit(")?.strip_suffix(')')?;
        if let Some(entries) = body.strip_prefix("pa-cache=") {
            let entries: usize = entries.parse().ok()?;
            let buildable = entries > 0 && entries.is_multiple_of(PA_CACHE_WAYS);
            return buildable.then_some(PolicyKind::GritWithCache { entries });
        }
        let (mut threshold, mut pa_cache, mut nap) = (None, None, None);
        for part in body.split(',') {
            let (k, v) = part.split_once('=')?;
            match k {
                "t" => threshold = Some(v.parse().ok()?),
                "cache" => pa_cache = Some(v.parse().ok()?),
                "nap" => nap = Some(v.parse().ok()?),
                _ => return None,
            }
        }
        Some(PolicyKind::Grit {
            threshold: threshold.filter(|&t| t > 0)?,
            pa_cache: pa_cache?,
            nap: nap?,
        })
    }
}

/// Shared experiment knobs: workload scale and trace intensity trade
/// fidelity against wall-clock time. The defaults reproduce every trend at
/// a fraction of the full-footprint runtime; `--full` in the `repro`
/// binary raises them.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Footprint scale relative to Table II.
    pub scale: f64,
    /// Trace-length multiplier.
    pub intensity: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    /// The experiment knobs of a default [`RunSpec`].
    fn default() -> Self {
        ExpConfig {
            scale: grit_sim::spec::DEFAULT_SCALE,
            intensity: grit_sim::spec::DEFAULT_INTENSITY,
            seed: grit_sim::spec::DEFAULT_SEED,
        }
    }
}

impl ExpConfig {
    /// A fast configuration for CI/integration tests.
    pub fn quick() -> Self {
        ExpConfig {
            scale: 0.04,
            intensity: 1.5,
            ..Default::default()
        }
    }

    /// Full-footprint configuration (Table II sizes). Intensity stays at
    /// the calibrated default: trace length already scales with footprint.
    pub fn full() -> Self {
        ExpConfig {
            scale: 1.0,
            intensity: 2.0,
            ..Default::default()
        }
    }
}

impl From<&RunSpec> for ExpConfig {
    /// The experiment knobs of one spec: its scale, intensity and seed.
    fn from(spec: &RunSpec) -> Self {
        ExpConfig {
            scale: spec.scale,
            intensity: spec.intensity,
            seed: spec.seed,
        }
    }
}

/// Runs one `(app, policy)` cell with the baseline system configuration:
/// a one-cell [`CellSpec::run`] for tests and examples, which panics when
/// the cell fails.
pub fn run_cell(app: App, policy: PolicyKind, exp: &ExpConfig) -> RunOutput {
    run_cell_with(app, policy, exp, SimConfig::default(), None)
}

/// Runs one cell with an explicit system configuration and optional
/// observer instrumentation. The workload comes from the process-wide
/// [`workload_cache`], so repeated cells on one trace build it once.
pub fn run_cell_with(
    app: App,
    policy: PolicyKind,
    exp: &ExpConfig,
    cfg: SimConfig,
    observer: Option<ObserverConfig>,
) -> RunOutput {
    let mut cell = CellSpec::pinned(app, policy, exp, cfg);
    cell.observer = observer;
    cell.run()
}

/// The one-cell table a per-app figure shows in place of its own when
/// the app's cell failed: one `error` column, rendered as an error marker.
fn failed_table(title: String) -> Table {
    let mut t = Table::new(title, vec!["error".into()]);
    t.push_row("cell", vec![f64::NAN]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels() {
        assert_eq!(PolicyKind::GRIT.label(), "grit");
        assert_eq!(PolicyKind::Static(Scheme::OnTouch).label(), "on-touch");
        assert_eq!(
            PolicyKind::Grit {
                threshold: 8,
                pa_cache: true,
                nap: true
            }
            .label(),
            "grit(t=8,cache=true,nap=true)"
        );
    }

    #[test]
    fn policy_parse_inverts_label() {
        let kinds = [
            PolicyKind::Static(Scheme::OnTouch),
            PolicyKind::Static(Scheme::AccessCounter),
            PolicyKind::Static(Scheme::Duplication),
            PolicyKind::Ideal,
            PolicyKind::GRIT,
            PolicyKind::Grit {
                threshold: 8,
                pa_cache: false,
                nap: true,
            },
            PolicyKind::FirstTouch,
            PolicyKind::GriffinDpc,
            PolicyKind::Gps,
            PolicyKind::GritWithCache { entries: 512 },
        ];
        for k in kinds {
            assert_eq!(PolicyKind::parse(&k.label()), Some(k), "{}", k.label());
        }
        assert_eq!(PolicyKind::parse("grit( t=4 )"), None);
        assert_eq!(PolicyKind::parse("belady"), None);
        // Labels that parse as recipes but name a policy that cannot be
        // built: no PA-Cache sets, a ragged last set, a zero threshold.
        for label in [
            "grit(pa-cache=0)",
            "grit(pa-cache=6)",
            "grit(t=0,cache=true,nap=true)",
        ] {
            assert_eq!(PolicyKind::parse(label), None, "{label}");
        }
    }

    #[test]
    fn run_cell_smoke() {
        let out = run_cell(
            App::Gemm,
            PolicyKind::Static(Scheme::OnTouch),
            &ExpConfig::quick(),
        );
        assert!(out.metrics.total_cycles > 0);
        assert!(out.metrics.accesses > 0);
        assert!(out.metrics.faults.local_faults > 0);
    }
}
