//! Extension study: multi-page-size memory management (Mosaic-style).
//!
//! The paper's policies all manage memory in 4 KB pages. This study asks
//! what transparent 2 MB large pages do to them: both page-size modes
//! (`uniform4k` and `mixed`) are swept against three placement policies
//! over the Table II applications, through the resilient batch harness.
//! The key question is what happens when counter-group tracking collapses
//! to one counter per 2 MB frame — coalescing aliases all sixteen 64 KB
//! groups of a frame onto a single frame-keyed counter, so migration
//! decisions get coarser exactly when translation gets cheaper.
//!
//! Three tables come back:
//!
//! 1. **Speedup** — per-(mode, policy) geomean over apps of the mode's
//!    speedup over `uniform4k` *under the same policy*, so the value
//!    isolates the page-size mechanism from the policy's own benefit.
//!    The `uniform4k` row is 1 by construction.
//! 2. **TLB** — per-size L1/L2 hit rates, averaged over every run and
//!    GPU of the mode. The 2 MB columns are zero in `uniform4k` (no
//!    large-page TLBs exist there).
//! 3. **Activity** — coalesce/splinter/counter-trip totals summed over
//!    the mode's runs, straight from the `pagesize_counters` aux series.

use grit_metrics::{geomean, Table};
use grit_sim::{CellError, PageSizeMode, Scheme, SimConfig};
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

use crate::runner::RunOutput;

/// Input enlargement factor, the Fig. 25 device: 2 MB frames only
/// coalesce when footprints span many whole frames, so the study grows
/// inputs the same way the paper does for its large-page evaluation
/// (§VI-B3). At the default `--scale 0.1` this puts every Table II app
/// at 1.5–25 whole frames.
pub const INPUT_ENLARGEMENT: f64 = 4.0;

/// The three tables of the study.
pub struct PagesizeStudy {
    /// Per-policy geomean speedup of each mode over `uniform4k`.
    pub speedup: Table,
    /// Per-size TLB hit rates averaged over the mode's runs.
    pub tlb: Table,
    /// Coalescing/splintering activity totals per mode.
    pub activity: Table,
}

fn policies() -> [PolicyKind; 3] {
    [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::GRIT,
    ]
}

/// Mean of one per-GPU aux series, or 0 when the run failed or the mode
/// never emitted it (uniform4k runs carry no 2 MB series).
fn aux_mean(r: &Result<RunOutput, CellError>, name: &str) -> f64 {
    r.output().and_then(|o| o.metrics.aux.get(name)).map_or(0.0, |v| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    })
}

/// One slot of the engine-wide `pagesize_counters` aux series.
fn counter_slot(r: &Result<RunOutput, CellError>, slot: usize) -> f64 {
    r.output()
        .and_then(|o| o.metrics.aux.get("pagesize_counters"))
        .and_then(|v| v.get(slot).copied())
        .unwrap_or(0.0)
}

/// Runs the sweep over an explicit app set (tests shrink it; [`run`]
/// uses the full Table II set).
pub fn study(apps: &[App], exp: &ExpConfig) -> PagesizeStudy {
    let big = ExpConfig {
        scale: exp.scale * INPUT_ENLARGEMENT,
        ..*exp
    };
    // Pinned cells keep their explicit mode even under a
    // `--page-size-mode` global override.
    let keys: Vec<(PageSizeMode, App)> = PageSizeMode::ALL
        .into_iter()
        .flat_map(|m| apps.iter().map(move |&a| (m, a)))
        .collect();
    let rows = run_grid(&keys, |(mode, app)| {
        let cfg = SimConfig {
            page_size_mode: mode,
            ..SimConfig::default()
        };
        policies().map(|p| CellSpec::pinned(app, p, &big, cfg.clone()))
    });
    // The rows of one mode, in app order.
    let rows_of =
        |mode: PageSizeMode| rows.iter().filter(move |((m, _), _)| *m == mode).map(|(_, row)| row);

    let policy_cols: Vec<String> = policies().iter().map(|p| p.label()).collect();
    let mut speedup = Table::new(
        "ext-pagesize: speedup over uniform4k under the same policy",
        policy_cols,
    );
    let mut tlb = Table::new(
        "ext-pagesize: TLB hit rates by page size",
        vec![
            "l1-4k".into(),
            "l2-4k".into(),
            "l1-2m".into(),
            "l2-2m".into(),
        ],
    );
    let mut activity = Table::new(
        "ext-pagesize: large-page activity totals",
        vec![
            "coalesces".into(),
            "splinters".into(),
            "trips-base".into(),
            "trips-2m".into(),
            "aliased-groups".into(),
        ],
    );

    for mode in PageSizeMode::ALL {
        let speedups: Vec<f64> = (0..policies().len())
            .map(|p| {
                let per_app: Vec<f64> = rows_of(PageSizeMode::Uniform4k)
                    .zip(rows_of(mode))
                    .map(|(base, row)| base[p].cycles() / row[p].cycles())
                    .collect();
                geomean(&per_app)
            })
            .collect();
        speedup.push_row(mode.name(), speedups);

        let runs: Vec<&Result<RunOutput, CellError>> = rows_of(mode).flatten().collect();
        let rates: Vec<f64> = [
            "tlb_l1_hit_rate",
            "tlb_l2_hit_rate",
            "tlb_l1_hit_rate_2m",
            "tlb_l2_hit_rate_2m",
        ]
        .iter()
        .map(|name| {
            let per_run: Vec<f64> = runs.iter().map(|r| aux_mean(r, name)).collect();
            per_run.iter().sum::<f64>() / per_run.len().max(1) as f64
        })
        .collect();
        tlb.push_row(mode.name(), rates);

        let coalesces: f64 = runs.iter().map(|r| counter_slot(r, 0)).sum();
        let splinters: f64 = runs
            .iter()
            .map(|r| counter_slot(r, 1) + counter_slot(r, 2) + counter_slot(r, 3))
            .sum();
        let trips_base: f64 = runs.iter().map(|r| counter_slot(r, 4)).sum();
        let trips_large: f64 = runs.iter().map(|r| counter_slot(r, 5)).sum();
        let aliased: f64 = runs.iter().map(|r| counter_slot(r, 6)).sum();
        activity.push_row(
            mode.name(),
            vec![coalesces, splinters, trips_base, trips_large, aliased],
        );
    }
    PagesizeStudy {
        speedup,
        tlb,
        activity,
    }
}

/// Runs the full study: both page-size modes × three policies × Table II.
pub fn run(exp: &ExpConfig) -> PagesizeStudy {
    study(&App::TABLE2, exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.02,
            intensity: 0.5,
            seed: 0x70F0,
        }
    }

    /// Large enough (after [`INPUT_ENLARGEMENT`]) that footprints span
    /// several whole 2 MB frames — at `tiny()` scale no Table II app
    /// even reaches one frame, so nothing would coalesce.
    fn framed() -> ExpConfig {
        ExpConfig {
            scale: 0.0625,
            intensity: 0.5,
            seed: 0x70F0,
        }
    }

    #[test]
    fn uniform4k_row_is_exactly_one_and_others_are_finite() {
        let s = study(&[App::Bfs, App::Fir], &tiny());
        for p in policies() {
            let col = p.label();
            let base = s.speedup.cell("uniform4k", &col).unwrap();
            assert!((base - 1.0).abs() < 1e-12, "{col}: {base}");
            let v = s.speedup.cell("mixed", &col).unwrap();
            assert!(v.is_finite() && v > 0.0, "mixed {col}: {v}");
        }
    }

    #[test]
    fn mixed_mode_both_coalesces_and_splinters_on_shared_apps() {
        // ST's per-GPU stencil rows coalesce; its halo exchanges at the
        // row boundaries then splinter frames back (false sharing).
        let s = study(&[App::St], &framed());
        let coalesces = s.activity.cell("mixed", "coalesces").unwrap();
        let splinters = s.activity.cell("mixed", "splinters").unwrap();
        assert!(coalesces > 0.0, "mixed mode must coalesce: {coalesces}");
        assert!(splinters > 0.0, "mixed mode must splinter: {splinters}");
        let aliased = s.activity.cell("mixed", "aliased-groups").unwrap();
        assert!(
            aliased > 0.0,
            "frame counter trips must alias groups: {aliased}"
        );
        let none = s.activity.cell("uniform4k", "coalesces").unwrap();
        assert!(none == 0.0, "uniform4k must never coalesce: {none}");
    }

    #[test]
    fn large_page_modes_report_2m_tlb_hit_rates() {
        let s = study(&[App::Fir], &framed());
        assert_eq!(s.tlb.cell("uniform4k", "l1-2m").unwrap(), 0.0);
        let l1 = s.tlb.cell("mixed", "l1-2m").unwrap();
        assert!(
            l1 > 0.5 && l1 <= 1.0,
            "mixed: coalesced FIR streams should hit the 2 MB L1 hard: {l1}"
        );
    }
}
