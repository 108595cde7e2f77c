//! Extension sensitivity sweeps (beyond the paper): how robust is GRIT's
//! advantage to the substrate parameters the paper holds fixed?
//!
//! * **Memory capacity** — §III-B fixes per-GPU memory at 70 % of the
//!   footprint; replication-based placement lives or dies by this.
//! * **Remote-access throughput** — the peer-request issue gap decides the
//!   on-touch-vs-remote tradeoff at the heart of every scheme comparison.
//! * **Memory-level parallelism** — the CU-abstraction window; fault
//!   latency tolerance scales with it.

use grit_metrics::{speedups, Table};
use grit_sim::{Scheme, SimConfig};
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Capacity ratios swept.
pub const CAPACITIES: [f64; 4] = [0.4, 0.55, 0.7, 1.0];
/// Remote issue gaps swept (cycles between peer requests).
pub const REMOTE_GAPS: [u64; 4] = [15, 45, 90, 180];
/// MLP windows swept (outstanding memory operations per GPU).
pub const MLP_WINDOWS: [usize; 4] = [12, 24, 48, 96];

/// Representative application set for the sweeps: one per pattern class.
fn sweep_apps() -> [App; 4] {
    [App::Bfs, App::Gemm, App::Fir, App::St]
}

/// Runs one sweep: for every `(app, cfg)` point, GRIT's speedup over
/// on-touch under that system configuration.
fn sweep(title: &str, cols: Vec<String>, cfgs: &[SimConfig], exp: &ExpConfig) -> Table {
    let mut table = Table::new(title, cols);
    // One row per app: an (on-touch, GRIT) pair per configuration.
    let rows = run_grid(&sweep_apps(), |app| {
        cfgs.iter().flat_map(move |cfg| {
            [PolicyKind::Static(Scheme::OnTouch), PolicyKind::GRIT]
                .map(|p| CellSpec::new(app, p, exp).with_cfg(cfg.clone()))
        })
    });
    for (app, row) in rows {
        let gains = row.chunks(2).map(|pair| speedups(pair.iter().map(CellResultExt::cycles))[1]);
        table.push_row(app.abbr(), gains.collect());
    }
    table.push_geomean_row();
    table
}

/// Sweep per-GPU memory capacity.
pub fn run_capacity(exp: &ExpConfig) -> Table {
    let cols = CAPACITIES.iter().map(|c| format!("{:.0}%", 100.0 * c)).collect();
    let cfgs: Vec<SimConfig> = CAPACITIES
        .iter()
        .map(|&c| SimConfig {
            capacity_ratio: c,
            ..SimConfig::default()
        })
        .collect();
    sweep(
        "Extension: GRIT gain over on-touch vs per-GPU memory capacity",
        cols,
        &cfgs,
        exp,
    )
}

/// Sweep the peer-request issue gap.
pub fn run_remote_gap(exp: &ExpConfig) -> Table {
    let cols = REMOTE_GAPS.iter().map(|g| format!("gap={g}")).collect();
    let cfgs: Vec<SimConfig> = REMOTE_GAPS
        .iter()
        .map(|&g| {
            let mut cfg = SimConfig::default();
            cfg.lat.remote_issue_gap = g;
            cfg
        })
        .collect();
    sweep(
        "Extension: GRIT gain over on-touch vs remote-access throughput",
        cols,
        &cfgs,
        exp,
    )
}

/// Sweep the per-GPU MLP window.
pub fn run_mlp(exp: &ExpConfig) -> Table {
    let cols = MLP_WINDOWS.iter().map(|w| format!("mlp={w}")).collect();
    let cfgs: Vec<SimConfig> = MLP_WINDOWS
        .iter()
        .map(|&w| SimConfig {
            mlp_window: w,
            ..SimConfig::default()
        })
        .collect();
    sweep(
        "Extension: GRIT gain over on-touch vs memory-level parallelism",
        cols,
        &cfgs,
        exp,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grit_gain_is_robust_across_capacity() {
        let t = run_capacity(&ExpConfig::quick());
        for (label, row) in t.rows() {
            if label == "GEOMEAN" {
                // Positive on average at every capacity point.
                for (i, v) in row.iter().enumerate() {
                    assert!(*v > 0.9, "capacity point {i}: geomean gain {v}");
                }
            }
        }
        // Abundant memory helps the duplication-leaning apps most: BFS's
        // gain at 100% capacity must be at least its gain at 40%.
        assert!(
            t.cell("BFS", "100%").unwrap() >= t.cell("BFS", "40%").unwrap() * 0.9,
            "more memory must not collapse BFS's replication gain"
        );
    }

    #[test]
    fn remote_throughput_shifts_but_never_flips_st() {
        // ST converges to access-counter placement under GRIT, so its gain
        // over on-touch is largest when remote access is cheap and shrinks
        // as the peer fabric gets slower — but it must stay a win at every
        // point of the sweep.
        let t = run_remote_gap(&ExpConfig::quick());
        let cheap = t.cell("ST", "gap=15").unwrap();
        let costly = t.cell("ST", "gap=180").unwrap();
        assert!(
            cheap > 1.0 && costly > 1.0,
            "ST gain must persist: {cheap}/{costly}"
        );
        assert!(
            cheap >= costly,
            "remote-bound ST should benefit most from a cheap fabric: {cheap} vs {costly}"
        );
    }

    #[test]
    fn mlp_window_does_not_flip_the_result() {
        let t = run_mlp(&ExpConfig::quick());
        for w in MLP_WINDOWS {
            let g = t.cell("GEOMEAN", &format!("mlp={w}")).unwrap();
            assert!(g > 0.9, "mlp={w}: geomean gain {g}");
        }
    }
}
