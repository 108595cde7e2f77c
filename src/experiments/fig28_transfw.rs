//! Fig. 28: comparison to the combination of Griffin-DPC and Trans-FW
//! (fewer migrations + cheaper fault handling), normalized to the
//! combination. The paper reports GRIT 18 % ahead: GRIT removes remote
//! accesses and migrations that Trans-FW only makes cheaper.

use grit_baselines::apply_transfw;
use grit_metrics::{speedups, Table};
use grit_sim::SimConfig;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Runs the figure.
pub fn run(exp: &ExpConfig) -> Table {
    let mut combo_cfg = SimConfig::default();
    apply_transfw(&mut combo_cfg);
    let mut table = Table::new(
        "Fig 28: GRIT vs Griffin-DPC + Trans-FW (speedup over the combination)",
        vec!["dpc+transfw".into(), "grit".into()],
    );
    let rows = run_grid(&App::TABLE2, |app| {
        [
            CellSpec::new(app, PolicyKind::GriffinDpc, exp).with_cfg(combo_cfg.clone()),
            CellSpec::new(app, PolicyKind::GRIT, exp),
        ]
    });
    for (app, row) in rows {
        table.push_row(app.abbr(), speedups(row.iter().map(CellResultExt::cycles)));
    }
    table.push_geomean_row();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grit_beats_the_combination_on_average() {
        // Adaptation amortizes with run length; use the calibrated default.
        let t = run(&ExpConfig::default());
        let g = t.cell("GEOMEAN", "grit").unwrap();
        assert!(g > 1.0, "GRIT must beat Griffin-DPC+Trans-FW: {g}");
    }
}
