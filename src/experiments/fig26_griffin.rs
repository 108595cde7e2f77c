//! Fig. 26: comparison to Griffin — Griffin-DPC, GRIT, Griffin
//! (DPC + ACUD) and GRIT + ACUD, normalized to Griffin-DPC. The paper
//! reports GRIT 27 % over Griffin-DPC and GRIT+ACUD 16 % over Griffin.

use grit_baselines::apply_acud;
use grit_metrics::{speedups, Table};
use grit_sim::SimConfig;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Runs the figure.
pub fn run(exp: &ExpConfig) -> Table {
    let mut acud_cfg = SimConfig::default();
    apply_acud(&mut acud_cfg);
    let variants: [(&str, PolicyKind, SimConfig); 4] = [
        ("griffin-dpc", PolicyKind::GriffinDpc, SimConfig::default()),
        ("grit", PolicyKind::GRIT, SimConfig::default()),
        ("griffin", PolicyKind::GriffinDpc, acud_cfg.clone()),
        ("grit+acud", PolicyKind::GRIT, acud_cfg),
    ];
    let cols: Vec<String> = variants.iter().map(|(n, _, _)| n.to_string()).collect();
    let mut table = Table::new(
        "Fig 26: Griffin comparison (speedup over Griffin-DPC)",
        cols,
    );
    let rows = run_grid(&App::TABLE2, |app| {
        variants
            .iter()
            .map(move |(_, p, cfg)| CellSpec::new(app, *p, exp).with_cfg(cfg.clone()))
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
    fn grit_beats_griffin_dpc_and_composes_with_acud() {
        // Adaptation amortizes with run length; use the calibrated default.
        let t = run(&ExpConfig::default());
        let grit = t.cell("GEOMEAN", "grit").unwrap();
        assert!(grit > 1.0, "GRIT must beat Griffin-DPC on average: {grit}");
        let grit_acud = t.cell("GEOMEAN", "grit+acud").unwrap();
        let griffin = t.cell("GEOMEAN", "griffin").unwrap();
        assert!(
            grit_acud > griffin,
            "GRIT+ACUD ({grit_acud}) must beat Griffin ({griffin})"
        );
        // ACUD is orthogonal: it helps GRIT too.
        assert!(grit_acud >= grit * 0.98, "{grit_acud} vs {grit}");
    }
}
