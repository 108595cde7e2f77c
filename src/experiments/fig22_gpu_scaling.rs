//! Figs. 22–24: GRIT on 2-, 8- and 16-GPU systems, normalized to each
//! system size's own on-touch baseline (input size held constant, §VI-B2),
//! with the accompanying page-fault reductions.

use grit_metrics::{speedups, Table};
use grit_sim::{Scheme, SimConfig};
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Policies compared per GPU count.
fn policies() -> [PolicyKind; 4] {
    [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
    ]
}

/// Runs one GPU-count variant; returns `(speedups, fault ratios)` tables.
pub fn run_gpus(num_gpus: usize, exp: &ExpConfig) -> (Table, Table) {
    let cols: Vec<String> = policies().iter().map(|p| p.label()).collect();
    let mut perf = Table::new(
        format!("Figs 22-24: {num_gpus}-GPU speedup over {num_gpus}-GPU on-touch"),
        cols.clone(),
    );
    let mut faults = Table::new(
        format!("Figs 22-24: {num_gpus}-GPU page faults normalized to on-touch"),
        cols,
    );
    let rows = run_grid(&App::TABLE2, |app| {
        policies().map(|p| CellSpec::new(app, p, exp).with_cfg(SimConfig::with_gpus(num_gpus)))
    });
    for (app, row) in rows {
        let base_f = row[0].metric(|o| o.metrics.faults.total_faults().max(1) as f64);
        perf.push_row(app.abbr(), speedups(row.iter().map(CellResultExt::cycles)));
        faults.push_row(
            app.abbr(),
            row.iter()
                .map(|r| r.metric(|o| o.metrics.faults.total_faults().max(1) as f64) / base_f)
                .collect(),
        );
    }
    perf.push_geomean_row();
    faults.push_geomean_row();
    (perf, faults)
}

/// Runs all three GPU counts of the study.
pub fn run(exp: &ExpConfig) -> Vec<(usize, Table, Table)> {
    [2usize, 8, 16]
        .into_iter()
        .map(|n| {
            let (p, f) = run_gpus(n, exp);
            (n, p, f)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grit_keeps_winning_at_2_gpus() {
        let (perf, faults) = run_gpus(2, &ExpConfig::quick());
        let g = perf.cell("GEOMEAN", "grit").unwrap();
        assert!(g > 1.0, "GRIT must beat 2-GPU on-touch: {g}");
        let gf = faults.cell("GEOMEAN", "grit").unwrap();
        assert!(gf < 1.0, "GRIT must reduce 2-GPU faults: {gf}");
    }

    #[test]
    fn grit_keeps_winning_at_8_gpus() {
        let (perf, _) = run_gpus(8, &ExpConfig::quick());
        let g = perf.cell("GEOMEAN", "grit").unwrap();
        assert!(g > 1.0, "GRIT must beat 8-GPU on-touch: {g}");
    }
}
