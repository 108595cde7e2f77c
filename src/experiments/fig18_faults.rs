//! Fig. 18: total GPU page faults (local + protection) per policy,
//! normalized to on-touch. The paper reports GRIT reducing faults by 39 %,
//! 55 % and 16 % vs on-touch, access-counter and duplication.

use grit_metrics::Table;
use grit_sim::Scheme;

use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Policies compared (plot order).
pub fn policies() -> [PolicyKind; 4] {
    [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
    ]
}

/// Runs the figure: fault counts normalized to on-touch (lower is better).
pub fn run(exp: &ExpConfig) -> Table {
    let cols: Vec<String> = policies().iter().map(|p| p.label()).collect();
    let mut table = Table::new("Fig 18: GPU page faults (normalized to on-touch)", cols);
    let rows = run_grid(&App::TABLE2, |app| {
        policies().map(|p| CellSpec::new(app, p, exp))
    });
    for (app, row) in rows {
        let faults: Vec<f64> = row
            .iter()
            .map(|r| r.metric(|o| o.metrics.faults.total_faults().max(1) as f64))
            .collect();
        let base = faults[0];
        table.push_row(app.abbr(), faults.iter().map(|&f| f / base).collect());
    }
    table.push_geomean_row();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grit_reduces_faults_on_average() {
        let t = run(&ExpConfig::quick());
        let grit = t.cell("GEOMEAN", "grit").unwrap();
        assert!(
            grit < 1.0,
            "GRIT must raise fewer faults than on-touch: {grit}"
        );
    }

    #[test]
    fn on_touch_column_is_one() {
        let t = run(&ExpConfig::quick());
        for (label, row) in t.rows() {
            if label != "GEOMEAN" {
                assert!((row[0] - 1.0).abs() < 1e-9);
            }
        }
    }
}
