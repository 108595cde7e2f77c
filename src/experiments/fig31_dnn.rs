//! Fig. 31: GRIT on model-parallel DNN training — VGG16 and ResNet18 —
//! normalized to their on-touch baselines (paper: 15 % and 18 %).

use grit_metrics::{speedups, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Runs the figure.
pub fn run(exp: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Fig 31: DNN model parallelism (speedup over on-touch)",
        vec!["on-touch".into(), "grit".into()],
    );
    let policies = [PolicyKind::Static(Scheme::OnTouch), PolicyKind::GRIT];
    for (app, row) in run_grid(&App::DNN, |app| {
        policies.map(|p| CellSpec::new(app, p, exp))
    }) {
        table.push_row(app.abbr(), speedups(row.iter().map(CellResultExt::cycles)));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grit_helps_dnn_training() {
        let t = run(&ExpConfig::quick());
        for (label, row) in t.rows() {
            assert!(
                row[1] > 0.95,
                "{label}: GRIT must not hurt DNNs, got {}",
                row[1]
            );
        }
        // At least one model shows a clear gain.
        assert!(t.rows().iter().any(|(_, r)| r[1] > 1.0));
    }
}
