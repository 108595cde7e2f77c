//! Fig. 1 (and the motivation of §I): performance of uniformly applying
//! each page placement scheme, plus the unrealizable Ideal, normalized to
//! on-touch migration.

use grit_metrics::{speedups, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Policies compared by Fig. 1, in plot order.
pub fn policies() -> [PolicyKind; 4] {
    [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::Ideal,
    ]
}

/// Runs the figure: speedup of each scheme over on-touch, per application.
pub fn run(exp: &ExpConfig) -> Table {
    let cols: Vec<String> = policies().iter().map(|p| p.label()).collect();
    let mut table = Table::new(
        "Fig 1: performance of each scheme relative to baseline on-touch migration",
        cols,
    );
    let rows = run_grid(&App::TABLE2, |app| {
        policies().map(|p| CellSpec::new(app, p, exp))
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
    fn shapes_match_paper() {
        let t = run(&ExpConfig::quick());
        // On-touch column is identically 1.0.
        for (_, row) in t.rows() {
            assert!((row[0] - 1.0).abs() < 1e-9);
        }
        // Ideal dominates every scheme on every app.
        for (label, row) in t.rows() {
            if label == "GEOMEAN" {
                continue;
            }
            let ideal = row[3];
            assert!(
                ideal >= row[0] && ideal >= row[1] && ideal >= row[2],
                "{label}: ideal must dominate, got {row:?}"
            );
        }
    }
}
