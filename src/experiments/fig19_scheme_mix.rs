//! Fig. 19: under GRIT, the percentage of L2-TLB-missing accesses governed
//! by each placement scheme — showing GRIT picks duplication for
//! BFS/GEMM/MM, on-touch for C2D/FIR/SC, access-counter for BS, and a
//! duplication/on-touch blend for ST.

use grit_metrics::Table;

use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Runs the figure.
pub fn run(exp: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Fig 19: scheme mix at L2 TLB misses under GRIT (%)",
        vec![
            "on-touch".into(),
            "access-counter".into(),
            "duplication".into(),
        ],
    );
    let rows = run_grid(&App::TABLE2, |app| {
        [CellSpec::new(app, PolicyKind::GRIT, exp)]
    });
    for (app, row) in rows {
        let row = match row[0].output() {
            Some(o) => {
                let (ot, ac, d) = o.metrics.scheme_mix.fractions();
                vec![100.0 * ot, 100.0 * ac, 100.0 * d]
            }
            None => vec![f64::NAN; 3],
        };
        table.push_row(app.abbr(), row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_100() {
        let t = run(&ExpConfig::quick());
        for (label, row) in t.rows() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 100.0).abs() < 1.0, "{label}: {sum}");
        }
    }

    #[test]
    fn per_app_dominant_scheme_matches_paper() {
        let t = run(&ExpConfig::quick());
        // FIR and SC stay on-touch (private pages never trigger changes).
        for app in ["FIR", "SC"] {
            assert!(
                t.cell(app, "on-touch").unwrap() > 50.0,
                "{app} must stay mostly on-touch"
            );
        }
        // BFS, GEMM, MM lean on duplication.
        for app in ["BFS", "GEMM", "MM"] {
            let d = t.cell(app, "duplication").unwrap();
            assert!(d > 20.0, "{app} must use substantial duplication, got {d}");
        }
        // BS leans on access-counter migration.
        let bs_ac = t.cell("BS", "access-counter").unwrap();
        assert!(
            bs_ac > 25.0,
            "BS must use substantial access-counter, got {bs_ac}"
        );
    }
}
