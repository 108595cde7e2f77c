//! Fig. 4: percentage of private vs shared pages, and percentage of
//! accesses going to private vs shared pages, per application.

use grit_metrics::Table;
use grit_sim::Scheme;
use grit_workloads::App;

use super::{CellSpec, ExpConfig, PolicyKind};

/// Runs the figure. Page attributes are properties of the trace, so each
/// row reads the workload of the app's on-touch cell; nothing is
/// simulated.
pub fn run(exp: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Fig 4: private/shared pages and accesses (%)",
        vec![
            "private-pages".into(),
            "shared-pages".into(),
            "acc-private".into(),
            "acc-shared".into(),
        ],
    );
    for app in App::TABLE2 {
        let cell = CellSpec::new(app, PolicyKind::Static(Scheme::OnTouch), exp);
        let s = cell.workload().page_attrs().summary();
        let row = vec![
            100.0 * (1.0 - s.shared_page_frac()),
            100.0 * s.shared_page_frac(),
            100.0 * (1.0 - s.shared_access_frac()),
            100.0 * s.shared_access_frac(),
        ];
        table.push_row(app.abbr(), row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_are_complementary() {
        let t = run(&ExpConfig::quick());
        for (_, row) in t.rows() {
            assert!((row[0] + row[1] - 100.0).abs() < 1e-6);
            assert!((row[2] + row[3] - 100.0).abs() < 1e-6);
        }
    }

    #[test]
    fn characterization_matches_paper() {
        let t = run(&ExpConfig::quick());
        // FIR and SC: almost all pages private (paper: "almost all").
        assert!(t.cell("FIR", "private-pages").unwrap() > 80.0);
        assert!(t.cell("SC", "private-pages").unwrap() > 80.0);
        // BFS and ST: almost all pages shared.
        assert!(t.cell("BFS", "shared-pages").unwrap() > 80.0);
        assert!(t.cell("ST", "shared-pages").unwrap() > 80.0);
        // C2D, GEMM and MM: a mix of both.
        for app in ["C2D", "GEMM", "MM"] {
            let shared = t.cell(app, "shared-pages").unwrap();
            assert!((15.0..=92.0).contains(&shared), "{app}: {shared}");
        }
    }
}
