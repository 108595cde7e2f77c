//! Fig. 30: GRIT combined with the tree-based neighborhood prefetcher vs
//! the on-touch baseline with the same prefetcher (paper: 23 % — placement
//! and prefetching are complementary).

use grit_baselines::TreePrefetcher;
use grit_metrics::{speedups, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

fn prefetch_cell(app: App, policy: PolicyKind, exp: &ExpConfig) -> CellSpec {
    CellSpec::new(app, policy, exp).with_prefetcher(|| Box::new(TreePrefetcher::new()))
}

/// Runs the figure.
pub fn run(exp: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Fig 30: GRIT + prefetching vs on-touch + prefetching",
        vec!["on-touch+pf".into(), "grit+pf".into()],
    );
    let rows = run_grid(&App::TABLE2, |app| {
        [PolicyKind::Static(Scheme::OnTouch), PolicyKind::GRIT].map(|p| prefetch_cell(app, p, exp))
    });
    for (app, row) in rows {
        table.push_row(app.abbr(), speedups(row.iter().map(CellResultExt::cycles)));
    }
    table.push_geomean_row();
    table
}

#[cfg(test)]
mod tests {
    use super::super::run_cell;
    use super::*;

    #[test]
    fn grit_still_wins_with_prefetching() {
        let t = run(&ExpConfig::quick());
        assert!(t.cell("GEOMEAN", "grit+pf").unwrap() > 1.0);
    }

    #[test]
    fn prefetching_reduces_faults_for_adjacent_apps() {
        let exp = ExpConfig::quick();
        let app = App::Fir;
        let without = run_cell(app, PolicyKind::Static(Scheme::OnTouch), &exp)
            .metrics
            .faults
            .local_faults;
        let with = prefetch_cell(app, PolicyKind::Static(Scheme::OnTouch), &exp)
            .run()
            .metrics
            .faults
            .local_faults;
        assert!(
            with < without,
            "prefetching must absorb faults: {with} vs {without}"
        );
    }
}
