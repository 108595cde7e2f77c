//! Extension experiment (beyond the paper): GRIT vs a profile-guided
//! *static oracle* that places every page with whole-run knowledge.
//!
//! The oracle upper-bounds any static per-page placement; pages whose
//! behaviour changes over time (Fig. 10) are the only thing it cannot
//! express. GRIT approaching the oracle on the static apps validates its
//! online classification; GRIT or the oracle trading wins on the
//! phase-changing apps (ST, BS) shows where adaptivity matters.

use std::sync::Arc;

use grit_baselines::OraclePolicy;
use grit_metrics::{speedups, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_batch, run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind, PolicySpec};

/// Runs the extension: speedups over on-touch for GRIT, the static oracle
/// and the Ideal.
pub fn run(exp: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Extension: GRIT vs profile-guided static oracle (speedup over on-touch)",
        vec![
            "on-touch".into(),
            "grit".into(),
            "oracle".into(),
            "ideal".into(),
        ],
    );
    let online = [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::GRIT,
        PolicyKind::Ideal,
    ];
    // One oracle cell per app, seeded with the whole-trace page
    // attributes (the knowledge the online policies never see).
    let oracle_cells: Vec<CellSpec> = App::TABLE2
        .into_iter()
        .map(|app| {
            let profile = CellSpec::new(app, online[0], exp).workload().page_attrs();
            let factory = PolicySpec::Factory(Arc::new(move |_, _| {
                Box::new(OraclePolicy::from_profile(&profile))
            }));
            CellSpec::new(app, factory, exp)
        })
        .collect();
    let rows = run_grid(&App::TABLE2, |app| {
        online.map(|p| CellSpec::new(app, p, exp))
    });
    let oracles = run_batch(&oracle_cells);
    for ((app, row), oracle) in rows.into_iter().zip(&oracles) {
        let cycles = [&row[0], &row[1], oracle, &row[2]].map(CellResultExt::cycles);
        table.push_row(app.abbr(), speedups(cycles));
    }
    table.push_geomean_row();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_sits_between_grit_and_ideal_on_average() {
        let t = run(&ExpConfig::quick());
        let grit = t.cell("GEOMEAN", "grit").unwrap();
        let oracle = t.cell("GEOMEAN", "oracle").unwrap();
        let ideal = t.cell("GEOMEAN", "ideal").unwrap();
        assert!(
            oracle >= 0.95 * grit,
            "perfect-profile placement must match or beat GRIT: {oracle} vs {grit}"
        );
        assert!(
            ideal > oracle,
            "Ideal bounds the oracle: {ideal} vs {oracle}"
        );
    }

    #[test]
    fn grit_recovers_most_of_the_oracle() {
        // The paper's premise: online fault-driven classification gets
        // close to what offline profiling would pick.
        let t = run(&ExpConfig::quick());
        let grit = t.cell("GEOMEAN", "grit").unwrap();
        let oracle = t.cell("GEOMEAN", "oracle").unwrap();
        assert!(
            grit >= 0.70 * oracle,
            "GRIT must recover most of the oracle's gain: {grit} vs {oracle}"
        );
    }
}
