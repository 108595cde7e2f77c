//! Fig. 17 — the headline result: GRIT vs the three uniform schemes (and
//! the Ideal), normalized to on-touch migration. The paper reports average
//! improvements of 60 % / 49 % / 29 % over on-touch / access-counter /
//! duplication.

use grit_metrics::{speedups, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Policies compared by Fig. 17, in plot order.
pub fn policies() -> [PolicyKind; 5] {
    [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
        PolicyKind::Ideal,
    ]
}

/// Runs the figure.
pub fn run(exp: &ExpConfig) -> Table {
    let cols: Vec<String> = policies().iter().map(|p| p.label()).collect();
    let mut table = Table::new(
        "Fig 17: GRIT vs uniform schemes (speedup over on-touch)",
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

/// The three headline averages `(vs on-touch, vs access-counter, vs
/// duplication)` extracted from a Fig. 17 table, as improvement fractions
/// (paper: 0.60 / 0.49 / 0.29).
pub fn headline(table: &Table) -> (f64, f64, f64) {
    let g = table.cell("GEOMEAN", "grit").expect("geomean row");
    let ot = table.cell("GEOMEAN", "on-touch").expect("ot column");
    let ac = table.cell("GEOMEAN", "access-counter").expect("ac column");
    let d = table.cell("GEOMEAN", "duplication").expect("dup column");
    (g / ot - 1.0, g / ac - 1.0, g / d - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grit_beats_every_uniform_scheme_on_average() {
        let t = run(&ExpConfig::quick());
        let (vs_ot, vs_ac, vs_d) = headline(&t);
        assert!(vs_ot > 0.0, "GRIT must beat on-touch on average: {vs_ot}");
        assert!(
            vs_ac > 0.0,
            "GRIT must beat access-counter on average: {vs_ac}"
        );
        assert!(vs_d > 0.0, "GRIT must beat duplication on average: {vs_d}");
        // Same ordering as the paper's 60 % > 49 % > 29 %.
        assert!(
            vs_ot > vs_d,
            "improvement over OT should exceed over duplication"
        );
    }

    /// Pins the exact `--quick` fault counters and headline speedups, so
    /// any drift in the fault, migration or policy model fails here.
    #[test]
    fn quick_counters_and_headline_are_pinned() {
        let exp = ExpConfig::quick();
        let mut totals = grit_metrics::FaultCounters::default();
        let mut cells = 0;
        let rows = run_grid(&App::TABLE2, |app| {
            policies().map(|p| CellSpec::new(app, p, &exp))
        });
        for cell in rows.iter().flat_map(|(_, row)| row) {
            let f = cell.as_ref().expect("fig17 cell completes").metrics.faults;
            totals.local_faults += f.local_faults;
            totals.protection_faults += f.protection_faults;
            totals.migrations += f.migrations;
            totals.duplications += f.duplications;
            totals.collapses += f.collapses;
            totals.evictions += f.evictions;
            totals.scheme_changes += f.scheme_changes;
            cells += 1;
        }
        assert_eq!(cells, 40);
        assert_eq!(
            totals,
            grit_metrics::FaultCounters {
                local_faults: 77_670,
                protection_faults: 5_935,
                migrations: 46_262,
                duplications: 14_601,
                collapses: 5_646,
                evictions: 1_276,
                scheme_changes: 793,
            }
        );
        let (ot, ac, d) = headline(&run(&exp));
        let pinned: [f64; 3] = [0.5887769139597518, 0.34671410441609263, 0.18925401893397353];
        assert_eq!(
            [ot, ac, d].map(f64::to_bits),
            pinned.map(f64::to_bits),
            "headline vs on-touch / access-counter / duplication: {ot} / {ac} / {d}"
        );
    }

    #[test]
    fn grit_close_to_best_uniform_scheme_per_app() {
        // GRIT adapts: per app it should be within a modest factor of the
        // best uniform scheme (the paper even shows a 2 % loss on BFS).
        let t = run(&ExpConfig::quick());
        for (label, row) in t.rows() {
            if label == "GEOMEAN" {
                continue;
            }
            let best = row[0].max(row[1]).max(row[2]);
            assert!(
                row[3] > 0.65 * best,
                "{label}: grit {} vs best uniform {best}",
                row[3]
            );
        }
    }
}
