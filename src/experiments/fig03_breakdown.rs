//! Fig. 3: page-handling latency breakdown of each scheme into the six
//! classes {local, host, page-migration, remote-access, page-duplication,
//! write-collapse}, normalized per application to the on-touch total.

use grit_metrics::{LatencyClass, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Runs the figure. Rows are `APP/SCHEME`, columns the six classes; values
/// are fractions of that application's on-touch page-handling total, so a
/// row summing above 1.0 spends more page-handling time than on-touch.
pub fn run(exp: &ExpConfig) -> Table {
    let mut cols: Vec<String> = LatencyClass::ALL.iter().map(|c| c.label().to_string()).collect();
    cols.push("total".into());
    let mut table = Table::new(
        "Fig 3: page-handling latency breakdown (normalized to on-touch total)",
        cols,
    );
    let schemes = [Scheme::OnTouch, Scheme::AccessCounter, Scheme::Duplication];
    let rows = run_grid(&App::TABLE2, |app| {
        schemes.map(|s| CellSpec::new(app, PolicyKind::Static(s), exp))
    });
    for (app, row) in rows {
        let base_total = row[0].metric(|o| o.metrics.breakdown.total().max(1) as f64);
        for (scheme, r) in schemes.iter().zip(&row) {
            let row = match r.output() {
                Some(o) => {
                    let b = o.metrics.breakdown;
                    let mut row: Vec<f64> =
                        LatencyClass::ALL.iter().map(|c| b.get(*c) as f64 / base_total).collect();
                    row.push(b.total() as f64 / base_total);
                    row
                }
                None => vec![f64::NAN; LatencyClass::ALL.len() + 1],
            };
            table.push_row(format!("{}/{}", app.abbr(), scheme.label()), row);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_structure_matches_schemes() {
        let t = run(&ExpConfig::quick());
        for (label, row) in t.rows() {
            let (dup_col, collapse_col, migration_col, remote_col) = (4, 5, 2, 3);
            if label.ends_with("/OT") {
                // On-touch never duplicates or collapses.
                assert_eq!(row[dup_col], 0.0, "{label}");
                assert_eq!(row[collapse_col], 0.0, "{label}");
                // And its total normalizes to 1.
                assert!((row[6] - 1.0).abs() < 1e-9, "{label}");
            }
            if label.ends_with("/D") {
                // Duplication never migrates by counter and never pays
                // remote accesses.
                assert_eq!(row[remote_col], 0.0, "{label}");
            }
            let _ = migration_col;
        }
    }

    #[test]
    fn migration_time_is_an_on_touch_phenomenon() {
        let t = run(&ExpConfig::quick());
        // Per app, on-touch spends more of the page-handling budget moving
        // pages than either alternative scheme does.
        for app in App::TABLE2 {
            let ot = t.cell(&format!("{}/OT", app.abbr()), "page-migration").unwrap();
            let d = t.cell(&format!("{}/D", app.abbr()), "page-migration").unwrap();
            assert!(ot >= d, "{app}: OT migration {ot} vs D {d}");
        }
        // And the access-counter rows carry the remote-access burden.
        let mut remote_heavy = 0;
        for (label, row) in t.rows() {
            if label.ends_with("/AC") && row[3] > row[2] {
                remote_heavy += 1;
            }
        }
        assert!(
            remote_heavy >= 5,
            "AC must be remote-dominated: {remote_heavy}/8"
        );
    }
}
