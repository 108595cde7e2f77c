//! Extension experiment (beyond the paper): GRIT on two additional
//! irregular workloads — SpMV and PageRank — that were not in the paper's
//! roster. Both mix private structure data with randomly gathered shared
//! vectors, the regime where fine-grained placement should pay.
//!
//! PageRank is deliberately adversarial for GRIT's read/write rule: each
//! rank page alternates between "written by one owner" and "read by
//! everyone" across iterations, so the sticky write bit steers it to
//! access-counter placement while whole-run duplication (one collapse per
//! iteration, then all-local reads) is actually stronger — the same class
//! of behaviour the paper concedes in §VI-A for BS/C2D/ST.

use grit_metrics::{speedups, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Runs the extension: the Fig. 17 policy set on the extra workloads.
pub fn run(exp: &ExpConfig) -> Table {
    let policies = [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
        PolicyKind::Ideal,
    ];
    let cols: Vec<String> = policies.iter().map(|p| p.label()).collect();
    let mut table = Table::new(
        "Extension: GRIT on SpMV and PageRank (speedup over on-touch)",
        cols,
    );
    let rows = run_grid(&App::EXTRA, |app| {
        policies.map(|p| CellSpec::new(app, p, exp))
    });
    for (app, row) in rows {
        table.push_row(app.abbr(), speedups(row.iter().map(CellResultExt::cycles)));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grit_matches_or_beats_the_best_uniform_scheme() {
        let t = run(&ExpConfig::quick());
        for (label, row) in t.rows() {
            let best_uniform = row[0].max(row[1]).max(row[2]);
            assert!(
                row[3] > 0.7 * best_uniform,
                "{label}: grit {} vs best uniform {best_uniform}",
                row[3]
            );
            assert!(row[3] > row[0], "{label}: grit must beat uniform on-touch");
            assert!(row[4] >= row[3], "{label}: ideal bounds grit");
        }
    }

    #[test]
    fn shared_vector_workloads_benefit_from_duplication() {
        let t = run(&ExpConfig::quick());
        // Both apps gather read-shared vectors: uniform duplication must
        // beat uniform on-touch.
        for app in ["SPMV", "PR"] {
            let d = t.cell(app, "duplication").unwrap();
            assert!(d > 1.0, "{app}: duplication {d} must beat on-touch");
        }
    }
}
