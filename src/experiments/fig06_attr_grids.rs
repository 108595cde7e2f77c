//! Figs. 6–8: page-attribute-over-time grids. Fig. 6 shows private/shared
//! per page bin over time for GEMM, Fig. 7 read/read-write for GEMM,
//! Fig. 8 private/shared for ST. The load-bearing observation (§IV-C) is
//! that *neighboring pages share attributes* — quantified here as the
//! horizontal neighbor-agreement of each grid.

use grit_metrics::{AttrGrid, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_scouted, CellSpec, ExpConfig, PolicyKind};
use crate::runner::{ObserverConfig, RunOutput, GRID_INTERVALS};

/// Grids for one application.
struct AppGrids {
    /// Private(1)/shared(2) grid.
    private_shared: AttrGrid,
    /// Read(1)/read-write(2) grid.
    read_rw: AttrGrid,
}

fn scout_cell(app: App, exp: &ExpConfig) -> CellSpec {
    CellSpec::new(app, PolicyKind::Static(Scheme::OnTouch), exp)
}

fn grid_cell(scout_cell: &CellSpec, scout: &RunOutput) -> CellSpec {
    // The scout run sizes the grid rows to the execution length.
    let interval = (scout.metrics.total_cycles / GRID_INTERVALS as u64).max(1);
    let obs = ObserverConfig {
        track_page: None,
        interval_cycles: interval,
        grid_page_bins: 64,
        scheme_timeline: false,
    };
    scout_cell.clone().observed(obs)
}

fn grids_from(out: &RunOutput) -> AppGrids {
    let observer = out.observer.as_ref().expect("grids configured");
    AppGrids {
        private_shared: observer.grid_private_shared.clone().expect("ps grid"),
        read_rw: observer.grid_read_rw.clone().expect("rw grid"),
    }
}

/// Runs Figs. 6–8 and reports neighbor agreement plus attribute mix.
/// Each distinct application records its grids once (Figs. 6 and 7 read
/// the same GEMM run), and the scout/grid passes run batched.
pub fn run(exp: &ExpConfig) -> Table {
    let apps = [App::Gemm, App::St];
    let mut grids = run_scouted(&apps.map(|a| scout_cell(a, exp)), grid_cell)
        .into_iter()
        .map(|run| run.map(|(_, out)| grids_from(&out)));
    let gemm = grids.next().flatten();
    let st = grids.next().flatten();

    let mut table = Table::new(
        "Figs 6-8: page-attribute grids (neighbor agreement & attribute mix)",
        vec![
            "neighbor-agreement".into(),
            "frac-attr-1".into(),
            "frac-attr-2".into(),
        ],
    );
    for (label, grid) in [
        (
            "GEMM private/shared (Fig 6)",
            gemm.as_ref().map(|g| &g.private_shared),
        ),
        (
            "GEMM read/read-write (Fig 7)",
            gemm.as_ref().map(|g| &g.read_rw),
        ),
        (
            "ST private/shared (Fig 8)",
            st.as_ref().map(|g| &g.private_shared),
        ),
    ] {
        let row = match grid {
            Some(g) => vec![
                g.neighbor_agreement(),
                g.frac_of_touched(1),
                g.frac_of_touched(2),
            ],
            None => vec![f64::NAN; 3],
        };
        table.push_row(label, row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighboring_pages_agree() {
        // The §IV-C claim GRIT's NAP is built on: neighboring pages show
        // the same attributes the vast majority of the time.
        let t = run(&ExpConfig::quick());
        for (label, row) in t.rows() {
            assert!(
                row[0] > 0.8,
                "{label}: neighbor agreement {} too low",
                row[0]
            );
        }
    }

    #[test]
    fn gemm_has_both_attribute_classes() {
        let t = run(&ExpConfig::quick());
        let (label, row) = &t.rows()[0];
        assert_eq!(label, "GEMM private/shared (Fig 6)");
        assert!(row[1] > 0.05, "private pages exist");
        assert!(row[2] > 0.05, "shared pages exist");
    }
}
