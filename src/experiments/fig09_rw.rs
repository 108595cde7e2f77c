//! Fig. 9: percentage of accesses going to read pages vs read-write pages,
//! per application.

use grit_metrics::Table;
use grit_sim::Scheme;
use grit_workloads::App;

use super::{CellSpec, ExpConfig, PolicyKind};

/// Runs the figure from each app's trace, read through the workload of
/// its on-touch cell (nothing is simulated).
pub fn run(exp: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Fig 9: accesses to read vs read-write pages (%)",
        vec![
            "read-pages".into(),
            "rw-pages".into(),
            "acc-read".into(),
            "acc-rw".into(),
            "shared-rw-pages".into(),
        ],
    );
    for app in App::TABLE2 {
        let cell = CellSpec::new(app, PolicyKind::Static(Scheme::OnTouch), exp);
        let s = cell.workload().page_attrs().summary();
        let row = vec![
            100.0 * (1.0 - s.read_write_page_frac()),
            100.0 * s.read_write_page_frac(),
            100.0 * (1.0 - s.read_write_access_frac()),
            100.0 * s.read_write_access_frac(),
            100.0 * s.shared_read_write_frac(),
        ];
        table.push_row(app.abbr(), row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_intensity_matches_paper() {
        let t = run(&ExpConfig::quick());
        // BFS and GEMM are read-dominated (substantial read-shared pages).
        assert!(t.cell("BFS", "acc-read").unwrap() > 50.0);
        assert!(t.cell("GEMM", "acc-read").unwrap() > 40.0);
        // BS, ST are write-heavy (page duplication unprofitable).
        assert!(t.cell("BS", "acc-rw").unwrap() > 60.0);
        assert!(t.cell("ST", "acc-rw").unwrap() > 60.0);
    }

    #[test]
    fn shared_rw_ranking_matches_section_6a() {
        // §VI-A: ST, BS, C2D have significant shared read-write pages
        // (99 %, 56 %, 42 %); FIR has essentially none.
        let t = run(&ExpConfig::quick());
        let st = t.cell("ST", "shared-rw-pages").unwrap();
        let fir = t.cell("FIR", "shared-rw-pages").unwrap();
        assert!(st > 50.0, "ST shared-RW {st}");
        assert!(fir < 20.0, "FIR shared-RW {fir}");
    }
}
