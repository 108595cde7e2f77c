//! Fig. 25: GRIT with 2 MB pages and enlarged inputs, normalized to the
//! 2 MB on-touch baseline. Large pages mix read and read-write data inside
//! one translation unit (false sharing), so GRIT's edge shrinks relative
//! to the 4 KB configuration (§VI-B3: 23 % vs 60 %).

use grit_metrics::{speedups, Table};
use grit_sim::{Scheme, SimConfig, PAGE_SIZE_2M};
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Input enlargement factor (the paper grows footprints to 0.5–3 GB to
/// keep a meaningful number of 2 MB pages).
pub const INPUT_ENLARGEMENT: f64 = 16.0;

/// Runs the figure.
pub fn run(exp: &ExpConfig) -> Table {
    let cfg = SimConfig {
        page_size: PAGE_SIZE_2M,
        ..SimConfig::default()
    };
    let big = ExpConfig {
        scale: exp.scale * INPUT_ENLARGEMENT,
        ..*exp
    };
    let mut table = Table::new(
        "Fig 25: 2MB pages with enlarged inputs (speedup over 2MB on-touch)",
        vec!["on-touch".into(), "grit".into()],
    );
    let policies = [PolicyKind::Static(Scheme::OnTouch), PolicyKind::GRIT];
    let rows = run_grid(&App::TABLE2, |app| {
        policies.map(|p| CellSpec::new(app, p, &big).with_cfg(cfg.clone()))
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
    fn grit_still_helps_with_2mb_pages() {
        let t = run(&ExpConfig::quick());
        let g = t.cell("GEOMEAN", "grit").unwrap();
        assert!(g > 1.0, "GRIT must retain a gain with 2MB pages: {g}");
    }

    #[test]
    fn large_pages_reduce_the_gain_versus_4kb() {
        // The §VI-B3 claim: false sharing inside 2 MB translation units
        // shrinks GRIT's edge relative to the 4 KB configuration.
        let exp = ExpConfig::quick();
        let t = run(&exp);
        let gain_2m = t.cell("GEOMEAN", "grit").unwrap();
        // The 4 KB-page GRIT-vs-on-touch geomean for comparably large inputs.
        let big = ExpConfig {
            scale: exp.scale * INPUT_ENLARGEMENT / 8.0,
            ..exp
        };
        let policies = [PolicyKind::Static(Scheme::OnTouch), PolicyKind::GRIT];
        let gains: Vec<f64> = run_grid(&App::TABLE2, |app| {
            policies.map(|p| CellSpec::new(app, p, &big))
        })
        .into_iter()
        .map(|(_, row)| speedups(row.iter().map(CellResultExt::cycles))[1])
        .collect();
        let gain_4kb = grit_metrics::geomean(&gains);
        assert!(
            gain_2m < gain_4kb,
            "2MB gain ({gain_2m}) must trail the 4KB gain ({gain_4kb})"
        );
    }
}
