//! Fig. 21: fault-threshold sensitivity (2/4/8/16), normalized to on-touch.
//! The paper reports 53 % / 60 % / 59 % / 48 % average improvements —
//! saturating at threshold 4.

use grit_metrics::{speedups, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Thresholds swept by the figure.
pub const THRESHOLDS: [u8; 4] = [2, 4, 8, 16];

/// Runs the figure.
pub fn run(exp: &ExpConfig) -> Table {
    let cols: Vec<String> = THRESHOLDS.iter().map(|t| format!("t={t}")).collect();
    let mut table = Table::new(
        "Fig 21: fault-threshold sensitivity (speedup over on-touch)",
        cols,
    );
    let mut policies = vec![PolicyKind::Static(Scheme::OnTouch)];
    policies.extend(THRESHOLDS.iter().map(|&t| PolicyKind::Grit {
        threshold: t,
        pa_cache: true,
        nap: true,
    }));
    let rows = run_grid(&App::TABLE2, |app| {
        policies.iter().map(move |&p| CellSpec::new(app, p, exp))
    });
    for (app, row) in rows {
        let gains = speedups(row.iter().map(CellResultExt::cycles));
        table.push_row(app.abbr(), gains[1..].to_vec());
    }
    table.push_geomean_row();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_4_is_near_optimal() {
        let t = run(&ExpConfig::quick());
        let means: Vec<f64> = THRESHOLDS
            .iter()
            .map(|th| t.cell("GEOMEAN", &format!("t={th}")).unwrap())
            .collect();
        let best = means.iter().cloned().fold(f64::MIN, f64::max);
        // The default threshold (4) must be within a few percent of the
        // best of the sweep (paper: the gain saturates at 4).
        assert!(means[1] >= 0.93 * best, "t=4 {} vs best {best}", means[1]);
        // A very large threshold delays adaptation and loses performance
        // relative to the best setting.
        assert!(means[3] <= best + 1e-9);
    }
}
