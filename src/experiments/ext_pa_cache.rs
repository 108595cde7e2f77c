//! Extension ablation (beyond the paper): PA-Cache capacity sweep.
//!
//! The paper fixes the PA-Cache at 64 entries and reports its area as
//! negligible; this sweep justifies the choice — a small cache already
//! absorbs nearly all PA-Table traffic because fault bursts are highly
//! page-local, and growing it past 64 entries buys almost nothing.

use grit_metrics::{speedups, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// PA-Cache capacities swept (entries; 4-way sets).
pub const CAPACITIES: [usize; 4] = [16, 64, 256, 1024];

/// Runs the sweep: speedup over on-touch per capacity, plus the no-cache
/// ablation.
pub fn run(exp: &ExpConfig) -> Table {
    let mut cols: Vec<String> = vec!["no-cache".into()];
    cols.extend(CAPACITIES.iter().map(|c| format!("{c}e")));
    let mut table = Table::new(
        "Extension: PA-Cache capacity sweep (speedup over on-touch)",
        cols,
    );
    let mut policies = vec![
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Grit {
            threshold: 4,
            pa_cache: false,
            nap: true,
        },
    ];
    policies.extend(CAPACITIES.iter().map(|&entries| PolicyKind::GritWithCache { entries }));
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
    fn sixty_four_entries_suffice() {
        let t = run(&ExpConfig::quick());
        let at_64 = t.cell("GEOMEAN", "64e").unwrap();
        let at_1024 = t.cell("GEOMEAN", "1024e").unwrap();
        let no_cache = t.cell("GEOMEAN", "no-cache").unwrap();
        // The paper-sized cache captures essentially all of the benefit...
        assert!(
            at_64 >= 0.98 * at_1024,
            "64 entries must be within 2% of 1024: {at_64} vs {at_1024}"
        );
        // ...and having a cache is at least as good as not having one.
        assert!(at_64 >= 0.99 * no_cache, "{at_64} vs no-cache {no_cache}");
    }
}
