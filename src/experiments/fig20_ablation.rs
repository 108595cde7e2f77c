//! Fig. 20: component ablation — PA-Table only, PA-Table + PA-Cache, and
//! PA-Table + Neighboring-Aware Prediction, vs the full design, all
//! normalized to on-touch (paper averages: 31 % / 47 % / 44 %).

use grit_metrics::{speedups, Table};
use grit_sim::Scheme;
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

/// Ablation variants (plot order), ending with the full design.
pub fn variants() -> [(&'static str, PolicyKind); 4] {
    [
        (
            "pa-table",
            PolicyKind::Grit {
                threshold: 4,
                pa_cache: false,
                nap: false,
            },
        ),
        (
            "pa-table+cache",
            PolicyKind::Grit {
                threshold: 4,
                pa_cache: true,
                nap: false,
            },
        ),
        (
            "pa-table+nap",
            PolicyKind::Grit {
                threshold: 4,
                pa_cache: false,
                nap: true,
            },
        ),
        ("grit-full", PolicyKind::GRIT),
    ]
}

/// Runs the figure.
pub fn run(exp: &ExpConfig) -> Table {
    let cols: Vec<String> = variants().iter().map(|(n, _)| n.to_string()).collect();
    let mut table = Table::new(
        "Fig 20: GRIT component ablation (speedup over on-touch)",
        cols,
    );
    let mut policies = vec![PolicyKind::Static(Scheme::OnTouch)];
    policies.extend(variants().iter().map(|(_, p)| *p));
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
    fn components_add_value_on_average() {
        let t = run(&ExpConfig::quick());
        let table_only = t.cell("GEOMEAN", "pa-table").unwrap();
        let with_cache = t.cell("GEOMEAN", "pa-table+cache").unwrap();
        let full = t.cell("GEOMEAN", "grit-full").unwrap();
        // The PA-Cache removes PA-Table memory latency from the fault
        // path: at least as fast on average.
        assert!(
            with_cache >= table_only * 0.999,
            "{with_cache} vs {table_only}"
        );
        // The full design is the best variant on average.
        for (name, _) in variants() {
            let v = t.cell("GEOMEAN", name).unwrap();
            assert!(full >= v * 0.98, "full {full} vs {name} {v}");
        }
    }
}
