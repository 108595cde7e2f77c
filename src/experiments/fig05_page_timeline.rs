//! Fig. 5: per-interval distribution of the GPUs accessing one hot shared
//! page — producer–consumer sharing in C2D (one GPU per interval, handing
//! off) vs all-shared in ST (every GPU throughout).

use grit_metrics::Table;
use grit_sim::{Scheme, SimConfig};
use grit_workloads::App;

use super::{failed_table, run_scouted, CellSpec, ExpConfig, PolicyKind};
use crate::runner::{ObserverConfig, RunOutput};

fn scout_cell(app: App, exp: &ExpConfig) -> CellSpec {
    // Pass 1: time the run, to size the intervals.
    CellSpec::new(app, PolicyKind::Static(Scheme::OnTouch), exp)
}

fn tracked_cell(scout_cell: &CellSpec, scout: &RunOutput) -> CellSpec {
    // The paper picks "a certain page" with significant sharing: the
    // trace's hottest page touched by more than one GPU.
    let page = scout_cell
        .workload()
        .page_attrs()
        .hottest(2)
        .expect("workload must have at least one shared page");
    // Pass 2: rerun with the tracked-page observer. The interval shrinks
    // with the scaled runs so several intervals land inside the page's
    // active window (producer-consumer pages live in a narrow span).
    let interval = (scout.metrics.total_cycles / 192).max(1);
    let obs = ObserverConfig {
        track_page: Some(page),
        interval_cycles: interval,
        ..Default::default()
    };
    scout_cell.clone().observed(obs)
}

fn table_for(cell: &CellSpec, out: &RunOutput) -> Table {
    let page = cell.observer.as_ref().and_then(|o| o.track_page).expect("page tracked");
    let observer = out.observer.as_ref().expect("observer configured");
    let gpus = SimConfig::default().num_gpus;
    let cols: Vec<String> = (0..gpus).map(|g| format!("GPU{g}")).collect();
    let mut table = Table::new(
        format!(
            "Fig 5: access mix over time for {} of {}",
            page,
            cell.app.abbr()
        ),
        cols,
    );
    for (i, fracs) in observer.page_by_gpu.fractions().into_iter().enumerate() {
        table.push_row(
            format!("interval{i}"),
            fracs.iter().map(|f| 100.0 * f).collect(),
        );
    }
    table
}

/// Runs the figure for the paper's two exemplars, C2D and ST. Both
/// scout passes run as one batch, then both observed passes. An app whose
/// scout or observed run failed yields a one-cell error table instead of
/// aborting the figure.
pub fn run(exp: &ExpConfig) -> Vec<Table> {
    let apps = [App::C2d, App::St];
    apps.iter()
        .zip(run_scouted(&apps.map(|a| scout_cell(a, exp)), tracked_cell))
        .map(|(app, run)| match run {
            Some((cell, out)) => table_for(&cell, &out),
            None => failed_table(format!(
                "Fig 5: access mix over time for {} (cell failed)",
                app.abbr()
            )),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn st_page_is_touched_by_multiple_gpus_over_time() {
        let t = &run(&ExpConfig::quick())[1];
        assert!(t.title().ends_with("of ST"), "{}", t.title());
        let mut gpus_seen = std::collections::HashSet::new();
        for (_, row) in t.rows() {
            for (g, &v) in row.iter().enumerate() {
                if v > 0.0 {
                    gpus_seen.insert(g);
                }
            }
        }
        assert!(gpus_seen.len() >= 2, "ST hot page must be shared over time");
    }

    #[test]
    fn rows_are_percentages() {
        let t = &run(&ExpConfig::quick())[0];
        assert!(t.title().ends_with("of C2D"), "{}", t.title());
        for (_, row) in t.rows() {
            let sum: f64 = row.iter().sum();
            assert!(sum <= 100.0 + 1e-6);
        }
    }
}
