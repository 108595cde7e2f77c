//! Fig. 10: read/write access mix over time for one read-write page of ST
//! — read-only intervals followed by read-write intervals, the temporal
//! variation that makes a static duplication decision wrong.

use grit_metrics::Table;
use grit_sim::Scheme;
use grit_workloads::App;

use super::{failed_table, run_batch, CellSpec, ExpConfig, PolicyKind};
use crate::runner::{ObserverConfig, RunOutput};

/// An on-touch cell tracking its trace's hottest shared read-write page
/// over 32 intervals.
fn observed_cell(app: App, exp: &ExpConfig) -> CellSpec {
    let cell = CellSpec::new(app, PolicyKind::Static(Scheme::OnTouch), exp);
    let page = cell
        .workload()
        .page_attrs()
        .hottest_written(2)
        .expect("workload must have a shared read-write page");
    let obs = ObserverConfig {
        track_page: Some(page),
        intervals: 32,
        ..Default::default()
    };
    cell.observed(obs)
}

fn table_for(cell: &CellSpec, out: &RunOutput) -> Table {
    let page = cell.observer.as_ref().and_then(|o| o.track_page).expect("page tracked");
    let observer = out.observer.as_ref().expect("observer configured");
    let mut table = Table::new(
        format!(
            "Fig 10: read/write mix over time for {} of {}",
            page,
            cell.app.abbr()
        ),
        vec!["reads%".into(), "writes%".into()],
    );
    let rw = observer.page_rw.as_ref().expect("page tracked");
    for (i, fracs) in rw.fractions().into_iter().enumerate() {
        table.push_row(
            format!("interval{i}"),
            fracs.iter().map(|f| 100.0 * f).collect(),
        );
    }
    table
}

/// Runs the figure for the paper's exemplar, ST. A failed run yields a
/// one-cell error table.
pub fn run(exp: &ExpConfig) -> Table {
    let cell = observed_cell(App::St, exp);
    match run_batch(std::slice::from_ref(&cell)).pop() {
        Some(Ok(out)) => table_for(&cell, &out),
        _ => failed_table(format!(
            "Fig 10: read/write mix over time for {} (cell failed)",
            cell.app.abbr()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn st_page_has_read_only_and_rw_intervals() {
        let t = run(&ExpConfig::quick());
        let mut read_only = 0;
        let mut with_writes = 0;
        for (_, row) in t.rows() {
            let (r, w) = (row[0], row[1]);
            if r + w == 0.0 {
                continue;
            }
            if w == 0.0 {
                read_only += 1;
            } else {
                with_writes += 1;
            }
        }
        assert!(
            read_only >= 1,
            "ST must have read-only intervals (Fig 10: 0-8)"
        );
        assert!(
            with_writes >= 1,
            "ST must have read-write intervals (Fig 10: 9-31)"
        );
    }
}
