//! Extension experiment (beyond the paper): GRIT's *adaptation timeline* —
//! the per-interval placement-scheme mix of L2-TLB-missing accesses.
//!
//! This makes the mechanism of §V visible as a time series: every run
//! starts fully on-touch, shared pages cross the fault threshold and flip
//! to duplication or access-counter placement, and NAP's group propagation
//! accelerates the hand-over. The steady-state right edge of the timeline
//! is the per-app mix of Fig. 19.

use grit_metrics::Table;
use grit_workloads::App;

use super::{failed_table, run_grid, CellSpec, ExpConfig, PolicyKind};
use crate::runner::{ObserverConfig, RunOutput};

/// Number of timeline rows reported.
pub const INTERVALS: usize = 16;

/// Assembles the timeline table from an observed run.
fn table_for(app: App, out: &RunOutput) -> Table {
    let series = out
        .observer
        .as_ref()
        .expect("observer configured")
        .scheme_timeline
        .as_ref()
        .expect("timeline requested");

    let mut table = Table::new(
        format!(
            "Extension: GRIT adaptation timeline for {} (% of L2-TLB misses)",
            app.abbr()
        ),
        vec![
            "on-touch".into(),
            "access-counter".into(),
            "duplication".into(),
        ],
    );
    for (i, fr) in series.fractions().into_iter().enumerate() {
        table.push_row(
            format!("interval{i}"),
            fr.iter().map(|f| 100.0 * f).collect(),
        );
    }
    table
}

/// Runs the timeline for the two most adaptive applications under GRIT,
/// as one batch. An app whose cell failed yields a one-cell error table.
pub fn run(exp: &ExpConfig) -> Vec<Table> {
    let obs = ObserverConfig {
        intervals: INTERVALS,
        scheme_timeline: true,
        ..Default::default()
    };
    run_grid(&[App::Gemm, App::St], |app| {
        [CellSpec::new(app, PolicyKind::GRIT, exp).observed(obs.clone())]
    })
    .into_iter()
    .map(|(app, row)| match row.into_iter().next() {
        Some(Ok(out)) => table_for(app, &out),
        _ => failed_table(format!(
            "Extension: GRIT adaptation timeline for {} (cell failed)",
            app.abbr()
        )),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_and_last_nonempty(t: &Table) -> (Vec<f64>, Vec<f64>) {
        let rows: Vec<&Vec<f64>> = t
            .rows()
            .iter()
            .map(|(_, r)| r)
            .filter(|r| r.iter().sum::<f64>() > 0.0)
            .collect();
        (
            rows.first().unwrap().to_vec(),
            rows.last().unwrap().to_vec(),
        )
    }

    #[test]
    fn gemm_starts_on_touch_and_ends_duplication_heavy() {
        let t = &run(&ExpConfig::quick())[0];
        assert!(t.title().contains("for GEMM"), "{}", t.title());
        let (first, last) = first_and_last_nonempty(t);
        assert!(
            first[0] > 50.0,
            "the run must start under the on-touch baseline: {first:?}"
        );
        assert!(
            last[2] > first[2],
            "duplication share must grow over the run: {first:?} -> {last:?}"
        );
    }

    #[test]
    fn timeline_rows_are_percentages() {
        let t = &run(&ExpConfig::quick())[1];
        assert!(t.title().contains("for ST"), "{}", t.title());
        for (_, row) in t.rows() {
            let sum: f64 = row.iter().sum();
            assert!(sum <= 100.0 + 1e-6);
        }
    }
}
