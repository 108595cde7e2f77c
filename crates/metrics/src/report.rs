//! Plain-text report formatting: the tables the `repro` binary prints and
//! EXPERIMENTS.md embeds.

/// Geometric mean of a slice of positive values ("average improvement"
/// figures in the paper are computed over the eight applications).
///
/// Returns 0.0 for an empty slice or when any value is non-positive: a
/// degenerate run (zero cycles, empty column) must surface as an obviously
/// wrong summary value, not abort a whole batch mid-report.
///
/// Non-finite values (NaN / infinity) mark *failed* cells — a panicked or
/// timed-out run in a Result-first batch — and are skipped so the mean
/// summarizes the cells that completed. A column where *every* value is
/// non-finite yields NaN, which renders as an error marker.
///
/// ```
/// use grit_metrics::geomean;
/// assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// assert_eq!(geomean(&[1.0, 0.0]), 0.0);
/// assert!((geomean(&[1.0, f64::NAN, 4.0]) - 2.0).abs() < 1e-12);
/// assert!(geomean(&[f64::NAN]).is_nan());
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return if values.is_empty() { 0.0 } else { f64::NAN };
    }
    if finite.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    let acc: f64 = finite.iter().map(|&v| v.ln()).sum();
    (acc / finite.len() as f64).exp()
}

/// Speedup of every cell of a row over the row's first cell:
/// `cycles[0] / cycles[i]`, the way every speedup figure of the paper is
/// plotted. The baseline column reads exactly 1.0.
///
/// A failed cell's cycle count is NaN, so a failed variant is NaN in its
/// own column only, and a failed baseline makes the whole row NaN;
/// [`Table::push_geomean_row`] skips both.
///
/// ```
/// use grit_metrics::speedups;
/// assert_eq!(speedups([100.0, 50.0, 200.0]), vec![1.0, 2.0, 0.5]);
/// ```
pub fn speedups(cycles: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut cycles = cycles.into_iter().peekable();
    let base = cycles.peek().copied().unwrap_or(f64::NAN);
    cycles.map(|c| base / c).collect()
}

/// A labelled numeric table rendered to aligned text or CSV.
///
/// ```
/// use grit_metrics::Table;
/// let mut t = Table::new("Fig 1", vec!["OT".into(), "AC".into()]);
/// t.push_row("BFS", vec![1.0, 1.3]);
/// let text = t.to_text();
/// assert!(text.contains("BFS"));
/// assert!(t.to_csv().starts_with("app,OT,AC"));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// A table titled `title` with the given value-column headers.
    pub fn new<S: Into<String>>(title: S, columns: Vec<String>) -> Self {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a labelled row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push_row<S: Into<String>>(&mut self, label: S, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row has {} values for {} columns",
            values.len(),
            self.columns.len()
        );
        self.rows.push((label.into(), values));
    }

    /// Appends a geometric-mean summary row over all current rows. A
    /// column containing any non-positive value summarizes to 0.0 (see
    /// [`geomean`]).
    pub fn push_geomean_row(&mut self) {
        let mut means = Vec::with_capacity(self.columns.len());
        for c in 0..self.columns.len() {
            let col: Vec<f64> = self.rows.iter().map(|(_, v)| v[c]).collect();
            means.push(geomean(&col));
        }
        self.rows.push(("GEOMEAN".into(), means));
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Row labels and values.
    pub fn rows(&self) -> &[(String, Vec<f64>)] {
        &self.rows
    }

    /// Column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Finds a cell by row label and column header.
    pub fn cell(&self, row: &str, col: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == col)?;
        let r = self.rows.iter().find(|(label, _)| label == row)?;
        r.1.get(c).copied()
    }

    /// How a non-finite (failed-cell) value renders in every output
    /// format.
    pub const ERROR_MARKER: &'static str = "err!";

    /// Renders as aligned monospace text with a title line.
    pub fn to_text(&self) -> String {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(3))
            .max()
            .unwrap_or(3);
        let col_w: Vec<usize> = self.columns.iter().map(|c| c.len().max(8)).collect();
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&format!("{:<label_w$}", ""));
        for (c, w) in self.columns.iter().zip(&col_w) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&format!("{label:<label_w$}"));
            for (v, w) in values.iter().zip(&col_w) {
                if v.is_finite() {
                    out.push_str(&format!("  {v:>w$.3}"));
                } else {
                    out.push_str(&format!("  {:>w$}", Table::ERROR_MARKER));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders as CSV with an `app` label column.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("app");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(label);
            for v in values {
                if v.is_finite() {
                    out.push_str(&format!(",{v:.6}"));
                } else {
                    out.push(',');
                    out.push_str(Table::ERROR_MARKER);
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 8.0]) - 2.828_427).abs() < 1e-5);
    }

    #[test]
    fn geomean_degenerate_inputs_yield_zero() {
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(geomean(&[2.0, -1.0]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn speedups_are_relative_to_the_first_cell() {
        let v = speedups([100.0, 50.0, 200.0, 100.0]);
        assert_eq!(v, vec![1.0, 2.0, 0.5, 1.0]);
        // The baseline column is exactly 1.0, not merely close.
        assert_eq!(speedups([12_345.0, 1.0])[0].to_bits(), 1.0f64.to_bits());
        assert!(speedups([]).is_empty());
    }

    #[test]
    fn failed_cells_are_nan_in_their_own_column_only() {
        let v = speedups([100.0, f64::NAN, 50.0]);
        assert_eq!(v[0], 1.0);
        assert!(v[1].is_nan());
        assert_eq!(v[2], 2.0);
        // A failed baseline leaves nothing to compare against.
        assert!(speedups([f64::NAN, 50.0, 200.0]).iter().all(|s| s.is_nan()));
    }

    #[test]
    fn geomean_row_skips_failed_speedups() {
        let mut t = Table::new("T", vec!["base".into(), "v".into()]);
        t.push_row("ok", speedups([100.0, 50.0]));
        t.push_row("variant-failed", speedups([100.0, f64::NAN]));
        t.push_row("ok2", speedups([100.0, 25.0]));
        t.push_geomean_row();
        assert_eq!(t.cell("GEOMEAN", "base"), Some(1.0));
        assert!((t.cell("GEOMEAN", "v").unwrap() - 8.0f64.sqrt()).abs() < 1e-12);
        let mut all_failed = Table::new("T", vec!["base".into(), "v".into()]);
        all_failed.push_row("baseline-failed", speedups([f64::NAN, 50.0]));
        all_failed.push_geomean_row();
        assert!(all_failed.rows()[1].1.iter().all(|m| m.is_nan()));
    }

    #[test]
    fn geomean_row_with_zero_column_does_not_panic() {
        let mut t = Table::new("T", vec!["a".into()]);
        t.push_row("x", vec![0.0]);
        t.push_geomean_row();
        assert_eq!(t.cell("GEOMEAN", "a"), Some(0.0));
    }

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("T", vec!["a".into(), "b".into()]);
        t.push_row("x", vec![1.0, 2.0]);
        t.push_row("y", vec![4.0, 8.0]);
        t.push_geomean_row();
        assert_eq!(t.cell("x", "b"), Some(2.0));
        assert_eq!(t.cell("GEOMEAN", "a"), Some(2.0));
        assert_eq!(t.cell("missing", "a"), None);
        assert_eq!(t.cell("x", "missing"), None);
        assert!(t.to_text().contains("== T =="));
        let csv = t.to_csv();
        assert!(csv.lines().count() == 4);
        assert!(csv.contains("\nx,1.000000,2.000000\n"));
    }

    #[test]
    fn failed_cells_render_as_error_marker() {
        let mut t = Table::new("T", vec!["a".into(), "b".into()]);
        t.push_row("ok", vec![1.5, 2.0]);
        t.push_row("bad", vec![f64::NAN, 4.0]);
        t.push_geomean_row();
        // Geomean skips the NaN cell but keeps the finite one.
        assert!((t.cell("GEOMEAN", "a").unwrap() - 1.5).abs() < 1e-12);
        assert!((t.cell("GEOMEAN", "b").unwrap() - 8.0f64.sqrt()).abs() < 1e-12);
        assert!(t.to_text().contains(Table::ERROR_MARKER));
        assert!(t.to_csv().contains(",err!"));
        // Finite cells are untouched.
        assert!(t.to_text().contains("1.500"));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn row_arity_checked() {
        let mut t = Table::new("T", vec!["a".into()]);
        t.push_row("x", vec![1.0, 2.0]);
    }
}
