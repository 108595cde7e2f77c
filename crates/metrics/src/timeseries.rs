//! Interval-based time series for the temporal figures (Figs. 5, 6–8, 10).
//!
//! The paper samples behaviour "at intervals of one million cycles"
//! (Figs. 5/10) and divides the execution into 50 intervals for the
//! attribute grids (Figs. 6–8).

use grit_sim::Cycle;

/// Per-interval bucket counters: one row per elapsed interval, `buckets`
/// counters per row (e.g. one per GPU for Fig. 5, read/write for Fig. 10).
///
/// ```
/// use grit_metrics::IntervalSeries;
/// let mut s = IntervalSeries::new(1_000_000, 4);
/// s.record(10, 0);            // interval 0, bucket 0 (e.g. GPU0)
/// s.record(1_500_000, 2);     // interval 1, bucket 2
/// assert_eq!(s.intervals(), 2);
/// assert_eq!(s.row(0)[0], 1);
/// assert_eq!(s.row(1)[2], 1);
/// ```
#[derive(Clone, Debug)]
pub struct IntervalSeries {
    interval_cycles: Cycle,
    buckets: usize,
    rows: Vec<Vec<u64>>,
}

impl IntervalSeries {
    /// A series with the given interval length and bucket count.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(interval_cycles: Cycle, buckets: usize) -> Self {
        assert!(
            interval_cycles > 0 && buckets > 0,
            "series dims must be non-zero"
        );
        IntervalSeries {
            interval_cycles,
            buckets,
            rows: Vec::new(),
        }
    }

    /// Rebuilds a series from previously exported rows (see
    /// [`IntervalSeries::iter`]); used by on-disk result stores. Rows
    /// shorter or longer than `buckets` are truncated / zero-padded.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_rows(interval_cycles: Cycle, buckets: usize, rows: Vec<Vec<u64>>) -> Self {
        let mut s = IntervalSeries::new(interval_cycles, buckets);
        s.rows = rows
            .into_iter()
            .map(|mut r| {
                r.resize(buckets, 0);
                r
            })
            .collect();
        s
    }

    /// Number of counters per interval row.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Increments `bucket` in the interval containing cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= buckets`.
    pub fn record(&mut self, now: Cycle, bucket: usize) {
        assert!(bucket < self.buckets, "bucket {bucket} out of range");
        let idx = (now / self.interval_cycles) as usize;
        while self.rows.len() <= idx {
            self.rows.push(vec![0; self.buckets]);
        }
        self.rows[idx][bucket] += 1;
    }

    /// Number of intervals with any data (including interior empty ones).
    pub fn intervals(&self) -> usize {
        self.rows.len()
    }

    /// The interval length in cycles this series was created with.
    pub fn interval_cycles(&self) -> Cycle {
        self.interval_cycles
    }

    /// Counters of one interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval has not been reached.
    pub fn row(&self, interval: usize) -> &[u64] {
        &self.rows[interval]
    }

    /// Iterates `(interval, counters)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u64])> {
        self.rows.iter().enumerate().map(|(i, r)| (i, r.as_slice()))
    }

    /// For each interval, the fraction of events in each bucket (rows with
    /// no events yield all-zero rows).
    pub fn fractions(&self) -> Vec<Vec<f64>> {
        self.rows
            .iter()
            .map(|r| {
                let t: u64 = r.iter().sum();
                r.iter().map(|&v| if t == 0 { 0.0 } else { v as f64 / t as f64 }).collect()
            })
            .collect()
    }
}

/// A pages × intervals attribute grid (Figs. 6–8): the execution is divided
/// into a fixed number of intervals and, per interval, every page bin is
/// assigned an attribute code (e.g. 0 = untouched, 1 = private, 2 = shared).
#[derive(Clone, Debug)]
pub struct AttrGrid {
    page_bins: usize,
    intervals: usize,
    /// `cells[interval][bin]` = attribute code.
    cells: Vec<Vec<u8>>,
}

impl AttrGrid {
    /// A grid of `intervals` rows × `page_bins` columns, all zero.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(intervals: usize, page_bins: usize) -> Self {
        assert!(intervals > 0 && page_bins > 0, "grid dims must be non-zero");
        AttrGrid {
            page_bins,
            intervals,
            cells: vec![vec![0; page_bins]; intervals],
        }
    }

    /// Sets the attribute of `bin` during `interval`, keeping the maximum
    /// code seen (so "shared" (2) dominates "private" (1) dominates
    /// "untouched" (0) within an interval).
    pub fn mark(&mut self, interval: usize, bin: usize, code: u8) {
        if interval < self.intervals && bin < self.page_bins {
            let c = &mut self.cells[interval][bin];
            *c = (*c).max(code);
        }
    }

    /// Attribute code at a cell.
    pub fn get(&self, interval: usize, bin: usize) -> u8 {
        self.cells[interval][bin]
    }

    /// Number of intervals (rows).
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// Number of page bins (columns).
    pub fn page_bins(&self) -> usize {
        self.page_bins
    }

    /// Fraction of non-zero cells whose code equals `code`.
    pub fn frac_of_touched(&self, code: u8) -> f64 {
        let mut matching = 0u64;
        let mut touched = 0u64;
        for row in &self.cells {
            for &c in row {
                if c != 0 {
                    touched += 1;
                    if c == code {
                        matching += 1;
                    }
                }
            }
        }
        if touched == 0 {
            0.0
        } else {
            matching as f64 / touched as f64
        }
    }

    /// For how many (interval, bin) cells do this grid's codes agree with
    /// the horizontally adjacent bin? Measures the "neighboring pages show
    /// the same attributes" observation of §IV-C; returns agreement in
    /// `[0, 1]` over touched cell pairs.
    pub fn neighbor_agreement(&self) -> f64 {
        let mut agree = 0u64;
        let mut pairs = 0u64;
        for row in &self.cells {
            for w in row.windows(2) {
                if w[0] != 0 && w[1] != 0 {
                    pairs += 1;
                    if w[0] == w[1] {
                        agree += 1;
                    }
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            agree as f64 / pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_records_into_correct_interval() {
        let mut s = IntervalSeries::new(100, 2);
        s.record(0, 0);
        s.record(99, 0);
        s.record(100, 1);
        s.record(350, 1);
        assert_eq!(s.intervals(), 4);
        assert_eq!(s.row(0), &[2, 0]);
        assert_eq!(s.row(1), &[0, 1]);
        assert_eq!(s.row(2), &[0, 0]);
        assert_eq!(s.row(3), &[0, 1]);
    }

    #[test]
    fn fractions_and_dominant() {
        let mut s = IntervalSeries::new(10, 2);
        s.record(0, 0);
        s.record(1, 0);
        s.record(2, 1);
        s.record(15, 1);
        let f = s.fractions();
        assert!((f[0][0] - 2.0 / 3.0).abs() < 1e-12);
        // Bucket 1 holds every event of interval 1.
        assert_eq!(f[1], vec![0.0, 1.0]);
    }

    #[test]
    fn dominant_empty_row_is_none() {
        let mut s = IntervalSeries::new(10, 2);
        s.record(25, 0); // intervals 0 and 1 empty
                         // An empty interval has no share in any bucket.
        let f = s.fractions();
        assert_eq!(f[0], vec![0.0, 0.0]);
        assert_eq!(f[2], vec![1.0, 0.0]);
    }

    #[test]
    fn grid_mark_takes_max() {
        let mut g = AttrGrid::new(2, 3);
        g.mark(0, 1, 1);
        g.mark(0, 1, 2);
        g.mark(0, 1, 1); // cannot downgrade
        assert_eq!(g.get(0, 1), 2);
        // Out-of-range marks are ignored.
        g.mark(9, 9, 3);
    }

    #[test]
    fn grid_fractions() {
        let mut g = AttrGrid::new(1, 4);
        g.mark(0, 0, 1);
        g.mark(0, 1, 1);
        g.mark(0, 2, 2);
        assert!((g.frac_of_touched(1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn neighbor_agreement_detects_runs() {
        let mut g = AttrGrid::new(1, 6);
        for b in 0..3 {
            g.mark(0, b, 1);
        }
        for b in 3..6 {
            g.mark(0, b, 2);
        }
        // Pairs: (0,1)(1,2) agree, (2,3) disagree, (3,4)(4,5) agree => 4/5.
        assert!((g.neighbor_agreement() - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn series_bucket_bounds() {
        let mut s = IntervalSeries::new(10, 2);
        s.record(0, 2);
    }
}
