//! Logarithmic latency histogram: distribution of per-event costs
//! (fault-handling latencies, remote-access latencies) beyond the mean.

use std::fmt;

/// A power-of-two-bucketed histogram of cycle counts.
///
/// Bucket `k` holds samples in `[2^k, 2^(k+1))`; bucket 0 also absorbs
/// zero-cycle samples. 48 buckets cover any `u64` latency the simulator
/// can produce.
///
/// ```
/// use grit_metrics::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// h.record(100);
/// h.record(120);
/// h.record(4000);
/// assert_eq!(h.samples(), 3);
/// assert!(h.percentile(0.5) >= 64 && h.percentile(0.5) < 256);
/// assert!(h.percentile(1.0) >= 2048);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 48],
    samples: u64,
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 48],
            samples: 0,
            total: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    fn bucket_of(cycles: u64) -> usize {
        if cycles == 0 {
            0
        } else {
            (63 - cycles.leading_zeros() as usize).min(47)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, cycles: u64) {
        self.buckets[Self::bucket_of(cycles)] += 1;
        self.samples += 1;
        self.total += cycles;
        self.max = self.max.max(cycles);
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total as f64 / self.samples as f64
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Lower bound of the bucket containing quantile `q` in `[0, 1]`
    /// (0 when empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.samples == 0 {
            return 0;
        }
        let target = ((self.samples as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return if k == 0 { 0 } else { 1u64 << k };
            }
        }
        self.max
    }

    /// Iterates the non-empty buckets as `(lower_bound, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (if k == 0 { 0 } else { 1u64 << k }, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
        self.samples += other.samples;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The lossless flat form `[samples, sum, max, lb0, c0, lb1, c1, ...]`
    /// over the non-empty buckets (`lb` = bucket lower bound in cycles,
    /// `c` = sample count), as carried by a cell's `prof_*_hist` aux series.
    pub fn to_flat(&self) -> Vec<f64> {
        let mut v = vec![self.samples as f64, self.total as f64, self.max as f64];
        for (lb, c) in self.iter() {
            v.push(lb as f64);
            v.push(c as f64);
        }
        v
    }

    /// Rebuilds a histogram from [`LatencyHistogram::to_flat`]'s form; a
    /// series shorter than the three summary slots reads as empty.
    pub fn from_flat(vs: &[f64]) -> Self {
        let mut h = LatencyHistogram::new();
        let [samples, total, max, pairs @ ..] = vs else {
            return h;
        };
        (h.samples, h.total, h.max) = (*samples as u64, *total as u64, *max as u64);
        for pair in pairs.chunks_exact(2) {
            h.buckets[Self::bucket_of(pair[0] as u64)] += pair[1] as u64;
        }
        h
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.0} p50={} p99={} max={}",
            self.samples,
            self.mean(),
            self.percentile(0.5),
            self.percentile(0.99),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.samples(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.iter().count(), 0);
    }

    #[test]
    fn bucketing_is_power_of_two() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let buckets: Vec<(u64, u64)> = h.iter().collect();
        assert_eq!(buckets, vec![(0, 2), (2, 2), (1024, 1)]);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(i * 17);
        }
        let mut last = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let p = h.percentile(q);
            assert!(p >= last, "p({q}) = {p} < {last}");
            last = p;
        }
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.samples(), 2);
        assert_eq!(a.max(), 10_000);
        assert!((a.mean() - 5005.0).abs() < 1e-9);
    }

    #[test]
    fn flat_form_round_trips() {
        let empty = LatencyHistogram::new();
        let mut zero = LatencyHistogram::new();
        zero.record(0);
        let mut top = LatencyHistogram::new();
        top.record(1 << 50);
        top.record(3);
        let mut merged = zero.clone();
        merged.merge(&top);
        merged.record(1_000);
        for h in [empty, zero, top, merged] {
            assert_eq!(
                LatencyHistogram::from_flat(&h.to_flat()),
                h,
                "{:?}",
                h.to_flat()
            );
        }
        // Slot 1 is the sum, so merged means stay exact.
        let mut a = LatencyHistogram::new();
        a.record(10);
        a.record(30);
        assert_eq!(a.to_flat(), [2.0, 40.0, 30.0, 8.0, 1.0, 16.0, 1.0]);
    }

    #[test]
    fn display_summarizes() {
        let mut h = LatencyHistogram::new();
        h.record(500);
        let s = format!("{h}");
        assert!(s.contains("n=1") && s.contains("max=500"), "{s}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_bounds_checked() {
        let _ = LatencyHistogram::new().percentile(1.5);
    }
}
