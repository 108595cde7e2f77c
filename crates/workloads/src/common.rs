//! Shared building blocks for the trace generators.

use grit_sim::{Access, PageId, SimRng};

/// A contiguous range of virtual pages (one logical allocation, e.g. an
/// input matrix). The paper's §IV-C analysis leans on allocations being
/// "separately consecutive memory segments" — neighbor-page similarity
/// comes from exactly this layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Segment {
    /// First page of the segment.
    pub start: u64,
    /// Number of pages.
    pub len: u64,
}

impl Segment {
    /// A segment spanning `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(start: u64, len: u64) -> Self {
        assert!(len > 0, "segment must be non-empty");
        Segment { start, len }
    }

    /// The `i`-th page of the segment (wrapping around its length).
    pub fn page(&self, i: u64) -> PageId {
        PageId(self.start + i % self.len)
    }

    /// The contiguous sub-segment owned by GPU `g` of `n` when the segment
    /// is block-partitioned.
    pub fn partition(&self, g: usize, n: usize) -> Segment {
        assert!(n > 0 && g < n, "invalid partition");
        let base = self.len * g as u64 / n as u64;
        let end = self.len * (g as u64 + 1) / n as u64;
        Segment {
            start: self.start + base,
            len: (end - base).max(1),
        }
    }

    /// One past the last page.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// The sub-segment for slot `i` when the segment is partitioned in
    /// proportion to `weights` (e.g. per-layer parameter counts). Every
    /// slot receives at least one page and the slots tile the segment
    /// without overlap, so heavily skewed weights stay disjoint.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, `i` is out of range, the weights sum
    /// to zero, or the segment has fewer pages than slots.
    pub fn partition_weighted(&self, i: usize, weights: &[u64]) -> Segment {
        let n = weights.len();
        assert!(n > 0 && i < n, "invalid weighted partition");
        assert!(self.len >= n as u64, "segment smaller than the slot count");
        let total: u64 = weights.iter().sum();
        assert!(total > 0, "weights must not all be zero");
        // Monotone boundaries: proportional targets pushed apart so every
        // slot keeps at least one page, clamped so the tail still fits.
        let mut lo = 0u64;
        let mut cum = 0u64;
        for (k, &w) in weights.iter().enumerate() {
            cum += w;
            let remaining_slots = (n - k - 1) as u64;
            let hi = (self.len * cum / total).max(lo + 1).min(self.len - remaining_slots);
            if k == i {
                return Segment {
                    start: self.start + lo,
                    len: hi - lo,
                };
            }
            lo = hi;
        }
        unreachable!("slot index checked above");
    }
}

/// Accumulates one GPU's access trace with its own deterministic RNG.
///
/// Kernel launches are global synchronization points in the paper's
/// benchmarks (§III-B schedules each kernel's thread blocks across all
/// GPUs); [`GpuTrace::barrier`] records those boundaries so the runner can
/// hold GPUs at phase ends — without them a staging kernel would overlap
/// the compute kernels and fabricate sharing that does not exist.
#[derive(Clone, Debug)]
pub struct GpuTrace {
    accesses: Vec<Access>,
    barriers: Vec<usize>,
    rng: SimRng,
    lines_per_page: u16,
    think: u32,
}

impl GpuTrace {
    /// A trace sink for a GPU with `lines_per_page` cache lines per page.
    pub fn new(rng: SimRng, lines_per_page: u16, think: u32) -> Self {
        GpuTrace {
            accesses: Vec::new(),
            barriers: Vec::new(),
            rng,
            lines_per_page,
            think,
        }
    }

    /// Marks a kernel boundary at the current position. Repeated positions
    /// are legal and mean this GPU is idle for a whole phase (e.g. a
    /// pipeline stage owned by another GPU).
    pub fn barrier(&mut self) {
        self.barriers.push(self.accesses.len());
    }

    /// Recorded kernel boundaries (positions in the access vector).
    pub fn barriers(&self) -> &[usize] {
        &self.barriers
    }

    /// Consumes the sink, returning the trace and its kernel boundaries.
    pub fn into_parts(self) -> (Vec<Access>, Vec<usize>) {
        (self.accesses, self.barriers)
    }

    /// Appends a read of a random line of `page`.
    pub fn read(&mut self, page: PageId) {
        let line = self.rng.below(self.lines_per_page as u64) as u16;
        self.accesses.push(Access::read(page, line).with_think(self.think));
    }

    /// Appends a write of a random line of `page`.
    pub fn write(&mut self, page: PageId) {
        let line = self.rng.below(self.lines_per_page as u64) as u16;
        self.accesses.push(Access::write(page, line).with_think(self.think));
    }

    /// Appends a read that is a write with probability `p_write`.
    pub fn touch(&mut self, page: PageId, p_write: f64) {
        if self.rng.chance(p_write) {
            self.write(page);
        } else {
            self.read(page);
        }
    }

    /// Appends a burst of `n` accesses to consecutive lines of `page`
    /// starting at a random line (wrapping), each a write with probability
    /// `p_write`. Real kernels touch most lines of every page they use —
    /// this line-level density is what lets a single migration amortize
    /// over many subsequent local accesses.
    pub fn burst(&mut self, page: PageId, n: u16, p_write: f64) {
        let start = self.rng.below(self.lines_per_page as u64) as u16;
        for k in 0..n {
            let line = (start + k) % self.lines_per_page;
            let a = if p_write > 0.0 && self.rng.chance(p_write) {
                Access::write(page, line)
            } else {
                Access::read(page, line)
            };
            self.accesses.push(a.with_think(self.think));
        }
    }

    /// A burst of `n` reads.
    pub fn burst_read(&mut self, page: PageId, n: u16) {
        self.burst(page, n, 0.0);
    }

    /// A burst of `n` writes.
    pub fn burst_write(&mut self, page: PageId, n: u16) {
        self.burst(page, n, 1.0);
    }

    /// The sink's RNG, for pattern decisions.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Consumes the sink, returning the trace.
    pub fn into_accesses(self) -> Vec<Access> {
        self.accesses
    }

    /// Accesses recorded so far.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

/// Per-GPU trace sinks for one workload.
pub fn make_sinks(
    rng: &mut SimRng,
    num_gpus: usize,
    lines_per_page: u16,
    think: u32,
) -> Vec<GpuTrace> {
    (0..num_gpus)
        .map(|g| GpuTrace::new(rng.fork(g as u64 + 1), lines_per_page, think))
        .collect()
}

/// Marks a kernel boundary on every GPU's trace (end of one phase).
pub fn barrier_all(sinks: &mut [GpuTrace]) {
    for s in sinks {
        s.barrier();
    }
}

/// The round-robin-fill thread-block scheduler of §III-B: TBs fill GPU 0's
/// CUs first, then spill to GPU 1, and so on — so a grid of `tbs` thread
/// blocks maps block `i` to a GPU by contiguous ranges.
///
/// ```
/// use grit_workloads::tb_to_gpu;
/// // 8 TBs on 4 GPUs: blocks 0-1 -> GPU0, 2-3 -> GPU1, ...
/// assert_eq!(tb_to_gpu(0, 8, 4), 0);
/// assert_eq!(tb_to_gpu(3, 8, 4), 1);
/// assert_eq!(tb_to_gpu(7, 8, 4), 3);
/// ```
pub fn tb_to_gpu(tb: u64, tbs: u64, num_gpus: usize) -> usize {
    assert!(tbs > 0 && num_gpus > 0 && tb < tbs, "invalid TB mapping");
    ((tb * num_gpus as u64) / tbs) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_segment_without_overlap() {
        let s = Segment::new(100, 37);
        let mut covered = 0;
        for g in 0..4 {
            let p = s.partition(g, 4);
            covered += p.len;
            assert!(p.start >= 100 && p.end() <= 137);
        }
        assert_eq!(covered, 37);
    }

    #[test]
    fn weighted_partition_tiles_proportionally() {
        let s = Segment::new(0, 100);
        let w = [1u64, 3, 6];
        let parts: Vec<Segment> = (0..3).map(|i| s.partition_weighted(i, &w)).collect();
        assert_eq!(parts[0].len, 10);
        assert_eq!(parts[1].len, 30);
        assert_eq!(parts[2].len, 60);
        assert_eq!(parts[0].end(), parts[1].start);
        assert_eq!(parts[1].end(), parts[2].start);
        assert_eq!(parts[2].end(), 100);
    }

    #[test]
    fn weighted_partition_never_overlaps_under_extreme_skew() {
        let s = Segment::new(0, 20);
        // Slots 0..8 round to zero pages proportionally; each must still
        // get a disjoint page.
        let w = [1u64, 1, 1, 1, 1, 1, 1, 1, 10_000];
        let parts: Vec<Segment> = (0..9).map(|i| s.partition_weighted(i, &w)).collect();
        let mut cursor = 0;
        for p in &parts {
            assert_eq!(p.start, cursor, "slots must tile");
            assert!(p.len >= 1);
            cursor = p.end();
        }
        assert_eq!(cursor, 20);
        assert!(parts[8].len > 10, "the heavy slot takes the remainder");
    }

    #[test]
    fn page_wraps() {
        let s = Segment::new(10, 5);
        assert_eq!(s.page(0), PageId(10));
        assert_eq!(s.page(7), PageId(12));
    }

    #[test]
    fn trace_records_reads_and_writes() {
        let mut t = GpuTrace::new(SimRng::seeded(1), 64, 4);
        t.read(PageId(1));
        t.write(PageId(2));
        t.touch(PageId(3), 1.0);
        let acc = t.into_accesses();
        assert_eq!(acc.len(), 3);
        assert!(!acc[0].is_write());
        assert!(acc[1].is_write());
        assert!(acc[2].is_write());
        assert!(acc.iter().all(|a| a.line < 64));
    }

    #[test]
    fn sinks_are_deterministic_per_gpu() {
        let mut r1 = SimRng::seeded(9);
        let mut r2 = SimRng::seeded(9);
        let mut a = make_sinks(&mut r1, 2, 64, 4);
        let mut b = make_sinks(&mut r2, 2, 64, 4);
        a[0].read(PageId(0));
        b[0].read(PageId(0));
        assert_eq!(a[0].accesses, b[0].accesses);
    }

    #[test]
    fn barriers_record_positions_including_empty_phases() {
        let mut t = GpuTrace::new(SimRng::seeded(1), 64, 4);
        t.barrier();
        t.read(PageId(1));
        t.barrier();
        t.barrier(); // empty phase: this GPU idles for one kernel
        t.write(PageId(2));
        t.barrier();
        let (acc, bars) = t.into_parts();
        assert_eq!(acc.len(), 2);
        assert_eq!(bars, vec![0, 1, 1, 2]);
    }

    #[test]
    fn tb_mapping_is_contiguous_fill() {
        let gpus: Vec<usize> = (0..8).map(|tb| tb_to_gpu(tb, 8, 4)).collect();
        assert_eq!(gpus, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "invalid TB mapping")]
    fn tb_mapping_bounds_checked() {
        let _ = tb_to_gpu(8, 8, 4);
    }
}
