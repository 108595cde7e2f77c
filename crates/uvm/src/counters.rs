//! Hardware access counters for counter-based migration (§II-B2).
//!
//! Volta-class GPUs track remote accesses per 64 KB page group; when a
//! group's counter reaches the threshold (256 by default, Table I), a
//! migration request is generated for the faulting page and the group's
//! counter resets.

use grit_sim::{GpuId, PageId, PAGE_SIZE_2M};

/// Top bit of a group key naming a coalesced 2 MB frame rather than an
/// ordinary 64 KB group (see [`AccessCounters::record_remote_grouped`]).
const FRAME_KEY: u64 = 1 << 63;

/// Per-GPU, per-64 KB-group remote-access counters.
///
/// Counters are dense arrays over the footprint: one per GPU and 64 KB
/// group, plus one per GPU and 2 MB frame for the frame-granularity keys
/// of coalesced frames. A group's counters for all GPUs sit side by side,
/// so resetting a group touches `num_gpus` slots.
///
/// ```
/// use grit_uvm::AccessCounters;
/// use grit_sim::{GpuId, PageId};
///
/// let mut c = AccessCounters::new(4, 4096, 2, 64);
/// let (g, group) = (GpuId::new(0), c.group_of(PageId(5)));
/// for _ in 0..3 {
///     assert!(!c.record_remote_grouped(g, group));
/// }
/// assert!(c.record_remote_grouped(g, group)); // threshold 4 reached
/// ```
#[derive(Clone, Debug)]
pub struct AccessCounters {
    threshold: u32,
    page_size: u64,
    num_gpus: usize,
    footprint_pages: u64,
    /// 64 KB groups in the footprint.
    num_groups: u64,
    /// 2 MB frames in the footprint.
    num_frames: u64,
    /// Remote accesses since the last reset, `num_gpus` slots per counter
    /// unit: the 64 KB groups first, then the frames.
    counts: Vec<u32>,
}

impl AccessCounters {
    /// Counters with the given migration threshold and page size for
    /// `num_gpus` GPUs over pages `0..footprint_pages`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: u32, page_size: u64, num_gpus: usize, footprint_pages: u64) -> Self {
        assert!(threshold > 0, "access-counter threshold must be non-zero");
        let num_groups = match footprint_pages {
            0 => 0,
            n => PageId(n - 1).counter_group(page_size) + 1,
        };
        let num_frames = footprint_pages.div_ceil((PAGE_SIZE_2M / page_size.max(1)).max(1));
        AccessCounters {
            threshold,
            page_size,
            num_gpus,
            footprint_pages,
            num_groups,
            num_frames,
            counts: vec![0; (num_groups + num_frames) as usize * num_gpus],
        }
    }

    /// The 64 KB counter group `vpn` falls into at this page size.
    pub fn group_of(&self, vpn: PageId) -> u64 {
        vpn.counter_group(self.page_size)
    }

    /// The slots of every GPU's counter under a group key.
    ///
    /// # Panics
    ///
    /// Panics if the key names a group or frame past the footprint.
    fn slots(&self, group: u64) -> std::ops::Range<usize> {
        let unit = match group & FRAME_KEY {
            0 => (group < self.num_groups).then_some(group),
            _ => {
                let frame = group & !FRAME_KEY;
                (frame < self.num_frames).then_some(self.num_groups + frame)
            }
        };
        let Some(unit) = unit else {
            panic!(
                "counter group {group:#x} lies outside the footprint of {} pages",
                self.footprint_pages
            );
        };
        let start = unit as usize * self.num_gpus;
        start..start + self.num_gpus
    }

    /// Records one remote access by `gpu` under a group key: a 64 KB group
    /// from [`AccessCounters::group_of`], or, for a coalesced 2 MB frame,
    /// the single frame-granularity key `1 << 63 | frame index`. Returns
    /// `true` when the counter reaches the threshold; the counter then
    /// resets.
    pub fn record_remote_grouped(&mut self, gpu: GpuId, group: u64) -> bool {
        let slots = self.slots(group);
        let c = &mut self.counts[slots][gpu.index()];
        *c += 1;
        if *c >= self.threshold {
            *c = 0;
            true
        } else {
            false
        }
    }

    /// Clears every GPU's counter under a group key (after the page
    /// migrates, stale remote counts are meaningless).
    pub fn reset_group_key(&mut self, group: u64) {
        let slots = self.slots(group);
        self.counts[slots].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records a remote access by GPU `gpu` to page `vpn`; `true` on a trip.
    fn touch(c: &mut AccessCounters, gpu: u8, vpn: u64) -> bool {
        let group = c.group_of(PageId(vpn));
        c.record_remote_grouped(GpuId::new(gpu), group)
    }

    #[test]
    fn counts_per_gpu_and_group() {
        let mut c = AccessCounters::new(2, 4096, 2, 64);
        assert!(!touch(&mut c, 0, 0));
        // Different GPU: separate counter.
        assert!(!touch(&mut c, 1, 0));
        // Same GPU, same 64 KB group (pages 0..16): second hit triggers.
        assert!(touch(&mut c, 0, 15));
        // Counter reset after trigger: one more access does not trip.
        assert!(!touch(&mut c, 0, 0));
    }

    #[test]
    fn different_groups_do_not_share_counters() {
        let mut c = AccessCounters::new(2, 4096, 2, 64);
        assert!(!touch(&mut c, 0, 0));
        assert!(!touch(&mut c, 0, 16)); // next 64 KB group
        assert!(touch(&mut c, 0, 0));
        assert!(touch(&mut c, 0, 16));
    }

    #[test]
    fn reset_group_clears_all_gpus() {
        let mut c = AccessCounters::new(2, 4096, 2, 64);
        touch(&mut c, 0, 3);
        touch(&mut c, 1, 4);
        touch(&mut c, 1, 20);
        c.reset_group_key(c.group_of(PageId(0)));
        assert!(!touch(&mut c, 0, 3));
        assert!(!touch(&mut c, 1, 4));
        assert!(touch(&mut c, 1, 20), "other groups keep their counts");
    }

    #[test]
    fn large_pages_use_page_granularity() {
        let mut c = AccessCounters::new(2, 2 * 1024 * 1024, 1, 8);
        assert!(!touch(&mut c, 0, 1));
        assert!(!touch(&mut c, 0, 2)); // different "group"
        assert!(touch(&mut c, 0, 1));
    }

    #[test]
    fn explicit_group_keys_are_independent() {
        let mut c = AccessCounters::new(2, 4096, 2, 8 * 512);
        let g = GpuId::new(0);
        let frame_key = (1u64 << 63) | 7;
        assert!(!c.record_remote_grouped(g, frame_key));
        // The same pages under their natural group stay untouched.
        assert!(!touch(&mut c, 0, 7 * 512));
        assert!(c.record_remote_grouped(g, frame_key));
        c.record_remote_grouped(g, frame_key);
        c.reset_group_key(frame_key);
        assert!(
            !c.record_remote_grouped(g, frame_key),
            "reset clears the frame key"
        );
    }

    #[test]
    #[should_panic(expected = "outside the footprint of 64 pages")]
    fn groups_past_the_footprint_panic() {
        touch(&mut AccessCounters::new(2, 4096, 1, 64), 0, 64);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_threshold_panics() {
        let _ = AccessCounters::new(0, 4096, 1, 64);
    }
}
