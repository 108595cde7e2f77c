//! Mosaic-style multi-page-size page state: a two-level model in which 4 KB base pages live inside 2 MB
//! large-page *frames*. A frame whose base pages are all resident on one
//! GPU and unreplicated can be transparently **coalesced** into a single
//! large mapping — one TLB entry covers the whole frame and the access
//! counters track the frame as one group. Any event that breaks the frame's privacy or residency
//! — a remote writer taking exclusive ownership, a duplication, a base
//! page migrating away, a capacity eviction, an ECC retirement —
//! **splinters** the frame back to base pages.
//!
//! [`LargePageTable`] mirrors no residency: the [`crate::UvmDriver`]
//! remains the single authority on residency and replication and
//! consults the table on its fault and migration paths.
//! Eligibility is decided by *re-scanning* the affected frame
//! against the authoritative page table (via a caller-supplied lookup)
//! rather than by mirroring every residency delta — slower per check,
//! but impossible to drift out of sync.

use grit_sim::{GpuId, PageId, PageSizeMode, PAGE_SIZE_2M};
use grit_trace::SplinterCause;

/// Cumulative multi-page-size activity counters, reported through the
/// `pagesize_counters` aux series of a run's metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PageSizeCounters {
    /// Frames coalesced into a large mapping.
    pub coalesces: u64,
    /// Frames splintered because a peer GPU started sharing the range.
    pub splinters_false_sharing: u64,
    /// Frames splintered by partial capacity eviction / host staging.
    pub splinters_eviction: u64,
    /// Frames splintered by ECC frame retirement.
    pub splinters_retirement: u64,
    /// Access-counter trips on ordinary 64 KB groups.
    pub counter_trips_base: u64,
    /// Access-counter trips on coalesced frames (one counter group per
    /// 2 MB frame).
    pub counter_trips_large: u64,
    /// Total 64 KB groups aliased into tripped frame-granularity groups
    /// (the migration-granularity cost of coalescing: one trip moves the
    /// whole frame).
    pub counter_groups_aliased: u64,
    /// Highest number of simultaneously coalesced frames observed.
    pub coalesced_peak: u64,
}

impl PageSizeCounters {
    /// Total splinters across all causes.
    pub fn splinters(&self) -> u64 {
        self.splinters_false_sharing + self.splinters_eviction + self.splinters_retirement
    }
}

/// Tracks which 2 MB frames are currently coalesced, who owns each, and
/// the cumulative coalesce/splinter/aliasing counters.
///
/// Frames are identified by their index (`vpn / pages_per_frame`); a
/// coalesced frame maps every base page `frame * pages_per_frame ..
/// (frame + 1) * pages_per_frame` through one large translation owned by
/// a single GPU. Frame owners live in a dense array indexed by frame,
/// sized from the footprint.
///
/// ```
/// use grit_trace::SplinterCause;
/// use grit_uvm::LargePageTable;
/// use grit_sim::{GpuId, PageId};
///
/// let mut lpt = LargePageTable::new(4, 64);
/// let g = GpuId::new(1);
/// let (base, owner) = lpt.coalesce_candidate(PageId(5), |_vpn| Some(g)).unwrap();
/// assert_eq!((base, owner), (PageId(4), g));
/// lpt.coalesce(base, owner);
/// assert_eq!(lpt.coalesced_frame(PageId(7)), Some(PageId(4)));
/// let (split_base, split_owner) = lpt.splinter(PageId(6), SplinterCause::Eviction).unwrap();
/// assert_eq!((split_base, split_owner), (PageId(4), g));
/// assert_eq!(lpt.coalesced_frame(PageId(5)), None);
/// ```
#[derive(Clone, Debug)]
pub struct LargePageTable {
    pages_per_frame: u64,
    footprint_pages: u64,
    /// Owner of each coalesced frame, by frame index (empty when the
    /// table is inert).
    frames: Vec<Option<GpuId>>,
    /// Frames currently coalesced.
    coalesced: u64,
    counters: PageSizeCounters,
}

impl LargePageTable {
    /// A table with `pages_per_frame` base pages per 2 MB frame over
    /// pages `0..footprint_pages`. The table is inert (never coalesces)
    /// when a frame holds fewer than two base pages.
    pub fn new(pages_per_frame: u64, footprint_pages: u64) -> Self {
        let pages_per_frame = pages_per_frame.max(1);
        let num_frames = if pages_per_frame > 1 {
            footprint_pages.div_ceil(pages_per_frame) as usize
        } else {
            0
        };
        LargePageTable {
            pages_per_frame,
            footprint_pages,
            frames: vec![None; num_frames],
            coalesced: 0,
            counters: PageSizeCounters::default(),
        }
    }

    /// A table derived from a full configuration over pages
    /// `0..footprint_pages`: inert under [`PageSizeMode::Uniform4k`],
    /// otherwise with the frame size set by the base page size.
    pub fn from_config(mode: PageSizeMode, page_size: u64, footprint_pages: u64) -> Self {
        let pages_per_frame = if mode.large_pages_enabled() {
            PAGE_SIZE_2M / page_size.max(1)
        } else {
            1
        };
        LargePageTable::new(pages_per_frame, footprint_pages)
    }

    /// Whether large pages are managed at all.
    pub fn enabled(&self) -> bool {
        self.pages_per_frame > 1
    }

    /// Base pages per 2 MB frame.
    pub fn pages_per_frame(&self) -> u64 {
        self.pages_per_frame
    }

    /// First base page of the frame containing `vpn`.
    pub fn frame_base(&self, vpn: PageId) -> PageId {
        PageId(vpn.vpn() / self.pages_per_frame * self.pages_per_frame)
    }

    /// Index of the frame containing `vpn`.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` lies at or past the footprint.
    fn frame_index(&self, vpn: PageId) -> usize {
        assert!(
            vpn.vpn() < self.footprint_pages,
            "{vpn} is outside the footprint of {} pages",
            self.footprint_pages
        );
        (vpn.vpn() / self.pages_per_frame) as usize
    }

    /// The frame base when `vpn` lies inside a coalesced frame — also
    /// the key under which the large translation lives in the 2 MB TLBs.
    pub fn coalesced_frame(&self, vpn: PageId) -> Option<PageId> {
        self.frame_owner(vpn).map(|_| self.frame_base(vpn))
    }

    /// The GPU owning the coalesced frame containing `vpn`, if any.
    pub fn frame_owner(&self, vpn: PageId) -> Option<GpuId> {
        if self.coalesced == 0 {
            return None;
        }
        self.frames[self.frame_index(vpn)]
    }

    /// Number of frames currently coalesced.
    pub fn coalesced_now(&self) -> u64 {
        self.coalesced
    }

    /// Cumulative activity counters.
    pub fn counters(&self) -> &PageSizeCounters {
        &self.counters
    }

    /// Checks whether the frame containing `vpn` is eligible for
    /// coalescing. `private_owner` reports, from the authoritative page
    /// table, the GPU holding a base page privately: its owner when the
    /// page is GPU-resident with no replicas, `None` otherwise. Eligible
    /// means: the table is enabled, the frame is not already coalesced,
    /// it lies entirely inside the footprint, and one GPU holds every
    /// base page privately. A GPU owns only pages it has touched, so a
    /// coalesced frame is always fully touched.
    ///
    /// Returns the frame base and owning GPU when eligible.
    pub fn coalesce_candidate(
        &self,
        vpn: PageId,
        mut private_owner: impl FnMut(PageId) -> Option<GpuId>,
    ) -> Option<(PageId, GpuId)> {
        if !self.enabled() || self.frame_owner(vpn).is_some() {
            return None;
        }
        let base = self.frame_index(vpn) as u64 * self.pages_per_frame;
        if base + self.pages_per_frame > self.footprint_pages {
            // A frame straddling the end of the footprint can never be
            // fully resident; real systems would not back it with a
            // large page either.
            return None;
        }
        let mut owner: Option<GpuId> = None;
        for i in 0..self.pages_per_frame {
            let page_owner = private_owner(PageId(base + i))?;
            match owner {
                None => owner = Some(page_owner),
                Some(o) if o != page_owner => return None,
                Some(_) => {}
            }
        }
        owner.map(|o| (PageId(base), o))
    }

    /// Records the frame at `frame_base` as coalesced under `owner`.
    /// Idempotent for an already-coalesced frame (the counters only move
    /// on a real transition).
    pub fn coalesce(&mut self, frame_base: PageId, owner: GpuId) {
        if !self.enabled() {
            return;
        }
        let frame = self.frame_index(frame_base);
        if self.frames[frame].replace(owner).is_none() {
            self.coalesced += 1;
            self.counters.coalesces += 1;
            self.counters.coalesced_peak = self.counters.coalesced_peak.max(self.coalesced);
        }
    }

    /// Splinters the frame containing `vpn`, if coalesced, recording
    /// `cause`; returns the frame base and the owner the frame had (for
    /// trace events and the owner's large-TLB shootdown). A no-op
    /// returning `None` when the frame was not coalesced, so callers hook
    /// every sharing/eviction path unconditionally.
    pub fn splinter(&mut self, vpn: PageId, cause: SplinterCause) -> Option<(PageId, GpuId)> {
        if self.coalesced == 0 {
            return None;
        }
        let frame = self.frame_index(vpn);
        let owner = self.frames[frame].take()?;
        self.coalesced -= 1;
        match cause {
            SplinterCause::FalseSharing => self.counters.splinters_false_sharing += 1,
            SplinterCause::Eviction => self.counters.splinters_eviction += 1,
            SplinterCause::Retirement => self.counters.splinters_retirement += 1,
        }
        Some((self.frame_base(vpn), owner))
    }

    /// Records an access-counter trip: `aliased_groups` is zero for a
    /// trip on an ordinary 64 KB group and the number of base 64 KB
    /// groups folded into the frame group for a trip on a coalesced
    /// frame.
    pub fn note_counter_trip(&mut self, aliased_groups: u64) {
        if aliased_groups == 0 {
            self.counters.counter_trips_base += 1;
        } else {
            self.counters.counter_trips_large += 1;
            self.counters.counter_groups_aliased += aliased_groups;
        }
    }

    /// The counters as the fixed-order `pagesize_counters` aux series:
    /// `[coalesces, splinters_false_sharing, splinters_eviction,
    /// splinters_retirement, counter_trips_base, counter_trips_large,
    /// counter_groups_aliased, coalesced_peak, coalesced_now]`. The
    /// `ext-pagesize` study and `perfbench` read slots by this order.
    pub fn counter_series(&self) -> Vec<f64> {
        let c = &self.counters;
        vec![
            c.coalesces as f64,
            c.splinters_false_sharing as f64,
            c.splinters_eviction as f64,
            c.splinters_retirement as f64,
            c.counter_trips_base as f64,
            c.counter_trips_large as f64,
            c.counter_groups_aliased as f64,
            c.coalesced_peak as f64,
            self.coalesced as f64,
        ]
    }
}
