//! Tree-based neighborhood prefetching (Ganguly et al., ISCA 2019), the
//! NVIDIA-driver prefetcher the paper combines with GRIT in §VI-E.
//!
//! The driver maintains full binary trees whose roots span 2 MB regions and
//! whose leaves are 64 KB basic blocks (32 leaves per region). It monitors
//! per-GPU occupancy of every tree node; when a GPU's occupancy of a
//! non-leaf node exceeds 50 % of the node's capacity, the remaining leaves
//! under that node are prefetched to that GPU.

use grit_sim::{FxHashMap, GpuId, PageId};
use grit_uvm::Prefetcher;

/// 4 KB pages per 64 KB leaf block.
pub const PAGES_PER_LEAF: u64 = 16;
/// 64 KB leaves per 2 MB region (tree root capacity).
pub const LEAVES_PER_REGION: u64 = 32;
/// 4 KB pages per 2 MB region.
pub const PAGES_PER_REGION: u64 = PAGES_PER_LEAF * LEAVES_PER_REGION;

/// Per-(region, GPU) leaf-occupancy bitmap.
type OccupancyKey = (u64, GpuId);

/// The tree-based neighborhood prefetcher.
///
/// ```
/// use grit_baselines::TreePrefetcher;
/// use grit_sim::{GpuId, PageId};
/// use grit_uvm::Prefetcher;
/// let mut p = TreePrefetcher::new();
/// // One leaf of a pair is not yet a majority: nothing to prefetch.
/// assert!(p.on_fill(GpuId::new(0), PageId(0), 1024).is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct TreePrefetcher {
    /// 32-bit leaf bitmap per (2 MB region, GPU).
    occupancy: FxHashMap<OccupancyKey, u32>,
    prefetches_issued: u64,
}

impl TreePrefetcher {
    /// Creates the prefetcher.
    pub fn new() -> Self {
        TreePrefetcher::default()
    }

    /// Total pages nominated for prefetch so far.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// Leaf index of a page within its region.
    fn leaf_of(vpn: PageId) -> u32 {
        ((vpn.vpn() % PAGES_PER_REGION) / PAGES_PER_LEAF) as u32
    }

    /// Region index of a page.
    fn region_of(vpn: PageId) -> u64 {
        vpn.vpn() / PAGES_PER_REGION
    }
}

impl Prefetcher for TreePrefetcher {
    fn on_fill(&mut self, gpu: GpuId, vpn: PageId, footprint_pages: u64) -> Vec<PageId> {
        let region = Self::region_of(vpn);
        let leaf = Self::leaf_of(vpn);
        let bitmap = self.occupancy.entry((region, gpu)).or_insert(0);
        *bitmap |= 1 << leaf;

        // Walk the binary tree bottom-up: node sizes 2, 4, 8, 16, 32
        // leaves. Find the largest node containing this leaf whose
        // occupancy exceeds half its capacity, then prefetch its untouched
        // leaves.
        let mut chosen: Option<(u32, u32)> = None; // (node_start_leaf, node_size)
        let mut size = 2u32;
        while size <= LEAVES_PER_REGION as u32 {
            let start = leaf / size * size;
            let mask = if size == 32 {
                u32::MAX
            } else {
                ((1u32 << size) - 1) << start
            };
            let occupied = (*bitmap & mask).count_ones();
            if occupied * 2 > size {
                chosen = Some((start, size));
            }
            size *= 2;
        }

        let Some((start, size)) = chosen else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for l in start..start + size {
            if *bitmap & (1 << l) != 0 {
                continue;
            }
            *bitmap |= 1 << l;
            let first_page = region * PAGES_PER_REGION + l as u64 * PAGES_PER_LEAF;
            for p in first_page..(first_page + PAGES_PER_LEAF).min(footprint_pages) {
                out.push(PageId(p));
            }
        }
        self.prefetches_issued += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_leaf_of_a_pair_triggers_sibling_prefetch() {
        let mut p = TreePrefetcher::new();
        let g = GpuId::new(0);
        // First leaf of the pair (leaf 0): occupancy 1/2 = not > 50%.
        let out = p.on_fill(g, PageId(0), 10_000);
        // Node of size 2 with one leaf occupied: 1*2 > 2 is false.
        assert!(out.is_empty());
        // Second touch lands in leaf 1 -> pair fully occupied -> larger
        // nodes may trigger: node size 4 has 2/4 occupied (not > 50%)...
        let out = p.on_fill(g, PageId(PAGES_PER_LEAF), 10_000);
        // Pair node (leaves 0-1) is 100% occupied but has nothing left to
        // prefetch; size-4 node is exactly 50% (not >). Nothing emitted.
        assert!(out.is_empty());
        // Touch leaf 2: size-4 node now 3/4 occupied -> leaf 3 prefetched.
        let out = p.on_fill(g, PageId(2 * PAGES_PER_LEAF), 10_000);
        assert_eq!(out.len(), PAGES_PER_LEAF as usize);
        assert_eq!(out[0], PageId(3 * PAGES_PER_LEAF));
    }

    #[test]
    fn occupancy_is_per_gpu() {
        let mut p = TreePrefetcher::new();
        p.on_fill(GpuId::new(0), PageId(0), 10_000);
        p.on_fill(GpuId::new(0), PageId(PAGES_PER_LEAF), 10_000);
        // GPU1 starts cold in the same region.
        let out = p.on_fill(GpuId::new(1), PageId(0), 10_000);
        assert!(out.is_empty());
    }

    #[test]
    fn footprint_bounds_prefetch_targets() {
        let mut p = TreePrefetcher::new();
        let g = GpuId::new(0);
        p.on_fill(g, PageId(0), 40);
        p.on_fill(g, PageId(16), 40);
        let out = p.on_fill(g, PageId(32), 40);
        // Leaf 3 covers pages 48..64 but the footprint ends at 40.
        assert!(out.is_empty());
    }

    #[test]
    fn prefetched_leaves_not_renominated() {
        let mut p = TreePrefetcher::new();
        let g = GpuId::new(0);
        p.on_fill(g, PageId(0), 10_000);
        p.on_fill(g, PageId(16), 10_000);
        let first = p.on_fill(g, PageId(32), 10_000);
        assert!(!first.is_empty());
        // Touching the prefetched leaf again emits nothing new for it.
        let again = p.on_fill(g, PageId(48), 10_000);
        assert!(!again.iter().any(|pg| pg.vpn() < 64));
        assert!(p.prefetches_issued() >= first.len() as u64);
    }

    #[test]
    fn region_math() {
        assert_eq!(TreePrefetcher::region_of(PageId(511)), 0);
        assert_eq!(TreePrefetcher::region_of(PageId(512)), 1);
        assert_eq!(TreePrefetcher::leaf_of(PageId(17)), 1);
        assert_eq!(PAGES_PER_REGION, 512);
    }
}
