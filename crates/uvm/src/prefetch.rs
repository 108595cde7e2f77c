//! Prefetcher abstraction (Fig. 30 combines placement policies with the
//! CUDA-driver tree-based neighborhood prefetcher of Ganguly et al.).
//!
//! The concrete tree prefetcher lives in `grit-baselines::prefetch`; the
//! driver only needs this hook: after a page lands on a GPU, the prefetcher
//! nominates cold neighbor pages to pull in alongside it.

use grit_sim::{GpuId, PageId};

/// A page prefetcher attached to the UVM driver.
pub trait Prefetcher {
    /// Called after `vpn` became resident on `gpu`; returns candidate pages
    /// to prefetch onto the same GPU. `footprint_pages` bounds the valid
    /// VPN range. The driver skips candidates that are already placed.
    fn on_fill(&mut self, gpu: GpuId, vpn: PageId, footprint_pages: u64) -> Vec<PageId>;
}
