//! Workload construction: turns an [`App`] into per-GPU access streams.

use grit_metrics::PageAttrTracker;
use grit_sim::{ConfigError, SimRng, SliceStream};

use crate::apps;
use crate::common::GpuTrace;
use crate::spec::App;

/// Generation context handed to the per-app generators.
#[derive(Clone, Debug)]
pub struct GenCtx {
    /// GPUs in the node.
    pub num_gpus: usize,
    /// Footprint in pages.
    pub pages: u64,
    /// Cache lines per page.
    pub lines_per_page: u16,
    /// Multiplies iteration/pass counts (trace length knob).
    pub intensity: f64,
    /// Deterministic random source.
    pub rng: SimRng,
}

impl GenCtx {
    /// `n` scaled by the intensity, at least 1.
    pub fn reps(&self, n: u64) -> u64 {
        ((n as f64 * self.intensity).round() as u64).max(1)
    }

    /// Per-GPU trace sinks with the given think time.
    pub fn sinks(&mut self, think: u32) -> Vec<GpuTrace> {
        crate::common::make_sinks(&mut self.rng, self.num_gpus, self.lines_per_page, think)
    }
}

/// Builder for a multi-GPU workload trace.
///
/// ```
/// use grit_workloads::{App, WorkloadBuilder};
///
/// let w = WorkloadBuilder::new(App::Gemm)
///     .num_gpus(4)
///     .scale(0.05)
///     .seed(7)
///     .build();
/// assert!(w.footprint_pages > 0);
/// assert_eq!(w.streams.len(), 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WorkloadBuilder {
    app: App,
    num_gpus: usize,
    scale: f64,
    intensity: f64,
    seed: u64,
    page_size: u64,
}

impl WorkloadBuilder {
    /// A builder for `app` with the paper's defaults: 4 GPUs, 4 KB pages,
    /// full-scale footprint.
    pub fn new(app: App) -> Self {
        WorkloadBuilder {
            app,
            num_gpus: 4,
            scale: 1.0,
            intensity: 1.0,
            seed: 0xBEEF,
            page_size: grit_sim::PAGE_SIZE_4K,
        }
    }

    /// Sets the GPU count (Figs. 22–24 sweep 2/8/16).
    pub fn num_gpus(mut self, n: usize) -> Self {
        self.num_gpus = n;
        self
    }

    /// Scales the memory footprint (fraction of Table II's size). The
    /// large-page study (§VI-B3) *enlarges* inputs with `scale > 1`.
    pub fn scale(mut self, s: f64) -> Self {
        self.scale = s;
        self
    }

    /// Scales trace length (iterations/passes) independently of footprint.
    pub fn intensity(mut self, i: f64) -> Self {
        self.intensity = i;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the page size (4 KB baseline, 2 MB in §VI-B3).
    pub fn page_size(mut self, bytes: u64) -> Self {
        self.page_size = bytes;
        self
    }

    /// Generates the workload.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero GPUs, more than 16
    /// GPUs, non-finite or non-positive scale, or a page size
    /// [`try_build`] rejects).
    ///
    /// [`try_build`]: WorkloadBuilder::try_build
    pub fn build(self) -> MultiGpuWorkload {
        assert!(
            self.num_gpus > 0 && self.num_gpus <= 16,
            "GPU count out of range"
        );
        match self.try_build() {
            Ok(w) => w,
            Err(e) => panic!("invalid workload configuration: {e}"),
        }
    }

    /// Generates the workload, reporting degenerate configurations as a
    /// [`ConfigError`] instead of panicking: GPU count outside 1–16,
    /// non-finite or non-positive scale or intensity, a non-power-of-two
    /// page size, a page size whose line count overflows the simulator's
    /// 16-bit line indices, or a page size larger than the scaled
    /// footprint (the whole working set must span at least one page).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn try_build(self) -> Result<MultiGpuWorkload, ConfigError> {
        if self.num_gpus == 0 || self.num_gpus > 16 {
            return Err(ConfigError::new(
                "num_gpus",
                format!("{} out of range 1..=16", self.num_gpus),
            ));
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(ConfigError::new("scale", "must be finite and positive"));
        }
        if !(self.intensity.is_finite() && self.intensity > 0.0) {
            return Err(ConfigError::new("intensity", "must be finite and positive"));
        }
        let lines_per_page = grit_sim::lines_per_page_checked(self.page_size)?;
        let footprint_bytes = (self.app.footprint_bytes() as f64 * self.scale).ceil() as u64;
        if self.page_size > footprint_bytes {
            return Err(ConfigError::new(
                "page_size",
                format!(
                    "{} exceeds the scaled footprint of {footprint_bytes} bytes \
                     ({} at scale {})",
                    self.page_size,
                    self.app.abbr(),
                    self.scale
                ),
            ));
        }
        let pages = (((self.app.footprint_bytes() as f64 * self.scale) / self.page_size as f64)
            .ceil() as u64)
            .max(64);
        let mut ctx = GenCtx {
            num_gpus: self.num_gpus,
            pages,
            lines_per_page,
            intensity: self.intensity,
            rng: SimRng::seeded(self.seed ^ (self.app.abbr().len() as u64) << 32 ^ pages),
        };
        let sinks = apps::generate(self.app, &mut ctx);
        assert_eq!(sinks.len(), self.num_gpus, "generator must fill every GPU");
        let mut streams = Vec::with_capacity(sinks.len());
        let mut barriers = Vec::with_capacity(sinks.len());
        for s in sinks {
            let (acc, bars) = s.into_parts();
            streams.push(SliceStream::new(acc));
            barriers.push(bars);
        }
        let phases = barriers[0].len();
        assert!(
            barriers.iter().all(|b| b.len() == phases),
            "every GPU must see the same kernel-boundary count"
        );
        Ok(MultiGpuWorkload {
            app: self.app,
            footprint_pages: pages,
            streams,
            barriers,
        })
    }
}

/// A generated multi-GPU trace.
#[derive(Clone, Debug)]
pub struct MultiGpuWorkload {
    /// The generating application.
    pub app: App,
    /// Virtual pages in the footprint.
    pub footprint_pages: u64,
    /// One access stream per GPU.
    pub streams: Vec<SliceStream>,
    /// Kernel boundaries per GPU (positions within each stream); all GPUs
    /// carry the same number of boundaries and the runner synchronizes the
    /// node at each one.
    pub barriers: Vec<Vec<usize>>,
}

impl MultiGpuWorkload {
    /// Total accesses across all GPUs.
    pub fn total_accesses(&self) -> u64 {
        self.streams.iter().map(|s| s.remaining() as u64).sum()
    }

    /// The page attributes of the trace (paper §IV-B: private vs shared,
    /// read vs read-write), over every access the streams have left.
    /// Computed anew on each call, from the streams alone.
    pub fn page_attrs(&self) -> PageAttrTracker {
        PageAttrTracker::from_streams(self.footprint_pages, self.streams.iter().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_generates_for_every_gpu() {
        for app in App::TABLE2.iter().chain(App::DNN.iter()).chain(App::EXTRA.iter()) {
            let w = WorkloadBuilder::new(*app).scale(0.02).intensity(0.5).build();
            assert_eq!(w.streams.len(), 4, "{app}");
            assert!(w.total_accesses() > 0, "{app}");
            for (g, s) in w.streams.iter().enumerate() {
                assert!(s.remaining() > 0, "{app} GPU{g} got no work");
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let a = WorkloadBuilder::new(App::Bfs).scale(0.02).seed(5).build();
        let b = WorkloadBuilder::new(App::Bfs).scale(0.02).seed(5).build();
        let (mut sa, mut sb) = (a.streams, b.streams);
        for (x, y) in sa.iter_mut().zip(sb.iter_mut()) {
            loop {
                let (ax, ay) = (x.next_access(), y.next_access());
                assert_eq!(ax, ay);
                if ax.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = WorkloadBuilder::new(App::Bfs).scale(0.02).seed(5).build().streams;
        let mut b = WorkloadBuilder::new(App::Bfs).scale(0.02).seed(6).build().streams;
        let mut same = true;
        for _ in 0..200 {
            if a[0].next_access() != b[0].next_access() {
                same = false;
                break;
            }
        }
        assert!(!same);
    }

    #[test]
    fn accesses_stay_in_footprint() {
        for app in App::TABLE2 {
            let w = WorkloadBuilder::new(app).scale(0.02).intensity(0.5).build();
            for mut s in w.streams {
                while let Some(a) = s.next_access() {
                    assert!(
                        a.vpn.vpn() < w.footprint_pages,
                        "{app}: page {} out of {}",
                        a.vpn,
                        w.footprint_pages
                    );
                }
            }
        }
    }

    #[test]
    fn scale_changes_footprint() {
        let small = WorkloadBuilder::new(App::Fir).scale(0.01).build();
        let large = WorkloadBuilder::new(App::Fir).scale(0.05).build();
        assert!(large.footprint_pages > small.footprint_pages);
    }

    #[test]
    fn large_pages_shrink_page_count() {
        let w4k = WorkloadBuilder::new(App::St).scale(0.5).build();
        let w2m = WorkloadBuilder::new(App::St)
            .scale(0.5)
            .page_size(grit_sim::PAGE_SIZE_2M)
            .build();
        assert!(w2m.footprint_pages < w4k.footprint_pages);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_gpus_rejected() {
        let _ = WorkloadBuilder::new(App::Bfs).num_gpus(0).build();
    }

    #[test]
    fn try_build_rejects_degenerate_page_sizes() {
        // Non-power-of-two.
        let err = WorkloadBuilder::new(App::Bfs).page_size(3000).try_build().unwrap_err();
        assert_eq!(err.field, "page_size");
        // Line count would overflow u16 (the old `as u16` cast truncated
        // 4 MB pages to zero lines).
        let err = WorkloadBuilder::new(App::Bfs)
            .page_size(4 * 1024 * 1024)
            .try_build()
            .unwrap_err();
        assert_eq!(err.field, "page_size");
        assert!(err.reason.contains("overflows"), "{}", err.reason);
        // Page larger than the scaled footprint.
        let err = WorkloadBuilder::new(App::Bfs)
            .scale(1e-6)
            .page_size(grit_sim::PAGE_SIZE_2M)
            .try_build()
            .unwrap_err();
        assert_eq!(err.field, "page_size");
        assert!(err.reason.contains("footprint"), "{}", err.reason);
        // Scale and intensity must be finite and positive, GPU count in
        // range.
        for bad in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            assert_eq!(
                WorkloadBuilder::new(App::Bfs).scale(bad).try_build().unwrap_err().field,
                "scale",
                "{bad}"
            );
            assert_eq!(
                WorkloadBuilder::new(App::Bfs).intensity(bad).try_build().unwrap_err().field,
                "intensity",
                "{bad}"
            );
        }
        assert_eq!(
            WorkloadBuilder::new(App::Bfs).num_gpus(17).try_build().unwrap_err().field,
            "num_gpus"
        );
        // A valid configuration still builds.
        let w = WorkloadBuilder::new(App::Bfs).scale(0.02).try_build().unwrap();
        assert!(w.total_accesses() > 0);
    }

    #[test]
    #[should_panic(expected = "invalid workload configuration")]
    fn build_panics_on_truncating_page_size() {
        let _ = WorkloadBuilder::new(App::Bfs).page_size(4 * 1024 * 1024).build();
    }
}
