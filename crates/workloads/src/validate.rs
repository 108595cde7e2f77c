//! Workload validation: checks a generated trace against the paper's
//! documented characterization of its benchmark (Table II access pattern,
//! Fig. 4 sharing mix, Fig. 9 read/write mix, §VI-A shared-RW shares).
//!
//! Used by the test suite and the `repro` tooling to guard the trace
//! generators against drift: a refactor that silently turns FIR into a
//! shared workload would invalidate half the evaluation.

use grit_metrics::PageAttrSummary;

use crate::builder::MultiGpuWorkload;
use crate::spec::App;

/// Expected characterization band for one application.
#[derive(Clone, Copy, Debug)]
pub struct Expectation {
    /// Inclusive band for the fraction of pages shared by >1 GPU.
    pub shared_pages: (f64, f64),
    /// Inclusive band for the fraction of accesses that are writes.
    pub write_accesses: (f64, f64),
    /// Inclusive band for the fraction of pages that are shared *and*
    /// written (§VI-A's hard class).
    pub shared_rw_pages: (f64, f64),
}

impl Expectation {
    /// The paper-derived band for `app`.
    pub fn for_app(app: App) -> Expectation {
        match app {
            // Almost all pages shared, read-dominated (Figs. 4/9).
            App::Bfs => Expectation {
                shared_pages: (0.80, 1.0),
                write_accesses: (0.0, 0.15),
                shared_rw_pages: (0.0, 0.5),
            },
            // All-shared, ~50/50 reads and writes.
            App::Bs => Expectation {
                shared_pages: (0.80, 1.0),
                write_accesses: (0.35, 0.65),
                shared_rw_pages: (0.45, 1.0),
            },
            // Mixed private weights / PC-shared activations (§VI-A: 42 %).
            App::C2d => Expectation {
                shared_pages: (0.30, 0.92),
                write_accesses: (0.10, 0.60),
                shared_rw_pages: (0.25, 0.95),
            },
            // Almost all private.
            App::Fir | App::Sc => Expectation {
                shared_pages: (0.0, 0.05),
                write_accesses: (0.10, 0.55),
                shared_rw_pages: (0.0, 0.05),
            },
            // Roughly half shared (read-only inputs), private RW outputs.
            App::Gemm | App::Mm => Expectation {
                shared_pages: (0.30, 0.70),
                write_accesses: (0.05, 0.40),
                shared_rw_pages: (0.0, 0.10),
            },
            // Practically everything shared read-write (§VI-A: 99 %).
            App::St => Expectation {
                shared_pages: (0.90, 1.0),
                write_accesses: (0.15, 0.55),
                shared_rw_pages: (0.85, 1.0),
            },
            // Model parallel: private weights dominate; activations +
            // replicated parameters shared.
            App::Vgg16 | App::Resnet18 => Expectation {
                shared_pages: (0.05, 0.60),
                write_accesses: (0.15, 0.70),
                shared_rw_pages: (0.0, 0.30),
            },
            // Extension: private structure, shared gathered vectors.
            App::Spmv => Expectation {
                shared_pages: (0.15, 0.50),
                write_accesses: (0.02, 0.30),
                shared_rw_pages: (0.0, 0.10),
            },
            App::Pagerank => Expectation {
                shared_pages: (0.25, 0.65),
                write_accesses: (0.02, 0.30),
                shared_rw_pages: (0.10, 0.65),
            },
        }
    }
}

/// Validates a workload against its application's expected band and
/// returns the summary of its page attributes.
///
/// # Errors
///
/// Returns a description of the first band violated.
pub fn validate(app: App, workload: &MultiGpuWorkload) -> Result<PageAttrSummary, String> {
    let s = workload.page_attrs().summary();
    let e = Expectation::for_app(app);
    let check = |name: &str, v: f64, (lo, hi): (f64, f64)| {
        if v < lo || v > hi {
            Err(format!("{app}: {name} {v:.3} outside [{lo:.2}, {hi:.2}]"))
        } else {
            Ok(())
        }
    };
    check("shared-page fraction", s.shared_page_frac(), e.shared_pages)?;
    check(
        "write-access fraction",
        s.write_access_frac(),
        e.write_accesses,
    )?;
    check(
        "shared-RW-page fraction",
        s.shared_read_write_frac(),
        e.shared_rw_pages,
    )?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkloadBuilder;

    fn build(app: App) -> MultiGpuWorkload {
        WorkloadBuilder::new(app).scale(0.04).intensity(1.5).seed(0xBEEF).build()
    }

    #[test]
    fn every_app_passes_its_own_band() {
        for app in App::TABLE2.iter().chain(App::DNN.iter()).chain(App::EXTRA.iter()) {
            let s = validate(*app, &build(*app))
                .unwrap_or_else(|e| panic!("characterization drifted: {e}"));
            assert!(s.total_pages > 0 && s.accesses() > 0);
        }
    }

    #[test]
    fn bands_discriminate_between_apps() {
        // ST's trace must *fail* FIR's band (and vice versa): the bands are
        // tight enough to catch a generator mix-up.
        assert!(validate(App::Fir, &build(App::St)).is_err());
        assert!(validate(App::St, &build(App::Fir)).is_err());
        assert!(validate(App::Bfs, &build(App::Bs)).is_err());
    }

    #[test]
    fn characterize_counts_exactly() {
        use crate::common::GpuTrace;
        use grit_sim::{PageId, SimRng, SliceStream};
        let mut t0 = GpuTrace::new(SimRng::seeded(1), 64, 4);
        t0.read(PageId(0));
        t0.write(PageId(1));
        let mut t1 = GpuTrace::new(SimRng::seeded(2), 64, 4);
        t1.read(PageId(1));
        let w = MultiGpuWorkload {
            app: App::Bfs,
            footprint_pages: 2,
            streams: vec![
                SliceStream::new(t0.into_accesses()),
                SliceStream::new(t1.into_accesses()),
            ],
            barriers: vec![vec![], vec![]],
        };
        let s = w.page_attrs().summary();
        assert_eq!(s.total_pages, 2);
        assert_eq!(s.accesses(), 3);
        assert!((s.shared_page_frac() - 0.5).abs() < 1e-12); // page 1 only
        assert!((s.write_access_frac() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.shared_read_write_frac() - 0.5).abs() < 1e-12);
    }
}
