//! Reproduce the paper's §IV characterization on any workload: page
//! sharing and read/write attributes (Figs. 4 & 9), the per-interval GPU
//! mix of the hottest shared page (Fig. 5), and the neighbor-agreement
//! behind Neighboring-Aware Prediction (Figs. 6–8).
//!
//! ```text
//! cargo run --release --example page_attribute_analysis [APP]
//! ```

use grit::experiments::{run_cell, run_cell_with, ExpConfig, PolicyKind};
use grit::prelude::*;

fn main() {
    let app = std::env::args()
        .nth(1)
        .map(|s| {
            App::TABLE2
                .into_iter()
                .find(|a| a.abbr().eq_ignore_ascii_case(&s))
                .unwrap_or_else(|| {
                    panic!("unknown app {s}; use one of BFS BS C2D FIR GEMM MM SC ST")
                })
        })
        .unwrap_or(App::St);
    let exp = ExpConfig {
        scale: 0.08,
        intensity: 2.0,
        seed: 42,
    };

    // Whole-run attributes are properties of the trace.
    let attrs = CellSpec::new(app, PolicyKind::Static(Scheme::OnTouch), &exp)
        .workload()
        .page_attrs();
    let s = attrs.summary();
    println!(
        "=== {} ({}, {} pattern) ===",
        app.abbr(),
        app.full_name(),
        format_args!("{:?}", app.pattern())
    );
    println!("pages touched: {}", s.total_pages);
    println!(
        "private {:>5.1}% | shared {:>5.1}%   (accesses: {:>5.1}% / {:>5.1}%)",
        100.0 * (1.0 - s.shared_page_frac()),
        100.0 * s.shared_page_frac(),
        100.0 * (1.0 - s.shared_access_frac()),
        100.0 * s.shared_access_frac(),
    );
    println!(
        "read    {:>5.1}% | rd-wr  {:>5.1}%   (accesses: {:>5.1}% / {:>5.1}%)",
        100.0 * (1.0 - s.read_write_page_frac()),
        100.0 * s.read_write_page_frac(),
        100.0 * (1.0 - s.read_write_access_frac()),
        100.0 * s.read_write_access_frac(),
    );
    println!(
        "shared read-write: {:.1}%",
        100.0 * s.shared_read_write_frac()
    );

    // Track the hottest shared page over time (Fig. 5 style); an
    // on-touch run sizes the intervals.
    if let Some(page) = attrs.hottest(2) {
        let scout = run_cell(app, PolicyKind::Static(Scheme::OnTouch), &exp);
        let interval = (scout.metrics.total_cycles / 24).max(1);
        let obs = ObserverConfig {
            track_page: Some(page),
            interval_cycles: interval,
            grid_page_bins: 64,
            scheme_timeline: false,
        };
        let out = run_cell_with(
            app,
            PolicyKind::Static(Scheme::OnTouch),
            &exp,
            SimConfig::default(),
            Some(obs),
        );
        let observer = out.observer.expect("observer configured");

        println!("\nhottest shared page: {page}");
        println!("per-interval access mix (each row: % by GPU0..GPU3):");
        for (i, fr) in observer.page_by_gpu.fractions().iter().enumerate().take(16) {
            let bars: String = fr
                .iter()
                .map(|f| match (f * 4.0).round() as u32 {
                    0 => '.',
                    1 => '-',
                    2 => '+',
                    3 => '*',
                    _ => '#',
                })
                .collect();
            println!(
                "  interval {i:>2}  [{bars}]  {:?}",
                fr.iter().map(|f| (100.0 * f).round() as u32).collect::<Vec<_>>()
            );
        }

        if let Some(grid) = &observer.grid_private_shared {
            println!(
                "\nneighbor-page attribute agreement (the §IV-C observation NAP exploits): {:.1}%",
                100.0 * grid.neighbor_agreement()
            );
        }
    } else {
        println!("\n(no shared page to track — the workload is fully private)");
    }
}
