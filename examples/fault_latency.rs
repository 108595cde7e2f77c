//! Fault-latency distributions: how long does one page fault take, end to
//! end, under each placement policy? The serial UVM service queue makes
//! the *tail* — not the mean — the interesting number (the reason fault
//! counts correlate with performance in Fig. 18).
//!
//! ```text
//! cargo run --release --example fault_latency [APP]
//! ```

use grit::experiments::PolicyKind;
use grit::prelude::*;
use grit_metrics::LatencyHistogram;

fn main() {
    let app = std::env::args()
        .nth(1)
        .map(|s| {
            App::TABLE2
                .into_iter()
                .find(|a| a.abbr().eq_ignore_ascii_case(&s))
                .unwrap_or_else(|| panic!("unknown app {s}"))
        })
        .unwrap_or(App::Bs);

    println!(
        "Fault-handling latency under each policy — {}\n",
        app.abbr()
    );
    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "policy", "faults", "mean", "p50", "p99", "max"
    );
    for policy in [
        PolicyKind::Static(Scheme::OnTouch),
        PolicyKind::Static(Scheme::AccessCounter),
        PolicyKind::Static(Scheme::Duplication),
        PolicyKind::GRIT,
    ] {
        let cfg = SimConfig::default();
        let w = WorkloadBuilder::new(app).scale(0.08).intensity(2.0).seed(5).build();
        let p = policy.build(&cfg, w.footprint_pages);
        let sim = Simulation::try_new(cfg, w, p).expect("valid configuration");
        let out = sim.try_run().expect("run failed");
        let fl = LatencyHistogram::from_flat(
            out.metrics
                .aux("fault_latency_hist")
                .expect("runner always records the histogram"),
        );
        println!(
            "{:<16} {:>8} {:>10.0} {:>10} {:>10} {:>12}",
            policy.label(),
            fl.samples(),
            fl.mean(),
            fl.percentile(0.5),
            fl.percentile(0.99),
            fl.max()
        );
    }
    println!("\nA fault's cost is dominated by the serial driver service under");
    println!("fault storms: policies that raise fewer faults (duplication on");
    println!("read-shared data, GRIT once adapted) also see shorter queues.");
}
