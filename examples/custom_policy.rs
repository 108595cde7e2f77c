//! Implementing a custom page-placement policy against the UVM driver's
//! `PlacementPolicy` trait — here a "read-duplicate, write-migrate" policy
//! that decides per fault from the access type alone, with no tracking
//! state at all. Compare it to GRIT on a read-heavy and a write-heavy
//! workload.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use grit::experiments::PolicyKind;
use grit::prelude::*;
use grit_uvm::{CentralPageTable, FaultInfo, PageState, PolicyDecision, Resolution};

/// Duplicate on read faults, migrate on write faults. Stateless: the
/// simplest conceivable "fine-grained" policy, and a useful strawman — it
/// reacts to the *current* access instead of the page's history, so it
/// re-duplicates pages that are about to be written and migrates pages
/// that are about to be shared.
struct ReadDupWriteMigrate;

impl PlacementPolicy for ReadDupWriteMigrate {
    fn on_fault(
        &mut self,
        fault: &FaultInfo,
        _page: &PageState,
        table: &mut CentralPageTable,
    ) -> PolicyDecision {
        let (scheme, resolution) = if fault.kind.is_write() {
            (Scheme::OnTouch, Resolution::Migrate)
        } else {
            (Scheme::Duplication, Resolution::Duplicate)
        };
        table.set_scheme(fault.vpn, scheme);
        PolicyDecision::plain(resolution)
    }
}

fn run(app: App, policy: Box<dyn PlacementPolicy>) -> u64 {
    let cfg = SimConfig::default();
    let workload = WorkloadBuilder::new(app).scale(0.08).intensity(2.0).seed(7).build();
    let sim = Simulation::try_new(cfg, workload, policy).expect("valid configuration");
    sim.try_run().expect("run failed").metrics.total_cycles
}

fn grit(app: App) -> u64 {
    let cfg = SimConfig::default();
    let workload = WorkloadBuilder::new(app).scale(0.08).intensity(2.0).seed(7).build();
    let p = PolicyKind::GRIT.build(&cfg, workload.footprint_pages);
    let sim = Simulation::try_new(cfg, workload, p).expect("valid configuration");
    sim.try_run().expect("run failed").metrics.total_cycles
}

fn main() {
    println!("Custom policy vs GRIT (cycles, lower is better)\n");
    println!(
        "{:<6} {:>14} {:>14} {:>10}",
        "app", "custom", "grit", "grit wins"
    );
    for app in [App::Bfs, App::Gemm, App::Bs, App::St] {
        let custom = run(app, Box::new(ReadDupWriteMigrate));
        let g = grit(app);
        println!(
            "{:<6} {:>14} {:>14} {:>9.2}x",
            app.abbr(),
            custom,
            g,
            custom as f64 / g as f64
        );
    }
    println!("\nThe stateless policy thrashes on read-write shared pages (BS, ST):");
    println!("every read re-duplicates what the next write collapses. GRIT's");
    println!("fault counting and read/write bit avoid exactly that ping-pong.");
}
