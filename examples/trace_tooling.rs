//! Trace tooling: generate a workload, validate it against its paper
//! characterization band, serialize it to the versioned binary format,
//! load it back, and replay it through the simulator — all bit-identical.
//!
//! ```text
//! cargo run --release --example trace_tooling
//! ```

use grit::experiments::PolicyKind;
use grit::prelude::*;
use grit_workloads::{read_trace, validate, write_trace};

fn main() {
    let app = App::St;
    let build = || WorkloadBuilder::new(app).scale(0.05).intensity(1.5).seed(99).build();

    // 1. Validate the generated trace against the paper's band for ST.
    let s = validate(app, &build()).expect("ST must match its characterization band");
    println!("== generated {} trace ==", app.abbr());
    println!("pages:      {}", s.total_pages);
    println!("accesses:   {}", s.accesses());
    println!("shared:     {:.1}% of pages", 100.0 * s.shared_page_frac());
    println!(
        "writes:     {:.1}% of accesses",
        100.0 * s.write_access_frac()
    );
    println!(
        "shared-RW:  {:.1}% of pages (paper: 99%)",
        100.0 * s.shared_read_write_frac()
    );

    // 2. Serialize and reload.
    let mut buf = Vec::new();
    write_trace(&build(), &mut buf).expect("in-memory serialization cannot fail");
    println!(
        "\nserialized: {} bytes ({:.1} B/access)",
        buf.len(),
        buf.len() as f64 / s.accesses() as f64
    );
    let loaded = read_trace(buf.as_slice()).expect("round trip");
    assert_eq!(loaded.page_attrs().summary(), s);

    // 3. Replay both through the simulator: identical results.
    let cfg = SimConfig::default();
    let run = |w: grit_workloads::MultiGpuWorkload| {
        let p = PolicyKind::GRIT.build(&cfg, w.footprint_pages);
        let sim = Simulation::try_new(cfg.clone(), w, p).expect("valid configuration");
        sim.try_run().expect("run failed").metrics
    };
    let direct = run(build());
    let replayed = run(read_trace(buf.as_slice()).expect("round trip"));
    println!(
        "\ndirect run:   {} cycles, {} faults",
        direct.total_cycles,
        direct.faults.total_faults()
    );
    println!(
        "replayed run: {} cycles, {} faults",
        replayed.total_cycles,
        replayed.faults.total_faults()
    );
    assert_eq!(direct.total_cycles, replayed.total_cycles);
    assert_eq!(direct.faults.total_faults(), replayed.faults.total_faults());
    println!("\nbit-identical: the simulator is a pure function of the trace.");
}
