//! Model-parallel DNN training under dynamic page placement (the §VI-F
//! experiment): VGG16 and ResNet18 pipelines where weights are private per
//! stage and activations flow producer→consumer between pipeline-adjacent
//! GPUs.
//!
//! ```text
//! cargo run --release --example dnn_training
//! ```

use grit::experiments::{run_cell, ExpConfig, PolicyKind};
use grit::prelude::*;

fn main() {
    let exp = ExpConfig {
        scale: 0.08,
        intensity: 2.0,
        seed: 42,
    };

    println!("Model-parallel DNN training, 4 GPUs\n");
    for app in App::DNN {
        let on_touch = CellSpec::new(app, PolicyKind::Static(Scheme::OnTouch), &exp);
        let attrs = on_touch.workload().page_attrs().summary();
        let ot = on_touch.run().metrics;
        let grit = run_cell(app, PolicyKind::GRIT, &exp).metrics;

        println!("=== {} ===", app.abbr());
        println!(
            "  pages: {} ({:.0}% private weights, {:.0}% pipeline-shared activations)",
            attrs.total_pages,
            100.0 * (1.0 - attrs.shared_page_frac()),
            100.0 * attrs.shared_page_frac(),
        );
        println!(
            "  on-touch: {:>12} cycles, {:>6} faults, {:>5} migrations",
            ot.total_cycles,
            ot.faults.total_faults(),
            ot.faults.migrations
        );
        println!(
            "  grit:     {:>12} cycles, {:>6} faults, {:>5} migrations  ({:+.1}%)",
            grit.total_cycles,
            grit.faults.total_faults(),
            grit.faults.migrations,
            100.0 * (ot.total_cycles as f64 / grit.total_cycles as f64 - 1.0),
        );
        let (ot_mix, ac_mix, dup_mix) = grit.scheme_mix.fractions();
        println!(
            "  GRIT scheme mix at L2-TLB misses: {:.0}% on-touch, {:.0}% access-counter, {:.0}% duplication\n",
            100.0 * ot_mix,
            100.0 * ac_mix,
            100.0 * dup_mix
        );
    }
    println!("The producer-consumer activation buffers fault only twice per");
    println!("handoff, so GRIT keeps them under on-touch; its gains come from");
    println!("the weight-gradient pages it detects as private read-write.");
}
