//! C2D — Convolution 2D (DNN-Mark, 94 MB, *adjacent*): a layer pipeline
//! whose activation buffers are handed from one GPU to the next — the
//! producer–consumer sharing of Fig. 5(a). A PC-shared page faults only
//! twice (producer, then consumer), staying below GRIT's fault threshold,
//! which is why on-touch remains C2D's dominant scheme (Fig. 19).

use crate::builder::GenCtx;
use crate::common::{barrier_all, GpuTrace, Segment};

/// Number of pipelined layer buffers (single feed-forward pass: each
/// activation buffer is produced once and consumed once, so a PC-shared
/// page faults exactly twice — the §VI-A characterization that keeps C2D
/// under on-touch).
const LAYERS: usize = 24;

/// Generates C2D: 15 % private weights per GPU, 85 % activation buffers
/// written by layer `l`'s GPU and read by layer `l+1`'s GPU.
pub fn generate(ctx: &mut GenCtx) -> Vec<GpuTrace> {
    let mut sinks = ctx.sinks(12);
    let g = ctx.num_gpus;
    let weights = Segment::new(0, (ctx.pages * 40 / 100).max(1));
    // Intensity deepens the network (more layers over the same activation
    // space) rather than repeating epochs: each buffer is still produced
    // once and consumed once, preserving the two-fault PC pattern.
    let layers = (ctx.reps(LAYERS as u64) as usize).max(8);
    // The activations fill the rest of the footprint. With fewer pages
    // than layers, `partition` hands neighbouring layers the same page.
    let acts = Segment::new(weights.end(), ctx.pages - weights.end());

    {
        for layer in 0..layers {
            let producer = layer % g;
            let consumer = (layer + 1) % g;
            let buf = acts.partition(layer, layers);
            // This layer's filter weights: read only by its producer, so
            // the whole weights segment stays private.
            let w = weights.partition(layer, layers);
            for i in 0..w.len {
                sinks[producer].burst_read(w.page(i), 6);
            }
            for i in 0..buf.len {
                // Convolution accumulates: read-modify-write.
                sinks[producer].burst_read(buf.page(i), 2);
                sinks[producer].burst_write(buf.page(i), 8);
            }
            barrier_all(&mut sinks);
            // The consuming GPU reads the buffer in the next phase,
            // line-densely (activations are consumed in full).
            for i in 0..buf.len {
                sinks[consumer].burst_read(buf.page(i), 16);
            }
            barrier_all(&mut sinks);
        }
    }
    sinks
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::SimRng;

    fn run() -> Vec<GpuTrace> {
        let mut c = GenCtx {
            num_gpus: 4,
            pages: 2000,
            lines_per_page: 64,
            intensity: 1.0,
            rng: SimRng::seeded(3),
        };
        generate(&mut c)
    }

    #[test]
    fn activation_pages_shared_by_exactly_two_gpus() {
        let sinks = run();
        let mut accessors: std::collections::HashMap<u64, std::collections::HashSet<usize>> =
            Default::default();
        for (g, s) in sinks.iter().enumerate() {
            for a in s.clone().into_accesses() {
                if a.vpn.vpn() >= 800 {
                    accessors.entry(a.vpn.vpn()).or_default().insert(g);
                }
            }
        }
        // Producer-consumer: the dominant sharing degree is 2.
        let two = accessors.values().filter(|s| s.len() == 2).count();
        assert!(
            two * 2 > accessors.len(),
            "most activation pages must be PC-shared, got {two}/{}",
            accessors.len()
        );
    }

    #[test]
    fn weights_stay_private() {
        let sinks = run();
        let mut accessors: std::collections::HashMap<u64, std::collections::HashSet<usize>> =
            Default::default();
        for (g, s) in sinks.iter().enumerate() {
            for a in s.clone().into_accesses() {
                if a.vpn.vpn() < 800 {
                    accessors.entry(a.vpn.vpn()).or_default().insert(g);
                }
            }
        }
        assert!(accessors.values().all(|s| s.len() == 1));
    }

    #[test]
    fn buffers_are_written_then_read() {
        let sinks = run();
        // Some pages must see both writes (producer) and reads (consumer).
        let mut wrote = std::collections::HashSet::new();
        let mut read = std::collections::HashSet::new();
        for s in &sinks {
            for a in s.clone().into_accesses() {
                if a.is_write() {
                    wrote.insert(a.vpn.vpn());
                } else if a.vpn.vpn() >= 800 {
                    read.insert(a.vpn.vpn());
                }
            }
        }
        assert!(wrote.intersection(&read).count() > 100);
    }
}
