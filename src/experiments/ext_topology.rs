//! Extension study: placement policies across interconnect topologies.
//!
//! The paper evaluates GRIT on an all-to-all NVLink node; this study asks
//! how its advantage holds up when the wires get shared. Every topology
//! shape ([`grit_sim::TopologyKind`]) is swept against GPU count with GRIT and the on-touch
//! baseline over the Table II applications, through the resilient batch
//! harness (so `--jobs`, `--resume` and `run_report.json` all apply).
//!
//! Two tables come back:
//!
//! 1. **Speedup** — per-(topology, GPU count) geomean of GRIT's speedup
//!    over on-touch *on the same topology*, so the value isolates the
//!    policy's benefit from the fabric's raw capability.
//! 2. **Queueing** — total fabric queue cycles of the GRIT runs,
//!    normalized to the all-to-all fabric at the same GPU count. Shared
//!    wires (ring hops, switch trunks, the hierarchical bottleneck) show
//!    up as ratios above 1.

use grit_metrics::{geomean, Table};
use grit_sim::{Scheme, SimConfig, TopologyConfig, TopologyKind};
use grit_workloads::App;

use super::{run_batch, table2_apps, CellResultExt, CellSpec, ExpConfig, PolicyKind, PolicySpec};

/// GPU counts swept against every topology.
pub const GPU_COUNTS: [usize; 2] = [4, 8];

/// The two tables of the study.
pub struct TopologyStudy {
    /// GRIT speedup over same-topology on-touch, geomean over apps.
    pub speedup: Table,
    /// GRIT-run fabric queue cycles normalized to all-to-all.
    pub queue: Table,
}

fn policies() -> [PolicyKind; 2] {
    [PolicyKind::Static(Scheme::OnTouch), PolicyKind::GRIT]
}

/// Total fabric queue cycles of one run, summed over wire classes
/// (nvlink, switch, inter-node, pcie).
fn queue_cycles(o: &crate::runner::RunOutput) -> f64 {
    o.metrics.aux.get("fabric_queue_cycles").map_or(0.0, |v| v.iter().sum())
}

/// Runs the sweep over an explicit app set and GPU counts (tests shrink
/// both; [`run`] uses the full Table II set).
pub fn study(apps: &[App], gpu_counts: &[usize], exp: &ExpConfig) -> TopologyStudy {
    // Cells are built literally (not via `CellSpec::new`) so each keeps
    // its explicit topology even under a `--topology` global override.
    let cell = |app: App, policy: PolicyKind, gpus: usize, kind: TopologyKind| CellSpec {
        app,
        policy: PolicySpec::Kind(policy),
        exp: *exp,
        cfg: SimConfig {
            topology: TopologyConfig::of(kind),
            ..SimConfig::with_gpus(gpus)
        },
        observer: None,
        prefetcher: None,
        trace: None,
    };
    let mut cells = Vec::new();
    for kind in TopologyKind::ALL {
        for &gpus in gpu_counts {
            for &app in apps {
                for policy in policies() {
                    cells.push(cell(app, policy, gpus, kind));
                }
            }
        }
    }
    let outputs = run_batch(&cells);

    let cols: Vec<String> = gpu_counts.iter().map(|n| format!("{n} GPUs")).collect();
    let mut speedup = Table::new(
        "ext-topology: GRIT speedup over same-topology on-touch",
        cols.clone(),
    );
    let mut queue = Table::new("ext-topology: GRIT fabric queue cycles vs all-to-all", cols);
    // Chunk layout mirrors the declaration loops: per (topology, gpus),
    // `apps.len()` consecutive (on-touch, grit) pairs.
    let per_combo = apps.len() * policies().len();
    let mut chunks = outputs.chunks(per_combo);
    let mut queue_rows: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for kind in TopologyKind::ALL {
        let mut speedups = Vec::with_capacity(gpu_counts.len());
        let mut queues = Vec::with_capacity(gpu_counts.len());
        for _ in gpu_counts {
            let combo = chunks.next().expect("batch covers every combination");
            let per_app: Vec<f64> = combo
                .chunks(policies().len())
                .map(|pair| pair[0].cycles() / pair[1].cycles())
                .collect();
            speedups.push(geomean(&per_app));
            queues.push(
                combo.chunks(policies().len()).map(|pair| pair[1].metric(queue_cycles)).sum(),
            );
        }
        speedup.push_row(kind.name(), speedups);
        queue_rows.push((kind.name(), queues));
    }
    // Normalize queueing to the all-to-all row at the same GPU count.
    let base: Vec<f64> = queue_rows[0].1.iter().map(|&q: &f64| q.max(1.0)).collect();
    for (name, qs) in queue_rows {
        queue.push_row(name, qs.iter().zip(&base).map(|(q, b)| q / b).collect());
    }
    TopologyStudy { speedup, queue }
}

/// Runs the full study: every topology × [`GPU_COUNTS`] × Table II apps.
pub fn run(exp: &ExpConfig) -> TopologyStudy {
    study(&table2_apps(), &GPU_COUNTS, exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.02,
            intensity: 0.5,
            seed: 0x70F0,
        }
    }

    #[test]
    fn shared_topologies_queue_measurably_harder_than_all_to_all() {
        let s = study(&[App::Bfs, App::Fir], &[8], &tiny());
        let col = "8 GPUs";
        let all_to_all = s.queue.cell(TopologyKind::AllToAll.name(), col).unwrap();
        assert!((all_to_all - 1.0).abs() < 1e-12, "baseline row must be 1");
        for kind in [TopologyKind::Ring, TopologyKind::NvSwitch] {
            let q = s.queue.cell(kind.name(), col).unwrap();
            assert!(
                q > 1.05,
                "{} should queue measurably harder than all-to-all: {q}",
                kind.name()
            );
        }
    }

    #[test]
    fn grit_still_beats_on_touch_on_every_topology() {
        let s = study(&[App::Bfs, App::Fir], &[4], &tiny());
        for kind in TopologyKind::ALL {
            let v = s.speedup.cell(kind.name(), "4 GPUs").unwrap();
            assert!(v.is_finite() && v > 0.0, "{}: {v}", kind.name());
        }
    }
}
