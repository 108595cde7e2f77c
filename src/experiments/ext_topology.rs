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

use grit_metrics::{geomean, speedups, Table};
use grit_sim::{Scheme, SimConfig, TopologyConfig, TopologyKind};
use grit_workloads::App;

use super::{run_grid, CellResultExt, CellSpec, ExpConfig, PolicyKind};

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
    // Pinned cells keep their explicit topology even under a
    // `--topology` global override.
    let keys: Vec<(TopologyKind, usize, App)> = TopologyKind::ALL
        .into_iter()
        .flat_map(|k| gpu_counts.iter().flat_map(move |&g| apps.iter().map(move |&a| (k, g, a))))
        .collect();
    let rows = run_grid(&keys, |(kind, gpus, app)| {
        let cfg = SimConfig {
            topology: TopologyConfig::of(kind),
            ..SimConfig::with_gpus(gpus)
        };
        policies().map(|p| CellSpec::pinned(app, p, exp, cfg.clone()))
    });

    let cols: Vec<String> = gpu_counts.iter().map(|n| format!("{n} GPUs")).collect();
    let mut speedup = Table::new(
        "ext-topology: GRIT speedup over same-topology on-touch",
        cols.clone(),
    );
    let mut queue = Table::new("ext-topology: GRIT fabric queue cycles vs all-to-all", cols);
    let mut queue_rows: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for kind in TopologyKind::ALL {
        let mut gains = Vec::with_capacity(gpu_counts.len());
        let mut queues = Vec::with_capacity(gpu_counts.len());
        for &gpus in gpu_counts {
            // The (on-touch, GRIT) rows of this topology and GPU count,
            // in app order.
            let combo: Vec<_> = rows
                .iter()
                .filter(|((k, g, _), _)| *k == kind && *g == gpus)
                .map(|(_, row)| row)
                .collect();
            let per_app: Vec<f64> = combo
                .iter()
                .map(|row| speedups(row.iter().map(CellResultExt::cycles))[1])
                .collect();
            gains.push(geomean(&per_app));
            queues.push(combo.iter().map(|row| row[1].metric(queue_cycles)).sum());
        }
        speedup.push_row(kind.name(), gains);
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
    study(&App::TABLE2, &GPU_COUNTS, exp)
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
