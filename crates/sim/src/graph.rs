//! The interconnect's wire graph: the links each [`TopologyKind`] lays
//! out between GPUs and, for switched fabrics, internal router nodes.
//!
//! Nodes are plain `usize` ids: `0..num_gpus` are the GPUs, any ids above
//! that are internal nodes (NvSwitch planes, hierarchical node routers)
//! that never source or sink traffic themselves. Every link is duplex and
//! shared between both directions, exactly like the pre-topology per-pair
//! NVLinks. The fabric in `grit-interconnect` routes over this graph, and
//! [`crate::SimConfig::validate`] counts its wires to check a fault plan.

use crate::config::{LinkConfig, TopologyConfig, TopologyKind};

/// Which class of wire a fabric hop crosses (used for per-class stats and
/// trace labels; PCIe host links are modelled outside the topology graph).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HopClass {
    /// Direct GPU↔GPU NVLink.
    Nvlink,
    /// GPU↔switch uplink or switch↔switch trunk.
    Switch,
    /// The hierarchical fabric's node↔node bottleneck link.
    InterNode,
}

/// One duplex link of the topology graph.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkSpec {
    /// One endpoint (node id).
    pub a: usize,
    /// The other endpoint (node id).
    pub b: usize,
    /// Wire class, for stats attribution and trace labels.
    pub class: HopClass,
    /// Serial bandwidth in bytes per cycle.
    pub bytes_per_cycle: f64,
    /// One-way latency in cycles.
    pub latency: u64,
}

/// A fully laid-out topology: node count plus every link.
#[derive(Clone, Debug)]
pub struct TopoGraph {
    /// GPUs occupy node ids `0..num_gpus`.
    pub num_gpus: usize,
    /// Total nodes including internal switches/routers.
    pub num_nodes: usize,
    /// Every duplex link (index = link id).
    pub links: Vec<LinkSpec>,
}

impl TopoGraph {
    /// Lays out the link graph `topo.kind` describes for `num_gpus` GPUs.
    /// NVLink wires take `links`' bandwidth and latency; switch and
    /// inter-node wires take `topo`'s.
    ///
    /// - **all-to-all**: one NVLink per GPU pair, in triangular order
    ///   (`lo` ascending, then `hi`), so link id `(lo, hi)` equals the
    ///   pre-topology pair index and the default fabric stays
    ///   cycle-identical.
    /// - **nvswitch**: each GPU uplinks to plane `g / radix` of
    ///   `ceil(n / radix)` planes; planes are fully interconnected by
    ///   trunks.
    /// - **ring**: GPU `i` links to `i + 1`, closed by `0 — n-1` when
    ///   `n > 2` (two GPUs share one link, not two).
    /// - **mesh2d**: a grid without wraparound over [`mesh_dims`]; prime
    ///   counts degrade to a line.
    /// - **hierarchical**: GPUs `0..ceil(n/2)` form node 0; all-to-all
    ///   NVLink inside each node, every GPU uplinked to its node router,
    ///   and one inter-node bottleneck between the two routers.
    pub fn build(num_gpus: usize, links: LinkConfig, topo: TopologyConfig) -> TopoGraph {
        let n = num_gpus;
        let nvlink = |a: usize, b: usize| LinkSpec {
            a,
            b,
            class: HopClass::Nvlink,
            bytes_per_cycle: links.nvlink_bytes_per_cycle,
            latency: links.nvlink_latency,
        };
        let switch = |a: usize, b: usize| LinkSpec {
            a,
            b,
            class: HopClass::Switch,
            bytes_per_cycle: topo.switch_bytes_per_cycle,
            latency: topo.switch_latency,
        };
        let mut wires = Vec::new();
        let num_nodes = match topo.kind {
            TopologyKind::AllToAll => {
                for lo in 0..n {
                    for hi in (lo + 1)..n {
                        wires.push(nvlink(lo, hi));
                    }
                }
                n
            }
            TopologyKind::NvSwitch => {
                let switches = n.div_ceil(topo.switch_radix).max(1);
                for g in 0..n {
                    wires.push(switch(g, n + g / topo.switch_radix));
                }
                for lo in 0..switches {
                    for hi in (lo + 1)..switches {
                        wires.push(switch(n + lo, n + hi));
                    }
                }
                n + switches
            }
            TopologyKind::Ring => {
                for i in 0..n.saturating_sub(1) {
                    wires.push(nvlink(i, i + 1));
                }
                if n > 2 {
                    wires.push(nvlink(0, n - 1));
                }
                n
            }
            TopologyKind::Mesh2d => {
                let (rows, cols) = mesh_dims(n);
                let id = |r: usize, c: usize| r * cols + c;
                for r in 0..rows {
                    for c in 0..cols {
                        if c + 1 < cols {
                            wires.push(nvlink(id(r, c), id(r, c + 1)));
                        }
                        if r + 1 < rows {
                            wires.push(nvlink(id(r, c), id(r + 1, c)));
                        }
                    }
                }
                n
            }
            TopologyKind::Hierarchical => {
                let split = n.div_ceil(2);
                let router = |node: usize| n + node;
                for lo in 0..n {
                    for hi in (lo + 1)..n {
                        if (lo < split) == (hi < split) {
                            wires.push(nvlink(lo, hi));
                        }
                    }
                }
                for g in 0..n {
                    wires.push(switch(g, router(usize::from(g >= split))));
                }
                wires.push(LinkSpec {
                    a: router(0),
                    b: router(1),
                    class: HopClass::InterNode,
                    bytes_per_cycle: topo.inter_node_bytes_per_cycle,
                    latency: topo.inter_node_latency,
                });
                n + 2
            }
        };
        TopoGraph {
            num_gpus: n,
            num_nodes,
            links: wires,
        }
    }
}

/// Near-square factorization `n = rows * cols` with `rows <= cols`,
/// maximizing `rows` (16 → 4×4, 8 → 2×4, 7 → 1×7).
pub fn mesh_dims(n: usize) -> (usize, usize) {
    if n == 0 {
        return (0, 0);
    }
    let mut rows = 1;
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            rows = r;
        }
        r += 1;
    }
    (rows, n / rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(kind: TopologyKind, n: usize) -> TopoGraph {
        TopoGraph::build(n, LinkConfig::default(), TopologyConfig::of(kind))
    }

    #[test]
    fn all_to_all_matches_legacy_pair_layout() {
        let g = graph_of(TopologyKind::AllToAll, 4);
        assert_eq!(g.links.len(), 6);
        assert_eq!(g.num_nodes, 4);
        // Pair (lo, hi) must sit at the legacy triangular index.
        let legacy = |lo: usize, hi: usize| lo * 4 - lo * (lo + 1) / 2 + (hi - lo - 1);
        for (id, l) in g.links.iter().enumerate() {
            assert_eq!(legacy(l.a, l.b), id);
            assert_eq!(l.class, HopClass::Nvlink);
        }
    }

    #[test]
    fn single_gpu_topologies_have_no_gpu_pair_links() {
        for kind in TopologyKind::ALL {
            let g = graph_of(kind, 1);
            assert!(
                g.links.iter().all(|l| l.a >= 1 || l.b >= 1),
                "{kind:?} has a GPU-pair link at n=1"
            );
        }
        assert!(graph_of(TopologyKind::AllToAll, 1).links.is_empty());
        assert!(graph_of(TopologyKind::Ring, 1).links.is_empty());
    }

    #[test]
    fn ring_of_two_is_one_shared_link() {
        let g = graph_of(TopologyKind::Ring, 2);
        assert_eq!(g.links.len(), 1);
        let g = graph_of(TopologyKind::Ring, 8);
        assert_eq!(g.links.len(), 8);
    }

    #[test]
    fn mesh_dims_near_square() {
        assert_eq!(mesh_dims(16), (4, 4));
        assert_eq!(mesh_dims(8), (2, 4));
        assert_eq!(mesh_dims(7), (1, 7));
        assert_eq!(mesh_dims(12), (3, 4));
        assert_eq!(mesh_dims(1), (1, 1));
    }

    #[test]
    fn nvswitch_splits_planes_by_radix() {
        let mut topo = TopologyConfig::of(TopologyKind::NvSwitch);
        topo.switch_radix = 4;
        let g = TopoGraph::build(8, LinkConfig::default(), topo);
        // 8 uplinks + 1 trunk between the two planes.
        assert_eq!(g.num_nodes, 10);
        assert_eq!(g.links.len(), 9);
        assert!(g.links.iter().all(|l| l.class == HopClass::Switch));
    }

    #[test]
    fn hierarchical_has_exactly_one_inter_node_link() {
        let g = graph_of(TopologyKind::Hierarchical, 8);
        let bottlenecks: Vec<&LinkSpec> =
            g.links.iter().filter(|l| l.class == HopClass::InterNode).collect();
        assert_eq!(bottlenecks.len(), 1);
        // Intra-node NVLink pairs: 2 * C(4,2) = 12; uplinks: 8.
        assert_eq!(g.links.len(), 12 + 8 + 1);
    }
}
