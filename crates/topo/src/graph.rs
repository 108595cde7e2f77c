//! Topology descriptors: each concrete topology knows how to lay out its
//! link graph (GPUs plus, for switched fabrics, internal router nodes).
//!
//! Nodes are plain `usize` ids: `0..num_gpus` are the GPUs, any ids above
//! that are internal nodes (NvSwitch planes, hierarchical node routers)
//! that never source or sink traffic themselves. Every link is duplex and
//! shared between both directions, exactly like the pre-topology per-pair
//! NVLinks.

use grit_sim::{LinkConfig, TopologyConfig, TopologyKind};

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

/// A topology shape that can lay out its link graph and bound its routes.
pub trait Topology {
    /// Stable display name (matches [`TopologyKind::name`]).
    fn name(&self) -> &'static str;

    /// Number of GPUs the fabric connects.
    fn num_gpus(&self) -> usize;

    /// Lays out the link graph.
    fn graph(&self) -> TopoGraph;

    /// Upper bound on the hop count of any GPU-pair route (the topology
    /// diameter over GPU endpoints). Routing must never exceed it.
    fn diameter_bound(&self) -> usize;
}

/// Dedicated duplex NVLink per GPU pair (the pre-topology default).
#[derive(Clone, Copy, Debug)]
pub struct AllToAll {
    num_gpus: usize,
    links: LinkConfig,
}

impl AllToAll {
    /// Builds the descriptor for `num_gpus` GPUs.
    pub fn new(num_gpus: usize, links: LinkConfig) -> Self {
        AllToAll { num_gpus, links }
    }
}

impl Topology for AllToAll {
    fn name(&self) -> &'static str {
        TopologyKind::AllToAll.name()
    }

    fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    fn graph(&self) -> TopoGraph {
        let n = self.num_gpus;
        let mut links = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        // Triangular order (lo ascending, then hi): link id for pair
        // (lo, hi) equals the pre-topology `pair_index` formula.
        for lo in 0..n {
            for hi in (lo + 1)..n {
                links.push(LinkSpec {
                    a: lo,
                    b: hi,
                    class: HopClass::Nvlink,
                    bytes_per_cycle: self.links.nvlink_bytes_per_cycle,
                    latency: self.links.nvlink_latency,
                });
            }
        }
        TopoGraph {
            num_gpus: n,
            num_nodes: n,
            links,
        }
    }

    fn diameter_bound(&self) -> usize {
        usize::from(self.num_gpus > 1)
    }
}

/// Switched fabric: GPUs uplink to `ceil(n / radix)` NvSwitch planes;
/// planes are fully interconnected by trunk links of the same class.
#[derive(Clone, Copy, Debug)]
pub struct NvSwitch {
    num_gpus: usize,
    topo: TopologyConfig,
}

impl NvSwitch {
    /// Builds the descriptor for `num_gpus` GPUs with `topo`'s switch
    /// radix, bandwidth and latency.
    pub fn new(num_gpus: usize, topo: TopologyConfig) -> Self {
        NvSwitch { num_gpus, topo }
    }

    fn num_switches(&self) -> usize {
        self.num_gpus.div_ceil(self.topo.switch_radix).max(1)
    }
}

impl Topology for NvSwitch {
    fn name(&self) -> &'static str {
        TopologyKind::NvSwitch.name()
    }

    fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    fn graph(&self) -> TopoGraph {
        let n = self.num_gpus;
        let switches = self.num_switches();
        let mut links = Vec::new();
        for g in 0..n {
            links.push(LinkSpec {
                a: g,
                b: n + g / self.topo.switch_radix,
                class: HopClass::Switch,
                bytes_per_cycle: self.topo.switch_bytes_per_cycle,
                latency: self.topo.switch_latency,
            });
        }
        for lo in 0..switches {
            for hi in (lo + 1)..switches {
                links.push(LinkSpec {
                    a: n + lo,
                    b: n + hi,
                    class: HopClass::Switch,
                    bytes_per_cycle: self.topo.switch_bytes_per_cycle,
                    latency: self.topo.switch_latency,
                });
            }
        }
        TopoGraph {
            num_gpus: n,
            num_nodes: n + switches,
            links,
        }
    }

    fn diameter_bound(&self) -> usize {
        match (self.num_gpus, self.num_switches()) {
            (0 | 1, _) => 0,
            (_, 1) => 2, // gpu -> switch -> gpu
            (_, _) => 3, // gpu -> switch -> switch -> gpu
        }
    }
}

/// Neighbour ring: GPU `i` links to `(i + 1) % n`; routes take the shorter
/// arc.
#[derive(Clone, Copy, Debug)]
pub struct Ring {
    num_gpus: usize,
    links: LinkConfig,
}

impl Ring {
    /// Builds the descriptor for `num_gpus` GPUs.
    pub fn new(num_gpus: usize, links: LinkConfig) -> Self {
        Ring { num_gpus, links }
    }
}

impl Topology for Ring {
    fn name(&self) -> &'static str {
        TopologyKind::Ring.name()
    }

    fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    fn graph(&self) -> TopoGraph {
        let n = self.num_gpus;
        let mut links = Vec::new();
        for i in 0..n.saturating_sub(1) {
            links.push(LinkSpec {
                a: i,
                b: i + 1,
                class: HopClass::Nvlink,
                bytes_per_cycle: self.links.nvlink_bytes_per_cycle,
                latency: self.links.nvlink_latency,
            });
        }
        // Close the ring (n == 2 is a single shared link, not two).
        if n > 2 {
            links.push(LinkSpec {
                a: 0,
                b: n - 1,
                class: HopClass::Nvlink,
                bytes_per_cycle: self.links.nvlink_bytes_per_cycle,
                latency: self.links.nvlink_latency,
            });
        }
        TopoGraph {
            num_gpus: n,
            num_nodes: n,
            links,
        }
    }

    fn diameter_bound(&self) -> usize {
        self.num_gpus / 2
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

/// 2-D mesh without wraparound over the near-square factorization of the
/// GPU count; prime counts degrade to a line.
#[derive(Clone, Copy, Debug)]
pub struct Mesh2d {
    num_gpus: usize,
    links: LinkConfig,
}

impl Mesh2d {
    /// Builds the descriptor for `num_gpus` GPUs.
    pub fn new(num_gpus: usize, links: LinkConfig) -> Self {
        Mesh2d { num_gpus, links }
    }
}

impl Topology for Mesh2d {
    fn name(&self) -> &'static str {
        TopologyKind::Mesh2d.name()
    }

    fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    fn graph(&self) -> TopoGraph {
        let n = self.num_gpus;
        let (rows, cols) = mesh_dims(n);
        let id = |r: usize, c: usize| r * cols + c;
        let mut links = Vec::new();
        let spec = |a: usize, b: usize| LinkSpec {
            a,
            b,
            class: HopClass::Nvlink,
            bytes_per_cycle: self.links.nvlink_bytes_per_cycle,
            latency: self.links.nvlink_latency,
        };
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    links.push(spec(id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    links.push(spec(id(r, c), id(r + 1, c)));
                }
            }
        }
        TopoGraph {
            num_gpus: n,
            num_nodes: n,
            links,
        }
    }

    fn diameter_bound(&self) -> usize {
        let (rows, cols) = mesh_dims(self.num_gpus);
        rows.saturating_sub(1) + cols.saturating_sub(1)
    }
}

/// Two-node hierarchical fabric: all-to-all NVLink inside each half, each
/// GPU uplinked to its node router, and one inter-node bottleneck link
/// between the two routers.
#[derive(Clone, Copy, Debug)]
pub struct Hierarchical {
    num_gpus: usize,
    links: LinkConfig,
    topo: TopologyConfig,
}

impl Hierarchical {
    /// Builds the descriptor; GPUs `0..ceil(n/2)` form node 0.
    pub fn new(num_gpus: usize, links: LinkConfig, topo: TopologyConfig) -> Self {
        Hierarchical {
            num_gpus,
            links,
            topo,
        }
    }

    fn split(&self) -> usize {
        self.num_gpus.div_ceil(2)
    }
}

impl Topology for Hierarchical {
    fn name(&self) -> &'static str {
        TopologyKind::Hierarchical.name()
    }

    fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    fn graph(&self) -> TopoGraph {
        let n = self.num_gpus;
        let split = self.split();
        let router = |node: usize| n + node;
        let mut links = Vec::new();
        // Intra-node all-to-all NVLink.
        for lo in 0..n {
            for hi in (lo + 1)..n {
                if (lo < split) == (hi < split) {
                    links.push(LinkSpec {
                        a: lo,
                        b: hi,
                        class: HopClass::Nvlink,
                        bytes_per_cycle: self.links.nvlink_bytes_per_cycle,
                        latency: self.links.nvlink_latency,
                    });
                }
            }
        }
        // GPU → node-router uplinks (only crossed by inter-node traffic).
        for g in 0..n {
            links.push(LinkSpec {
                a: g,
                b: router(usize::from(g >= split)),
                class: HopClass::Switch,
                bytes_per_cycle: self.topo.switch_bytes_per_cycle,
                latency: self.topo.switch_latency,
            });
        }
        // The inter-node bottleneck.
        links.push(LinkSpec {
            a: router(0),
            b: router(1),
            class: HopClass::InterNode,
            bytes_per_cycle: self.topo.inter_node_bytes_per_cycle,
            latency: self.topo.inter_node_latency,
        });
        TopoGraph {
            num_gpus: n,
            num_nodes: n + 2,
            links,
        }
    }

    fn diameter_bound(&self) -> usize {
        match self.num_gpus {
            0 | 1 => 0,
            _ => 3, // gpu -> router -> router -> gpu
        }
    }
}

/// Instantiates the descriptor named by `topo.kind`.
pub fn build_topology(
    num_gpus: usize,
    links: LinkConfig,
    topo: TopologyConfig,
) -> Box<dyn Topology> {
    match topo.kind {
        TopologyKind::AllToAll => Box::new(AllToAll::new(num_gpus, links)),
        TopologyKind::NvSwitch => Box::new(NvSwitch::new(num_gpus, topo)),
        TopologyKind::Ring => Box::new(Ring::new(num_gpus, links)),
        TopologyKind::Mesh2d => Box::new(Mesh2d::new(num_gpus, links)),
        TopologyKind::Hierarchical => Box::new(Hierarchical::new(num_gpus, links, topo)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(kind: TopologyKind, n: usize) -> TopoGraph {
        build_topology(n, LinkConfig::default(), TopologyConfig::of(kind)).graph()
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
        let g = build_topology(8, LinkConfig::default(), topo).graph();
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
