//! Shortest-path routing tables, computed once when a fabric is built.
//!
//! Routes are stored per *unordered* GPU pair as the link-id sequence from
//! the lower-numbered GPU to the higher one; the reverse direction walks
//! the same links backwards. Storing one path per pair (instead of two
//! independent BFS trees) makes routes symmetric by construction, which
//! the contention model relies on: both directions of a transfer book the
//! same duplex wires, exactly like the pre-topology per-pair NVLinks.

use grit_sim::TopoGraph;

/// Precomputed shortest-path routes between every GPU pair.
///
/// ```
/// use grit_interconnect::Routing;
/// use grit_sim::{LinkConfig, TopoGraph, TopologyConfig, TopologyKind};
///
/// let graph = TopoGraph::build(
///     8,
///     LinkConfig::default(),
///     TopologyConfig::of(TopologyKind::Ring),
/// );
/// let routing = Routing::compute(&graph);
/// assert_eq!(routing.hops(0, 4), 4); // antipodal pair on an 8-ring
/// assert_eq!(routing.diameter(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Routing {
    num_gpus: usize,
    /// Triangular table: pair `(lo, hi)` at `pair_index(lo, hi)`, each a
    /// link-id path ordered from `lo` to `hi`.
    routes: Vec<Vec<u32>>,
    /// Longest route in the table (hops between the farthest GPU pair).
    diameter: usize,
}

impl Routing {
    /// Index of pair `(a, b)` (distinct GPUs, either order) in the
    /// triangular table — the same layout the legacy fabric used for its
    /// pair links.
    pub fn pair_index(num_gpus: usize, a: usize, b: usize) -> usize {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        debug_assert!(lo < hi && hi < num_gpus, "pair requires distinct GPUs");
        lo * num_gpus - lo * (lo + 1) / 2 + (hi - lo - 1)
    }

    /// Computes shortest paths over `graph` with breadth-first search from
    /// each GPU. Deterministic: adjacency is visited in (node, link-id)
    /// order, so equal-length paths tie-break identically on every run.
    ///
    /// # Panics
    ///
    /// Panics if some GPU pair is disconnected (every graph
    /// [`TopoGraph::build`] lays out is connected).
    pub fn compute(graph: &TopoGraph) -> Routing {
        let r = Routing::compute_avoiding(graph, &[]);
        for lo in 0..r.num_gpus {
            for hi in (lo + 1)..r.num_gpus {
                assert!(
                    r.has_route(lo, hi),
                    "topology leaves GPUs {lo} and {hi} disconnected"
                );
            }
        }
        r
    }

    /// Like [`Routing::compute`], but treats every link in `down` (sorted
    /// or not) as absent — the failover table used while an injected
    /// outage window is active. Pairs that the down-set disconnects get an
    /// **empty** route ([`Routing::has_route`] returns `false`); callers
    /// decide how to degrade (the fabric stages such transfers through
    /// host memory).
    pub fn compute_avoiding(graph: &TopoGraph, down: &[u32]) -> Routing {
        let n = graph.num_gpus;
        let nodes = graph.num_nodes;
        // Adjacency: node -> [(neighbor, link id)], sorted for determinism.
        let mut adj: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nodes];
        for (id, l) in graph.links.iter().enumerate() {
            if down.contains(&(id as u32)) {
                continue;
            }
            adj[l.a].push((l.b, id as u32));
            adj[l.b].push((l.a, id as u32));
        }
        for list in &mut adj {
            list.sort_unstable();
        }

        let pairs = n * n.saturating_sub(1) / 2;
        let mut routes = vec![Vec::new(); pairs];
        let mut diameter = 0;
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; nodes];
        let mut queue = std::collections::VecDeque::new();
        for lo in 0..n {
            parent.iter_mut().for_each(|p| *p = None);
            parent[lo] = Some((lo, u32::MAX)); // sentinel: visited root
            queue.clear();
            queue.push_back(lo);
            while let Some(node) = queue.pop_front() {
                for &(next, link) in &adj[node] {
                    if parent[next].is_none() {
                        parent[next] = Some((node, link));
                        queue.push_back(next);
                    }
                }
            }
            for hi in (lo + 1)..n {
                if parent[hi].is_none() {
                    continue; // disconnected by the down-set: empty route
                }
                let mut path = Vec::new();
                let mut node = hi;
                while node != lo {
                    let (prev, link) = parent[node].expect("walked past the BFS root");
                    path.push(link);
                    node = prev;
                }
                path.reverse();
                diameter = diameter.max(path.len());
                routes[Routing::pair_index(n, lo, hi)] = path;
            }
        }
        Routing {
            num_gpus: n,
            routes,
            diameter,
        }
    }

    /// Whether the table holds a live path between distinct GPUs `a` and
    /// `b` (always true for tables from [`Routing::compute`]; false when a
    /// [`Routing::compute_avoiding`] down-set disconnected the pair).
    pub fn has_route(&self, a: usize, b: usize) -> bool {
        !self.route(a, b).is_empty()
    }

    /// Number of GPUs routed.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// The link-id path for the pair containing `a` and `b`, ordered from
    /// `min(a, b)` to `max(a, b)`. Walk it reversed when `a > b`.
    pub fn route(&self, a: usize, b: usize) -> &[u32] {
        &self.routes[Routing::pair_index(self.num_gpus, a, b)]
    }

    /// Hop count between `a` and `b`.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        self.route(a, b).len()
    }

    /// Longest route between any GPU pair.
    pub fn diameter(&self) -> usize {
        self.diameter
    }
}

#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::{LinkConfig, TopologyConfig, TopologyKind};

    use super::support::diameter_bound;

    fn graph(kind: TopologyKind, n: usize) -> TopoGraph {
        TopoGraph::build(n, LinkConfig::default(), TopologyConfig::of(kind))
    }

    fn routing(kind: TopologyKind, n: usize) -> Routing {
        Routing::compute(&graph(kind, n))
    }

    #[test]
    fn all_to_all_routes_are_the_legacy_pair_links() {
        let r = routing(TopologyKind::AllToAll, 8);
        for a in 0..8 {
            for b in (a + 1)..8 {
                let route = r.route(a, b);
                assert_eq!(route.len(), 1);
                assert_eq!(route[0] as usize, Routing::pair_index(8, a, b));
            }
        }
        assert_eq!(r.diameter(), 1);
    }

    #[test]
    fn ring_takes_the_short_arc() {
        let r = routing(TopologyKind::Ring, 8);
        assert_eq!(r.hops(0, 1), 1);
        assert_eq!(r.hops(0, 7), 1); // wraparound link
        assert_eq!(r.hops(0, 4), 4); // antipodal
        assert_eq!(r.hops(1, 3), 2);
        assert_eq!(r.diameter(), 4);
    }

    #[test]
    fn nvswitch_routes_cross_the_plane() {
        let r = routing(TopologyKind::NvSwitch, 8);
        // Default radix 8: single plane, every pair is gpu-switch-gpu.
        for a in 0..8 {
            for b in (a + 1)..8 {
                assert_eq!(r.hops(a, b), 2);
            }
        }
        assert!(r.diameter() <= diameter_bound(TopologyKind::NvSwitch, 8));
    }

    #[test]
    fn hierarchical_crosses_the_bottleneck_only_between_nodes() {
        let r = routing(TopologyKind::Hierarchical, 8);
        assert_eq!(r.hops(0, 3), 1); // intra-node direct NVLink
        assert_eq!(r.hops(4, 7), 1);
        assert_eq!(r.hops(0, 4), 3); // gpu -> router -> router -> gpu
        assert_eq!(r.diameter(), 3);
    }

    #[test]
    fn avoiding_a_wire_reroutes_multi_hop() {
        // All-to-all over 4 GPUs: killing the direct (0,1) wire forces a
        // two-hop detour through another GPU.
        let g = graph(TopologyKind::AllToAll, 4);
        let direct = Routing::pair_index(4, 0, 1) as u32;
        let r = Routing::compute_avoiding(&g, &[direct]);
        assert!(r.has_route(0, 1));
        assert_eq!(r.hops(0, 1), 2);
        assert!(!r.route(0, 1).contains(&direct));
        // Other pairs keep their direct wires.
        assert_eq!(r.hops(2, 3), 1);
    }

    #[test]
    fn avoiding_all_wires_disconnects_every_pair() {
        let g = graph(TopologyKind::AllToAll, 4);
        let all: Vec<u32> = (0..g.links.len() as u32).collect();
        let r = Routing::compute_avoiding(&g, &all);
        for a in 0..4 {
            for b in (a + 1)..4 {
                assert!(!r.has_route(a, b));
            }
        }
        assert_eq!(r.diameter(), 0);
    }

    #[test]
    fn ring_cut_takes_the_long_way_round() {
        let g = graph(TopologyKind::Ring, 8);
        // Healthy ring: 0 -> 7 crosses the single wraparound wire. Cut it
        // and the route must walk all seven links the other way.
        let healthy = Routing::compute(&g);
        assert_eq!(healthy.hops(0, 7), 1);
        let cut = healthy.route(0, 7)[0];
        let r = Routing::compute_avoiding(&g, &[cut]);
        assert!(r.has_route(0, 7));
        assert_eq!(r.hops(0, 7), 7);
    }

    #[test]
    fn every_topology_stays_within_its_diameter_bound() {
        for kind in TopologyKind::ALL {
            for n in 1..=16 {
                let r = routing(kind, n);
                assert!(
                    r.diameter() <= diameter_bound(kind, n),
                    "{kind:?} n={n}: diameter {} > bound {}",
                    r.diameter(),
                    diameter_bound(kind, n)
                );
            }
        }
    }
}
