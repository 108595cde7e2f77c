//! Property tests for the routing invariants every topology must uphold:
//! routes are valid walks between their endpoints, symmetric between
//! directions, and never longer than the topology's diameter bound.

use proptest::prelude::*;

use grit_interconnect::Routing;
use grit_sim::{LinkConfig, TopoGraph, TopologyConfig, TopologyKind};

mod support;
use support::diameter_bound;

fn kind_strategy() -> impl Strategy<Value = TopologyKind> {
    (0usize..TopologyKind::ALL.len()).prop_map(|i| TopologyKind::ALL[i])
}

fn built(kind: TopologyKind, n: usize) -> TopoGraph {
    TopoGraph::build(n, LinkConfig::default(), TopologyConfig::of(kind))
}

/// Walks `path` from `start`, requiring each link to continue where the
/// previous one ended; returns the final node.
fn walk(graph: &TopoGraph, start: usize, path: &[u32]) -> usize {
    let mut at = start;
    for &id in path {
        let l = &graph.links[id as usize];
        at = if l.a == at {
            l.b
        } else {
            assert_eq!(l.b, at, "link {id} does not touch node {at}");
            l.a
        };
    }
    at
}

proptest! {
    #[test]
    fn routes_are_valid_walks_between_their_endpoints(
        kind in kind_strategy(),
        n in 1usize..=16,
    ) {
        let graph = built(kind, n);
        let routing = Routing::compute(&graph);
        for a in 0..n {
            for b in (a + 1)..n {
                let path = routing.route(a, b);
                prop_assert_eq!(walk(&graph, a, path), b, "{:?} n={} pair ({a},{b})", kind, n);
            }
        }
    }

    #[test]
    fn routes_are_symmetric_between_directions(
        kind in kind_strategy(),
        n in 2usize..=16,
        x in 0usize..16,
        y in 0usize..16,
    ) {
        prop_assume!(x < n && y < n && x != y);
        let graph = built(kind, n);
        let routing = Routing::compute(&graph);
        // Both directions resolve to the same stored path...
        prop_assert_eq!(routing.route(x, y), routing.route(y, x));
        // ...and walking it reversed from the higher endpoint reaches the
        // lower one over the very same wires.
        let (lo, hi) = (x.min(y), x.max(y));
        let reversed: Vec<u32> = routing.route(lo, hi).iter().rev().copied().collect();
        prop_assert_eq!(walk(&graph, hi, &reversed), lo);
    }

    #[test]
    fn hop_counts_stay_within_the_diameter_bound(
        kind in kind_strategy(),
        n in 1usize..=16,
    ) {
        let graph = built(kind, n);
        let routing = Routing::compute(&graph);
        for a in 0..n {
            for b in (a + 1)..n {
                prop_assert!(
                    routing.hops(a, b) >= 1,
                    "{:?} n={}: distinct GPUs need at least one hop", kind, n
                );
                prop_assert!(
                    routing.hops(a, b) <= diameter_bound(kind, n),
                    "{:?} n={} pair ({a},{b}): {} hops > bound {}",
                    kind, n, routing.hops(a, b), diameter_bound(kind, n)
                );
            }
        }
        prop_assert_eq!(
            routing.diameter(),
            (0..n)
                .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                .map(|(a, b)| routing.hops(a, b))
                .max()
                .unwrap_or(0)
        );
    }

    #[test]
    fn pair_index_is_a_bijection_onto_the_triangle(n in 2usize..=16) {
        let pairs = n * (n - 1) / 2;
        let mut seen = vec![false; pairs];
        for a in 0..n {
            for b in (a + 1)..n {
                let i = Routing::pair_index(n, a, b);
                prop_assert_eq!(i, Routing::pair_index(n, b, a), "order must not matter");
                prop_assert!(i < pairs);
                prop_assert!(!seen[i], "index {i} hit twice");
                seen[i] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }
}
