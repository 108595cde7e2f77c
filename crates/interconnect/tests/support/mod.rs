//! The routing tests' oracle, shared by the unit tests in `src/routing.rs`
//! and the property tests in `tests/prop_routing.rs`.

use grit_sim::{mesh_dims, TopologyConfig, TopologyKind};

/// Upper bound on the hop count of any GPU-pair route over `n` GPUs of a
/// default-parameter `kind` fabric (the topology diameter over GPU
/// endpoints). Routing must never exceed it.
pub fn diameter_bound(kind: TopologyKind, n: usize) -> usize {
    if n < 2 {
        return 0;
    }
    match kind {
        TopologyKind::AllToAll => 1,
        // gpu -> switch -> gpu on one plane, one trunk more across planes.
        TopologyKind::NvSwitch if n <= TopologyConfig::of(kind).switch_radix => 2,
        // gpu -> switch (or router) -> switch (or router) -> gpu.
        TopologyKind::NvSwitch | TopologyKind::Hierarchical => 3,
        TopologyKind::Ring => n / 2,
        TopologyKind::Mesh2d => {
            let (rows, cols) = mesh_dims(n);
            rows - 1 + cols - 1
        }
    }
}
