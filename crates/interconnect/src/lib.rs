//! # grit-interconnect
//!
//! Interconnect model for the multi-GPU node: a routed GPU↔GPU fabric and
//! a PCIe-v4 link from each GPU to the host (Table I: 300 GB/s NVLink,
//! 32 GB/s PCIe). The fabric's wires are the link graph of the configured
//! topology ([`grit_sim::TopoGraph`]); [`Routing`] precomputes
//! deterministic shortest paths between every GPU pair over it, plus the
//! failover tables an injected outage needs. The default topology is the
//! paper's all-to-all node — a dedicated NVLink-v2 wire per GPU pair.
//! Links model both fixed latency and serial bandwidth occupancy, and
//! multi-hop routes book every hop, so heavy migration or remote traffic
//! queues behind itself — the mechanism that makes "ping-pong" migration
//! and counter-based remote storms expensive in the paper — and shared
//! switch trunks congest across unrelated GPU pairs.
//!
//! # Example
//!
//! ```
//! use grit_interconnect::Fabric;
//! use grit_sim::{GpuId, LinkConfig};
//!
//! let mut fabric = Fabric::new(4, LinkConfig::default());
//! let cfg = LinkConfig::default();
//! let arrival = fabric.gpu_to_gpu(GpuId::new(0), GpuId::new(1), 0, 4096);
//! assert!(arrival > cfg.nvlink_latency); // latency + occupancy
//! ```

#![warn(missing_docs)]

pub mod link;
pub mod routing;
pub mod topology;

pub use link::{Link, LinkStats};
pub use routing::Routing;
pub use topology::{Fabric, FabricStats};
