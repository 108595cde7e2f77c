//! # grit-workloads
//!
//! Synthetic multi-GPU workload trace generators for the GRIT reproduction:
//! the eight Table II benchmarks (BFS, BS, C2D, FIR, GEMM, MM, SC, ST) and
//! the two §VI-F DNN workloads (VGG16, ResNet18), each reproducing its
//! benchmark's characterized page-sharing and read/write pattern — the
//! behavioural dimension along which the paper's entire evaluation varies.
//!
//! The substitution rationale is recorded in the repository `DESIGN.md`:
//! the original OpenCL binaries and the MGPUSim frontend are not available
//! in a Rust environment, so the generators emit traces with the same
//! *distribution of page behaviours* (private/shared mix, PC-shared vs
//! all-shared phases, read vs read-write intervals, staging by GPU 0 under
//! the §III-B round-robin-fill TB scheduler).
//!
//! # Example
//!
//! ```
//! use grit_workloads::{App, WorkloadBuilder};
//!
//! let w = WorkloadBuilder::new(App::St).scale(0.05).build();
//! assert_eq!(w.app, App::St);
//! assert_eq!(w.streams.len(), 4);
//! assert!(w.total_accesses() > 0);
//! ```

#![warn(missing_docs)]

mod apps;
pub mod builder;
pub mod common;
pub mod spec;
pub mod trace_io;
pub mod validate;

pub use builder::{GenCtx, MultiGpuWorkload, WorkloadBuilder};
pub use common::{tb_to_gpu, GpuTrace, Segment};
pub use spec::{AccessPattern, App};
pub use trace_io::{read_trace, write_trace, TraceIoError};
pub use validate::{validate, Expectation};
