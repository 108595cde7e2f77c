//! # grit-uvm
//!
//! The unified-virtual-memory driver model of the GRIT reproduction
//! (paper §II): a centralized page table on the CPU, per-GPU local page
//! tables, page-fault servicing over PCIe, and the full mechanism set the
//! placement policies choose from — on-touch migration, access-counter
//! migration with Volta-style 64 KB-group counters, page duplication with
//! write-collapse, GPS-style store broadcast, prefetch fills and
//! capacity-pressure eviction.
//!
//! Policies (the three uniform schemes here, GRIT in `grit-core`, the
//! comparators in `grit-baselines`) implement [`PlacementPolicy`]; the
//! [`UvmDriver`] executes their decisions and attributes every cycle to
//! the six latency classes of Fig. 3.
//!
//! # Example
//!
//! ```
//! use grit_sim::{AccessKind, GpuId, PageId, Scheme, SimConfig};
//! use grit_uvm::{FaultInfo, FaultKind, StaticPolicy, UvmDriver};
//!
//! let mut driver = UvmDriver::new(
//!     SimConfig::default(),
//!     1024,
//!     Box::new(StaticPolicy::new(Scheme::OnTouch)),
//! );
//! let fault = FaultInfo {
//!     now: 0,
//!     gpu: GpuId::new(0),
//!     vpn: PageId(3),
//!     kind: AccessKind::Read,
//!     fault: FaultKind::Local,
//! };
//! let outcome = driver.handle_fault(fault);
//! assert!(outcome.done_at > 0);
//! ```

#![warn(missing_docs)]

pub mod central;
pub mod counters;
pub mod driver;
pub mod policy;
pub mod prefetch;
pub mod pte;

pub use central::{CentralPageTable, PageState};
pub use counters::AccessCounters;
pub use driver::{DriverOutcome, InvariantViolation, UvmDriver};
pub use policy::{
    Directive, FaultInfo, FaultKind, PlacementPolicy, PolicyDecision, Resolution, StaticPolicy,
    WriteMode,
};
pub use prefetch::{NullPrefetcher, Prefetcher};
pub use pte::{PaTableEntryBits, Pte};
