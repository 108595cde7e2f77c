//! # grit-core
//!
//! The paper's primary contribution: **GRIT**, fine-GRained dynamIc page
//! placemenT (HPCA 2024). GRIT decides, per page and at runtime, which of
//! the three multi-GPU page placement schemes — on-touch migration,
//! access-counter-based migration, or page duplication — a page should
//! employ, and changes that decision as the page's behaviour changes.
//!
//! Three cooperating components (paper §V):
//!
//! * **Fault-Aware Initiator** — uses the stream of local page faults and
//!   page protection faults arriving at the UVM driver as the trigger
//!   signal; a page that keeps faulting is being shared in a way its
//!   current scheme handles badly.
//! * **PA-Table + PA-Cache** — a software Page Attribute Table in CPU
//!   memory (48-bit entries) tracks each faulting page's read/write bit and
//!   fault counter; a 64-entry 4-way hardware PA-Cache absorbs the table
//!   traffic ([`PaStore`]).
//! * **Neighboring-Aware Prediction** — consecutive pages behave alike
//!   (§IV-C), so a scheme decision propagates to aligned 8/64/512-page
//!   groups via PTE group bits, letting neighbors adopt the right scheme
//!   before ever reaching the fault threshold ([`Nap`]).
//!
//! [`GritPolicy`] plugs all of this into the UVM driver's
//! [`grit_uvm::PlacementPolicy`] trait.
//!
//! # Example
//!
//! ```
//! use grit_core::{GritConfig, GritPolicy};
//! use grit_sim::SimConfig;
//! use grit_uvm::UvmDriver;
//!
//! let cfg = SimConfig::default();
//! let policy = GritPolicy::new(GritConfig::full(&cfg), 8192);
//! let driver = UvmDriver::new(cfg, 8192, Box::new(policy));
//! assert_eq!(driver.fault_counters().scheme_changes, 0);
//! ```

#![warn(missing_docs)]

pub mod decision;
pub mod nap;
pub mod pa_cache;
pub mod pa_table;
pub mod policy;

pub use decision::{decide, preference, RwClass, SharingClass};
pub use nap::{Nap, NapStats};
pub use pa_cache::{PaStore, PA_CACHE_ENTRIES, PA_CACHE_WAYS};
pub use pa_table::{PaEntry, PaTable};
pub use policy::{GritConfig, GritPolicy};
