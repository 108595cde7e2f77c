//! # grit-baselines
//!
//! Baseline and state-of-the-art comparator policies for the GRIT
//! reproduction, all implemented against `grit-uvm`'s
//! [`grit_uvm::PlacementPolicy`] mechanism layer:
//!
//! * [`FirstTouchPolicy`] — pin on first touch, peer-access forever (§VI-D).
//! * [`IdealPolicy`] — the unrealizable upper bound of Fig. 1.
//! * [`GriffinDpcPolicy`] + [`apply_acud`] — Griffin's dynamic page
//!   classification and asynchronous CU draining (HPCA 2020, §VI-C1).
//! * [`GpsPolicy`] — the GPS publish-subscribe model (MICRO 2021, §VI-C2).
//! * [`apply_transfw`] — Trans-FW's short-circuited fault path
//!   (HPCA 2023, §VI-C3).
//! * [`TreePrefetcher`] — the CUDA-driver tree-based neighborhood
//!   prefetcher (ISCA 2019, §VI-E), attachable to any policy.
//! * [`OraclePolicy`] — a profile-guided static-best upper bound (not in
//!   the paper; used by the extension ablation).
//!
//! The three uniform schemes themselves (on-touch / access-counter /
//! duplication) live in `grit-uvm` as [`grit_uvm::StaticPolicy`].
//!
//! # Example
//!
//! ```
//! use grit_baselines::{GpsPolicy, GriffinDpcPolicy};
//! use grit_sim::SimConfig;
//! use grit_uvm::{UvmDriver, WriteMode};
//!
//! let driver = UvmDriver::new(SimConfig::default(), 1024, Box::new(GpsPolicy::new()));
//! assert_eq!(driver.write_mode(), WriteMode::Broadcast);
//! let driver = UvmDriver::new(
//!     SimConfig::default(),
//!     1024,
//!     Box::new(GriffinDpcPolicy::new(4)),
//! );
//! assert!(driver.wants_access_feed());
//! ```

#![warn(missing_docs)]

pub mod first_touch;
pub mod gps;
pub mod griffin;
pub mod ideal;
pub mod oracle;
pub mod prefetch;
pub mod transfw;

pub use first_touch::FirstTouchPolicy;
pub use gps::GpsPolicy;
pub use griffin::{
    apply_acud, GriffinDpcPolicy, DPC_DOMINANCE, DPC_INTERVAL_DEFAULT, DPC_MIN_ACCESSES,
};
pub use ideal::IdealPolicy;
pub use oracle::OraclePolicy;
pub use prefetch::{TreePrefetcher, LEAVES_PER_REGION, PAGES_PER_LEAF, PAGES_PER_REGION};
pub use transfw::{apply_transfw, TRANSFW_HOST_FACTOR};
