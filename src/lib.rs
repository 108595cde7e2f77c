//! # grit
//!
//! Top-level crate of the GRIT reproduction (HPCA 2024: *GRIT — Enhancing
//! Multi-GPU Performance with Fine-Grained Dynamic Page Placement*).
//!
//! This crate assembles the substrate crates into a runnable multi-GPU
//! system ([`Simulation`]) and hosts one experiment driver per figure of
//! the paper ([`experiments`]), used by the `repro` binary.
//!
//! * `grit-sim` — time, ids, access streams, Table I configuration
//! * `grit-mem` — caches, TLBs, page walkers, DRAM occupancy
//! * `grit-interconnect` — NVLink/PCIe fabric
//! * `grit-uvm` — the UVM driver and placement mechanisms
//! * `grit-core` — **GRIT** itself (PA-Table, PA-Cache, NAP)
//! * `grit-baselines` — first-touch, Ideal, Griffin, GPS, Trans-FW,
//!   tree prefetcher
//! * `grit-workloads` — the eight Table II benchmarks + two DNNs
//! * `grit-metrics` — latency breakdowns, fault counters, reports
//!
//! # Quickstart
//!
//! ```
//! use grit::prelude::*;
//!
//! let cfg = SimConfig::default();
//! let workload = WorkloadBuilder::new(App::Gemm).scale(0.02).build();
//! let policy = GritPolicy::new(GritConfig::full(&cfg), workload.footprint_pages);
//! let sim = Simulation::try_new(cfg, workload, Box::new(policy)).unwrap();
//! let out = sim.try_run().unwrap();
//! assert!(out.metrics.total_cycles > 0);
//! ```
//!
//! Batches of cells run through the Result-first [`experiments::run_batch`]
//! API: each cell yields `Result<RunOutput, CellError>`, so a panicking or
//! timed-out cell becomes a marked table row instead of aborting the
//! campaign (see `DESIGN.md` §11).

#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod service;

pub use runner::{ObserverConfig, RunObserver, RunOutput, Simulation, SimulationBuilder};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use grit_baselines::{
        apply_acud, apply_transfw, FirstTouchPolicy, GpsPolicy, GriffinDpcPolicy, IdealPolicy,
        TreePrefetcher,
    };
    pub use grit_core::{GritConfig, GritPolicy};
    pub use grit_metrics::{geomean, LatencyClass, Table};
    pub use grit_serve::{
        CampaignOutcome, CellResult, ServeClient, ServeOptions, ServeSummary, SERVE_SCHEMA,
    };
    pub use grit_sim::{
        Access, AccessKind, CancelToken, CellError, ConfigError, Cycle, GpuId, PageId, RunSpec,
        Scheme, SimConfig, PAGE_SIZE_2M, PAGE_SIZE_4K,
    };
    pub use grit_uvm::{PlacementPolicy, StaticPolicy, UvmDriver};
    pub use grit_workloads::{App, MultiGpuWorkload, WorkloadBuilder};

    pub use crate::experiments::{
        run_batch, run_batch_with, run_grid, BatchOptions, CellResultExt, CellSpec, ExpConfig,
        PolicyKind, PolicySpec,
    };
    pub use crate::runner::{ObserverConfig, RunOutput, Simulation, SimulationBuilder};
    pub use crate::service::{parse_spec_cell, run_spec, spec_runner};
}
