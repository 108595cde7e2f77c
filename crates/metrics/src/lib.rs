//! # grit-metrics
//!
//! Measurement infrastructure for the GRIT reproduction: the six-way
//! page-handling latency breakdown of Fig. 3, fault counters (Fig. 18),
//! per-page attribute tracking (Figs. 4, 6–9), interval time series
//! (Figs. 5, 10), the scheme-usage mix (Fig. 19), and plain-text report
//! formatting used by the `repro` binary and EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod breakdown;
pub mod histogram;
pub mod page_attr;
pub mod report;
pub mod run;
pub mod timeseries;

pub use breakdown::{LatencyBreakdown, LatencyClass};
pub use histogram::LatencyHistogram;
pub use page_attr::{PageAttrSummary, PageAttrTracker};
pub use report::{geomean, speedups, Table};
pub use run::{FaultCounters, RunMetrics, SchemeMix};
pub use timeseries::{AttrGrid, IntervalSeries};
