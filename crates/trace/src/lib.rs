//! # grit-trace
//!
//! Observability layer of the GRIT reproduction: structured, cycle-stamped
//! events for every virtual-memory action the simulator takes (faults,
//! migrations, duplications, collapses, evictions, scheme changes, link
//! transfers), plus machine-readable run reports.
//!
//! The workspace builds fully offline with no serde, so this crate carries
//! its own minimal JSON value type ([`Json`]) with a compact writer and a
//! recursive-descent parser. The writer emits JSONL traces and
//! `run_report.json`; the parser reads back only what the program itself
//! consumes: result-store metrics and the report's `profile` object.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** A disabled [`Tracer`] is a `None`; every
//!    emission site pays one branch and never constructs the event.
//! 2. **Deterministic output.** Events are buffered per cell and submitted
//!    to the global JSONL writer in cell declaration order, so a trace is
//!    byte-identical at any worker count.
//! 3. **Counters and events never drift.** Events are emitted at the exact
//!    sites the `FaultCounters` fields increment, so per-category event
//!    counts equal the printed counters (modulo explicit sampling).

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod report;
pub mod sink;
pub mod writer;

pub use event::{
    events_to_jsonl, CategoryMask, EventCategory, FaultClass, LinkKind, TraceEvent, TRACE_SCHEMA,
};
pub use json::Json;
pub use report::{
    metrics_from_json, metrics_to_json, CellTiming, CycleProfile, HistReport, PhaseEntry,
    ProfileReport, StoreCounters,
};
pub use sink::{TraceConfig, Tracer};
pub use writer::CellMeta;
