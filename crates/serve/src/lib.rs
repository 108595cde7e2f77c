//! Campaign service for the GRIT reproduction: a long-lived local TCP
//! server that executes [`RunSpec`](grit_sim::RunSpec) cells and streams
//! results back as newline-delimited JSON (`grit-serve/v1`).
//!
//! The crate is deliberately split in three:
//!
//! * [`wire`] — the versioned message schema. Pure data: every message
//!   round-trips through [`grit_trace::Json`], unknown fields are
//!   tolerated, and a `schema` tag guards against protocol skew.
//! * [`server`] — the TCP accept loop, a process-wide worker pool, and
//!   the per-connection ordered sink that turns out-of-order completion
//!   into per-client declaration-order delivery. Execution itself is a
//!   pluggable [`server::SpecRunner`] callback, which keeps this crate
//!   free of any dependency on the experiment engine (the `grit` crate
//!   supplies the real runner; tests supply stubs).
//! * [`client`] — a small blocking client used by `repro submit` and
//!   the integration tests.
//! * [`chaos`] — a deterministic fault-injecting localhost proxy
//!   (close/truncate/stall/duplicate on exact byte schedules) used by
//!   the chaos tests to prove the above degrade gracefully.
//!
//! The server is *local-first*: it binds a loopback-style TCP port so
//! several shells and CI steps can share one warm process (one workload
//! cache, one result store), not to be exposed to a network.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod server;
pub mod wire;

pub use chaos::{ChaosFault, ChaosProxy};
pub use client::{CampaignOutcome, ClientError, ServeClient};
pub use server::{ServeOptions, ServeSummary, Server, ShutdownHandle, SpecFailure, SpecRunner};
pub use wire::{CellResult, Request, Response, SERVE_SCHEMA};
