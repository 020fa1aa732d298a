//! The serving layer: a client-server deployment of the reproduction.
//!
//! The paper studies client-server query processing by simulation; this
//! crate closes the loop by actually *serving* those simulations over
//! TCP. A [`server::Server`] hosts the catalog, the two-phase and 2-step
//! optimizers, and the simulated execution engine; clients connect with
//! the length-prefixed frame protocol of [`proto`], declare a workload
//! spec plus their cache state, and get back the same figure-style
//! records the experiment harness produces — because both call the same
//! [`csqp_experiments::runner`] entry points.
//!
//! Module map:
//!
//! - [`proto`] — frames, the versioned header, typed [`proto::WireError`];
//! - [`server`] — accept loop, bounded admission queue, worker pool, and
//!   the deterministic [`server::QueryService`];
//! - `engine` (private) — the event-driven session engine: a fixed set
//!   of poll-based shard threads multiplexing every connection and
//!   driving each session as an explicit state machine, with per-session
//!   query pipelining (DESIGN.md §10);
//! - [`metrics`] — thread-safe counters behind the STATS frame;
//! - [`load`] — the `csqp-load` client: concurrent seeded load with a
//!   latency-percentile report;
//! - [`chaos`] — the seeded fault-injection soak harness the chaos
//!   tests drive, checking the no-panic / no-leak / conservation /
//!   same-seed-same-digest invariants.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
mod engine;
pub mod load;
pub mod metrics;
pub mod proto;
pub mod server;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use load::{run_load, IssuedQuery, LoadConfig, LoadReport, PipelineWindow};
pub use metrics::ServerMetrics;
pub use proto::{Frame, OptimizerMode, QueryRequest, ResultRecord, WireError};
pub use server::{QueryService, Server, ServerConfig, ServerHandle};
