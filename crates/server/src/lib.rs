//! `abcd-server` — the `abcdd` persistent optimization service.
//!
//! ABCD is demand-driven and therefore cheap per check, but a batch `mjc`
//! invocation still pays compile + e-SSA + analysis for every function on
//! every run. This crate keeps the optimizer resident: a daemon (`abcdd`)
//! listens on a Unix-domain socket, optimizes modules on request, and
//! shares one content-addressed [`abcd::AnalysisCache`] across requests so
//! an edit to one function recompiles *that function* (plus interprocedural
//! dependents, via summary fingerprints) instead of the module.
//!
//! - [`proto`] — framing, request/response schema (v1 single + v2
//!   pipelined batches), deadline + retry contract;
//! - [`transport`] — UDS and TCP listeners/connections behind one type;
//! - [`ServerConfig::from_args`] — the daemon's command line, shared by
//!   `abcdd` and `mjc serve`;
//! - [`server`] — per-listener acceptors / one bounded run queue /
//!   a supervised worker pool / graceful drain, with optional seeded
//!   fault injection;
//! - [`client`] — a blocking client used by `mjc client`, `loadgen`, and
//!   the tests;
//! - [`json`] — the dependency-free JSON reader behind both.
//!
//! Differential guarantee: a served module is byte-identical to one-shot
//! `mjc dump --stage opt` output for the same input and options, warm or
//! cold cache (the driver canonicalizes IR as its final stage precisely so
//! this holds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cli;
pub mod client;
pub mod json;
pub mod proto;
mod queue;
mod registry;
pub mod server;
pub mod transport;

pub use cli::SERVE_FLAGS;
pub use client::{
    metrics_at, optimize_at, optimize_batch_at, ping_at, roundtrip_at, shutdown_at, stats_at,
    BatchItem, CallOptions, Optimized, Reply, RetryPolicy,
};
pub use server::{start, ServerConfig, ServerHandle};
pub use transport::{Endpoint, ListenAddr};
