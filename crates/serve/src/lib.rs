//! # pb-serve — the resident PB-SpGEMM service
//!
//! The paper's bandwidth-optimisation machinery (propagation-blocked
//! binning, SIMD sort kernels, the regret-gated planner, zero-allocation
//! workspaces) pays off most in a **long-lived process**,
//! where workspaces amortise and the planner calibrates to the host across
//! requests instead of being rebuilt per invocation.  This crate is that
//! process:
//!
//! * a TCP server speaking a line-delimited JSON [`protocol`] (one request
//!   per line, one response per line), driven by the vendored
//!   [`miniloop`] event loop — no crates.io runtime;
//! * a byte-budgeted LRU [`catalog`] of named resident
//!   matrices, each with its own [`SpGemm`](pb_spgemm::SpGemm) engine
//!   (entry-private workspace, server-shared planner and profile sink);
//! * a request router dispatching `multiply`/`mcl`/`bc`/`apsp` through the
//!   graph crate's builder API, **batching same-key multiply requests** so
//!   one engine call (one workspace lease) answers all of them;
//! * a `/metrics`-style text endpoint ([`metrics`]) exposing `PhaseStats`,
//!   planner and ISA telemetry, per-op request-latency histograms and
//!   catalog occupancy, with a vendored [`exposition`] parser to consume
//!   it;
//! * end-to-end request tracing: every request carries a correlation id
//!   through `accept → parse → queue → handle → respond` (and down into
//!   the engine's phase spans), exported as Chrome trace-event JSON by the
//!   `trace` op and surfaced by the `PB_SERVE_SLOW_MS` slow-request log.
//!
//! ```no_run
//! use pb_serve::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default()).expect("bind");
//! println!("serving on {}", server.addr());
//! // … connect with any line-oriented TCP client …
//! server.join();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod config;
pub mod exposition;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use catalog::{Catalog, Entry, EntryInfo};
pub use config::{ServeConfig, ADDR_ENV, BUDGET_ENV, SLOW_MS_ENV, WORKERS_ENV};
pub use exposition::Exposition;
pub use metrics::{OpLatencies, ServerCounters, OP_NAMES};
pub use protocol::{fingerprint, parse_request, GenKind, Request};
pub use server::{Server, BATCH_LIMIT};
