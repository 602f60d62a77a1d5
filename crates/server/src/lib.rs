//! # dram-server
//!
//! `dram-serve`: a dependency-free HTTP/1.1 + JSON evaluation service on
//! top of [`dram_core::batch::EvalEngine`]. The model became a library
//! in PR 1; this crate makes it infrastructure — other processes query
//! currents, pattern power and sensitivity sweeps over a socket and get
//! memoized, bit-identical answers from the shared process-wide engine.
//!
//! Built entirely on `std::net`: the workspace must stay resolvable
//! offline, so there is no tokio, hyper or serde. See `docs/SERVER.md`
//! for the endpoint reference.
//!
//! ## Endpoints
//!
//! | Route | Purpose |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /v1/presets` | names accepted by the `preset` request field |
//! | `POST /v1/evaluate` | description/preset → currents, energies, area |
//! | `POST /v1/batch` | array of evaluate requests in one parallel pass |
//! | `POST /v1/pattern` | IDD-style command-loop pattern power |
//! | `POST /v1/sweep` | ±variation sensitivity ranking |
//! | `POST /v1/trace` | streamed command trace → power-state energy report (chunked bodies stream; see `docs/TRACES.md`) |
//! | `GET /metrics` | request counters, latency histogram, slow samples, cache stats |
//! | `GET /debug/*` | loopback-only live introspection: flight-recorder events, per-request timelines, reactor connection table, on-demand profiling (see [`debug`]) |
//!
//! Every response (including 4xx and the backpressure 503) carries a
//! unique `x-request-id` header; the same id labels the request's
//! structured log line (see [`trace`]) and any slow-request sample in
//! `/metrics`.
//!
//! Connections are persistent: an epoll reactor parks idle HTTP/1.1
//! keep-alive connections without holding a worker, and pipelined
//! requests are answered in order. See the connection-lifecycle section
//! of `docs/SERVER.md` for the budgets and close rules.
//!
//! The crate also ships `dram-route` ([`router`]): a consistent-hash
//! shard router that places each request's model-description content
//! key on a ring of `dram-serve` nodes, with health probing, retries
//! under the shared [`retry`] policy, optional hedging, and a federated
//! `/metrics`. See `docs/SHARDING.md`. Both binaries run one front end:
//! the router answers its clients on the same reactor, worker pool and
//! connection lifecycle as `dram-serve`, and only what it answers with
//! differs.
//!
//! Clients — the router's upstream hop, the benches, tests and examples —
//! speak to a server through [`client`], one request writer and one
//! response reader built on the same field rules as the server's own
//! parser.
//!
//! ## In-process quickstart
//!
//! ```
//! let handle = dram_server::serve("127.0.0.1:0", dram_server::ServerConfig::default())
//!     .expect("bind");
//! let reply = dram_server::client::fetch(handle.local_addr(), "GET", "/healthz", b"")
//!     .expect("fetch");
//! assert_eq!(reply.status(), 200);
//! handle.shutdown();
//! ```
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod debug;
pub mod http;
pub mod metrics;
pub mod presets;
mod reactor;
pub mod retry;
pub mod ring;
pub mod router;
mod server;
pub mod trace;

#[cfg(test)]
#[path = "../tests/support/metrics_shape.rs"]
mod metrics_shape;

pub use http::{Limits, ReadError, Request, Response};
pub use metrics::{Metrics, RequestRecord, Route, SlowSample};
pub use reactor::wait_for_shutdown_signal;
pub use retry::{RetryPolicy, RetrySchedule};
pub use ring::Ring;
pub use router::{route_serve, RouterConfig, RouterHandle};
pub use server::{serve, ServerConfig, ServerHandle};
pub use trace::{LogLevel, Logger, RequestId, RequestIdSource};
