//! covidkg-net — a std-only HTTP/1.1 front-end for the serving stack.
//!
//! COVIDKG.ORG is, above all, a *web site*: §1 describes "a Web-scale
//! … interactive" system whose search engines and knowledge graph are
//! interrogated through a browser. Until this crate, the repo's
//! serving stack ([`covidkg_serve::Server`]) was only reachable
//! in-process. `covidkg-net` puts it on the wire with nothing beyond
//! `std::net`:
//!
//! - [`http`] — an incremental, bounds-checked HTTP/1.1 parser
//!   (431/413/400 on hostile input) and response writer with
//!   keep-alive semantics;
//! - [`server`] — the connection supervisor: bounded accept (503 +
//!   `Retry-After` past the cap), read/write deadlines, idle-connection
//!   reaping and graceful drain of in-flight requests on shutdown,
//!   all run by the epoll `reactor` (one event-loop thread answering
//!   cache hits itself and handing the rest to the serve layer's one
//!   bounded queue, tens of thousands of connections);
//! - [`router`] — `GET /search/{engine}`, `/kg/node/{id}`, `/stats`,
//!   `/metrics`, mapping the scheduler's typed backpressure errors
//!   (`Overloaded`, `DeadlineExceeded`, …) onto honest wire statuses;
//! - [`client`] + [`bench`] — an in-repo blocking client and the
//!   held-connection sweep, so the wire path is testable and its
//!   connection scaling measurable without any external tool.
//!
//! The load-bearing guarantee: a TCP client receives **byte-identical**
//! JSON search pages to an in-process `SearchPage::to_json()` caller
//! for the same (engine, query, page) — cached, fresh or stale.
//!
//! The only `unsafe` in the workspace is the four epoll calls in
//! `reactor`; every other crate forbids it, and each block here must
//! state its invariant.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bench;
pub mod client;
pub mod http;
pub mod metrics;
mod reactor;
pub mod router;
pub mod server;

pub use bench::{run_held_connections, NetBenchReport};
pub use client::{ClientResponse, HttpClient};
pub use http::{ParseError, Parser, Request, Response};
pub use metrics::{WireMetrics, WireStats};
pub use router::ReadContext;
pub use server::{HttpServer, NetConfig};
