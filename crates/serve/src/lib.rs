#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-serve
//!
//! Concurrent query-serving frontend for the COVIDKG reproduction — the
//! layer that turns the single-threaded `CovidKg::search` API into the
//! "Web-scale … interrogated" serving story of the paper's deployment
//! (§2: the site serves its three search engines to concurrent users
//! from one long-lived sharded store).
//!
//! Architecture (std-only, no external dependencies):
//!
//! * [`Server`] — one worker thread pool draining one **bounded job
//!   queue** ([`Server::submit`]), the wire front end's only pool.
//!   Admission control is explicit: a full queue rejects with
//!   [`ServeError::Overloaded`] instead of queueing unboundedly, and a
//!   job that waited past the configured deadline is handed
//!   [`ServeError::DeadlineExceeded`] instead of running. Every traffic
//!   class takes the one [`Server::request`] path, on the calling thread
//!   (or its two halves, [`Server::probe`] and [`Server::compute_miss`],
//!   on two: the wire front end answers a hit where it parsed it), and
//!   differs only in its row of the [`op`] table (class label, cache
//!   key, may-serve-stale vs never-stale); every miss runs behind its
//!   class's circuit breaker.
//! * [`cache::QueryCache`] — a sharded LRU of shared [`Entry`]s (the
//!   bytes that are sent, serialized once, with the typed page beside
//!   them) keyed by `(engine, normalized query, page)`
//!   ([`covidkg_search::cache_key`]), invalidated by data generation:
//!   [`Server::ingest`] bumps the generation, and an entry whose tag no
//!   longer matches is never served as fresh (see `server.rs` for the
//!   stale-freedom argument).
//! * [`metrics`] — per-class request counts, cache hit/miss, queue
//!   depth and a log-bucketed latency [`Histogram`], snapshotted into
//!   [`ServeStats`] (p50/p95/p99); and [`Exposition`], the one writer of
//!   the `/metrics` page, through which each layer's snapshot writes its
//!   own series.
//! * [`loadgen`] — a closed-loop load generator (N client threads × M
//!   queries from `covidkg-corpus`) with direct-search spot checks,
//!   driving `covidkg chaos` and the stress tests.

pub mod cache;
pub mod loadgen;
pub mod metrics;
pub mod op;
pub mod server;

pub use cache::{CacheStats, Entry, QueryCache};
pub use loadgen::{LoadGenConfig, LoadGenReport};
pub use metrics::{Class, Exposition, Histogram, ServeStats};
pub use op::{Miss, Op, Reply, Staleness};
pub use server::{InjectedFaults, KgResponse, ServeConfig, ServeError, ServeResponse, Server};
