//! Connection supervisor: bounded accept, deadlines, idle reaping and
//! graceful drain over plain `std::net`.
//!
//! [`HttpServer`] binds the listener and hands it to the epoll event
//! loop in [`crate::reactor`]: one reactor thread multiplexes every
//! socket, answers each cache hit itself and hands the other requests to
//! the serve layer's one bounded queue, whose workers run the queries; the connection ceiling is the
//! fd budget (tens of thousands), not a thread count. This module spawns
//! no thread itself, and a stack's threads are the reactor plus
//! `ServeConfig::workers`.
//!
//! The protocol semantics the front door enforces: over-capacity
//! accepts get an honest `503 + Retry-After` instead of an invisible
//! kernel queue; idle keep-alive connections are reaped; and the read
//! deadline is *cumulative per request* — the clock starts at the
//! request's first byte and is never reset by further arrivals, so a
//! peer trickling one byte per tick cannot hold the connection open. It
//! gets an honest 408 once the whole header+body transfer has taken
//! longer than `read_timeout` (slowloris protection).

use crate::metrics::{WireMetrics, WireStats};
use crate::reactor::ReactorHandle;
use crate::router::ReadContext;
use covidkg_serve::Server;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Network front-end tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind (use port 0 for an OS-assigned port).
    pub addr: SocketAddr,
    /// Maximum simultaneously open connections; excess accepts are
    /// answered `503 Retry-After: 1` and closed.
    pub max_connections: usize,
    /// Cumulative per-request read deadline: a request whose bytes
    /// (header + body) have not all arrived within this long of its
    /// first byte is answered 408 — trickling progress does not extend
    /// it (slowloris protection).
    pub read_timeout: Duration,
    /// Socket-level bound on blocking writes.
    pub write_timeout: Duration,
    /// A keep-alive connection idle (no partial request buffered)
    /// longer than this is reaped.
    pub idle_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            // A connection is ~1 KiB of reactor state, not a thread:
            // the default cap is an fd budget.
            max_connections: 10_000,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) serve: Arc<Server>,
    pub(crate) config: NetConfig,
    pub(crate) wire: WireMetrics,
    /// Lag-aware read routing across a replica pool, when configured.
    pub(crate) repl: Option<ReadContext>,
    pub(crate) shutting_down: AtomicBool,
}

/// A running HTTP front-end. Dropping it (or calling
/// [`HttpServer::shutdown`]) drains in-flight requests and joins the
/// reactor thread.
pub struct HttpServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    reactor: ReactorHandle,
}

impl HttpServer {
    /// Bind `config.addr` and start accepting.
    pub fn start(serve: Arc<Server>, config: NetConfig) -> std::io::Result<HttpServer> {
        HttpServer::start_routed(serve, None, config)
    }

    /// Like [`HttpServer::start`], but `/search/*` reads are routed
    /// lag-aware through a replica pool and `/metrics` carries the
    /// replication series. `serve` remains the node's local server for
    /// `/kg/node`, `/stats` and the serve-layer metrics.
    pub fn start_routed(
        serve: Arc<Server>,
        repl: Option<ReadContext>,
        config: NetConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            serve,
            config,
            wire: WireMetrics::default(),
            repl,
            shutting_down: AtomicBool::new(false),
        });
        let reactor = crate::reactor::spawn(listener, Arc::clone(&shared))?;
        Ok(HttpServer {
            shared,
            local_addr,
            reactor,
        })
    }

    /// The bound address (with the OS-assigned port when 0 was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Wire-level counters.
    pub fn wire_stats(&self) -> WireStats {
        self.shared.wire.snapshot()
    }

    /// Stop accepting, drain in-flight requests, join the reactor.
    /// Idempotent. The serve-layer [`Server`] is left running — it is
    /// owned by the caller.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        self.reactor.shutdown();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
