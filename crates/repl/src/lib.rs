#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-repl
//!
//! WAL-shipping replication for the covidkg serving stack: a single
//! primary streams each collection's write-ahead log over TCP to N
//! replicas, which apply frames through the store's crash-recovery
//! path and serve reads locally. The paper's deployment runs
//! "non-stop" behind a web front-end (§1, Fig 5); this crate supplies
//! the read-scaling and failure-isolation half of that story:
//!
//! * [`ReplListener`] — primary-side session supervisor: streams WAL
//!   frames from any requested sequence, bootstraps stragglers from a
//!   checkpoint, tracks per-replica acks ([`ReplMetrics`]);
//! * [`ReplicaPuller`] / [`ReplicaNode`] — replica-side pull loops
//!   (bounded-backoff reconnect, CRC-verified frames, gap-triggered
//!   re-sync) and the full serving replica (replicated collections +
//!   local query server + derived-state refresh);
//! * [`ReadRouter`] — lag-aware round-robin read scaling with optional
//!   read-your-writes via a client-supplied minimum sequence token;
//! * [`protocol`] — the length-prefixed binary wire protocol, every
//!   leadership-asserting message stamped with a fencing [`Epoch`];
//! * [`failover`] — fenced failover: deterministic promotion
//!   ([`elect`]) of exactly one replica on primary loss, epoch
//!   bump + WAL ownership handoff, stale-epoch rejection so a revived
//!   ex-primary cannot split-brain, plus the kill-the-primary gauntlet;
//! * [`compress`] — std-only LZ compressor behind batched frame
//!   shipping;
//! * [`gauntlet`] — seeded kill/truncate/corrupt convergence gauntlet
//!   asserting every replica ends byte-identical to the primary.

pub mod compress;
pub mod failover;
pub mod gauntlet;
pub mod metrics;
pub mod primary;
pub mod protocol;
pub mod replica;
pub mod router;

pub use failover::{elect, run_failover_gauntlet, Epoch, FailoverConfig, FailoverReport};
pub use gauntlet::{run_repl_gauntlet, ReplGauntletConfig, ReplGauntletReport};
pub use metrics::{ReplMetrics, ReplStats};
pub use primary::{docs_checksum, ReplConfig, ReplListener};
pub use protocol::{Decoder, Message, ProtocolError};
pub use replica::{
    list_collections, PullerState, ReplicaNode, ReplicaNodeConfig, ReplicaPuller,
};
pub use router::{ReadRouter, ReplicaTarget, RouteError, RouteInfo, TargetHealth};

use covidkg_store::StoreError;

/// Replication failure.
#[derive(Debug)]
pub enum ReplError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The store rejected an operation.
    Store(StoreError),
    /// The peer violated the wire protocol (or shipped corrupt data).
    Protocol(String),
    /// A bounded wait expired.
    Timeout(String),
}

impl ReplError {
    /// The peer closed the connection.
    pub(crate) fn closed() -> ReplError {
        ReplError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "peer closed the connection",
        ))
    }
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Io(e) => write!(f, "replication i/o error: {e}"),
            ReplError::Store(e) => write!(f, "replication store error: {e}"),
            ReplError::Protocol(m) => write!(f, "replication protocol error: {m}"),
            ReplError::Timeout(what) => write!(f, "replication timed out waiting for {what}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> ReplError {
        ReplError::Io(e)
    }
}

impl From<StoreError> for ReplError {
    fn from(e: StoreError) -> ReplError {
        ReplError::Store(e)
    }
}
