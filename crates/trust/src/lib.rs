#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-trust
//!
//! The title's *Trustworthy* half: per-source credibility scoring and
//! trust propagation over the knowledge graph, kept fresh
//! incrementally off the collection mutation log and served as its own
//! wire traffic class.
//!
//! * [`prior`] — the source ledger: per-venue structural aggregates
//!   (breadth, recency, table/caption density) blended with claim
//!   corroboration across *other* venues into a credibility prior per
//!   venue. Priors are a pure function of the aggregates, and the
//!   aggregates are maintained by exact add/remove deltas — so the
//!   incremental path is equal to a from-scratch rebuild by
//!   construction.
//! * [`propagate`] — damped Jacobi trust propagation over the KG's
//!   child/parent edges: a fixed number of deterministic sweeps from a
//!   per-node base trust (provenance prior mass × independent-venue
//!   corroboration). The dirty-region variant re-sweeps only the ball
//!   reachable from changed nodes, reading the stored sweep history at
//!   the frontier, and is float-identical to a cold full run.
//! * [`store`] — [`TrustStore`]: the incrementally-maintained store
//!   behind `GET /trust/node/{id}`, `GET /trust/source/{venue}` and
//!   the trust-weighted `/bias/report`, epoch- and generation-stamped
//!   exactly like `covidkg_kg::materialize::ProfileStore` so a stale
//!   trust document is never served after an ingest.

pub mod prior;
pub mod propagate;
pub mod store;

pub use prior::{PaperFacts, SourceLedger, VenueScore};
pub use propagate::{propagate_dirty, propagate_full, DAMPING, SWEEPS};
pub use store::{TrustStore, TrustStoreStats};
