#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-ann
//!
//! Std-only approximate nearest-neighbor search for the COVIDKG dense
//! retrieval tier. The paper's KG fusion (§4.2) already resolves unseen
//! terms via embedding distance; this crate gives the *serving* side the
//! same capability at document granularity: an HNSW proximity graph
//! (Malkov & Yashunin) over L2-normalized document embeddings, so cosine
//! similarity is a single dot product and a top-k query touches a
//! logarithmic fraction of the corpus instead of scanning it.
//!
//! - [`hnsw`] — the layered graph: seeded geometric level assignment
//!   (via `covidkg-rand`, keyed on the external id so levels are
//!   insertion-order independent), greedy descent through the upper
//!   layers, best-first beam search with an `ef` candidate list at the
//!   base layer, incremental insert, tombstoned delete/replace, and a
//!   compact text save/load format that rides the model registry.
//! - [`oracle`] — the exact brute-force scan over the same stored
//!   vectors: the recall ground truth every benchmark and property test
//!   measures against.
//! - [`metrics`] — per-query work counters (distance evaluations, hops,
//!   candidates) plus cumulative atomics surfaced as `covidkg_ann_*`
//!   series on `/metrics`.
//!
//! Determinism: identical `(config, insert sequence)` builds byte-
//! identical indexes, and ties (equal similarity) always break toward
//! the smaller external id — the same rule the lexical top-k merge uses.

pub mod hnsw;
pub mod metrics;
pub mod oracle;

pub use hnsw::{HnswConfig, HnswIndex};
pub use metrics::{AnnMetrics, AnnStats, QueryStats};
pub use oracle::exact_top_k;
