#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg
//!
//! Umbrella crate for the COVIDKG.ORG reproduction (EDBT 2023). Re-exports
//! every subsystem plus the assembled [`CovidKg`] system.
//!
//! ```
//! use covidkg::{CovidKg, CovidKgConfig, SearchMode};
//!
//! let system = CovidKg::build(CovidKgConfig {
//!     corpus_size: 12,
//!     max_training_rows: 150,
//!     ..CovidKgConfig::default()
//! }).unwrap();
//! let page = system.search(&SearchMode::AllFields("vaccine".into()), 0);
//! assert!(page.total > 0);
//! ```

pub mod chaos;

pub use chaos::{ChaosConfig, ChaosReport};
pub use covidkg_core::{
    CovidKg, CovidKgConfig, CvReport, IngestReport, ModelRegistry,
};
pub use covidkg_core::system::ClassifierChoice;
pub use covidkg_search::{DenseMode, HybridConfig, SearchMode, SearchPage};
pub use covidkg_serve::{LoadGenConfig, ServeConfig, ServeError, ServeStats, Server};

/// JSON document model.
pub use covidkg_json as json;
/// Regular-expression engine.
pub use covidkg_regex as regex;
/// Text utilities (tokenizer, stemmer, TF-IDF, snippets).
pub use covidkg_text as text;
/// Table parsing, pre-processing and positional features.
pub use covidkg_tables as tables;
/// The sharded document store.
pub use covidkg_store as store;
/// From-scratch ML (SVM, Word2Vec, BiGRU/BiLSTM, k-means).
pub use covidkg_ml as ml;
/// Synthetic CORD-19/WDC corpus generators.
pub use covidkg_corpus as corpus;
/// The knowledge graph, fusion engine and meta-profiles.
pub use covidkg_kg as kg;
/// The three advanced search engines.
pub use covidkg_search as search;
/// System facade, training harness and model registry.
pub use covidkg_core as core;
/// Concurrent query serving (thread pool, admission control, result cache).
pub use covidkg_serve as serve;
/// HTTP/1.1 network front-end (std::net only) + wire client/load-bench.
pub use covidkg_net as net;
/// WAL-shipping replication: primary listener, replica nodes, routing.
pub use covidkg_repl as repl;
/// HNSW approximate-nearest-neighbour index (the dense retrieval tier).
pub use covidkg_ann as ann;
/// Provenance-weighted trust scoring (the fourth wire traffic class).
pub use covidkg_trust as trust;

pub use covidkg_ann::{AnnStats, HnswConfig, HnswIndex};
pub use covidkg_net::{HttpClient, HttpServer, NetConfig};
