#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-kg
//!
//! The COVIDKG knowledge graph (§4): an interactive hierarchical graph of
//! COVID-19 medical knowledge with provenance back to publications.
//!
//! * [`graph`] — the hierarchical multi-parent node structure, JSON
//!   persistence, and search with path highlighting ("the front-end …
//!   also highlights the path to the matching nodes", §4.2);
//! * [`seed`] — the medical-expert initial layout (№1 in Fig 1: "an
//!   initial, small (10-20 nodes) structural layout");
//! * [`extract`] — turning classified tables into candidate subtrees
//!   (№6 in Fig 1: "newly discovered vaccines, strains, side-effects
//!   extracted … later fused with the main KG");
//! * [`fusion`] — the §4.2 fusion algorithm: normalized NLP term matching
//!   amended by embedding-driven matching for unseen terms, multi-layer
//!   subtrees routed to a human-expert review queue (№14), and a
//!   correction memory that makes fusion "minimally supervised" over
//!   time;
//! * [`profile`] — multi-layered meta-profiles (Fig 6): side-effect
//!   records grouped by vaccine, dosage and paper;
//! * [`query`] — the graph query engine: typed multi-hop query plans
//!   (kind/provenance predicate filters, co-occurrence expansion over
//!   shared-paper provenance) executed as one bounded in-place
//!   forward traversal over the graph's maintained provenance indexes,
//!   returning top-k ranked paths;
//! * [`oracle`] — the exhaustive-DFS equivalence oracle for the query
//!   engine, reading provenance as strings and sharing no code with it;
//! * [`materialize`] — incrementally-materialized meta-profile
//!   documents: kept fresh off the collection mutation log instead of
//!   full rebuilds, epoch-stamped so stale profiles are never served.

pub mod extract;
pub mod fusion;
pub mod graph;
pub mod materialize;
pub mod oracle;
pub mod profile;
pub mod query;
pub mod seed;

pub use extract::{extract_subtrees, ExtractedTree};
pub use fusion::{ExpertOracle, FusionConfig, FusionEngine, FusionOutcome, FusionStats, ScriptedExpert};
pub use graph::{GraphChanges, KnowledgeGraph, NodeId, NodeKind, SearchHit};
pub use materialize::{profile_document, ProfileStore, ProfileStoreStats};
pub use profile::{build_meta_profiles, MetaProfile, Observation};
pub use oracle::execute_oracle;
pub use query::{
    execute, execute_optimized, HopRel, HopStep, QueryPlan, QueryResult, RankedPath, StartSet,
};
pub use seed::seed_graph;
