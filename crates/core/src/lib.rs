#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-core
//!
//! The COVIDKG system facade: wires the substrates into the Fig 1
//! architecture and exposes the end-to-end flows the paper describes —
//! ingest (№3), model training (№4), topical clustering (№5), extraction
//! of new findings (№6), meta-profiles (№7), interactive browsing and
//! search (№9–10), the released-model API (№11/13) and expert-reviewed
//! fusion (№14).
//!
//! * [`training`] — building the §3 training sets (SVM feature vectors
//!   over bag-of-words + positional features; BiGRU tuple examples) and
//!   the 10-fold cross-validation harness behind §3.3;
//! * [`registry`] — the pre-trained model/embedding registry, stored as
//!   documents in the backing store ("COVIDKG.ORG also releases hundreds
//!   of pre-trained models and embeddings as an API");
//! * [`bias`] — the title's "Interrogated for Bias" artifact: embedding-
//!   driven clustering of the corpus with coverage/venue/freshness skew
//!   reporting;
//! * [`views`] — the derived views (meta-profiles, trust, the dense
//!   index) and the one mutation-log driver that keeps them fresh;
//! * [`system`] — [`CovidKg`]: build the whole system from a corpus and
//!   interrogate it (search, KG browsing, meta-profiles, stats).

pub mod bias;
pub mod dense;
pub mod registry;
pub mod system;
pub mod training;
pub mod views;

pub use bias::{interrogate, interrogate_weighted, BiasReport};
// KG query-engine surface, re-exported so serving layers can accept
// plans and report profile-store counters without a direct kg dep.
pub use covidkg_kg::materialize::ProfileStoreStats;
pub use covidkg_kg::query::{QueryPlan, QueryResult};
// Trust-store counters, re-exported for the same reason.
pub use covidkg_trust::TrustStoreStats;
pub use dense::{build_ann, doc_embedding};
pub use registry::ModelRegistry;
pub use system::{CovidKg, CovidKgConfig, IngestReport, PreparedIngest};
pub use views::{doc_observations, doc_paper_facts, scan_paper_facts, Views};
pub use training::{
    SvmFeaturizer,
    build_tuple_examples, build_svm_features, kfold_bigru, kfold_svm, CvReport, LabeledRow,
    labeled_rows_from_corpus, labeled_rows_from_wdc,
};
