#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-corpus
//!
//! Deterministic synthetic stand-ins for the two corpora the paper trains
//! and serves from: **CORD-19** (450k+ COVID-19 publications with raw HTML
//! tables, [79]) and **WDC** web tables ([61], used for embedding
//! pre-training). Real CORD-19 is a data gate for this reproduction, so a
//! seeded generator produces publications with the same *shapes* the
//! COVIDKG pipeline consumes — titles/abstracts/body sections, authors,
//! HTML tables with metadata rows, figure captions — plus the ground truth
//! the paper never had to synthesize (topic labels, metadata-row labels,
//! query relevance) that powers the quantitative experiments.
//!
//! * [`topics`] — the COVID-19 topic model (vaccines, variants, symptoms,
//!   transmission, …) with per-topic term banks and entities;
//! * [`tablegen`] — themed table generation (horizontal and vertical
//!   orientation, §3.3) with labeled metadata rows, rendered as raw HTML
//!   fragments like CORD-19 ships, plus WDC-style generic web tables;
//! * [`publication`] — the publication document model and its JSON shape;
//! * [`generator`] — the seeded corpus generator;
//! * [`queries`] — benchmark queries with relevance ground truth (for E4).

pub mod generator;
pub mod publication;
pub mod queries;
pub mod tablegen;
pub mod topics;

pub use generator::{CorpusConfig, CorpusGenerator};
pub use publication::{Publication, SideEffectRecord};
pub use queries::{benchmark_queries, query_workload, BenchQuery};
pub use tablegen::{GeneratedTable, TableTheme};
pub use topics::{all_topics, Topic};
