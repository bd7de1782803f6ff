#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-store
//!
//! An in-process, sharded JSON document store modeled on the MongoDB
//! deployment backing COVIDKG.ORG (§2, Fig 5). The paper's back-end is "a
//! sharded MongoDB JSON storage that holds more than 450,000 publications
//! … parsed into JSON and enriched … by our Deep-Learning models"; its
//! search engines are aggregation pipelines whose first stage is a
//! `$match`, followed by `$project` and custom `$function` ranking stages
//! (§2.1). This crate reproduces that API surface so the rest of the
//! system is written against the same dataflow:
//!
//! * [`Database`] / [`Collection`] — named collections of JSON documents,
//!   hash-sharded across [`shard::Shard`]s guarded by `std::sync`
//!   RwLocks;
//! * [`filter::Filter`] — MongoDB-style query documents (`$eq`, `$ne`,
//!   `$gt(e)`, `$lt(e)`, `$in`, `$nin`, `$exists`, `$regex`, `$and`,
//!   `$or`, `$not`, `$text`);
//! * [`pipeline::Pipeline`] — aggregation stages: `$match`, `$project`,
//!   `$function`, `$addFields`, `$sort`, `$skip`, `$limit`, `$group`,
//!   `$unwind`, `$count`;
//! * [`index`] — hash indexes and stemmed inverted text indexes that
//!   accelerate `$match`-first pipelines;
//! * [`wal`] — length-prefixed, CRC32-checksummed write-ahead log plus
//!   snapshots, giving crash-recoverable persistence;
//! * [`fault`] — deterministic seeded fault injection ([`FaultPlan`])
//!   and bounded-backoff retry ([`RetryPolicy`]) for every WAL/snapshot
//!   I/O path;
//! * [`gauntlet`] — crash-at-every-point recovery gauntlet asserting
//!   prefix-consistent recovery from any torn or corrupt WAL tail;
//! * [`stats`] — the storage report (document counts, bytes per shard)
//!   mirroring the paper's "≈965 GB … more than 5 TB raw" summary shape.

pub mod collection;
pub mod db;
pub mod error;
pub mod fault;
pub mod filter;
pub mod flusher;
pub mod gauntlet;
pub mod index;
pub mod pipeline;
pub mod shard;
pub mod stats;
pub mod wal;

pub use collection::{Collection, CollectionConfig, DocsReader};
pub use db::Database;
pub use error::StoreError;
pub use fault::{Fault, FaultConfig, FaultOp, FaultPlan, FaultStats, RetryPolicy};
pub use filter::Filter;
pub use flusher::{Flusher, FlusherStats};
pub use gauntlet::{run_gauntlet, GauntletConfig, GauntletReport};
pub use index::{DocPostings, HashIndex, IndexReader, Posting, TextIndex};
pub use pipeline::{Accumulator, Pipeline, Stage};
pub use stats::{CollectionStats, DbStats, ShardStats};
pub use wal::{WalReader, WalRecord, WalTail};
