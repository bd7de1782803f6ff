#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-search
//!
//! The COVIDKG.ORG advanced search engines (§2.1), built on the store's
//! aggregation pipeline. "We currently provide three different search
//! engines for different types of structural queries. All three have a
//! similar evaluation process, but produce different sets of results.
//! Each one allows for exact match of the query if wrapped in quotes or
//! stemming match capability on a tokenized query."
//!
//! * [`query`] — query parsing: quoted phrases become exact matches,
//!   everything else is tokenized and stemmed;
//! * [`rank`] — the ranking function: per-term TF-IDF, term proximity,
//!   field weights and static document features ("The ranking is an
//!   accumulation of various weighted features per document, such as the
//!   number of matches, proximity between the matched terms and which
//!   field the term was matched in");
//! * [`engine`] — the three engines (title/abstract/caption, all fields,
//!   tables), each compiled to a `$match` filter and served as one
//!   bounded top-k pass with 10-per-page pagination; the
//!   `$match` → `$project` → `$function` → `$sort` pipeline over a full
//!   scan is their oracle;
//! * [`result`] — result pages with snippets and highlight spans
//!   (Figs 2 & 4);
//! * [`render_cache`] — a bounded, epoch-invalidated memo of built
//!   snippets/highlights so cache-warm renders skip snippet work;
//! * [`hybrid`] — the dense serving modes: pure-semantic ANN retrieval
//!   and reciprocal-rank fusion of ANN neighbors with the lexical
//!   all-fields top-k.

pub mod engine;
pub mod hybrid;
pub mod query;
pub mod rank;
pub mod render_cache;
pub mod result;

pub use engine::{cache_key, cache_key_and_query, SearchEngine, SearchMode};
pub use hybrid::{dense_cache_key, dense_search, DenseMode, HybridConfig};
pub use query::{parse_query, ParsedQuery};
pub use rank::{RankWeights, Ranker};
pub use render_cache::{CachedRender, RenderCache, RenderCacheStats};
pub use result::{SearchPage, SearchResult};
