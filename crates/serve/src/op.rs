//! The op table: the operations the server answers, and the per-op
//! constants that are the only things that differ between them. The
//! serve path ([`crate::Server::request`]) and the wire router both read
//! it, so a traffic class is a row here, not a copy of the plumbing.
//!
//! ```text
//! op           class (and breaker)       cache key       staleness
//! Search       all-fields|tables|scoped  all| tab| tac|  may-serve-stale
//! Dense        semantic|hybrid           sem| hyb|       never-stale
//! KgQuery      kg                        kgq|            never-stale
//! KgProfile    kg                        kgp|            never-stale
//! KgNode       kg                        kgn|            never-stale
//! TrustNode    trust                     tn|             never-stale
//! TrustSource  trust                     ts|             never-stale
//! BiasReport   trust                     bias|           never-stale
//! ```
//!
//! Every miss runs behind its class's circuit breaker, the fault
//! schedule and panic isolation: one breaker per [`Class`].
//!
//! The three rankable ops carry the `trust=1` knob as their last field:
//! the trust re-rank is computed with the value, under the same system
//! read lock, and cached apart from the default ranking under the key
//! suffix `|trust`.

use crate::cache::Entry;
use crate::metrics::{Class, Metrics};
use covidkg_core::{CovidKg, QueryPlan};
use covidkg_search::{cache_key_and_query, dense_cache_key, DenseMode, SearchMode};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

/// What an unhealthy class (breaker open, or the worker panicked on this
/// request) may answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staleness {
    /// Availability over freshness: a cached page of *any* generation,
    /// marked stale, before the typed `Degraded`.
    MayServeStale,
    /// Freshness over availability: bodies are epoch-stamped, so an old
    /// generation is never served — the caller gets the typed `Degraded`.
    NeverStale,
}

/// One request: borrowed from a typed caller (`Cow::Borrowed`), owned by
/// the wire router that parsed it.
#[derive(Debug, Clone)]
pub enum Op<'a> {
    /// One of the three §2.1 lexical engines, the 0-based page, and
    /// whether the page is re-ranked by provenance trust.
    Search(Cow<'a, SearchMode>, usize, bool),
    /// Semantic (pure ANN) or hybrid (ANN + lexical, rank-fused) search;
    /// page and trust re-rank as for [`Op::Search`].
    Dense(Cow<'a, DenseMode>, usize, bool),
    /// Multi-hop ranked-path traversal, and whether the paths are
    /// re-ranked by provenance trust.
    KgQuery(Cow<'a, QueryPlan>, bool),
    /// One vaccine's materialized meta-profile document.
    KgProfile(Cow<'a, str>),
    /// One KG node document.
    KgNode(usize),
    /// One KG node's trust document.
    TrustNode(usize),
    /// One source venue's credibility document.
    TrustSource(Cow<'a, str>),
    /// The trust-weighted bias interrogation report.
    BiasReport,
}

impl Op<'_> {
    /// The traffic class: the request counter and the circuit breaker
    /// this op is accounted against.
    pub fn class(&self) -> Class {
        match self {
            Op::Search(mode, ..) => match &**mode {
                SearchMode::AllFields(_) => Class::AllFields,
                SearchMode::Tables(_) => Class::Tables,
                SearchMode::TitleAbstractCaption { .. } => Class::Scoped,
            },
            Op::Dense(mode, ..) => match &**mode {
                DenseMode::Semantic(_) => Class::Semantic,
                DenseMode::Hybrid(_) => Class::Hybrid,
            },
            Op::KgQuery(..) | Op::KgProfile(_) | Op::KgNode(_) => Class::Kg,
            Op::TrustNode(_) | Op::TrustSource(_) | Op::BiasReport => Class::Trust,
        }
    }

    /// Whether degraded mode may answer from an older generation.
    pub fn staleness(&self) -> Staleness {
        match self {
            Op::Search(..) => Staleness::MayServeStale,
            _ => Staleness::NeverStale,
        }
    }

    /// Whether the `trust=1` re-rank knob is on.
    pub fn trusted(&self) -> bool {
        matches!(
            self,
            Op::Search(_, _, true) | Op::Dense(_, _, true) | Op::KgQuery(_, true)
        )
    }

    /// The canonical cache key, and for searches the text a page echoes
    /// as its `query`: the cache keys a search by its stems, so requests
    /// that spell a query differently share an entry — every byte of it
    /// but that echo, which each reply carries in its own spelling.
    pub(crate) fn key_and_echo(&self) -> (String, Option<Cow<'_, str>>) {
        let (mut key, echo) = match self {
            Op::Search(mode, page, _) => {
                let (key, query) = cache_key_and_query(mode, *page);
                (key, Some(query))
            }
            Op::Dense(mode, page, _) => (
                dense_cache_key(mode, *page),
                Some(Cow::Borrowed(mode.query())),
            ),
            Op::KgQuery(plan, _) => (plan.cache_key(), None),
            Op::KgProfile(vaccine) => (format!("kgp|{}:{vaccine}", vaccine.len()), None),
            Op::KgNode(id) => (format!("kgn|{id}"), None),
            Op::TrustNode(id) => (format!("tn|{id}"), None),
            Op::TrustSource(venue) => (format!("ts|{}:{venue}", venue.len()), None),
            Op::BiasReport => ("bias|".to_string(), None),
        };
        if self.trusted() {
            key.push_str("|trust");
        }
        (key, echo)
    }

    /// Compute the answer against `system` and serialize it — the one
    /// time it is: a page (kept beside its bytes) for the searches, a
    /// KG query's body written straight to bytes, the JSON document for
    /// everything else. `None` = unknown node id, vaccine or venue.
    pub(crate) fn compute(&self, system: &CovidKg, metrics: &Metrics) -> Option<Arc<Entry>> {
        let body = |json: String| Some(Entry::from(json));
        let page = |page, trusted| {
            let page = if trusted {
                system.rerank_by_trust(page)
            } else {
                page
            };
            Some(Entry::from(Arc::new(page)))
        };
        let entry = match self {
            Op::Search(mode, at, trusted) => page(system.search(mode, *at), *trusted),
            Op::Dense(mode, at, trusted) => page(system.search_dense(mode, *at), *trusted),
            Op::KgQuery(plan, trusted) => {
                let result = system.kg_query(plan);
                metrics.record_kg_traversal(result.hops, result.visited);
                body(if *trusted {
                    system.kg_trust_body(&result)
                } else {
                    result.to_body()
                })
            }
            Op::KgProfile(vaccine) => system
                .kg_profile(vaccine)
                .and_then(|doc| body(doc.to_json())),
            Op::KgNode(id) => system.kg_node(*id).and_then(|doc| body(doc.to_json())),
            Op::TrustNode(id) => system.trust_node(*id).and_then(|doc| body(doc.to_json())),
            Op::TrustSource(venue) => system
                .trust_source(venue)
                .and_then(|doc| body(doc.to_json())),
            Op::BiasReport => body(system.bias_document().to_json()),
        };
        entry.map(Arc::new)
    }
}

/// What [`crate::Server::request`] answers with, whatever the op —
/// fresh, cached and stale alike: the shared entry, and the one thing a
/// reply does not share with the others under its key.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The serialized body (and for searches the typed page), shared
    /// with the cache and every other reply under the same key.
    pub entry: Arc<Entry>,
    /// This request's own query text, when the entry was computed for
    /// another spelling of it: what the reply echoes in place of the
    /// entry's.
    pub query: Option<String>,
    /// Whether the value came from the cache.
    pub cached: bool,
    /// Degraded-mode answer: the value may predate the current data
    /// generation. Only ever set for may-serve-stale ops.
    pub stale: bool,
    /// Data generation the value was computed at.
    pub generation: u64,
    /// Time inside `Server::request`: the probe, and for a miss the
    /// compute (a wire miss's wait in the queue between the two is not
    /// counted).
    pub latency: Duration,
}

/// A request the cache did not answer: what [`crate::Server::probe`]
/// worked out for it, handed with its op to
/// [`crate::Server::compute_miss`], so a miss is keyed once wherever it
/// is computed.
#[derive(Debug)]
pub struct Miss {
    pub(crate) key: String,
    pub(crate) echo: Option<String>,
    /// How long the probe took: part of the reply's latency, where a wait
    /// before `compute_miss` is not.
    pub(crate) probed: Duration,
}
