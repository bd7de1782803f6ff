//! The derived views and the one driver that keeps them fresh.
//!
//! Three things are derived from the publications collection (and, for
//! trust, the knowledge graph): the meta-profiles, the trust scores and
//! the dense tier's HNSW index. [`Views`] owns all three behind two
//! entry points. [`Views::rebuild`] derives everything from one scan of
//! the collection. [`Views::advance`] tails the collection's mutation
//! log from the epoch the stores are stamped with: one
//! `touched_since`, each touched document borrowed once and its tables
//! parsed once for all three views, then the stores' own
//! `refresh`/`insert`/`remove`. Whoever wrote the documents — an
//! ingest on this node or a replicated frame applied beneath it — the
//! log names them, so both callers make the same call and pay for the
//! delta; only a window the bounded log no longer covers falls back to
//! `rebuild`. The graph's side of the delta is the node list
//! [`KnowledgeGraph::take_changed`] drains: trust re-reads those nodes
//! and no others.
//!
//! `crates/core/tests/views_prop.rs` holds the contract: after any
//! interleaving of writes, graph growth and `advance`, every served
//! document equals what a fresh `rebuild` at the same epoch serves.

use crate::dense::{build_ann, doc_embedding};
use crate::system::parse_side_effect_table;
use covidkg_ann::{HnswConfig, HnswIndex};
use covidkg_json::Value;
use covidkg_kg::materialize::ProfileStore;
use covidkg_kg::profile::Observation;
use covidkg_kg::{GraphChanges, KnowledgeGraph};
use covidkg_ml::Word2Vec;
use covidkg_store::Collection;
use covidkg_tables::parse_tables;
use covidkg_trust::{PaperFacts, TrustStore};
use std::collections::HashMap;

/// Everything derived from the publications, advanced together.
#[derive(Debug)]
pub struct Views {
    profiles: ProfileStore,
    trust: TrustStore,
    ann: HnswIndex,
}

impl Views {
    /// Empty views over `dims`-dimensional embeddings, stamped epoch 0.
    pub fn new(dims: usize) -> Views {
        Views {
            profiles: ProfileStore::new(),
            trust: TrustStore::new(),
            ann: HnswIndex::new(dims, HnswConfig::default()),
        }
    }

    /// The mutation epoch all three views have replayed up to (the
    /// stores stamp it themselves; they move together).
    pub fn cursor(&self) -> u64 {
        self.profiles.epoch()
    }

    /// Derive everything from scratch: the initial build, a reopen, and
    /// the fallback when the log no longer covers the cursor. A
    /// `restored_ann` (reopen read one back from the model registry)
    /// stands in for the index build when it fits the collection.
    pub fn rebuild(
        &mut self,
        publications: &Collection,
        kg: &KnowledgeGraph,
        embeddings: &Word2Vec,
        restored_ann: Option<HnswIndex>,
    ) {
        // Read before the scan: a write racing with it is then past the
        // cursor and replayed by the next `advance`.
        let epoch = publications.mutation_epoch();
        let docs = publications.scan_all();
        let mut papers = Vec::with_capacity(docs.len());
        let mut facts = Vec::with_capacity(docs.len());
        for doc in &docs {
            let id = doc.get("_id").and_then(Value::as_str).unwrap_or_default();
            let observations = doc_observations(doc, id);
            facts.push(doc_paper_facts(doc, id, &observations));
            papers.push((id.to_string(), observations));
        }
        self.profiles.rebuild_all(papers, epoch);
        self.trust.rebuild_all(facts, kg, epoch);
        self.ann = restored_ann
            .filter(|ann| ann.len() == docs.len() && ann.dims() == embeddings.dims())
            .unwrap_or_else(|| build_ann(&docs, embeddings, *self.ann.config()));
    }

    /// Replay the mutation log since the cursor into all three views,
    /// and re-read for trust the graph nodes `changes` names (what
    /// [`KnowledgeGraph::take_changed`] drained since the graph was last
    /// read), so graph growth with an empty document delta is picked up
    /// too.
    pub fn advance(
        &mut self,
        publications: &Collection,
        kg: &KnowledgeGraph,
        changes: &GraphChanges,
        embeddings: &Word2Vec,
    ) {
        let epoch = publications.mutation_epoch();
        let Some(touched) = publications.touched_since(self.cursor()) else {
            return self.rebuild(publications, kg, embeddings, None);
        };
        let mut observations = HashMap::new();
        let mut facts = HashMap::new();
        for id in &touched {
            let derived = publications.with_doc(id, |doc| {
                let obs = doc_observations(doc, id);
                let f = doc_paper_facts(doc, id, &obs);
                (obs, f, doc_embedding(doc, embeddings))
            });
            match derived {
                // `insert` replaces an id the index already holds.
                Some((obs, f, vector)) => {
                    self.ann.insert(id, &vector);
                    observations.insert(id.as_str(), obs);
                    facts.insert(id.as_str(), f);
                }
                None => {
                    self.ann.remove(id);
                }
            }
        }
        self.profiles.refresh(epoch, &touched, |id| {
            observations.remove(id).unwrap_or_default()
        });
        self.trust
            .refresh(epoch, &touched, kg, changes, |id| facts.remove(id));
    }

    /// Stamp the system generation the views are current as of.
    pub fn set_generation(&mut self, generation: u64) {
        self.profiles.set_generation(generation);
        self.trust.set_generation(generation);
    }

    /// Vaccine side-effect meta-profiles (Fig 6).
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// Venue credibility priors propagated over the graph.
    pub fn trust(&self) -> &TrustStore {
        &self.trust
    }

    /// HNSW over title+abstract embeddings.
    pub fn ann(&self) -> &HnswIndex {
        &self.ann
    }
}

/// One stored publication document's side-effect observations (cheap,
/// classifier-free — caption-gated table parsing only).
pub fn doc_observations(doc: &Value, paper_id: &str) -> Vec<Observation> {
    let mut observations = Vec::new();
    if let Some(tables) = doc.path("tables").and_then(Value::as_array) {
        for t in tables {
            if let Some(html) = t.path("html").and_then(Value::as_str) {
                for table in parse_tables(html).unwrap_or_default() {
                    observations.extend(parse_side_effect_table(
                        &table.caption,
                        &table.rows,
                        paper_id,
                    ));
                }
            }
        }
    }
    observations
}

/// One stored publication's trust facts: venue, publication year,
/// structural density (tables/captions), and the claim keys its
/// side-effect tables support (`vaccine|effect`, the corroboration
/// currency), read off `observations` — that document's
/// [`doc_observations`].
pub fn doc_paper_facts(doc: &Value, paper_id: &str, observations: &[Observation]) -> PaperFacts {
    let venue = doc
        .path("venue")
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_string();
    let year = doc
        .path("date")
        .and_then(Value::as_str)
        .and_then(|s| s.get(..4))
        .and_then(|y| y.parse().ok())
        .unwrap_or(0);
    let mut tables = 0usize;
    let mut captions = 0usize;
    if let Some(ts) = doc.path("tables").and_then(Value::as_array) {
        for t in ts {
            if let Some(html) = t.path("html").and_then(Value::as_str) {
                tables += 1;
                captions += html.matches("<caption").count();
            }
        }
    }
    let claims = observations
        .iter()
        .map(|o| format!("{}|{}", o.vaccine.to_lowercase(), o.effect.to_lowercase()))
        .collect();
    PaperFacts {
        paper_id: paper_id.to_string(),
        venue,
        year,
        tables,
        captions,
        claims,
    }
    .canonicalize()
}

/// [`doc_paper_facts`] over the whole collection — what a from-scratch
/// trust rebuild is fed (benches price one with it).
pub fn scan_paper_facts(publications: &Collection) -> Vec<PaperFacts> {
    publications
        .scan_all()
        .iter()
        .map(|doc| {
            let id = doc.get("_id").and_then(Value::as_str).unwrap_or_default();
            doc_paper_facts(doc, id, &doc_observations(doc, id))
        })
        .collect()
}
