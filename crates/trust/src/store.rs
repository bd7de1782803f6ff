//! The incrementally-maintained trust store.
//!
//! [`TrustStore`] mirrors the shape of
//! `covidkg_kg::materialize::ProfileStore`: it holds per-paper facts
//! keyed by source paper, rebuilds everything on
//! [`TrustStore::rebuild_all`] (initial build, or the bounded mutation
//! log overflowed), and replays only touched papers on
//! [`TrustStore::refresh`] — handed the same touched ids as the profile
//! store by `covidkg-core`'s derived-view driver. From the facts it
//! derives venue credibility priors ([`SourceLedger`]), per-node base
//! trust (prior mass of a node's provenance papers × corroboration
//! across *independent* venues), and propagated node trust (damped
//! sweeps over child/parent edges, [`crate::propagate`]).
//!
//! Equivalence contract: after any mutation sequence the store's trust
//! vector and every served document are **bit-identical** to a
//! from-scratch [`TrustStore::rebuild_all`] over the same papers and
//! graph. Priors are a pure function of delta-maintained aggregates;
//! bases are a pure function of priors + facts + graph; propagation
//! re-sweeps exactly the dirty ball against the stored sweep history.
//! The property test in `tests/trust_prop.rs` pins the whole chain.
//!
//! Freshness contract: the store is stamped with the collection
//! mutation epoch it replayed up to and the system generation it was
//! refreshed at; every document embeds both, and the serve-layer cache
//! keys on the generation — so a stale trust score is never served
//! after an ingest.

use crate::prior::{PaperFacts, SourceLedger, VenueScore, PRIOR_FLOOR};
use crate::propagate::{propagate_dirty, propagate_full, SWEEPS};
use covidkg_json::{obj, Value};
use covidkg_kg::{KnowledgeGraph, NodeKind};
use std::collections::{BTreeMap, BTreeSet};

/// Base trust of a node with no literature provenance (seeded by the
/// medical expert): scaled by the node's fusion confidence.
pub const SEEDED_BASE: f64 = 0.25;

/// Counters for the `covidkg_trust_*` metrics series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrustStoreStats {
    /// Papers currently contributing facts.
    pub papers: usize,
    /// Venues currently holding papers.
    pub venues: usize,
    /// Distinct claims across all venues.
    pub claims: usize,
    /// Graph nodes with a propagated trust score.
    pub nodes: usize,
    /// Incremental refreshes applied (mutation-log driven).
    pub incremental_refreshes: u64,
    /// Full rebuilds (initial build, or the bounded log overflowed).
    pub full_rebuilds: u64,
    /// Node-sweep recomputations across all refreshes (dirty-ball work).
    pub nodes_repropagated: u64,
    /// Collection mutation epoch the store has replayed up to.
    pub epoch: u64,
    /// System generation the store was last refreshed at.
    pub generation: u64,
}

/// Live trust scores over sources and KG nodes, kept fresh per-paper.
#[derive(Debug, Clone, Default)]
pub struct TrustStore {
    /// paper id → its extracted facts. BTreeMap is the canonical order
    /// the equivalence contract depends on.
    by_paper: BTreeMap<String, PaperFacts>,
    /// Delta-maintained venue aggregates.
    ledger: SourceLedger,
    /// Venue scores, recomputed from the ledger every refresh.
    scores: BTreeMap<String, VenueScore>,
    // --- graph snapshot (labels are immutable; topology only grows) ---
    labels: Vec<String>,
    kinds: Vec<NodeKind>,
    /// Sorted, deduplicated parents ∪ children per node.
    neigh: Vec<Vec<usize>>,
    prov: Vec<Vec<String>>,
    conf: Vec<f64>,
    /// Per-node base trust (pure function of scores + facts + graph).
    base: Vec<f64>,
    /// Jacobi sweep history, `SWEEPS + 1` rows; the last row is the
    /// trust vector. Kept so dirty-ball updates can read unchanged
    /// iterates at the frontier.
    history: Vec<Vec<f64>>,
    epoch: u64,
    generation: u64,
    incremental_refreshes: u64,
    full_rebuilds: u64,
    nodes_repropagated: u64,
}

impl TrustStore {
    /// Empty store.
    pub fn new() -> TrustStore {
        TrustStore::default()
    }

    /// Replace the whole corpus and graph snapshot: the initial build,
    /// and the fallback when the bounded mutation log no longer covers
    /// the window (`touched_since` returned `None`). Paper order does
    /// not matter — the store canonicalizes by paper id.
    pub fn rebuild_all(&mut self, papers: Vec<PaperFacts>, kg: &KnowledgeGraph, epoch: u64) {
        self.by_paper.clear();
        self.ledger = SourceLedger::new();
        for f in papers {
            self.apply(f.paper_id.clone(), Some(f));
        }
        self.scores = self.ledger.score();
        self.snapshot_graph(kg);
        self.base = self.compute_bases();
        self.history = propagate_full(&self.neigh, &self.base);
        self.nodes_repropagated += (self.base.len() as u64) * (SWEEPS as u64);
        self.epoch = epoch;
        self.full_rebuilds += 1;
    }

    /// Incremental refresh: replay only the given papers (the mutation
    /// log's touched ids), rescore venues from the delta-maintained
    /// aggregates, and re-propagate only the dirty ball. `extract`
    /// re-derives one paper's facts (`None` = paper gone).
    pub fn refresh(
        &mut self,
        epoch: u64,
        paper_ids: &[String],
        kg: &KnowledgeGraph,
        mut extract: impl FnMut(&str) -> Option<PaperFacts>,
    ) {
        let mut ids: Vec<&String> = paper_ids.iter().collect();
        ids.sort();
        ids.dedup();
        for id in ids {
            let facts = extract(id);
            self.apply(id.clone(), facts);
        }
        self.scores = self.ledger.score();
        let mut dirty = self.snapshot_graph(kg);
        let new_base = self.compute_bases();
        for (n, &b) in new_base.iter().enumerate() {
            if self.base.get(n) != Some(&b) {
                dirty.insert(n);
            }
        }
        self.base = new_base;
        self.nodes_repropagated += propagate_dirty(&mut self.history, &self.neigh, &self.base, &dirty);
        self.epoch = epoch;
        self.incremental_refreshes += 1;
    }

    /// Upsert or remove one paper's facts, keeping the ledger in exact
    /// sync with `by_paper`.
    fn apply(&mut self, paper_id: String, facts: Option<PaperFacts>) {
        if let Some(old) = self.by_paper.remove(&paper_id) {
            self.ledger.remove(&old);
        }
        if let Some(f) = facts {
            let f = f.canonicalize();
            self.ledger.add(&f);
            self.by_paper.insert(paper_id, f);
        }
    }

    /// Re-snapshot the graph, returning nodes whose adjacency changed
    /// (new nodes included). Labels are immutable and confidence /
    /// provenance changes surface through the base diff, so adjacency
    /// is the only topology signal propagation needs.
    fn snapshot_graph(&mut self, kg: &KnowledgeGraph) -> BTreeSet<usize> {
        let old_len = self.neigh.len();
        let mut dirty = BTreeSet::new();
        let mut labels = Vec::with_capacity(kg.len());
        let mut kinds = Vec::with_capacity(kg.len());
        let mut neigh = Vec::with_capacity(kg.len());
        let mut prov = Vec::with_capacity(kg.len());
        let mut conf = Vec::with_capacity(kg.len());
        for n in kg.nodes() {
            let mut adj: Vec<usize> = n.parents.iter().chain(n.children.iter()).copied().collect();
            adj.sort_unstable();
            adj.dedup();
            if n.id >= old_len || adj != self.neigh[n.id] {
                dirty.insert(n.id);
            }
            labels.push(n.label.clone());
            kinds.push(n.kind);
            neigh.push(adj);
            prov.push(kg.provenance(n.id).map(str::to_string).collect());
            conf.push(n.confidence);
        }
        self.labels = labels;
        self.kinds = kinds;
        self.neigh = neigh;
        self.prov = prov;
        self.conf = conf;
        dirty
    }

    /// Base trust for every node: mean venue prior of the node's
    /// provenance papers, scaled by independent-venue corroboration
    /// (`|V| / (|V| + 1)`) and fusion confidence. Venue sets iterate in
    /// sorted order so the float sum is order-independent.
    fn compute_bases(&self) -> Vec<f64> {
        (0..self.neigh.len())
            .map(|n| {
                let mut venues: BTreeSet<&str> = BTreeSet::new();
                for p in &self.prov[n] {
                    if let Some(f) = self.by_paper.get(p) {
                        venues.insert(f.venue.as_str());
                    }
                }
                if venues.is_empty() {
                    SEEDED_BASE * self.conf[n]
                } else {
                    let vcount = venues.len() as f64;
                    let mass: f64 = venues
                        .iter()
                        .map(|v| self.scores.get(*v).map(|s| s.prior).unwrap_or(PRIOR_FLOOR))
                        .sum();
                    (mass / vcount) * (vcount / (vcount + 1.0)) * (0.5 + 0.5 * self.conf[n])
                }
            })
            .collect()
    }

    /// Propagated trust of one node, or `None` for an unknown id.
    pub fn trust(&self, id: usize) -> Option<f64> {
        self.history.last()?.get(id).copied()
    }

    /// The venue credibility prior weighting one paper (for
    /// trust-weighted bias mass and search re-ranking). Unknown papers
    /// get the floor prior.
    pub fn paper_weight(&self, paper_id: &str) -> f64 {
        self.by_paper
            .get(paper_id)
            .and_then(|f| self.scores.get(&f.venue))
            .map(|s| s.prior)
            .unwrap_or(PRIOR_FLOOR)
    }

    /// One venue's computed credibility.
    pub fn venue_score(&self, venue: &str) -> Option<&VenueScore> {
        self.scores.get(venue)
    }

    /// Venues currently holding papers, ascending.
    pub fn venues(&self) -> impl Iterator<Item = &str> {
        self.scores.keys().map(String::as_str)
    }

    /// Mutation epoch the store has replayed up to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamp the system generation the store is current as of.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Epoch-stamped trust document for one KG node: label, kind,
    /// propagated trust, base trust, and the distinct venues behind its
    /// provenance. `None` for an unknown id.
    pub fn node_document(&self, id: usize) -> Option<Value> {
        if id >= self.labels.len() {
            return None;
        }
        let mut venues: BTreeSet<&str> = BTreeSet::new();
        for p in &self.prov[id] {
            if let Some(f) = self.by_paper.get(p) {
                venues.insert(f.venue.as_str());
            }
        }
        Some(obj! {
            "id" => id,
            "label" => self.labels[id].as_str(),
            "kind" => self.kinds[id].as_str(),
            "trust" => self.trust(id).unwrap_or(0.0),
            "base" => self.base.get(id).copied().unwrap_or(0.0),
            "venues" => Value::Array(venues.iter().map(|v| Value::str(v.to_string())).collect()),
            "papers" => self.prov[id].len(),
            "neighbors" => self.neigh[id].len(),
            "epoch" => self.epoch as i64,
            "generation" => self.generation as i64,
        })
    }

    /// Epoch-stamped credibility document for one venue, or `None` for
    /// a venue with no papers.
    pub fn source_document(&self, venue: &str) -> Option<Value> {
        let s = self.scores.get(venue)?;
        Some(obj! {
            "venue" => venue,
            "prior" => s.prior,
            "seed" => s.seed,
            "corroboration" => s.corroboration,
            "papers" => s.papers,
            "claims" => s.claims,
            "corroborated" => s.corroborated,
            "mean_year" => s.mean_year,
            "tables" => s.tables,
            "captions" => s.captions,
            "epoch" => self.epoch as i64,
            "generation" => self.generation as i64,
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TrustStoreStats {
        TrustStoreStats {
            papers: self.by_paper.len(),
            venues: self.ledger.venue_count(),
            claims: self.ledger.claim_count(),
            nodes: self.labels.len(),
            incremental_refreshes: self.incremental_refreshes,
            full_rebuilds: self.full_rebuilds,
            nodes_repropagated: self.nodes_repropagated,
            epoch: self.epoch,
            generation: self.generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(id: &str, venue: &str, claims: &[&str]) -> PaperFacts {
        PaperFacts {
            paper_id: id.into(),
            venue: venue.into(),
            year: 2021,
            tables: 1,
            captions: 1,
            claims: claims.iter().map(|c| c.to_string()).collect(),
        }
    }

    fn sample_graph() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let root = kg.add_root("COVID-19");
        let vaccines = kg.add_child(root, "Vaccine(s)", NodeKind::Category, 1.0);
        let pfizer = kg.add_child(vaccines, "Pfizer", NodeKind::Entity, 0.9);
        kg.add_provenance(pfizer, "p1");
        kg.add_provenance(pfizer, "p2");
        let moderna = kg.add_child(vaccines, "Moderna", NodeKind::Entity, 0.9);
        kg.add_provenance(moderna, "p2");
        kg
    }

    fn assert_matches_full_rebuild(store: &TrustStore, kg: &KnowledgeGraph) {
        let mut fresh = TrustStore::new();
        fresh.rebuild_all(store.by_paper.values().cloned().collect(), kg, store.epoch());
        for id in 0..kg.len() {
            assert_eq!(store.trust(id), fresh.trust(id), "node {id} trust");
            assert_eq!(
                store.node_document(id).map(|d| d.to_json()),
                fresh.node_document(id).map(|d| d.to_json()),
                "node {id} document"
            );
        }
        let venues: Vec<String> = fresh.venues().map(str::to_string).collect();
        assert_eq!(store.venues().collect::<Vec<_>>(), venues);
        for v in &venues {
            assert_eq!(
                store.source_document(v).map(|d| d.to_json()),
                fresh.source_document(v).map(|d| d.to_json()),
                "venue {v}"
            );
        }
    }

    #[test]
    fn corroborated_multi_venue_node_outranks_solo() {
        let kg = sample_graph();
        let mut store = TrustStore::new();
        store.rebuild_all(
            vec![
                facts("p1", "lancet", &["pfizer|fever"]),
                facts("p2", "nejm", &["pfizer|fever"]),
            ],
            &kg,
            1,
        );
        // Pfizer (two independent venues, corroborated claim) must beat
        // Moderna (one venue) even though both share confidence.
        let pfizer = store.trust(2).unwrap();
        let moderna = store.trust(3).unwrap();
        assert!(pfizer > moderna, "pfizer {pfizer} vs moderna {moderna}");
        assert!(store.trust(99).is_none());
        assert_matches_full_rebuild(&store, &kg);
    }

    #[test]
    fn incremental_refresh_matches_full_rebuild() {
        let kg = sample_graph();
        let mut store = TrustStore::new();
        store.rebuild_all(vec![facts("p1", "lancet", &["pfizer|fever"])], &kg, 1);
        // Upsert p2, update p1, delete p2: every path through apply().
        store.refresh(2, &["p2".into()], &kg, |_| Some(facts("p2", "nejm", &["pfizer|fever"])));
        assert_matches_full_rebuild(&store, &kg);
        store.refresh(3, &["p1".into()], &kg, |_| Some(facts("p1", "lancet", &["moderna|chills"])));
        assert_matches_full_rebuild(&store, &kg);
        store.refresh(4, &["p2".into()], &kg, |_| None);
        assert_matches_full_rebuild(&store, &kg);
        let s = store.stats();
        assert_eq!(s.incremental_refreshes, 3);
        assert_eq!(s.full_rebuilds, 1);
        assert_eq!(s.epoch, 4);
        assert_eq!(s.papers, 1);
    }

    #[test]
    fn refresh_tracks_graph_growth() {
        let mut kg = sample_graph();
        let mut store = TrustStore::new();
        store.rebuild_all(vec![facts("p1", "lancet", &["pfizer|fever"])], &kg, 1);
        // Fusion adds a node and provenance after the build.
        let side = kg.add_child(0, "Side-effects", NodeKind::Category, 1.0);
        let rash = kg.add_child(side, "Rash", NodeKind::Entity, 0.8);
        kg.add_provenance(rash, "p9");
        store.refresh(2, &["p9".into()], &kg, |_| Some(facts("p9", "medrxiv", &["rash"])));
        assert!(store.trust(rash).is_some());
        assert_matches_full_rebuild(&store, &kg);
    }

    #[test]
    fn documents_are_epoch_and_generation_stamped() {
        let kg = sample_graph();
        let mut store = TrustStore::new();
        store.rebuild_all(vec![facts("p1", "lancet", &["pfizer|fever"])], &kg, 7);
        store.set_generation(4);
        let node = store.node_document(2).unwrap();
        assert_eq!(node.get("label").unwrap().as_str(), Some("Pfizer"));
        assert_eq!(node.get("kind").unwrap().as_str(), Some("entity"));
        assert_eq!(node.get("epoch").unwrap().as_i64(), Some(7));
        assert_eq!(node.get("generation").unwrap().as_i64(), Some(4));
        assert_eq!(node.get("venues").unwrap().as_array().unwrap().len(), 1);
        assert!(store.node_document(99).is_none());
        let src = store.source_document("lancet").unwrap();
        assert_eq!(src.get("papers").unwrap().as_i64(), Some(1));
        assert_eq!(src.get("epoch").unwrap().as_i64(), Some(7));
        assert!(store.source_document("nature").is_none());
        // Documents re-stamp on refresh: a later epoch shows through.
        store.refresh(9, &[], &kg, |_| unreachable!("no papers touched"));
        assert_eq!(store.node_document(2).unwrap().get("epoch").unwrap().as_i64(), Some(9));
    }

    #[test]
    fn untouched_refresh_repropagates_nothing() {
        let kg = sample_graph();
        let mut store = TrustStore::new();
        store.rebuild_all(vec![facts("p1", "lancet", &["pfizer|fever"])], &kg, 1);
        let before = store.stats().nodes_repropagated;
        store.refresh(2, &[], &kg, |_| unreachable!("no papers touched"));
        assert_eq!(store.stats().nodes_repropagated, before, "no dirty ball, no sweeps");
    }

    #[test]
    fn paper_weight_reflects_venue_prior() {
        let kg = sample_graph();
        let mut store = TrustStore::new();
        store.rebuild_all(
            vec![
                facts("p1", "lancet", &["pfizer|fever"]),
                facts("p2", "nejm", &["pfizer|fever"]),
            ],
            &kg,
            1,
        );
        let w = store.paper_weight("p1");
        assert_eq!(w, store.venue_score("lancet").unwrap().prior);
        assert_eq!(store.paper_weight("unknown"), PRIOR_FLOOR);
    }
}
