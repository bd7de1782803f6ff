//! The incrementally-maintained trust store.
//!
//! [`TrustStore`] mirrors the shape of
//! `covidkg_kg::materialize::ProfileStore`: it holds per-paper facts
//! keyed by source paper, rebuilds everything on
//! [`TrustStore::rebuild_all`] (initial build, or the bounded mutation
//! log overflowed), and replays only touched papers on
//! [`TrustStore::refresh`] — handed the same touched ids as the profile
//! store by `covidkg-core`'s derived-view driver, with the graph nodes
//! fusion changed, the only ones it re-reads. From the facts it
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
use covidkg_kg::{GraphChanges, KnowledgeGraph, NodeId, NodeKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

/// One paper the store has seen, by interned ordinal.
#[derive(Debug, Clone, Default)]
struct PaperSlot {
    /// The paper's facts; `None` while it is not in the collection.
    facts: Option<PaperFacts>,
    /// Snapshot nodes whose provenance carries the paper.
    nodes: Vec<usize>,
}

/// Live trust scores over sources and KG nodes, kept fresh per-paper.
#[derive(Debug, Clone, Default)]
pub struct TrustStore {
    /// Papers by ordinal: facts, and the nodes carrying each.
    papers: Vec<PaperSlot>,
    /// Paper id → ordinal into `papers`.
    paper_ids: HashMap<String, u32>,
    /// Slots holding facts.
    live_papers: usize,
    /// Delta-maintained venue aggregates.
    ledger: SourceLedger,
    /// Venue scores, recomputed from the ledger every refresh.
    scores: BTreeMap<String, VenueScore>,
    // --- graph snapshot, patched for the nodes the graph reports changed ---
    labels: Vec<String>,
    kinds: Vec<NodeKind>,
    /// Sorted, deduplicated parents ∪ children per node.
    neigh: Vec<Vec<usize>>,
    /// Provenance papers per node: how much of the graph's provenance
    /// list the snapshot has read (the papers themselves are held as
    /// ordinals, inverted, in each [`PaperSlot`]'s node list).
    prov_len: Vec<usize>,
    /// Per node: venue → provenance papers with facts from that venue.
    /// Its keys are the node's distinct venues in the sorted order the
    /// base sums their priors in.
    venues: Vec<BTreeMap<String, usize>>,
    conf: Vec<f64>,
    /// Per-node base trust (pure function of scores + venues + confidence).
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
    /// not matter — the ledger's aggregates are order-free counters.
    /// Also the oracle every incremental [`TrustStore::refresh`] is held
    /// to.
    pub fn rebuild_all(&mut self, papers: Vec<PaperFacts>, kg: &KnowledgeGraph, epoch: u64) {
        *self = TrustStore {
            generation: self.generation,
            incremental_refreshes: self.incremental_refreshes,
            full_rebuilds: self.full_rebuilds + 1,
            nodes_repropagated: self.nodes_repropagated,
            ..TrustStore::default()
        };
        for f in papers {
            let id = f.paper_id.clone();
            self.apply(&id, Some(f));
        }
        self.scores = self.ledger.score();
        self.patch_graph(kg, &GraphChanges { fresh: true, nodes: Vec::new() });
        self.base = (0..kg.len()).map(|n| self.base_of(n)).collect();
        self.history = propagate_full(&self.neigh, &self.base);
        self.nodes_repropagated += (self.base.len() as u64) * (SWEEPS as u64);
        self.epoch = epoch;
    }

    /// Incremental refresh: replay only the given papers (the mutation
    /// log's touched ids) and re-read only the graph nodes `changes`
    /// names (what [`KnowledgeGraph::take_changed`] drained since the
    /// graph was last read; a fresh graph is re-read whole). Venues are
    /// rescored from the delta-maintained ledger; a node's base is
    /// recomputed only when its venue set, or the prior of a venue in
    /// it, moved; propagation re-sweeps only the dirty ball. `extract`
    /// re-derives one paper's facts (`None` = paper gone).
    pub fn refresh(
        &mut self,
        epoch: u64,
        paper_ids: &[String],
        kg: &KnowledgeGraph,
        changes: &GraphChanges,
        mut extract: impl FnMut(&str) -> Option<PaperFacts>,
    ) {
        let mut ids: Vec<&String> = paper_ids.iter().collect();
        ids.sort();
        ids.dedup();
        let mut rebase = BTreeSet::new();
        for id in ids {
            let facts = extract(id);
            rebase.extend(self.apply(id, facts));
        }
        let scores = self.ledger.score();
        let moved: BTreeSet<&String> = self
            .scores
            .keys()
            .chain(scores.keys())
            .filter(|v| {
                let prior = |s: &BTreeMap<String, VenueScore>| s.get(*v).map(|s| s.prior.to_bits());
                prior(&self.scores) != prior(&scores)
            })
            .collect();
        if !moved.is_empty() {
            rebase.extend(
                (0..self.venues.len())
                    .filter(|&n| self.venues[n].keys().any(|v| moved.contains(v))),
            );
        }
        self.scores = scores;
        let (mut dirty, patched) = self.patch_graph(kg, changes);
        rebase.extend(patched);
        self.base.resize(kg.len(), 0.0);
        for n in rebase {
            let b = self.base_of(n);
            if b.to_bits() != self.base[n].to_bits() {
                self.base[n] = b;
                dirty.insert(n);
            }
        }
        self.nodes_repropagated += propagate_dirty(&mut self.history, &self.neigh, &self.base, &dirty);
        self.epoch = epoch;
        self.incremental_refreshes += 1;
    }

    /// Upsert or remove one paper's facts, keeping the ledger and every
    /// snapshot node's venue counts in step. Returns the nodes whose
    /// venue counts moved (the paper changed venue, arrived or left).
    fn apply(&mut self, paper_id: &str, facts: Option<PaperFacts>) -> Vec<usize> {
        let ord = self.intern(paper_id) as usize;
        let facts = facts.map(PaperFacts::canonicalize);
        let old = std::mem::replace(&mut self.papers[ord].facts, facts);
        if let Some(old) = &old {
            self.ledger.remove(old);
            self.live_papers -= 1;
        }
        let slot = &self.papers[ord];
        if let Some(new) = &slot.facts {
            self.ledger.add(new);
            self.live_papers += 1;
        }
        let (old_venue, new_venue) = (old.map(|f| f.venue), slot.facts.as_ref().map(|f| &f.venue));
        if old_venue.as_ref() == new_venue {
            return Vec::new();
        }
        for &n in &slot.nodes {
            if let Some(v) = &old_venue {
                uncount(&mut self.venues[n], v);
            }
            if let Some(v) = new_venue {
                *self.venues[n].entry(v.clone()).or_default() += 1;
            }
        }
        slot.nodes.clone()
    }

    /// The ordinal of a paper id, interning it on first sight.
    fn intern(&mut self, paper_id: &str) -> u32 {
        if let Some(&ord) = self.paper_ids.get(paper_id) {
            return ord;
        }
        let ord = u32::try_from(self.papers.len()).expect("fewer than 2^32 papers");
        self.paper_ids.insert(paper_id.to_string(), ord);
        self.papers.push(PaperSlot::default());
        ord
    }

    /// Forget the graph snapshot (papers and scores stay), so the next
    /// patch reads every node as new and propagation runs in full.
    fn reset_graph(&mut self) {
        self.forget_provenance();
        self.labels.clear();
        self.kinds.clear();
        self.neigh.clear();
        self.prov_len.clear();
        self.venues.clear();
        self.conf.clear();
        self.base.clear();
        self.history.clear();
    }

    /// Forget which papers each node carries, so the next patch counts
    /// every node's provenance from the start.
    fn forget_provenance(&mut self) {
        for slot in &mut self.papers {
            slot.nodes.clear();
        }
        self.prov_len.iter_mut().for_each(|n| *n = 0);
        self.venues.iter_mut().for_each(BTreeMap::clear);
    }

    /// Bring the graph snapshot up to `kg`. A graph smaller than the
    /// snapshot is read as new; a fresh one (read back whole, as on a
    /// replica) has every node re-read, against the adjacency, bases
    /// and sweep history kept to diff with; otherwise only the changed
    /// nodes are, and of their provenance only the papers appended
    /// since. Returns the nodes whose adjacency changed (new nodes
    /// included) — the propagation's dirty seeds — and the nodes whose
    /// venue counts may have moved, whose bases need recomputing.
    fn patch_graph(
        &mut self,
        kg: &KnowledgeGraph,
        changes: &GraphChanges,
    ) -> (BTreeSet<usize>, Vec<usize>) {
        if kg.len() < self.labels.len() {
            self.reset_graph();
        }
        let old_len = self.labels.len();
        let reread: Vec<NodeId> = if changes.fresh {
            self.forget_provenance();
            (0..old_len).collect()
        } else {
            changes.nodes.iter().copied().filter(|&n| n < old_len).collect()
        };
        let mut dirty = BTreeSet::new();
        let mut rebase = Vec::new();
        for n in reread.into_iter().chain(old_len..kg.len()) {
            let node = kg.node(n);
            if n >= old_len {
                self.labels.push(String::new());
                self.kinds.push(node.kind);
                self.neigh.push(Vec::new());
                self.prov_len.push(0);
                self.venues.push(BTreeMap::new());
                self.conf.push(node.confidence);
                dirty.insert(n);
            }
            // Fixed at creation; re-read for a graph read back whole.
            if self.labels[n] != node.label {
                self.labels[n] = node.label.clone();
            }
            self.kinds[n] = node.kind;
            self.conf[n] = node.confidence;
            let mut adj: Vec<usize> = node.parents.iter().chain(&node.children).copied().collect();
            adj.sort_unstable();
            adj.dedup();
            if adj != self.neigh[n] {
                self.neigh[n] = adj;
                dirty.insert(n);
            }
            let provenance = kg.provenance(n);
            let total = provenance.len();
            for paper in provenance.skip(self.prov_len[n]) {
                let p = self.intern(paper);
                self.carry(n, p);
            }
            self.prov_len[n] = total;
            rebase.push(n);
        }
        (dirty, rebase)
    }

    /// Attach paper `p` to node `n`'s provenance: the paper's node list
    /// and the node's venue counts follow.
    fn carry(&mut self, n: usize, p: u32) {
        let slot = &mut self.papers[p as usize];
        slot.nodes.push(n);
        if let Some(f) = &slot.facts {
            *self.venues[n].entry(f.venue.clone()).or_default() += 1;
        }
    }

    /// Base trust of one node: mean venue prior of the node's distinct
    /// provenance venues, scaled by independent-venue corroboration
    /// (`|V| / (|V| + 1)`) and fusion confidence. Venues are summed in
    /// sorted order, so the float sum does not depend on arrival order.
    /// O(venues) from the node's maintained venue counts.
    fn base_of(&self, n: usize) -> f64 {
        let venues = &self.venues[n];
        if venues.is_empty() {
            SEEDED_BASE * self.conf[n]
        } else {
            let vcount = venues.len() as f64;
            let mass: f64 = venues
                .keys()
                .map(|v| self.scores.get(v).map(|s| s.prior).unwrap_or(PRIOR_FLOOR))
                .sum();
            (mass / vcount) * (vcount / (vcount + 1.0)) * (0.5 + 0.5 * self.conf[n])
        }
    }

    /// Propagated trust of one node, or `None` for an unknown id.
    pub fn trust(&self, id: usize) -> Option<f64> {
        self.history.last()?.get(id).copied()
    }

    /// Base trust of one node (before propagation), or `None` for an
    /// unknown id.
    pub fn base(&self, id: usize) -> Option<f64> {
        self.base.get(id).copied()
    }

    /// The venue credibility prior weighting one paper (for
    /// trust-weighted bias mass and search re-ranking). Unknown papers
    /// get the floor prior.
    pub fn paper_weight(&self, paper_id: &str) -> f64 {
        self.paper_ids
            .get(paper_id)
            .and_then(|&p| self.papers[p as usize].facts.as_ref())
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
        let venues = &self.venues[id];
        Some(obj! {
            "id" => id,
            "label" => self.labels[id].as_str(),
            "kind" => self.kinds[id].as_str(),
            "trust" => self.trust(id).unwrap_or(0.0),
            "base" => self.base.get(id).copied().unwrap_or(0.0),
            "venues" => Value::Array(venues.keys().map(|v| Value::str(v.clone())).collect()),
            "papers" => self.prov_len[id],
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
            papers: self.live_papers,
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

/// Drop one paper of `venue` from a node's venue counts.
fn uncount(venues: &mut BTreeMap<String, usize>, venue: &str) {
    let n = venues.get_mut(venue).expect("venue counted");
    *n -= 1;
    if *n == 0 {
        venues.remove(venue);
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

    /// Every node's base read straight off the graph's provenance
    /// strings and the papers' facts, sharing no state with the store's
    /// venue counts.
    fn bases_from_strings(store: &TrustStore, kg: &KnowledgeGraph) -> Vec<f64> {
        let venue_of: BTreeMap<&str, &str> = store
            .papers
            .iter()
            .filter_map(|s| s.facts.as_ref())
            .map(|f| (f.paper_id.as_str(), f.venue.as_str()))
            .collect();
        (0..kg.len())
            .map(|n| {
                let conf = kg.node(n).confidence;
                let venues: BTreeSet<&str> =
                    kg.provenance(n).filter_map(|p| venue_of.get(p).copied()).collect();
                if venues.is_empty() {
                    return SEEDED_BASE * conf;
                }
                let vcount = venues.len() as f64;
                let mass: f64 = venues.iter().map(|v| store.venue_score(v).unwrap().prior).sum();
                (mass / vcount) * (vcount / (vcount + 1.0)) * (0.5 + 0.5 * conf)
            })
            .collect()
    }

    fn assert_matches_full_rebuild(store: &TrustStore, kg: &KnowledgeGraph) {
        let mut fresh = TrustStore::new();
        let papers = store.papers.iter().filter_map(|s| s.facts.clone()).collect();
        fresh.rebuild_all(papers, kg, store.epoch());
        for (id, want) in bases_from_strings(store, kg).into_iter().enumerate() {
            assert_eq!(store.base(id).map(f64::to_bits), Some(want.to_bits()), "node {id} base");
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
        store.refresh(2, &["p2".into()], &kg, &GraphChanges::default(), |_| Some(facts("p2", "nejm", &["pfizer|fever"])));
        assert_matches_full_rebuild(&store, &kg);
        store.refresh(3, &["p1".into()], &kg, &GraphChanges::default(), |_| Some(facts("p1", "lancet", &["moderna|chills"])));
        assert_matches_full_rebuild(&store, &kg);
        store.refresh(4, &["p2".into()], &kg, &GraphChanges::default(), |_| None);
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
        kg.take_changed();
        // Fusion adds a node and provenance after the build, and more
        // provenance to an existing node.
        let side = kg.add_child(0, "Side-effects", NodeKind::Category, 1.0);
        let rash = kg.add_child(side, "Rash", NodeKind::Entity, 0.8);
        kg.add_provenance(rash, "p9");
        kg.add_provenance(3, "p9");
        let changed = kg.take_changed();
        assert_eq!(changed.nodes, [0, 3, side, rash], "the root gained a child, Moderna a paper");
        assert!(!changed.fresh);
        store.refresh(2, &["p9".into()], &kg, &changed, |_| Some(facts("p9", "medrxiv", &["rash"])));
        assert!(store.trust(rash).is_some());
        assert_matches_full_rebuild(&store, &kg);
        // A graph replaced by a smaller one is re-read whole.
        let small = sample_graph();
        store.refresh(3, &[], &small, &GraphChanges::default(), |_| unreachable!("no papers touched"));
        assert_eq!(store.stats().nodes, small.len());
        assert_matches_full_rebuild(&store, &small);
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
        store.refresh(9, &[], &kg, &GraphChanges::default(), |_| unreachable!("no papers touched"));
        assert_eq!(store.node_document(2).unwrap().get("epoch").unwrap().as_i64(), Some(9));
    }

    #[test]
    fn untouched_refresh_repropagates_nothing() {
        let kg = sample_graph();
        let mut store = TrustStore::new();
        store.rebuild_all(vec![facts("p1", "lancet", &["pfizer|fever"])], &kg, 1);
        let before = store.stats().nodes_repropagated;
        store.refresh(2, &[], &kg, &GraphChanges::default(), |_| unreachable!("no papers touched"));
        assert_eq!(store.stats().nodes_repropagated, before, "no dirty ball, no sweeps");
        // The same graph read back whole (a replica's reload) is re-read
        // node by node, and still sweeps nothing.
        let mut reloaded = KnowledgeGraph::from_json(&kg.to_json()).unwrap();
        let changes = reloaded.take_changed();
        assert!(changes.fresh);
        store.refresh(3, &[], &reloaded, &changes, |_| unreachable!("no papers touched"));
        assert_eq!(store.stats().nodes_repropagated, before, "an unchanged reload sweeps nothing");
        assert_matches_full_rebuild(&store, &reloaded);
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
