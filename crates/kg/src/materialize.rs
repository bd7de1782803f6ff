//! Incrementally-materialized meta-profile documents.
//!
//! [`build_meta_profiles`](crate::profile::build_meta_profiles) is a
//! pure full rebuild: every caller re-derives every vaccine's profile
//! from every observation. This module keeps the same profiles *live*
//! instead: a [`ProfileStore`] holds observations keyed by source
//! paper, and a mutation (one paper ingested, updated or deleted)
//! rebuilds only the vaccines that paper touches. The store is
//! log-agnostic: the caller names the touched papers (in the system,
//! `covidkg-core`'s derived-view driver reads them off the collection
//! mutation log, which records every write).
//!
//! Equivalence contract: after any mutation sequence the store's
//! profiles are **equal** to a from-scratch
//! `build_meta_profiles(canonical observations)` where canonical order
//! is papers ascending by id, observations in extraction order within
//! a paper. That holds because a vaccine's profile is a function of
//! the ordered subsequence of its observations, and the store always
//! replays a dirty vaccine's observations in canonical order. The
//! property test in `tests/query_prop.rs` pins it across random
//! mutation sequences.
//!
//! Freshness contract: the store is stamped with the collection
//! mutation epoch it replayed up to and the system generation it was
//! refreshed at; profile documents embed the generation, and the
//! serve-layer cache keys on it — so a stale profile is never served
//! after an ingest.

use crate::profile::{build_meta_profiles, MetaProfile, Observation};
use covidkg_json::{obj, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Counters for the `covidkg_kg_profile_*` metrics series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileStoreStats {
    /// Papers currently contributing observations.
    pub papers: usize,
    /// Materialized profiles (distinct vaccines).
    pub profiles: usize,
    /// Observations across all papers.
    pub observations: usize,
    /// Incremental refreshes applied (mutation-log driven).
    pub incremental_refreshes: u64,
    /// Full rebuilds (initial build, or the bounded log overflowed).
    pub full_rebuilds: u64,
    /// Vaccine profiles rebuilt across all refreshes.
    pub vaccines_rebuilt: u64,
    /// Collection mutation epoch the store has replayed up to.
    pub epoch: u64,
    /// System generation the store was last refreshed at.
    pub generation: u64,
}

/// Live meta-profile documents, kept fresh per-paper.
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    /// paper id → its observations, in extraction order. BTreeMap is
    /// the canonical order the equivalence contract depends on.
    by_paper: BTreeMap<String, Vec<Observation>>,
    /// vaccine → materialized profile.
    profiles: BTreeMap<String, MetaProfile>,
    /// Flat view in vaccine order, for the `&[MetaProfile]` accessor.
    flat: Vec<MetaProfile>,
    /// Vaccines whose profiles need a rebuild.
    dirty: BTreeSet<String>,
    epoch: u64,
    generation: u64,
    incremental_refreshes: u64,
    full_rebuilds: u64,
    vaccines_rebuilt: u64,
}

impl ProfileStore {
    /// Empty store.
    pub fn new() -> ProfileStore {
        ProfileStore::default()
    }

    /// Replace the whole corpus: the initial build, and the fallback
    /// when the bounded mutation log no longer covers the window
    /// (`touched_since` returned `None`). `papers` is `(paper id,
    /// observations)`; order does not matter, the store canonicalizes.
    pub fn rebuild_all(&mut self, papers: Vec<(String, Vec<Observation>)>, epoch: u64) {
        self.by_paper.clear();
        for (id, obs) in papers {
            if !obs.is_empty() {
                self.by_paper.insert(id, obs);
            }
        }
        self.profiles.clear();
        for p in build_meta_profiles(&self.canonical_observations()) {
            self.profiles.insert(p.vaccine.clone(), p);
        }
        self.dirty.clear();
        self.epoch = epoch;
        self.full_rebuilds += 1;
        self.vaccines_rebuilt += self.profiles.len() as u64;
        self.reflatten();
    }

    /// Incremental refresh: replay only the given papers (the mutation
    /// log's touched ids), then rebuild only the vaccines those papers
    /// mention. `extract` re-derives one paper's observations (empty =
    /// paper gone or has no side-effect tables).
    pub fn refresh(
        &mut self,
        epoch: u64,
        paper_ids: &[String],
        mut extract: impl FnMut(&str) -> Vec<Observation>,
    ) {
        let mut ids: Vec<&String> = paper_ids.iter().collect();
        ids.sort();
        ids.dedup();
        for id in ids {
            self.apply(id, extract(id));
        }
        self.rebuild_dirty();
        self.epoch = epoch;
        self.incremental_refreshes += 1;
        self.reflatten();
    }

    /// Upsert or remove one paper's observations, marking the vaccines
    /// of both the old and the new set dirty.
    fn apply(&mut self, paper_id: &str, obs: Vec<Observation>) {
        if let Some(old) = self.by_paper.get(paper_id) {
            for o in old {
                self.dirty.insert(o.vaccine.clone());
            }
        }
        for o in &obs {
            self.dirty.insert(o.vaccine.clone());
        }
        if obs.is_empty() {
            self.by_paper.remove(paper_id);
        } else {
            self.by_paper.insert(paper_id.to_string(), obs);
        }
    }

    /// Rebuild every dirty vaccine from its canonical observation
    /// subsequence.
    fn rebuild_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for vaccine in dirty {
            let obs: Vec<Observation> = self
                .by_paper
                .values()
                .flatten()
                .filter(|o| o.vaccine == vaccine)
                .cloned()
                .collect();
            self.vaccines_rebuilt += 1;
            match build_meta_profiles(&obs).pop() {
                Some(p) => {
                    self.profiles.insert(vaccine, p);
                }
                None => {
                    self.profiles.remove(&vaccine);
                }
            }
        }
    }

    fn reflatten(&mut self) {
        self.flat = self.profiles.values().cloned().collect();
    }

    /// All observations in canonical order (papers ascending,
    /// extraction order within a paper) — what a full rebuild sees.
    pub fn canonical_observations(&self) -> Vec<Observation> {
        self.by_paper.values().flatten().cloned().collect()
    }

    /// Stamp the system generation the store is current as of.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Profiles in vaccine order.
    pub fn profiles(&self) -> &[MetaProfile] {
        &self.flat
    }

    /// One vaccine's profile.
    pub fn profile(&self, vaccine: &str) -> Option<&MetaProfile> {
        self.profiles.get(vaccine)
    }

    /// Mutation epoch the store has replayed up to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch-stamped profile document for one vaccine: the JSON form
    /// (doses → effects → per-paper rates) plus the rendered Fig 6
    /// panel, or `None` for an unknown vaccine.
    pub fn document(&self, vaccine: &str) -> Option<Value> {
        let p = self.profiles.get(vaccine)?;
        Some(profile_document(p, self.epoch, self.generation))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ProfileStoreStats {
        ProfileStoreStats {
            papers: self.by_paper.len(),
            profiles: self.profiles.len(),
            observations: self.by_paper.values().map(Vec::len).sum(),
            incremental_refreshes: self.incremental_refreshes,
            full_rebuilds: self.full_rebuilds,
            vaccines_rebuilt: self.vaccines_rebuilt,
            epoch: self.epoch,
            generation: self.generation,
        }
    }
}

/// The meta-profile *document*: observations grouped by dose → effect
/// → source paper, rendered and JSON forms, epoch-stamped.
pub fn profile_document(p: &MetaProfile, epoch: u64, generation: u64) -> Value {
    let doses = Value::Object(
        p.doses
            .iter()
            .map(|(dose, layer)| {
                let effects = Value::Object(
                    layer
                        .effects
                        .iter()
                        .map(|(effect, obs)| {
                            let reports = Value::Array(
                                obs.iter()
                                    .map(|(paper, rate)| {
                                        obj! {
                                            "paper" => paper.as_str(),
                                            "rate" => *rate as f64,
                                        }
                                    })
                                    .collect(),
                            );
                            let v = obj! {
                                "mean" => layer.mean_rate(effect).unwrap_or(0.0) as f64,
                                "reports" => reports,
                            };
                            (effect.clone(), v)
                        })
                        .collect(),
                );
                (dose.to_string(), effects)
            })
            .collect(),
    );
    obj! {
        "vaccine" => p.vaccine.as_str(),
        "sources" => Value::Array(p.sources.iter().map(|s| Value::str(s.clone())).collect()),
        "observations" => p.observation_count(),
        "doses" => doses,
        "rendered" => p.render(),
        "epoch" => epoch as i64,
        "generation" => generation as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ob(vaccine: &str, dose: u8, effect: &str, rate: f32, paper: &str) -> Observation {
        Observation {
            vaccine: vaccine.into(),
            dose,
            effect: effect.into(),
            rate,
            paper_id: paper.into(),
        }
    }

    fn assert_matches_full_rebuild(store: &ProfileStore) {
        let full = build_meta_profiles(&store.canonical_observations());
        assert_eq!(store.profiles(), &full[..], "incremental ≡ full rebuild");
    }

    #[test]
    fn initial_build_then_incremental_upsert() {
        let mut store = ProfileStore::new();
        store.rebuild_all(
            vec![
                ("p1".into(), vec![ob("Pfizer", 1, "Fever", 12.0, "p1")]),
                ("p2".into(), vec![ob("Moderna", 1, "Fever", 15.0, "p2")]),
            ],
            3,
        );
        assert_eq!(store.profiles().len(), 2);
        assert_matches_full_rebuild(&store);
        // A new paper arrives touching only Pfizer: one vaccine rebuilt.
        let before = store.stats().vaccines_rebuilt;
        store.refresh(5, &["p3".into()], |id| {
            assert_eq!(id, "p3");
            vec![ob("Pfizer", 2, "Chills", 20.0, "p3")]
        });
        assert_eq!(store.stats().vaccines_rebuilt, before + 1);
        assert_eq!(store.stats().incremental_refreshes, 1);
        assert_eq!(store.epoch(), 5);
        assert_eq!(store.profile("Pfizer").unwrap().source_count(), 2);
        assert_matches_full_rebuild(&store);
    }

    #[test]
    fn update_and_delete_mark_old_vaccines_dirty() {
        let mut store = ProfileStore::new();
        store.rebuild_all(
            vec![("p1".into(), vec![ob("Pfizer", 1, "Fever", 12.0, "p1")])],
            1,
        );
        // p1 is rewritten to report on Moderna instead: Pfizer must
        // vanish, Moderna must appear.
        store.refresh(2, &["p1".into()], |_| vec![ob("Moderna", 1, "Fever", 9.0, "p1")]);
        assert!(store.profile("Pfizer").is_none());
        assert!(store.profile("Moderna").is_some());
        assert_matches_full_rebuild(&store);
        // Deletion (empty extraction) removes the last profile.
        store.refresh(3, &["p1".into()], |_| Vec::new());
        assert!(store.profiles().is_empty());
        assert_matches_full_rebuild(&store);
    }

    #[test]
    fn canonical_order_is_paper_ascending() {
        let mut a = ProfileStore::new();
        a.rebuild_all(
            vec![
                ("p2".into(), vec![ob("Pfizer", 1, "Fever", 20.0, "p2")]),
                ("p1".into(), vec![ob("Pfizer", 1, "Fever", 10.0, "p1")]),
            ],
            1,
        );
        // Same papers arriving incrementally in the other order.
        let mut b = ProfileStore::new();
        b.rebuild_all(vec![("p1".into(), vec![ob("Pfizer", 1, "Fever", 10.0, "p1")])], 1);
        b.refresh(2, &["p2".into()], |_| vec![ob("Pfizer", 1, "Fever", 20.0, "p2")]);
        assert_eq!(a.profiles(), b.profiles(), "arrival order must not matter");
        assert_eq!(a.profile("Pfizer").unwrap().sources, ["p1", "p2"]);
    }

    #[test]
    fn document_is_epoch_stamped_and_complete() {
        let mut store = ProfileStore::new();
        store.rebuild_all(
            vec![(
                "p1".into(),
                vec![
                    ob("Pfizer", 1, "Fever", 12.0, "p1"),
                    ob("Pfizer", 2, "Chills", 25.0, "p1"),
                ],
            )],
            7,
        );
        store.set_generation(4);
        let doc = store.document("Pfizer").expect("profile exists");
        assert_eq!(doc.get("vaccine").unwrap().as_str(), Some("Pfizer"));
        assert_eq!(doc.get("epoch").unwrap().as_i64(), Some(7));
        assert_eq!(doc.get("generation").unwrap().as_i64(), Some(4));
        assert_eq!(doc.get("observations").unwrap().as_i64(), Some(2));
        let doses = doc.get("doses").unwrap();
        let fever = doses.get("1").unwrap().get("Fever").unwrap();
        assert!(fever.get("mean").unwrap().as_f64().unwrap() > 11.0);
        assert!(doc.get("rendered").unwrap().as_str().unwrap().contains("dose 1"));
        assert!(store.document("Sputnik").is_none());
        // Documents re-stamp on refresh: a later epoch shows through.
        store.refresh(9, &[], |_| unreachable!("no papers touched"));
        assert_eq!(store.document("Pfizer").unwrap().get("epoch").unwrap().as_i64(), Some(9));
    }

    #[test]
    fn full_rebuild_counter_and_stats() {
        let mut store = ProfileStore::new();
        store.rebuild_all(
            vec![
                ("p1".into(), vec![ob("Pfizer", 1, "Fever", 12.0, "p1")]),
                ("p2".into(), Vec::new()),
            ],
            1,
        );
        let s = store.stats();
        assert_eq!(s.full_rebuilds, 1);
        assert_eq!(s.papers, 1, "empty papers are not stored");
        assert_eq!(s.profiles, 1);
        assert_eq!(s.observations, 1);
        assert_eq!(s.epoch, 1);
    }
}
