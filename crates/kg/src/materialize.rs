//! Incrementally-materialized meta-profile documents.
//!
//! [`build_meta_profiles`](crate::profile::build_meta_profiles) is a
//! pure full rebuild: every caller re-derives every vaccine's profile
//! from every observation. This module keeps the same profiles *live*
//! instead: a [`ProfileStore`] holds observations keyed by source
//! paper, and a mutation (one paper ingested, updated or deleted)
//! folds that paper's old observations out of, and its new ones into,
//! the profiles of the vaccines it reports on — work proportional to
//! the paper, not to the vaccine's literature. The store is
//! log-agnostic: the caller names the touched papers (in the system,
//! `covidkg-core`'s derived-view driver reads them off the collection
//! mutation log, which records every write).
//!
//! Equivalence contract: after any mutation sequence the store's
//! profiles are **equal** to a from-scratch
//! `build_meta_profiles(canonical observations)` where canonical order
//! is papers ascending by id, observations in extraction order within
//! a paper. That holds because a full rebuild lists every effect's
//! reports, and every profile's sources, in ascending paper order
//! (extraction order within a paper), and a fold removes or inserts
//! exactly one paper's run at its place in that order. The property
//! test in `tests/query_prop.rs` pins it across random mutation
//! sequences; [`ProfileStore::rebuild_all`] is its oracle.
//!
//! Freshness contract: the store is stamped with the collection
//! mutation epoch it replayed up to and the system generation it was
//! refreshed at; profile documents embed the generation, and the
//! serve-layer cache keys on it — so a stale profile is never served
//! after an ingest.

use crate::profile::{build_meta_profiles, MetaProfile, Observation};
use covidkg_json::{obj, Value};
use std::collections::BTreeMap;

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
    /// Vaccine profiles rebuilt (a full rebuild) or patched (one per
    /// vaccine a changed paper reports on, before or after the change).
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
    /// Materialized profiles, ascending by vaccine.
    profiles: Vec<MetaProfile>,
    /// Observations across all papers, kept as a running count.
    observations: usize,
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
    /// Also the oracle every incremental [`ProfileStore::refresh`] is
    /// held to.
    pub fn rebuild_all(&mut self, papers: Vec<(String, Vec<Observation>)>, epoch: u64) {
        self.by_paper = papers.into_iter().filter(|(_, obs)| !obs.is_empty()).collect();
        self.observations = self.by_paper.values().map(Vec::len).sum();
        self.profiles = build_meta_profiles(&self.canonical_observations());
        self.epoch = epoch;
        self.full_rebuilds += 1;
        self.vaccines_rebuilt += self.profiles.len() as u64;
    }

    /// Incremental refresh: replay only the given papers (the mutation
    /// log's touched ids), folding each one's change into the profiles
    /// of the vaccines it reports on. `extract` re-derives one paper's
    /// observations (empty = paper gone or has no side-effect tables).
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
        self.epoch = epoch;
        self.incremental_refreshes += 1;
    }

    /// Upsert or remove one paper's observations: fold the old set out
    /// of its vaccines' profiles and the new set in. A write that left
    /// the observations as they were (a field no table lives in) folds
    /// nothing.
    fn apply(&mut self, paper_id: &str, obs: Vec<Observation>) {
        let old = self.by_paper.remove(paper_id).unwrap_or_default();
        if old != obs {
            let mut vaccines: Vec<&str> = old.iter().chain(&obs).map(|o| o.vaccine.as_str()).collect();
            vaccines.sort_unstable();
            vaccines.dedup();
            self.vaccines_rebuilt += vaccines.len() as u64;
            self.fold_out(paper_id, &old);
            self.fold_in(paper_id, &obs);
            self.observations = self.observations - old.len() + obs.len();
        }
        if !obs.is_empty() {
            self.by_paper.insert(paper_id.to_string(), obs);
        }
    }

    /// Remove every report of `paper_id` from the profiles `old` names,
    /// dropping effects, doses and profiles left empty.
    fn fold_out(&mut self, paper_id: &str, old: &[Observation]) {
        for o in old {
            let Ok(i) = self.profiles.binary_search_by(|p| p.vaccine.cmp(&o.vaccine)) else {
                continue; // an earlier observation emptied the profile
            };
            let profile = &mut self.profiles[i];
            if let Ok(s) = profile.sources.binary_search_by(|s| s.as_str().cmp(paper_id)) {
                profile.sources.remove(s);
            }
            if let Some(layer) = profile.doses.get_mut(&o.dose) {
                if let Some(reports) = layer.effects.get_mut(&o.effect) {
                    let from = reports.partition_point(|(p, _)| p.as_str() < paper_id);
                    let to = reports.partition_point(|(p, _)| p.as_str() <= paper_id);
                    reports.drain(from..to);
                    if reports.is_empty() {
                        layer.effects.remove(&o.effect);
                    }
                }
                if layer.effects.is_empty() {
                    profile.doses.remove(&o.dose);
                }
            }
            if profile.doses.is_empty() {
                self.profiles.remove(i);
            }
        }
    }

    /// Insert `paper_id`'s observations at their place in paper order:
    /// after the reports of every paper sorting at or before it, so the
    /// paper's own reports keep their extraction order.
    fn fold_in(&mut self, paper_id: &str, obs: &[Observation]) {
        for o in obs {
            let i = match self.profiles.binary_search_by(|p| p.vaccine.cmp(&o.vaccine)) {
                Ok(i) => i,
                Err(i) => {
                    let profile = MetaProfile {
                        vaccine: o.vaccine.clone(),
                        ..MetaProfile::default()
                    };
                    self.profiles.insert(i, profile);
                    i
                }
            };
            let profile = &mut self.profiles[i];
            if let Err(s) = profile.sources.binary_search_by(|s| s.as_str().cmp(paper_id)) {
                profile.sources.insert(s, paper_id.to_string());
            }
            let reports = profile
                .doses
                .entry(o.dose)
                .or_default()
                .effects
                .entry(o.effect.clone())
                .or_default();
            let at = reports.partition_point(|(p, _)| p.as_str() <= paper_id);
            reports.insert(at, (paper_id.to_string(), o.rate));
        }
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
        &self.profiles
    }

    /// One vaccine's profile.
    pub fn profile(&self, vaccine: &str) -> Option<&MetaProfile> {
        let i = self.profiles.binary_search_by(|p| p.vaccine.as_str().cmp(vaccine)).ok()?;
        Some(&self.profiles[i])
    }

    /// Mutation epoch the store has replayed up to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch-stamped profile document for one vaccine: the JSON form
    /// (doses → effects → per-paper rates) plus the rendered Fig 6
    /// panel, or `None` for an unknown vaccine.
    pub fn document(&self, vaccine: &str) -> Option<Value> {
        let p = self.profile(vaccine)?;
        Some(profile_document(p, self.epoch, self.generation))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ProfileStoreStats {
        ProfileStoreStats {
            papers: self.by_paper.len(),
            profiles: self.profiles.len(),
            observations: self.observations,
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
        let canonical = store.canonical_observations();
        let full = build_meta_profiles(&canonical);
        assert_eq!(store.profiles(), &full[..], "incremental ≡ full rebuild");
        assert_eq!(store.stats().observations, canonical.len(), "running count ≡ the sum");
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
