//! [`CovidKg`]: the assembled system (Fig 1).
//!
//! `CovidKg::build` runs the whole construction flow: generate/ingest the
//! corpus into the sharded store (№3), train embeddings and the metadata
//! classifiers (№4), classify every table, cluster topics (№5), extract
//! candidate subtrees (№6), fuse them into the expert-seeded KG with the
//! review queue (№2/№14), build meta-profiles (№7) and publish the
//! trained models (№11/13). The resulting value exposes the search
//! engines (№9/10) and the interactive graph.

use crate::registry::ModelRegistry;
use crate::training::{self, build_tuple_examples, labeled_rows_from_corpus, LabeledRow};
use covidkg_corpus::{CorpusConfig, CorpusGenerator, Publication};
use covidkg_json::{write_number, Number, Value};
use crate::views::Views;
use covidkg_kg::materialize::ProfileStore;
use covidkg_kg::profile::Observation;
use covidkg_kg::query::{QueryPlan, QueryResult, RankedPath};
use covidkg_kg::{
    extract_subtrees, seed_graph, FusionConfig, FusionEngine, FusionStats,
    KnowledgeGraph, MetaProfile, ScriptedExpert,
};
use covidkg_ml::model::{TupleClassifier, TupleClassifierConfig};
use covidkg_ann::HnswIndex;
use covidkg_ml::svm::{Svm, SvmConfig};
use covidkg_ml::{kmeans, Word2Vec, Word2VecConfig};
use covidkg_search::{
    dense_search, DenseMode, HybridConfig, RenderCache, SearchEngine, SearchMode, SearchPage,
};
use covidkg_store::{Collection, CollectionConfig, Database, StoreError};
use covidkg_tables::{detect_orientation, parse_tables, row_features, Orientation, Preprocessor};
use covidkg_text::tokenize_lower;
use covidkg_trust::TrustStore;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Capacity of the search render cache (memoized snippets/highlights);
/// entries are small (a title plus a handful of snippet strings), so a few
/// thousand covers many concurrent query working sets.
const RENDER_CACHE_CAP: usize = 4096;

/// Which classifier drives metadata detection during ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifierChoice {
    /// The §3.5 SVM (fast; the default for interactive builds).
    Svm,
    /// The Fig 3 BiGRU ensemble.
    BiGru,
}

impl ClassifierChoice {
    /// Stable name used in persisted config and the model registry.
    pub fn name(self) -> &'static str {
        match self {
            ClassifierChoice::Svm => "svm",
            ClassifierChoice::BiGru => "bigru",
        }
    }

    /// Parse a persisted [`ClassifierChoice::name`].
    pub fn from_name(name: &str) -> Option<ClassifierChoice> {
        match name {
            "svm" => Some(ClassifierChoice::Svm),
            "bigru" => Some(ClassifierChoice::BiGru),
            _ => None,
        }
    }
}

/// Threads a batch insert into the publications collection spreads over.
const INGEST_THREADS: usize = 4;

/// System build configuration.
#[derive(Debug, Clone)]
pub struct CovidKgConfig {
    /// Number of synthetic publications to generate.
    pub corpus_size: usize,
    /// Master seed (corpus, folds, model init).
    pub seed: u64,
    /// Store shards for the publications collection.
    pub shards: usize,
    /// Metadata classifier used during ingest.
    pub classifier: ClassifierChoice,
    /// Cap on classifier training rows (SMO is quadratic).
    pub max_training_rows: usize,
    /// Word2Vec embedding dimensionality.
    pub embed_dims: usize,
    /// Data directory for durable storage (None = in-memory). With a
    /// directory set, the publications, released models and the KG
    /// survive restarts and [`CovidKg::reopen`] restores the system
    /// without retraining.
    pub data_dir: Option<String>,
}

impl Default for CovidKgConfig {
    fn default() -> Self {
        CovidKgConfig {
            corpus_size: 120,
            seed: 42,
            shards: 4,
            classifier: ClassifierChoice::Svm,
            max_training_rows: 1200,
            embed_dims: 24,
            data_dir: None,
        }
    }
}

impl CovidKgConfig {
    /// Hand-written JSON encoding (the workspace carries no serde; see
    /// DESIGN.md "Hermetic build"). `data_dir` is deliberately omitted:
    /// a persisted config must describe the system, not where the bytes
    /// currently live.
    pub fn to_json(&self) -> Value {
        covidkg_json::obj! {
            "corpus_size" => self.corpus_size as i64,
            "seed" => Value::int(self.seed as i64),
            "shards" => self.shards as i64,
            "classifier" => self.classifier.name(),
            "max_training_rows" => self.max_training_rows as i64,
            "embed_dims" => self.embed_dims as i64,
        }
    }

    /// Decode [`CovidKgConfig::to_json`] output; unknown or missing
    /// fields fall back to the defaults so old data dirs stay readable.
    pub fn from_json(v: &Value) -> CovidKgConfig {
        let d = CovidKgConfig::default();
        let usize_of = |key: &str, default: usize| {
            v.get(key).and_then(Value::as_i64).map_or(default, |n| n.max(0) as usize)
        };
        CovidKgConfig {
            corpus_size: usize_of("corpus_size", d.corpus_size),
            seed: v.get("seed").and_then(Value::as_i64).map_or(d.seed, |n| n as u64),
            shards: usize_of("shards", d.shards),
            classifier: v
                .get("classifier")
                .and_then(Value::as_str)
                .and_then(ClassifierChoice::from_name)
                .unwrap_or(d.classifier),
            max_training_rows: usize_of("max_training_rows", d.max_training_rows),
            embed_dims: usize_of("embed_dims", d.embed_dims),
            data_dir: None,
        }
    }
}

/// What happened during construction.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    /// Publications stored.
    pub publications: usize,
    /// Tables parsed from HTML.
    pub tables_parsed: usize,
    /// Rows classified.
    pub rows_classified: usize,
    /// Rows predicted to be metadata.
    pub metadata_rows: usize,
    /// Candidate subtrees extracted.
    pub subtrees: usize,
    /// Fusion statistics.
    pub fusion: FusionStats,
    /// Nodes in the final KG.
    pub kg_nodes: usize,
    /// Topical clusters found.
    pub clusters: usize,
    /// Cluster purity against ground-truth topics.
    pub cluster_purity: f64,
    /// Side-effect observations folded into meta-profiles.
    pub observations: usize,
}

/// The output of [`CovidKg::ingest_prepare`]: everything the commit
/// phase needs, computed without exclusive access to the system. The
/// publications are already durable in the store when this exists;
/// only the in-memory graph/profile state remains to be updated.
#[derive(Debug)]
pub struct PreparedIngest {
    /// Candidate subtrees awaiting fusion into the graph.
    trees: Vec<covidkg_kg::ExtractedTree>,
    /// Report counter deltas accumulated during classification.
    delta: IngestReport,
}

impl PreparedIngest {
    /// Number of publications stored by the prepare phase.
    pub fn publications(&self) -> usize {
        self.delta.publications
    }
}

/// The assembled COVIDKG system.
pub struct CovidKg {
    config: CovidKgConfig,
    db: Database,
    publications: Arc<Collection>,
    search: SearchEngine,
    kg: KnowledgeGraph,
    /// Meta-profiles, trust scores and the dense tier's HNSW index, all
    /// kept fresh off the publications mutation log by one driver.
    views: Views,
    /// Memoized bias interrogation, keyed by `(trust epoch, data
    /// generation)` so a report recomputes only after data changed.
    bias_cache: Mutex<Option<(u64, u64, Value)>>,
    registry: ModelRegistry,
    embeddings: Word2Vec,
    report: IngestReport,
    /// Trained metadata classifier, kept for incremental ingest (№12).
    classifier: TrainedClassifier,
    /// The classifier's table-cell preprocessor, compiled once.
    preprocessor: Preprocessor,
    /// Fusion correction memory carried across ingest calls.
    fusion_memory: HashMap<String, covidkg_kg::NodeId>,
    /// Data generation: bumped by every completed [`CovidKg::ingest`].
    /// Serving layers key cached query results on this so a write
    /// invalidates all earlier entries (covidkg-serve).
    generation: u64,
}

impl CovidKg {
    /// Build the full system from a synthetic corpus.
    pub fn build(config: CovidKgConfig) -> Result<CovidKg, StoreError> {
        let pubs = CorpusGenerator::new(CorpusConfig {
            publications: config.corpus_size,
            seed: config.seed,
            ..CorpusConfig::default()
        })
        .generate();
        Self::build_from(config, &pubs)
    }

    /// Build from an existing corpus (lets experiments share one corpus).
    pub fn build_from(config: CovidKgConfig, pubs: &[Publication]) -> Result<CovidKg, StoreError> {
        let mut report = IngestReport::default();

        // №3 — the sharded document store of publications (durable when
        // a data_dir is configured).
        let db = match &config.data_dir {
            Some(dir) => Database::open(dir)?,
            None => Database::in_memory(),
        };
        let publications = db.create_collection(
            CollectionConfig::new("publications")
                .with_shards(config.shards)
                .with_text_fields(Publication::text_fields()),
        )?;

        // №4 — embeddings (WDC pre-train + corpus fine-tune) and the
        // metadata classifiers.
        let embeddings = training::pretrain_embeddings(
            pubs,
            config.seed ^ 0x57dc,
            &Word2VecConfig {
                dims: config.embed_dims,
                epochs: 3,
                seed: config.seed,
                ..Word2VecConfig::default()
            },
        );
        let mut rows = labeled_rows_from_corpus(pubs);
        if rows.len() > config.max_training_rows {
            rows.truncate(config.max_training_rows);
        }
        let classifier = TrainedClassifier::train(&rows, &config, &embeddings);

        // Classify every table, store each publication once with its
        // enrichment, and fuse the subtrees in the store's scan order
        // (shard by shard), which numbers the graph's nodes.
        let docs = pubs.iter().map(Publication::to_doc).collect();
        let mut trees =
            classify_and_store(&publications, docs, &classifier, &Preprocessor::new(), &mut report)?;
        let scan_rank: HashMap<String, usize> = publications.ids().into_iter().zip(0..).collect();
        trees.sort_by_key(|t| scan_rank.get(&t.paper_id).copied());

        // №5 — topical clustering over TF-IDF-ish embedding vectors.
        let (clusters, purity) = cluster_topics(pubs, &embeddings);
        report.clusters = clusters;
        report.cluster_purity = purity;

        // №2/№14 — fusion into the expert-seeded KG.
        let mut engine = FusionEngine::new(seed_graph(), Some(&embeddings), FusionConfig::default());
        for tree in trees {
            engine.fuse(tree);
        }
        let mut expert = default_expert();
        engine.process_reviews(&mut expert);
        report.fusion = engine.stats();

        // №11/13 — release trained artifacts.
        let registry =
            ModelRegistry::over(db.create_collection(CollectionConfig::new("models").with_shards(2))?);
        registry.publish_embeddings("cord19-wdc-w2v", &embeddings)?;
        // Real payloads, reusable by API consumers (№11/13): both the SVM
        // and the full BiGRU (weights + batch-norm statistics) serialize
        // losslessly.
        let classifier_payload = match &classifier {
            TrainedClassifier::Svm { model, featurizer } => {
                registry.publish("metadata-featurizer", "featurizer", featurizer.save_text())?;
                model.save_text()
            }
            TrainedClassifier::BiGru(model) => model.save_text(),
        };
        registry.publish("metadata-classifier", config.classifier.name(), classifier_payload)?;

        let system =
            Self::assemble(config, db, engine.into_parts(), embeddings, classifier, report, None)?;
        // The dense tier's index, published alongside the other trained
        // artifacts so reopen can skip the rebuild.
        system
            .registry
            .publish("ann-hnsw", "hnsw", system.views.ann().save_text())?;
        system.persist()?;
        Ok(system)
    }

    /// The system over `db`'s publications and models and a graph just
    /// fused or read back: №7 and the trust and dense tiers derived once
    /// here (from `restored_ann` when it still matches the store), kept
    /// fresh incrementally by every later ingest.
    fn assemble(
        config: CovidKgConfig,
        db: Database,
        (mut kg, fusion_memory): (KnowledgeGraph, HashMap<String, covidkg_kg::NodeId>),
        embeddings: Word2Vec,
        classifier: TrainedClassifier,
        mut report: IngestReport,
        restored_ann: Option<HnswIndex>,
    ) -> Result<CovidKg, StoreError> {
        let publications = db.collection("publications")?;
        let registry = ModelRegistry::over(db.collection("models")?);
        kg.take_changed();
        let mut views = Views::new(embeddings.dims());
        views.rebuild(&publications, &kg, &embeddings, restored_ann);
        views.set_generation(1);
        report.publications = publications.len();
        report.kg_nodes = kg.len();
        report.observations = views.profiles().stats().observations;
        let search = SearchEngine::new(Arc::clone(&publications))
            .with_render_cache(Arc::new(RenderCache::new(RENDER_CACHE_CAP)));
        Ok(CovidKg {
            config,
            db,
            publications,
            search,
            kg,
            views,
            bias_cache: Mutex::new(None),
            registry,
            embeddings,
            report,
            classifier,
            preprocessor: Preprocessor::new(),
            fusion_memory,
            generation: 1,
        })
    }

    /// Persist the KG document and snapshot every durable collection.
    /// No-op for in-memory systems.
    fn persist(&self) -> Result<(), StoreError> {
        if self.config.data_dir.is_none() {
            return Ok(());
        }
        let kg_coll = match self.db.collection("kg") {
            Ok(c) => c,
            Err(_) => self
                .db
                .create_collection(CollectionConfig::new("kg").with_shards(1))?,
        };
        let docs = [
            covidkg_json::obj! { "_id" => "kg", "graph" => self.kg.to_json() },
            covidkg_json::obj! { "_id" => "config", "config" => self.config.to_json() },
        ];
        for doc in docs {
            let id = doc.get("_id").and_then(Value::as_str).unwrap().to_string();
            match kg_coll.get(&id) {
                Some(_) => kg_coll.replace(&id, doc)?,
                None => {
                    kg_coll.insert(doc)?;
                }
            }
        }
        // Re-publish the ANN index so the durable copy reflects every
        // ingest-time insert/replace/delete applied since the last persist.
        self.registry
            .publish("ann-hnsw", "hnsw", self.views.ann().save_text())?;
        self.db.snapshot_all()?;
        Ok(())
    }

    /// Reopen a durable system from `config.data_dir` **without
    /// retraining**: the publications recover from snapshot+WAL, the
    /// embeddings/classifier/featurizer come from the model registry, the
    /// KG from its persisted JSON document, and the meta-profiles are
    /// re-derived from the stored tables. `config.classifier` must match
    /// the kind the system was built with.
    pub fn reopen(config: CovidKgConfig) -> Result<CovidKg, StoreError> {
        let Some(dir) = config.data_dir.clone() else {
            return Err(StoreError::BadQuery(
                "reopen requires config.data_dir".into(),
            ));
        };
        Self::reopen_with(Database::open(&dir)?, config)
    }

    /// [`CovidKg::reopen`] over an already-open [`Database`] whose
    /// collections may already be live (the replication path: a replica
    /// node creates the collections, streams them to convergence, then
    /// assembles a serving system around the same `Arc`s so applied
    /// frames are visible to search without reopening files).
    pub fn reopen_with(db: Database, config: CovidKgConfig) -> Result<CovidKg, StoreError> {
        db.get_or_create(
            CollectionConfig::new("publications")
                .with_shards(config.shards)
                .with_text_fields(Publication::text_fields()),
        )?;
        let registry =
            ModelRegistry::over(db.get_or_create(CollectionConfig::new("models").with_shards(2))?);
        let corrupt = |what: &str| StoreError::Corrupt(format!("missing persisted {what}"));
        let embeddings = registry
            .fetch_embeddings("cord19-wdc-w2v")
            .ok_or_else(|| corrupt("embeddings"))?;
        let classifier = match config.classifier {
            ClassifierChoice::Svm => {
                let model = registry
                    .fetch_svm("metadata-classifier")
                    .ok_or_else(|| corrupt("svm classifier"))?;
                let featurizer = registry
                    .fetch("metadata-featurizer")
                    .and_then(|t| crate::training::SvmFeaturizer::load_text(&t))
                    .ok_or_else(|| corrupt("featurizer"))?;
                TrainedClassifier::Svm { model, featurizer }
            }
            ClassifierChoice::BiGru => {
                let model = registry
                    .fetch("metadata-classifier")
                    .and_then(|t| TupleClassifier::load_text(&t))
                    .ok_or_else(|| corrupt("bigru classifier"))?;
                TrainedClassifier::BiGru(model)
            }
        };
        let kg_coll = db.get_or_create(CollectionConfig::new("kg").with_shards(1))?;
        if let Some(saved) = kg_coll.get("config") {
            let saved = CovidKgConfig::from_json(saved.get("config").unwrap_or(&Value::Null));
            if saved.classifier != config.classifier {
                return Err(StoreError::BadQuery(format!(
                    "data dir was built with the {} classifier, reopen requested {}",
                    saved.classifier.name(),
                    config.classifier.name()
                )));
            }
        }
        let kg = kg_coll
            .get("kg")
            .and_then(|d| d.path("graph").and_then(KnowledgeGraph::from_json))
            .ok_or_else(|| corrupt("knowledge graph"))?;

        // The views re-derive from the stored documents (cheap,
        // classifier-free). The ANN index restores from its published
        // payload when it still matches the recovered store (WAL replay
        // may have advanced the corpus past the last persist). Correction
        // memory is session-scoped; the expert relearns quickly thanks to
        // the persisted KG structure.
        let restored_ann = registry
            .fetch("ann-hnsw")
            .and_then(|t| HnswIndex::load_text(&t));
        Self::assemble(
            config,
            db,
            (kg, HashMap::new()),
            embeddings,
            classifier,
            IngestReport::default(),
            restored_ann,
        )
    }

    /// Incrementally ingest new publications (№12 in Fig 1: "the World
    /// Wide Web with new information on COVID-19" feeding the always-
    /// fresh KG): store them, classify their tables with the already-
    /// trained models, fuse the extracted subtrees into the existing
    /// graph (reusing the learned correction memory), and refresh the
    /// meta-profiles. Returns the number of publications added.
    ///
    /// Equivalent to [`CovidKg::ingest_prepare`] → [`CovidKg::ingest_commit`]
    /// → [`CovidKg::persist_now`]; servers that must keep reads flowing
    /// during ingest call the three phases separately so only the commit
    /// phase needs exclusive access.
    pub fn ingest(&mut self, pubs: &[Publication]) -> Result<usize, StoreError> {
        let prepared = self.ingest_prepare(pubs)?;
        let added = self.ingest_commit(prepared)?;
        self.persist_now()?;
        Ok(added)
    }

    /// Phase 1 of ingest: classify the publications' tables and store
    /// each once with its enrichment — all through `&self`, so concurrent
    /// readers proceed untouched. Report deltas accumulate in the
    /// returned [`PreparedIngest`] and are merged during commit.
    pub fn ingest_prepare(&self, pubs: &[Publication]) -> Result<PreparedIngest, StoreError> {
        let mut delta = IngestReport::default();
        let docs = pubs.iter().map(Publication::to_doc).collect();
        let trees = classify_and_store(
            &self.publications,
            docs,
            &self.classifier,
            &self.preprocessor,
            &mut delta,
        )?;
        Ok(PreparedIngest { trees, delta })
    }

    /// Phase 2 of ingest: fuse the prepared subtrees into the graph,
    /// advance the derived views and bump the generation. This is the only
    /// phase that mutates the system (`&mut self`); it does no I/O
    /// beyond memory, and what it does follows the publications it adds,
    /// not the corpus: trust re-reads only the graph nodes fusion
    /// changed (`KnowledgeGraph::take_changed`) and rebases only nodes
    /// whose venues or venue priors moved, and the profiles fold in only
    /// the new observations. Over 40 one-publication ingests on a 2-vCPU
    /// host (two runs per size) its p50 is 0.42–0.45 ms at 240
    /// publications and 0.40–0.46 ms at 2 400, p90 under 0.6 ms at both;
    /// re-deriving trust and profiles over every paper, it was 1.20–1.40
    /// and 11.99–12.90 ms (EXPERIMENTS.md, "an ingest that costs the
    /// publication it adds").
    pub fn ingest_commit(&mut self, prepared: PreparedIngest) -> Result<usize, StoreError> {
        let PreparedIngest { trees, delta } = prepared;
        self.report.publications += delta.publications;
        self.report.tables_parsed += delta.tables_parsed;
        self.report.rows_classified += delta.rows_classified;
        self.report.metadata_rows += delta.metadata_rows;
        self.report.subtrees += delta.subtrees;

        // Resume fusion over the live graph with the learned memory.
        let kg = std::mem::take(&mut self.kg);
        let mut engine = FusionEngine::new(kg, Some(&self.embeddings), FusionConfig::default());
        engine.set_memory(std::mem::take(&mut self.fusion_memory));
        let added = delta.publications;
        for tree in trees {
            engine.fuse(tree);
        }
        let mut expert = default_expert();
        engine.process_reviews(&mut expert);
        // Merge fusion counters (engine stats restart at zero per engine).
        let fused = engine.stats();
        self.report.fusion.auto_fused += fused.auto_fused;
        self.report.fusion.via_memory += fused.via_memory;
        self.report.fusion.via_embedding += fused.via_embedding;
        self.report.fusion.queued += fused.queued;
        self.report.fusion.reviewed += fused.reviewed;
        self.report.fusion.discarded += fused.discarded;
        self.report.fusion.leaves_added += fused.leaves_added;
        let (kg, memory) = engine.into_parts();
        self.kg = kg;
        self.fusion_memory = memory;
        self.report.kg_nodes = self.kg.len();

        self.advance_views();
        Ok(added)
    }

    /// Replay what was written to the publications since the views last
    /// looked — by this node's ingest or by replicated frames, the log
    /// does not care — against the current graph, and bump the
    /// generation so serving caches re-key.
    fn advance_views(&mut self) {
        let changed = self.kg.take_changed();
        self.views
            .advance(&self.publications, &self.kg, &changed, &self.embeddings);
        self.report.observations = self.views.profiles().stats().observations;
        self.generation += 1;
        self.views.set_generation(self.generation);
    }

    /// Re-derive every view from scratch ([`Views::rebuild`]) at the
    /// current generation: the oracle the incremental advance of every
    /// ingest is held to. Serves nothing differently when the views were
    /// right.
    pub fn rebuild_views(&mut self) {
        self.kg.take_changed();
        self.views
            .rebuild(&self.publications, &self.kg, &self.embeddings, None);
        self.views.set_generation(self.generation);
        *self.bias_cache.lock().unwrap() = None;
    }

    /// Phase 3 of ingest: persist the KG document and snapshot every
    /// durable collection (`&self`, no-op in memory). Public so servers
    /// can run it outside the exclusive commit window.
    pub fn persist_now(&self) -> Result<(), StoreError> {
        self.persist()
    }

    /// Refresh derived state from the underlying collections after
    /// records were applied *beneath* this system (the replication
    /// path: a replica puller appends frames straight to the store, so
    /// the KG document, the derived views and the report are stale
    /// until refreshed). Costs a KG reload plus the delta; bumps the
    /// generation so serving caches re-key.
    pub fn refresh_derived(&mut self) -> Result<(), StoreError> {
        if let Ok(kg_coll) = self.db.collection("kg") {
            if let Some(kg) = kg_coll
                .get("kg")
                .and_then(|d| d.path("graph").and_then(KnowledgeGraph::from_json))
            {
                self.kg = kg;
            }
        }
        self.report.publications = self.publications.len();
        self.report.kg_nodes = self.kg.len();
        self.advance_views();
        Ok(())
    }

    /// Build configuration.
    pub fn config(&self) -> &CovidKgConfig {
        &self.config
    }

    /// The ingest/build report.
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// Monotonic data generation: starts at 1 and increments after every
    /// completed [`CovidKg::ingest`]. A cached search result tagged with
    /// an older generation is stale and must not be served.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Run one of the three search engines (№9/10).
    pub fn search(&self, mode: &SearchMode, page: usize) -> SearchPage {
        self.search.search(mode, page)
    }

    /// Run a dense retrieval mode: pure-semantic ANN neighbors or the
    /// hybrid lexical+dense reciprocal-rank fusion. This is the single
    /// implementation every surface (CLI, serve layer, HTTP front-end)
    /// calls, so wire responses are byte-identical to in-process pages.
    pub fn search_dense(&self, mode: &DenseMode, page: usize) -> SearchPage {
        dense_search(
            &self.search,
            self.views.ann(),
            &self.embeddings,
            mode,
            page,
            &HybridConfig::default(),
        )
    }

    /// The dense retrieval tier's HNSW index.
    pub fn ann(&self) -> &HnswIndex {
        self.views.ann()
    }

    /// The knowledge graph.
    pub fn kg(&self) -> &KnowledgeGraph {
        &self.kg
    }

    /// Vaccine side-effect meta-profiles (Fig 6), in vaccine order.
    pub fn profiles(&self) -> &[MetaProfile] {
        self.views.profiles().profiles()
    }

    /// The incrementally-materialized profile store (metrics surface).
    pub fn profile_store(&self) -> &ProfileStore {
        self.views.profiles()
    }

    /// Execute a graph query plan: bounded multi-hop traversal over the
    /// KG returning top-k ranked paths. The single implementation every
    /// surface (CLI, serve layer, HTTP front-end) calls, so wire
    /// responses are byte-identical to in-process results. The engine's
    /// result, work counters included, is held to the exhaustive-DFS
    /// oracle (`covidkg_kg::execute_oracle`).
    pub fn kg_query(&self, plan: &QueryPlan) -> QueryResult {
        covidkg_kg::execute(&self.kg, plan)
    }

    /// [`CovidKg::kg_query`] with trust-aware re-ranking: each path's
    /// score is fused with the mean propagated trust of its nodes
    /// (`score × (0.5 + 0.5·trust)`), re-sorted, and serialized with
    /// per-path `trust`/`trusted_score` fields plus the trust store's
    /// epoch stamp. The `trust=1` knob on `GET /kg/query`.
    pub fn kg_query_trusted(&self, plan: &QueryPlan) -> Value {
        self.kg_trust_rerank(&self.kg_query(plan))
    }

    /// The trust-aware re-ranking of [`CovidKg::kg_query_trusted`],
    /// applied to a traversal already run (so a caller can read the
    /// traversal's work counters first). The wire body is
    /// [`CovidKg::kg_trust_body`], held to this document's `to_json()`.
    pub fn kg_trust_rerank(&self, result: &QueryResult) -> Value {
        covidkg_json::obj! {
            "paths" => Value::Array(
                self.trust_ranked(result)
                    .iter()
                    .map(|(trusted_score, trust, p)| {
                        let mut v = p.to_json();
                        v.insert("trust", *trust);
                        v.insert("trusted_score", *trusted_score);
                        v
                    })
                    .collect(),
            ),
            "hops" => result.hops as i64,
            "visited" => result.visited as i64,
            "epoch" => self.views.trust().epoch() as i64,
            "generation" => self.generation as i64,
        }
    }

    /// The `GET /kg/query?trust=1` body: [`CovidKg::kg_trust_rerank`]
    /// serialized, written straight into one `String` sized up front
    /// (`kg_trust_rerank(result).to_json()` is its byte-for-byte oracle).
    pub fn kg_trust_body(&self, result: &QueryResult) -> String {
        // Per path: `,"trust":` and `,"trusted_score":` with a score
        // each; per body: `,"epoch":` and `,"generation":` with an
        // integer each.
        let paths: usize = result.paths.iter().map(|p| p.body_capacity() + 74).sum();
        let mut out = String::with_capacity(136 + paths);
        out.push_str("{\"paths\":[");
        for (i, (trusted_score, trust, p)) in self.trust_ranked(result).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            p.write_members(&mut out);
            out.push_str(",\"trust\":");
            write_number(Number::Float(*trust), &mut out);
            out.push_str(",\"trusted_score\":");
            write_number(Number::Float(*trusted_score), &mut out);
            out.push('}');
        }
        out.push(']');
        result.write_counters(&mut out);
        out.push_str(",\"epoch\":");
        write_number(Number::Int(self.views.trust().epoch() as i64), &mut out);
        out.push_str(",\"generation\":");
        write_number(Number::Int(self.generation as i64), &mut out);
        out.push('}');
        out
    }

    /// The one trust re-rank both forms serialize: every path as
    /// `(trusted_score, trust, path)`, where `trust` is the mean
    /// propagated trust of its nodes and `trusted_score` is
    /// `score × (0.5 + 0.5·trust)`, ordered by `trusted_score`
    /// descending, ties by node path.
    fn trust_ranked<'r>(&self, result: &'r QueryResult) -> Vec<(f64, f64, &'r RankedPath)> {
        let mut paths: Vec<_> = result
            .paths
            .iter()
            .map(|p| {
                let mean = if p.nodes.is_empty() {
                    0.0
                } else {
                    p.nodes.iter().filter_map(|&n| self.views.trust().trust(n)).sum::<f64>()
                        / p.nodes.len() as f64
                };
                (p.score * (0.5 + 0.5 * mean), mean, p)
            })
            .collect();
        paths.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.2.nodes.cmp(&b.2.nodes)));
        paths
    }

    /// One vaccine's epoch-stamped meta-profile document (JSON +
    /// rendered forms), or `None` for an unknown vaccine.
    pub fn kg_profile(&self, vaccine: &str) -> Option<Value> {
        self.views.profiles().document(vaccine)
    }

    /// One KG node as a JSON document, or `None` for an out-of-range
    /// id. Like [`CovidKg::kg_query`], the single implementation behind
    /// the `/kg/node/{id}` wire route.
    pub fn kg_node(&self, id: covidkg_kg::NodeId) -> Option<Value> {
        if id >= self.kg.len() {
            return None;
        }
        let node = self.kg.node(id);
        let ids = |v: &[usize]| Value::Array(v.iter().map(|&n| Value::from(n)).collect());
        Some(covidkg_json::obj! {
            "id" => node.id,
            "label" => node.label.as_str(),
            "kind" => node.kind.as_str(),
            "parents" => ids(&node.parents),
            "children" => ids(&node.children),
            "provenance" => Value::Array(self.kg.provenance(id).map(Value::from).collect()),
            "confidence" => node.confidence,
        })
    }

    /// The released-model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The trained embeddings.
    pub fn embeddings(&self) -> &Word2Vec {
        &self.embeddings
    }

    /// The publications collection.
    pub fn publications(&self) -> &Arc<Collection> {
        &self.publications
    }

    /// The underlying database — the replication listener walks its
    /// collections to ship every WAL, not just the publications'.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Storage statistics (the §2 report).
    pub fn stats(&self) -> covidkg_store::DbStats {
        self.db.stats()
    }

    /// Interrogate the stored corpus for bias (title claim): embedding-
    /// driven clustering with coverage/venue/freshness skew indicators,
    /// re-founded on the trust store — cluster masses are weighted by
    /// each paper's incrementally-maintained venue credibility prior.
    pub fn bias_report(&self) -> crate::bias::BiasReport {
        crate::bias::interrogate_weighted(
            &self.publications.scan_all(),
            &self.embeddings,
            covidkg_corpus::all_topics().len(),
            |paper_id| self.views.trust().paper_weight(paper_id),
        )
    }

    /// The epoch-stamped bias interrogation document — the single
    /// serialization behind `GET /bias/report` and `covidkg bias`.
    /// Memoized per `(trust epoch, generation)`: the expensive
    /// embed-and-cluster pass reruns only after data actually changed,
    /// which is what makes online interrogation viable as wire traffic.
    pub fn bias_document(&self) -> Value {
        let key = (self.views.trust().epoch(), self.generation);
        if let Some((e, g, doc)) = self.bias_cache.lock().unwrap().as_ref() {
            if (*e, *g) == key {
                return doc.clone();
            }
        }
        let report = self.bias_report();
        let doc = covidkg_json::obj! {
            "report" => report.to_json(),
            "rendered" => report.render(),
            "epoch" => key.0 as i64,
            "generation" => key.1 as i64,
        };
        *self.bias_cache.lock().unwrap() = Some((key.0, key.1, doc.clone()));
        doc
    }

    /// The provenance-weighted trust store (stats/metrics surface).
    pub fn trust_store(&self) -> &TrustStore {
        self.views.trust()
    }

    /// One KG node's epoch-stamped trust document, or `None` for an
    /// out-of-range id. The single implementation behind the
    /// `GET /trust/node/{id}` wire route.
    pub fn trust_node(&self, id: covidkg_kg::NodeId) -> Option<Value> {
        self.views.trust().node_document(id)
    }

    /// One venue's credibility document (prior components + epoch), or
    /// `None` for an unknown venue — behind `GET /trust/source/{venue}`.
    pub fn trust_source(&self, venue: &str) -> Option<Value> {
        self.views.trust().source_document(venue)
    }

    /// A paper's credibility weight: its venue's prior, or the floor
    /// for papers from unknown venues. The `trust=1` re-rank knob on
    /// `/search/*` reads this.
    pub fn trust_paper_weight(&self, paper_id: &str) -> f64 {
        self.views.trust().paper_weight(paper_id)
    }

    /// `trust=1` on `/search/*`: `page` re-ranked by provenance trust.
    /// Page-local by design — each result's lexical/dense score is
    /// scaled by `0.5 + 0.5 * trust(source)` and the page re-sorted
    /// (score desc, id asc on ties), so the knob reads the incrementally
    /// maintained trust store without re-running the search.
    pub fn rerank_by_trust(&self, mut page: SearchPage) -> SearchPage {
        for result in &mut page.results {
            result.score *= 0.5 + 0.5 * self.trust_paper_weight(&result.id);
        }
        page.results
            .sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
        page
    }
}

/// Run the trained classifier over every table of `docs`, store each
/// document once carrying its classification, and return the candidate
/// subtrees in `docs` order. The paper's back-end stores publications
/// "enriched with different classified characteristics by our
/// Deep-Learning models": a document with a `tables` array gains a last
/// member, `enrichment`, summarising them. Shared by the initial build
/// and incremental [`CovidKg::ingest`].
fn classify_and_store(
    publications: &Collection,
    mut docs: Vec<Value>,
    classifier: &TrainedClassifier,
    pre: &Preprocessor,
    report: &mut IngestReport,
) -> Result<Vec<covidkg_kg::ExtractedTree>, StoreError> {
    let mut trees = Vec::new();
    for doc in &mut docs {
        let Some(tables) = doc.get("tables").and_then(Value::as_array) else {
            continue;
        };
        let paper_id = doc.get("_id").and_then(Value::as_str).unwrap_or_default();
        let mut paper_tables = 0usize;
        let mut paper_meta_rows = 0usize;
        for t in tables {
            let Some(html) = t.path("html").and_then(Value::as_str) else {
                continue;
            };
            let Ok(parsed) = parse_tables(html) else {
                continue;
            };
            for table in &parsed {
                report.tables_parsed += 1;
                paper_tables += 1;
                let feats = row_features(pre, &table.rows, None);
                let predictions: Vec<bool> = feats
                    .iter()
                    .enumerate()
                    .map(|(i, f)| classifier.predict(f, &table.rows[i]))
                    .collect();
                report.rows_classified += predictions.len();
                let meta = predictions.iter().filter(|&&p| p).count();
                report.metadata_rows += meta;
                paper_meta_rows += meta;
                let orientation = detect_orientation(&table.rows);
                trees.extend(extract_subtrees(
                    &table.rows,
                    &predictions,
                    orientation == Orientation::Vertical,
                    &table.caption,
                    paper_id,
                ));
            }
        }
        doc.insert(
            "enrichment",
            covidkg_json::obj! {
                "tables" => paper_tables,
                "metadata_rows" => paper_meta_rows,
            },
        );
    }
    report.publications += docs.len();
    report.subtrees += trees.len();
    store_docs(publications, &docs)?;
    Ok(trees)
}

/// Store a batch of new documents, riding out transient I/O faults.
///
/// The parallel fast path may have landed an arbitrary subset of the
/// batch before a fault surfaced, so the transient-error fallback
/// walks the batch sequentially — tolerating `DuplicateId` for
/// documents that already made it — with a bounded number of passes
/// per document. Permanent errors propagate immediately; a batch that
/// returns `Ok` is fully acknowledged (every document durable in the
/// WAL).
fn store_docs(publications: &Collection, docs: &[Value]) -> Result<(), StoreError> {
    match publications.insert_parallel(docs.to_vec(), INGEST_THREADS) {
        Ok(_) => return Ok(()),
        Err(e) if e.is_transient() => {}
        Err(e) => return Err(e),
    }
    const SEQUENTIAL_PASSES: usize = 8;
    for doc in docs {
        let mut last = None;
        for _ in 0..SEQUENTIAL_PASSES {
            match publications.insert(doc.clone()) {
                Ok(_) | Err(StoreError::DuplicateId(_)) => {
                    last = None;
                    break;
                }
                Err(e) if e.is_transient() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        if let Some(e) = last {
            return Err(e);
        }
    }
    Ok(())
}

/// The classifier actually used during ingest.
#[allow(clippy::large_enum_variant)] // one long-lived instance per system
enum TrainedClassifier {
    Svm {
        model: Svm,
        featurizer: crate::training::SvmFeaturizer,
    },
    BiGru(TupleClassifier),
}

impl TrainedClassifier {
    fn train(rows: &[LabeledRow], config: &CovidKgConfig, embeddings: &Word2Vec) -> Self {
        match config.classifier {
            ClassifierChoice::Svm => {
                let featurizer = crate::training::SvmFeaturizer::fit(rows, 2000);
                let vectors: Vec<_> = rows
                    .iter()
                    .map(|r| featurizer.vectorize(&r.features, &r.cells))
                    .collect();
                let labels: Vec<bool> = rows
                    .iter()
                    .map(|r| r.features.label.unwrap_or(false))
                    .collect();
                let model = Svm::train(
                    &vectors,
                    &labels,
                    &SvmConfig {
                        seed: config.seed,
                        ..SvmConfig::default()
                    },
                );
                TrainedClassifier::Svm { model, featurizer }
            }
            ClassifierChoice::BiGru => {
                let examples = build_tuple_examples(rows);
                let mut model = TupleClassifier::new(
                    &examples,
                    Some(embeddings),
                    TupleClassifierConfig {
                        embed_dims: config.embed_dims,
                        hidden: 16,
                        max_len: 10,
                        epochs: 6,
                        seed: config.seed,
                        ..TupleClassifierConfig::default()
                    },
                );
                model.train(&examples);
                TrainedClassifier::BiGru(model)
            }
        }
    }

    fn predict(&self, features: &covidkg_tables::RowFeatures, cells: &[String]) -> bool {
        match self {
            TrainedClassifier::Svm { model, featurizer } => {
                model.predict(&featurizer.vectorize(features, cells))
            }
            TrainedClassifier::BiGru(model) => {
                let example = covidkg_ml::TupleExample {
                    terms: features
                        .processed
                        .split_whitespace()
                        .map(str::to_lowercase)
                        .collect(),
                    cells: cells.iter().map(|c| c.to_lowercase()).collect(),
                    label: false,
                };
                model.predict(&example)
            }
        }
    }
}

/// The scripted expert's default ground-truth mapping from the table
/// attribute headings the synthetic corpus emits.
fn default_expert() -> ScriptedExpert {
    ScriptedExpert::new(&[
        ("Vaccine", "Vaccine(s)"),
        ("Side effect", "Side-effects"),
        ("Symptom", "Symptoms"),
        ("Characteristic", "Epidemiology"),
        ("Arm", "Treatments"),
        ("Product", "Prevention"),
    ])
}

/// Topical clustering (№5): k-means over mean word embeddings of each
/// abstract; purity graded against the generator's topic labels.
fn cluster_topics(pubs: &[Publication], embeddings: &Word2Vec) -> (usize, f64) {
    if pubs.is_empty() {
        return (0, 0.0);
    }
    let points: Vec<Vec<f32>> = pubs
        .iter()
        .map(|p| embeddings.embed_phrase(&tokenize_lower(&p.abstract_text)))
        .collect();
    let k = covidkg_corpus::all_topics().len();
    let result = kmeans(&points, k, 30, 17);
    // Purity: each cluster votes for its majority ground-truth topic.
    let mut majority = vec![std::collections::HashMap::<usize, usize>::new(); k];
    for (p, &c) in pubs.iter().zip(&result.assignments) {
        *majority[c].entry(p.topic_id).or_insert(0) += 1;
    }
    let pure: usize = majority
        .iter()
        .map(|m| m.values().copied().max().unwrap_or(0))
        .sum();
    (k, pure as f64 / pubs.len() as f64)
}

/// Recover structured side-effect observations from a parsed table whose
/// caption marks it as a side-effect table (the real-code-path feed for
/// the Fig 6 meta-profiles). Headers look like `Pfizer dose 2 (%)`.
pub fn parse_side_effect_table(
    caption: &str,
    rows: &[Vec<String>],
    paper_id: &str,
) -> Vec<Observation> {
    if !caption.to_lowercase().contains("side-effect")
        && !caption.to_lowercase().contains("side effect")
    {
        return Vec::new();
    }
    if rows.len() < 2 || rows[0].len() < 2 {
        return Vec::new();
    }
    // Parse headers: vaccine name + dose.
    let mut columns: Vec<Option<(String, u8)>> = vec![None];
    for h in &rows[0][1..] {
        let toks = tokenize_lower(h);
        let vaccine = toks.first().cloned();
        let dose = toks
            .iter()
            .position(|t| t == "dose")
            .and_then(|i| toks.get(i + 1))
            .and_then(|d| d.parse::<u8>().ok());
        columns.push(match (vaccine, dose) {
            (Some(v), Some(d)) => Some((capitalize(&v), d)),
            _ => None,
        });
    }
    let mut out = Vec::new();
    for row in &rows[1..] {
        let Some(effect) = row.first() else { continue };
        for (col, cell) in row.iter().enumerate().skip(1) {
            let Some(Some((vaccine, dose))) = columns.get(col) else {
                continue;
            };
            let Some(rate) = cell.trim().strip_suffix('%').and_then(|r| r.trim().parse::<f32>().ok())
            else {
                continue;
            };
            out.push(Observation {
                vaccine: vaccine.clone(),
                dose: *dose,
                effect: effect.clone(),
                rate,
                paper_id: paper_id.to_string(),
            });
        }
    }
    out
}

fn capitalize(w: &str) -> String {
    let mut c = w.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_store::WalRecord;

    fn small_config() -> CovidKgConfig {
        CovidKgConfig {
            corpus_size: 36,
            max_training_rows: 400,
            ..CovidKgConfig::default()
        }
    }

    #[test]
    fn end_to_end_build_produces_all_artifacts() {
        let system = CovidKg::build(small_config()).unwrap();
        let r = system.report();
        assert_eq!(r.publications, 36);
        assert!(r.tables_parsed >= 36);
        assert!(r.rows_classified > 100);
        assert!(r.metadata_rows > 0);
        assert!(r.subtrees > 0);
        assert!(r.kg_nodes > seed_graph().len(), "fusion must grow the KG");
        assert!(r.fusion.auto_fused > 0);
        assert!(!system.profiles().is_empty(), "side-effect tables exist");
        assert!(r.cluster_purity > 0.2, "purity {}", r.cluster_purity);
        // Released artifacts present: embeddings + classifier +
        // featurizer + the dense-tier ANN index.
        assert!(system.registry().fetch_embeddings("cord19-wdc-w2v").is_some());
        assert!(system.registry().fetch_svm("metadata-classifier").is_some());
        assert!(system.registry().fetch("ann-hnsw").is_some());
        assert_eq!(system.registry().list().len(), 4);
        assert_eq!(system.ann().len(), 36, "every publication indexed");
    }

    #[test]
    fn dense_modes_serve_pages_and_track_ingest() {
        let mut system = CovidKg::build(small_config()).unwrap();
        let sem = system.search_dense(&DenseMode::Semantic("vaccine".into()), 0);
        assert!(sem.total > 0, "semantic neighbors for an in-vocab query");
        for w in sem.results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let hyb = system.search_dense(&DenseMode::Hybrid("vaccine".into()), 0);
        assert!(hyb.total > 0);
        // Hybrid keeps every lexical page-one hit in its candidate set.
        let lexical = system.search(&SearchMode::AllFields("vaccine".into()), 0);
        assert!(hyb.total >= lexical.results.len());
        // Ingest keeps the ANN tier in sync without a rebuild.
        let before = system.ann().len();
        let new_pubs: Vec<_> = covidkg_corpus::CorpusGenerator::with_size(48, 42)
            .generate()
            .into_iter()
            .skip(36)
            .collect();
        system.ingest(&new_pubs).unwrap();
        assert_eq!(system.ann().len(), before + 12);
    }

    #[test]
    fn search_over_built_system_returns_ranked_pages() {
        let system = CovidKg::build(small_config()).unwrap();
        let page = system.search(&SearchMode::AllFields("vaccine".into()), 0);
        assert!(page.total > 0);
        assert!(page.results.len() <= 10);
        // Scores are non-increasing.
        for w in page.results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let tables = system.search(&SearchMode::Tables("side-effects".into()), 0);
        assert!(tables.total > 0);
    }

    #[test]
    fn kg_is_browsable_with_provenance() {
        let system = CovidKg::build(small_config()).unwrap();
        let kg = system.kg();
        let hits = kg.search("side effect");
        assert!(!hits.is_empty());
        // Fused entity nodes carry provenance back to papers.
        let with_prov = (0..kg.len()).filter(|&n| kg.provenance(n).len() > 0).count();
        assert!(with_prov > 0);
    }

    #[test]
    fn stats_report_covers_the_store() {
        let system = CovidKg::build(small_config()).unwrap();
        let stats = system.stats();
        // publications + the models registry collection.
        assert_eq!(stats.collections.len(), 2);
        assert_eq!(
            stats
                .collections
                .iter()
                .find(|c| c.name == "publications")
                .unwrap()
                .docs,
            36
        );
        assert!(stats.render_report().contains("publications"));
    }

    #[test]
    fn side_effect_parser_extracts_observations() {
        let rows = vec![
            vec!["Side effect".to_string(), "Pfizer dose 2 (%)".to_string(), "Moderna dose 2 (%)".to_string()],
            vec!["Fever".to_string(), "12.5%".to_string(), "15%".to_string()],
            vec!["Chills".to_string(), "8%".to_string(), "n/a".to_string()],
        ];
        let obs = parse_side_effect_table("Reported side-effects after dose 2", &rows, "p9");
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].vaccine, "Pfizer");
        assert_eq!(obs[0].dose, 2);
        assert_eq!(obs[0].effect, "Fever");
        assert!((obs[0].rate - 12.5).abs() < 1e-6);
        // Non-side-effect captions are skipped.
        assert!(parse_side_effect_table("Demographics", &rows, "p9").is_empty());
    }

    #[test]
    fn incremental_ingest_grows_every_artifact() {
        let mut system = CovidKg::build(small_config()).unwrap();
        let before = system.report().clone();
        let kg_before = system.kg().len();
        let profiles_before: usize = system
            .profiles()
            .iter()
            .map(|p| p.observation_count())
            .sum();

        // New publications from a later index range (fresh ids).
        let new_pubs: Vec<_> = covidkg_corpus::CorpusGenerator::with_size(48, 42)
            .generate()
            .into_iter()
            .skip(36) // ids 36..48 don't collide with the build's 0..36
            .collect();
        let added = system.ingest(&new_pubs).unwrap();
        assert_eq!(added, 12);

        let after = system.report();
        assert_eq!(after.publications, before.publications + 12);
        assert!(after.tables_parsed > before.tables_parsed);
        assert!(after.subtrees > before.subtrees);
        assert!(system.kg().len() >= kg_before);
        assert_eq!(system.publications().len(), 48);
        // New docs are searchable immediately.
        let page = system.search(
            &covidkg_search::SearchMode::AllFields("vaccine".into()),
            0,
        );
        assert!(page.total > 0);
        // Profiles absorb the new observations.
        let profiles_after: usize = system
            .profiles()
            .iter()
            .map(|p| p.observation_count())
            .sum();
        assert!(profiles_after >= profiles_before);
    }
    #[test]
    fn trust_tier_scores_and_tracks_ingest() {
        let mut system = CovidKg::build(small_config()).unwrap();
        let stats = system.trust_store().stats();
        assert_eq!(stats.papers, 36);
        assert!(stats.venues > 0, "corpus venues feed the ledger");
        assert_eq!(stats.nodes, system.kg().len());
        assert_eq!(stats.generation, 1);
        // Documents serve for every node; unknown ids/venues miss.
        let node = system.trust_node(0).expect("root document");
        let trust = node.path("trust").and_then(Value::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&trust));
        assert!(system.trust_node(usize::MAX).is_none());
        let venue = system.trust_store().venues().next().unwrap().to_string();
        let source = system.trust_source(&venue).expect("venue document");
        assert!(source.path("prior").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(system.trust_source("no-such-venue").is_none());
        // Paper weights: known papers get their venue prior, unknown
        // papers the floor.
        assert!(system.trust_paper_weight("paper-0") >= covidkg_trust::prior::PRIOR_FLOOR);

        // Ingest maintains the store incrementally (equivalence to a
        // full rebuild is pinned by crates/trust/tests/trust_prop.rs).
        let new_pubs: Vec<_> = covidkg_corpus::CorpusGenerator::with_size(48, 42)
            .generate()
            .into_iter()
            .skip(36)
            .collect();
        system.ingest(&new_pubs).unwrap();
        let after = system.trust_store().stats();
        assert_eq!(after.papers, 48);
        assert!(after.incremental_refreshes >= 1, "ingest must not rebuild");
        assert_eq!(after.generation, 2);
        assert_eq!(after.nodes, system.kg().len(), "fusion growth tracked");
    }

    #[test]
    fn bias_document_memoizes_and_carries_trust() {
        let system = CovidKg::build(small_config()).unwrap();
        let a = system.bias_document();
        let b = system.bias_document();
        assert_eq!(a.to_json(), b.to_json(), "same epoch → cached byte-identical");
        assert!(a.path("report.trust_gini").and_then(Value::as_f64).is_some());
        assert_eq!(a.path("generation").and_then(Value::as_i64), Some(1));
        assert!(a
            .path("rendered")
            .and_then(Value::as_str)
            .unwrap()
            .contains("bias interrogation"));
    }

    #[test]
    fn trusted_query_reranks_with_trust_fields() {
        let system = CovidKg::build(small_config()).unwrap();
        let plan = QueryPlan::parse("node:0", "child,child", 8, 5).unwrap();
        let plain = system.kg_query(&plan);
        let trusted = system.kg_query_trusted(&plan);
        let paths = trusted.path("paths").and_then(Value::as_array).unwrap();
        assert_eq!(paths.len(), plain.paths.len());
        let mut prev = f64::INFINITY;
        for p in paths {
            let t = p.path("trust").and_then(Value::as_f64).unwrap();
            assert!((0.0..=1.0).contains(&t));
            let ts = p.path("trusted_score").and_then(Value::as_f64).unwrap();
            assert!(ts <= prev + 1e-12, "trusted_score must be non-increasing");
            prev = ts;
        }
        assert!(trusted.path("epoch").and_then(Value::as_i64).is_some());
    }

    /// The two `/kg/query` body writers against their `Value` oracles,
    /// over real traversals: every start kind, every relation (`co`
    /// shapes included), predicate filters, k from 1 to 100.
    #[test]
    fn kg_query_bodies_equal_their_value_oracles() {
        let system = CovidKg::build(small_config()).unwrap();
        let starts = [
            "term:vaccine", "term:fever", "kind:root", "kind:category", "kind:entity", "node:0",
            "node:3", "node:99999",
        ];
        let steps = [
            "", "child", "parent", "any", "co", "child,child", "parent,child:entity", "any,co",
            "co,co", "co:entity", "co::paper-1", "child,co,any",
        ];
        let mut paths = 0;
        for start in starts {
            for step in steps {
                for (fanout, k) in [(1, 1), (4, 7), (16, 100), (64, 100)] {
                    let plan = QueryPlan::parse(start, step, fanout, k).unwrap();
                    let r = system.kg_query(&plan);
                    paths += r.paths.len();
                    assert_eq!(r.to_body(), r.to_json().to_json(), "plan {plan:?}");
                    assert_eq!(
                        system.kg_trust_body(&r),
                        system.kg_trust_rerank(&r).to_json(),
                        "plan {plan:?}"
                    );
                }
            }
        }
        assert!(paths > 1000, "the plans return {paths} paths in all");
    }

    /// Publications `start..48` of the small corpus: ids the 36-paper
    /// build does not hold.
    fn later_pubs(start: usize) -> Vec<Publication> {
        CorpusGenerator::with_size(48, 42).generate().into_iter().skip(start).collect()
    }

    #[test]
    fn each_publication_is_written_once() {
        let mut system = CovidKg::build(small_config()).unwrap();
        assert_eq!(system.publications().mutation_epoch(), 36, "one write per built paper");
        system.ingest(&later_pubs(36)).unwrap();
        assert_eq!(system.publications().mutation_epoch(), 48, "one write per ingested paper");
        for doc in system.publications().scan_all() {
            let members = doc.as_object().unwrap();
            let has_tables = doc.get("tables").and_then(Value::as_array).is_some();
            assert_eq!(members.last().unwrap().0 == "enrichment", has_tables, "{:?}", doc.get("_id"));
        }
    }

    #[test]
    fn a_durable_ingest_logs_one_enriched_insert_per_publication() {
        let dir = std::env::temp_dir().join(format!("covidkg-one-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CovidKgConfig {
            data_dir: Some(dir.to_string_lossy().into_owned()),
            ..small_config()
        };
        let mut system = CovidKg::build(config).unwrap();
        // The build's persist snapshotted the store and emptied its WAL;
        // commit without persisting so the ingest's records stay there.
        let pubs = later_pubs(36);
        let prepared = system.ingest_prepare(&pubs).unwrap();
        system.ingest_commit(prepared).unwrap();
        let (records, truncated) =
            covidkg_store::wal::read_wal(&dir.join("publications.wal")).unwrap();
        assert!(!truncated);
        let mut ids: Vec<&str> = records
            .iter()
            .map(|r| match r {
                WalRecord::Insert(doc) => {
                    assert!(doc.get("enrichment").is_some(), "{}", doc.to_json());
                    doc.get("_id").and_then(Value::as_str).unwrap()
                }
                other => panic!("an ingest logged {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        let mut want: Vec<&str> = pubs.iter().map(|p| p.id.as_str()).collect();
        want.sort_unstable();
        assert_eq!(ids, want);
        drop(system);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The build's graph is the one fusing in the store's scan order
    /// gives: the bare documents stored, read back with `scan_all` and
    /// classified in that order, their subtrees fused as they come.
    /// Node ids are on the wire, so the order may not change.
    #[test]
    fn the_build_fuses_in_the_store_scan_order() {
        let corpus = CorpusGenerator::with_size(240, 2023).generate();
        let config = CovidKgConfig {
            corpus_size: corpus.len(),
            ..CovidKgConfig::default()
        };
        let system = CovidKg::build_from(config, &corpus).unwrap();
        let bare = Collection::new(
            CollectionConfig::new("publications").with_shards(system.config().shards),
        );
        bare.insert_many(corpus.iter().map(Publication::to_doc)).unwrap();
        let trees = classify_and_store(
            &Collection::new(CollectionConfig::new("classified")),
            bare.scan_all(),
            &system.classifier,
            &system.preprocessor,
            &mut IngestReport::default(),
        )
        .unwrap();
        let mut engine =
            FusionEngine::new(seed_graph(), Some(system.embeddings()), FusionConfig::default());
        for tree in trees {
            engine.fuse(tree);
        }
        engine.process_reviews(&mut default_expert());
        let (reference, _) = engine.into_parts();
        assert_eq!(system.kg().len(), 46);
        assert_eq!(system.kg().to_json().to_json(), reference.to_json().to_json());
    }

    #[test]
    fn bigru_classifier_choice_builds() {
        let cfg = CovidKgConfig {
            corpus_size: 12,
            classifier: ClassifierChoice::BiGru,
            max_training_rows: 150,
            ..CovidKgConfig::default()
        };
        let system = CovidKg::build(cfg).unwrap();
        assert!(system.report().rows_classified > 0);
    }
}
