//! `covidkg bench paper`: the paper's own quantitative claims, E1–E8
//! (DESIGN.md §4), as flat rows of the one bench driver in `bench.rs`.
//!
//! Each experiment runs at one publication count of the bench's scale,
//! at seed [`SEED`], and returns rows whose `"row"` member names their
//! kind. [`shape_misses`] checks the paper's shapes over those rows and
//! [`first_drift`] compares a run with the committed `BENCH_paper.json`
//! member by member, ignoring times, rates and speedups.

use covidkg::core::system::parse_side_effect_table;
use covidkg::core::training::{
    build_svm_features, build_tuple_examples, kfold_bigru, kfold_svm, labeled_rows_from_corpus,
    pretrain_embeddings, CvReport, LabeledRow,
};
use covidkg::corpus::queries::{benchmark_queries, precision_at_k, reciprocal_rank};
use covidkg::corpus::{BenchQuery, CorpusGenerator, Publication};
use covidkg::json::{obj, Value};
use covidkg::kg::profile::{build_meta_profiles, compression_factor, Observation};
use covidkg::kg::{
    extract_subtrees, seed_graph, FusionConfig, FusionEngine, FusionOutcome, NodeKind,
    ScriptedExpert,
};
use covidkg::ml::model::{CellKind, TupleClassifier, TupleClassifierConfig};
use covidkg::ml::svm::{Svm, SvmConfig};
use covidkg::ml::{ClassMetrics, Word2VecConfig};
use covidkg::search::{SearchEngine, SearchMode};
use covidkg::store::pipeline::{DocFn, Order, Pipeline, Stage};
use covidkg::store::{Collection, CollectionConfig, Filter};
use covidkg::tables::{detect_orientation, Orientation};
use covidkg_rand::rngs::SmallRng;
use covidkg_rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed every experiment runs at; `bench paper` stamps it.
pub const SEED: u64 = 0xC0BD;

/// One experiment: its title and its body over a publication count.
type Experiment = (&'static str, fn(usize) -> Vec<Value>);

/// E1–E8 in order.
pub const EXPERIMENTS: [Experiment; 8] = [
    ("E1 §3.3 metadata classification", |n| {
        e1_classification(n, 10)
    }),
    ("E2 §3.6 BiGRU vs BiLSTM", e2_gru_vs_lstm),
    ("E3 §2.1 pipeline ordering", |n| e3_pipeline_order(n, 10)),
    ("E4 §2.1 search engines", e4_search_engines),
    ("E5 §3.2 feature-space dimensionality", e5_feature_space),
    ("E6 §4.2 fusion", |n| e6_fusion(n, 0.35)),
    ("E7 Fig 6 meta-profiles", e7_profiles),
    ("E8 §2 sharded storage", e8_store_scaling),
];

/// The experiments' corpus of `n` publications.
fn corpus(n: usize) -> Vec<Publication> {
    CorpusGenerator::with_size(n, SEED).generate()
}

/// `pubs` loaded into a fresh collection of `shards` shards with the
/// standard text index.
fn collection_with(pubs: &[Publication], shards: usize) -> Arc<Collection> {
    let c = Collection::new(
        CollectionConfig::new("publications")
            .with_shards(shards)
            .with_text_fields(Publication::text_fields()),
    );
    c.insert_many(pubs.iter().map(Publication::to_doc))
        .expect("experiment corpus inserts");
    Arc::new(c)
}

/// Labeled classification rows for a corpus of `n` publications.
fn labeled_rows(n: usize) -> Vec<LabeledRow> {
    labeled_rows_from_corpus(&corpus(n))
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn with_metrics(mut row: Value, m: &ClassMetrics) -> Value {
    row.insert("precision", m.precision);
    row.insert("recall", m.recall);
    row.insert("f1", m.f1);
    row
}

/// E1 (§3.3): metadata-classification quality under k-fold CV for the
/// SVM and BiGRU models, sliced by orientation and table size.
pub fn e1_classification(n_pubs: usize, folds: usize) -> Vec<Value> {
    let mut rows = labeled_rows(n_pubs);
    rows.truncate(1200); // SMO is quadratic; cap like the system build
    let svm = kfold_svm(&rows, folds, &SvmConfig::default(), SEED);
    let bigru_rows = &rows[..rows.len().min(400)];
    let bigru_cfg = TupleClassifierConfig {
        embed_dims: 12,
        hidden: 16,
        max_len: 8,
        epochs: 8,
        seed: SEED,
        ..TupleClassifierConfig::default()
    };
    let bigru_folds = folds.min(5);
    let bigru = kfold_bigru(bigru_rows, bigru_folds, &bigru_cfg, None, SEED);

    let mut out = Vec::new();
    for (model, report, n, folds) in [
        ("SVM", &svm, rows.len(), folds),
        ("BiGRU", &bigru, bigru_rows.len(), bigru_folds),
    ] {
        for (slice, m) in [
            ("overall", &report.overall),
            ("horizontal metadata", &report.horizontal),
            ("vertical metadata", &report.vertical),
            ("small tables (<6 rows)", &report.small_tables),
            ("large tables (>=6 rows)", &report.large_tables),
        ] {
            let mut row = obj! {
                "row" => "e1", "model" => model, "slice" => slice, "rows" => n, "folds" => folds,
            };
            if slice == "overall" {
                row.insert("train_ms", millis(report.train_time));
            }
            out.push(with_metrics(row, m));
        }
    }
    out
}

/// E2 (§3.6): BiGRU vs BiLSTM — quality deltas, training time and size,
/// plus the ablation that drops Fig 3's concat-with-embeddings.
pub fn e2_gru_vs_lstm(n_pubs: usize) -> Vec<Value> {
    let rows: Vec<LabeledRow> = labeled_rows(n_pubs).into_iter().take(360).collect();
    let cfg = |cell| TupleClassifierConfig {
        cell,
        embed_dims: 12,
        hidden: 16,
        max_len: 8,
        epochs: 8,
        seed: SEED,
        ..TupleClassifierConfig::default()
    };
    let no_concat_cfg = TupleClassifierConfig {
        concat_embeddings: false,
        ..cfg(CellKind::Gru)
    };
    let examples = build_tuple_examples(&rows);
    let arms: Vec<(&str, CvReport, usize)> = [
        ("BiGRU", cfg(CellKind::Gru)),
        ("BiLSTM", cfg(CellKind::Lstm)),
        ("BiGRU -concat", no_concat_cfg),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let report = kfold_bigru(&rows, 3, &cfg, None, SEED);
        (
            name,
            report,
            TupleClassifier::new(&examples, None, cfg).param_count(),
        )
    })
    .collect();

    let mut out: Vec<Value> = arms
        .iter()
        .map(|(model, report, params)| {
            let row = obj! {
                "row" => "e2", "model" => *model, "rows" => rows.len(), "folds" => 3,
                "train_ms" => millis(report.train_time), "params" => *params,
            };
            with_metrics(row, &report.overall)
        })
        .collect();
    let (gru, lstm) = (&arms[0].1, &arms[1].1);
    out.push(obj! {
        "row" => "e2_delta",
        "d_f1" => gru.overall.f1 - lstm.overall.f1,
        "d_precision" => gru.overall.precision - lstm.overall.precision,
        "d_recall" => gru.overall.recall - lstm.overall.recall,
        "gru_speedup" => lstm.train_time.as_secs_f64() / gru.train_time.as_secs_f64().max(1e-9),
    });
    out
}

/// E3 (§2.1): pipeline-ordering ablation — `$match` first vs last, and
/// `$project` pruning on vs off. All three rank by `(score desc, _id
/// asc)`, so the top 10 is one list whatever order `$match` feeds.
pub fn e3_pipeline_order(n_pubs: usize, reps: usize) -> Vec<Value> {
    let pubs = corpus(n_pubs);
    let coll = collection_with(&pubs, 4);
    let fields = Publication::text_fields();

    // A deliberately field-light score (title length), so projection
    // legitimately helps.
    let rank_fn: DocFn = Arc::new(|d: &Value| {
        Value::float(
            d.path("title")
                .and_then(Value::as_str)
                .map_or(0.0, |t| t.len() as f64),
        )
    });
    let rank = |p: Pipeline| p.function("len_rank", "score", Arc::clone(&rank_fn));
    let sort = || {
        Stage::Sort(vec![
            ("score".to_string(), Order::Desc),
            ("_id".to_string(), Order::Asc),
        ])
    };
    let spec = obj! { "$text" => obj!{ "$search" => "ventilator" } };
    let matched = || Pipeline::new().match_spec(&spec, &fields).unwrap();

    let match_first = rank(matched().project(["title", "date"]))
        .stage(sort())
        .limit(10);
    let match_last = rank(Pipeline::new())
        .stage(sort())
        .match_spec(&spec, &fields)
        .unwrap()
        .project(["title", "date", "score"])
        .limit(10);
    let no_project = rank(matched()).stage(sort()).limit(10);

    let ids = |p: &Pipeline| -> Vec<String> {
        coll.aggregate(p)
            .iter()
            .filter_map(|d| d.get("_id").and_then(Value::as_str).map(str::to_string))
            .collect()
    };
    assert_eq!(
        ids(&match_first),
        ids(&match_last),
        "ordering changed results"
    );

    let time = |p: &Pipeline| -> Duration {
        let _ = coll.aggregate(p); // warm once, then measure
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(coll.aggregate(p));
        }
        t0.elapsed() / reps as u32
    };
    let t_last = time(&match_last);
    [
        ("$match first + $project", time(&match_first)),
        ("$match first, no $project", time(&no_project)),
        ("$match last ($function/sort first)", t_last),
    ]
    .into_iter()
    .map(|(pipeline, t)| {
        obj! {
            "row" => "e3", "pipeline" => pipeline, "docs" => coll.len(), "reps" => reps,
            "mean_ms" => millis(t),
            "speedup" => t_last.as_secs_f64() / t.as_secs_f64().max(1e-12),
        }
    })
    .collect()
}

/// E4 (§2.1, Figs 2 & 4): the three engines — quality (P@10, MRR) and
/// latency of the index-pruned `search` against the full-scan
/// `search_naive` over the same queries — plus text-index-assisted vs
/// full-scan `$match`.
pub fn e4_search_engines(n_pubs: usize) -> Vec<Value> {
    let pubs = corpus(n_pubs);
    let coll = collection_with(&pubs, 4);
    let engine = SearchEngine::new(Arc::clone(&coll));
    let queries = benchmark_queries();
    let mut out = Vec::new();

    let mut run_set = |engine_label: &str,
                       make: &dyn Fn(&str) -> SearchMode,
                       pred: &dyn Fn(&BenchQuery) -> bool| {
        let (mut p10, mut mrr, mut n) = (0.0, 0.0, 0usize);
        let (mut pruned, mut naive) = (Duration::ZERO, Duration::ZERO);
        for q in queries.iter().filter(|q| pred(q)) {
            let text = if q.exact {
                format!("\"{}\"", q.text)
            } else {
                q.text.clone()
            };
            let mode = make(&text);
            let t0 = Instant::now();
            let page = engine.search(&mode, 0);
            pruned += t0.elapsed();
            let t0 = Instant::now();
            std::hint::black_box(engine.search_naive(&mode, 0));
            naive += t0.elapsed();
            let ranked: Vec<&str> = page.results.iter().map(|r| r.id.as_str()).collect();
            let relevant = q.relevant_ids(&pubs);
            p10 += precision_at_k(&ranked, &relevant, 10);
            mrr += reciprocal_rank(&ranked, &relevant);
            n += 1;
        }
        let n = n.max(1);
        out.push(obj! {
            "row" => "e4", "engine" => engine_label, "docs" => coll.len(), "queries" => n,
            "p_at_10" => p10 / n as f64,
            "mrr" => mrr / n as f64,
            "mean_ms" => millis(pruned / n as u32),
            "naive_mean_ms" => millis(naive / n as u32),
            "naive_speedup" => naive.as_secs_f64() / pruned.as_secs_f64().max(1e-12),
        });
    };

    run_set(
        "all fields (§2.1.2)",
        &|t| SearchMode::AllFields(t.into()),
        &|_| true,
    );
    run_set(
        "tables (§2.1.3)",
        &|t| SearchMode::Tables(t.into()),
        &|_| true,
    );
    // Fairness slice: the tables engine only sees table content, so grade
    // it on entity queries from the topics whose themed tables actually
    // carry those entities (vaccines, side-effects, symptoms).
    run_set(
        "tables — table-borne entities",
        &|t| SearchMode::Tables(t.into()),
        &|q| q.exact && matches!(q.topic_id, 0 | 1 | 3),
    );
    run_set(
        "title/abstract/caption (§2.1.1)",
        &|t| SearchMode::TitleAbstractCaption {
            title: String::new(),
            abstract_q: t.trim_matches('"').to_string(),
            caption: String::new(),
        },
        &|_| true,
    );
    run_set(
        "all fields — stemmed only",
        &|t| SearchMode::AllFields(t.into()),
        &|q| !q.exact,
    );
    run_set(
        "all fields — quoted/exact only",
        &|t| SearchMode::AllFields(t.into()),
        &|q| q.exact,
    );

    // Index ablation: one $text filter with and without the inverted
    // index behind it.
    let no_index = Collection::new(CollectionConfig::new("pubs-noindex").with_shards(4));
    no_index
        .insert_many(pubs.iter().map(Publication::to_doc))
        .unwrap();
    let filter = Filter::text("ventilator intubation", Publication::text_fields());
    let reps = 20;
    let timed = |c: &Collection| {
        let _ = c.find(&filter);
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(c.find(&filter));
        }
        t0.elapsed() / reps
    };
    let (with_index, full_scan) = (timed(&coll), timed(&no_index));
    out.push(obj! {
        "row" => "e4_index", "docs" => coll.len(), "matches" => coll.find(&filter).len(),
        "index_ms" => millis(with_index),
        "full_scan_ms" => millis(full_scan),
        "index_speedup" => full_scan.as_secs_f64() / with_index.as_secs_f64().max(1e-12),
    });
    out
}

/// E5 (§3.2): feature-space dimensionality sweep — training time grows
/// with vocabulary size while accuracy saturates.
pub fn e5_feature_space(n_pubs: usize) -> Vec<Value> {
    let rows: Vec<LabeledRow> = labeled_rows(n_pubs).into_iter().take(800).collect();
    // Single split: train on 80 %, test 20 % (time is the headline here).
    let split = rows.len() * 4 / 5;
    [4usize, 8, 16, 32, 64, 2000]
        .into_iter()
        .map(|max_vocab| {
            let (vectors, labels, vocab) = build_svm_features(&rows, max_vocab);
            let t0 = Instant::now();
            let svm = Svm::train(&vectors[..split], &labels[..split], &SvmConfig::default());
            let train_time = t0.elapsed();
            let predicted: Vec<bool> = vectors[split..].iter().map(|v| svm.predict(v)).collect();
            obj! {
                "row" => "e5", "rows" => rows.len(), "max_vocab" => max_vocab,
                "dims" => vocab + 5,
                "train_ms" => millis(train_time),
                "f1" => covidkg::ml::f1_score(&labels[split..], &predicted),
            }
        })
        .collect()
}

/// Ground truth for E6: heading → canonical KG category.
const E6_TRUTH: &[(&str, &str)] = &[
    ("Vaccine", "Vaccine(s)"),
    ("Side effect", "Side-effects"),
    ("Symptom", "Symptoms"),
    ("Characteristic", "Epidemiology"),
    ("Arm", "Treatments"),
    ("Product", "Prevention"),
];

/// Unseen synonyms injected for E6 (root term → original heading).
const E6_SYNONYMS: &[(&str, &str)] = &[
    ("Immunization products", "Vaccine"),
    ("Adverse reactions", "Side effect"),
    ("Clinical manifestations", "Symptom"),
    ("Cohort attributes", "Characteristic"),
    ("Trial cohorts", "Arm"),
    ("Catalog items", "Product"),
];

/// E6 (§4.2): fusion — term matching vs +embedding fallback on a stream
/// with unseen root terms, and supervision decreasing across rounds.
pub fn e6_fusion(n_pubs: usize, unseen_fraction: f64) -> Vec<Value> {
    let pubs = corpus(n_pubs);
    let embeddings = pretrain_embeddings(
        &pubs,
        SEED,
        &Word2VecConfig {
            dims: 24,
            epochs: 6,
            seed: SEED,
            ..Word2VecConfig::default()
        },
    );
    // Extract ground-truth subtrees and synonym-swap a fraction of roots.
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut trees = Vec::new();
    for p in &pubs {
        for t in &p.tables {
            let vertical = detect_orientation(&t.rows) == Orientation::Vertical;
            for mut tree in extract_subtrees(&t.rows, &t.metadata_rows, vertical, &t.caption, &p.id)
            {
                if rng.gen_bool(unseen_fraction) {
                    if let Some((syn, _)) = E6_SYNONYMS
                        .iter()
                        .find(|(_, orig)| tree.root.starts_with(orig))
                    {
                        tree.root = syn.to_string();
                    }
                }
                trees.push(tree);
            }
        }
    }

    // Seed a few known leaves so embedding matching has anchors.
    let seeded = || {
        let mut kg = seed_graph();
        for (category, leaves) in [
            ("Vaccine", &["Pfizer", "Moderna"][..]),
            ("Side-effects", &["Fever", "Fatigue"][..]),
            ("Symptoms", &["Cough"][..]),
        ] {
            let parent = kg.find_by_term(category)[0];
            for leaf in leaves {
                kg.add_child(parent, *leaf, NodeKind::Entity, 1.0);
            }
        }
        kg
    };

    let mut out = Vec::new();
    for (variant, use_embeddings) in [
        ("term matching only", false),
        ("+ embedding fallback", true),
    ] {
        let cfg = FusionConfig {
            use_embeddings,
            ..FusionConfig::default()
        };
        let mut engine = FusionEngine::new(seeded(), use_embeddings.then_some(&embeddings), cfg);
        // Expert ground truth covers both the original headings and the
        // injected synonyms.
        let mut pairs: Vec<(&str, &str)> = E6_TRUTH.to_vec();
        for (syn, orig) in E6_SYNONYMS {
            if let Some((_, target)) = E6_TRUTH.iter().find(|(h, _)| h == orig) {
                pairs.push((syn, target));
            }
        }
        let mut expert = ScriptedExpert::new(&pairs);
        let (mut auto, mut queued, mut correct, mut graded) = (0usize, 0usize, 0usize, 0usize);
        for tree in &trees {
            let expected = expected_parent(&tree.root);
            match engine.fuse(tree.clone()) {
                FusionOutcome::AutoFused { parent, .. } => {
                    auto += 1;
                    if let Some(want) = expected {
                        graded += 1;
                        correct += usize::from(engine.graph().node(parent).label == want);
                    }
                }
                FusionOutcome::Queued { .. } => queued += 1,
                FusionOutcome::Discarded => {}
            }
            engine.process_reviews(&mut expert);
        }
        let total = (auto + queued).max(1) as f64;
        out.push(obj! {
            "row" => "e6", "variant" => variant, "subtrees" => trees.len(),
            "unseen_pct" => unseen_fraction * 100.0,
            "auto_pct" => auto as f64 * 100.0 / total,
            "queued_pct" => queued as f64 * 100.0 / total,
            "correct" => correct, "graded" => graded, "reviews" => expert.reviews,
        });
    }

    // Supervision over rounds (with embeddings + correction memory).
    let mut engine = FusionEngine::new(seeded(), Some(&embeddings), FusionConfig::default());
    let mut expert = ScriptedExpert::new(E6_TRUTH);
    let chunk = (trees.len() / 3).max(1);
    for (round, batch) in trees.chunks(chunk).enumerate().take(3) {
        let before = engine.stats().reviewed;
        for tree in batch {
            engine.fuse(tree.clone());
        }
        engine.process_reviews(&mut expert);
        let reviews = engine.stats().reviewed - before;
        out.push(obj! {
            "row" => "e6_round", "round" => round + 1, "submitted" => batch.len(),
            "reviews" => reviews,
            "reviews_pct" => reviews as f64 * 100.0 / batch.len() as f64,
        });
    }
    out
}

fn expected_parent(root: &str) -> Option<&'static str> {
    let category = |heading: &str| {
        E6_TRUTH
            .iter()
            .find(|(h, _)| *h == heading)
            .map(|(_, t)| *t)
    };
    E6_TRUTH
        .iter()
        .find(|(h, _)| root.starts_with(h))
        .map(|(_, t)| *t)
        .or_else(|| {
            let (_, orig) = E6_SYNONYMS.iter().find(|(s, _)| root == *s)?;
            category(orig)
        })
}

/// E7 (Fig 6): meta-profile construction — grouping, compression factor
/// and throughput.
pub fn e7_profiles(n_pubs: usize) -> Vec<Value> {
    let pubs = corpus(n_pubs);
    let mut observations: Vec<Observation> = Vec::new();
    let t0 = Instant::now();
    let mut tables = 0usize;
    for p in &pubs {
        for t in &p.tables {
            for parsed in covidkg::tables::parse_tables(&t.html).unwrap() {
                tables += 1;
                observations.extend(parse_side_effect_table(
                    &parsed.caption,
                    &parsed.rows,
                    &p.id,
                ));
            }
        }
    }
    let extract_time = t0.elapsed();
    let t1 = Instant::now();
    let profiles = build_meta_profiles(&observations);
    let build_time = t1.elapsed();

    let mut out = vec![obj! {
        "row" => "e7", "papers" => pubs.len(), "tables" => tables,
        "observations" => observations.len(), "profiles" => profiles.len(),
        "sources_per_profile" => compression_factor(&profiles),
        "extract_ms" => millis(extract_time),
        "build_ms" => millis(build_time),
    }];
    out.extend(profiles.iter().map(|p| {
        obj! {
            "row" => "e7_profile", "vaccine" => p.vaccine.clone(), "doses" => p.doses.len(),
            "sources" => p.source_count(), "observations" => p.observation_count(),
        }
    }));
    out
}

/// E8 (§2 "Storage"): shard scaling — ingest throughput, balance and a
/// filtered scan. Wall-clock scaling needs as many cores as shards; the
/// artefact's host stamp records how many this run had.
pub fn e8_store_scaling(n_pubs: usize) -> Vec<Value> {
    let docs: Vec<Value> = corpus(n_pubs).iter().map(Publication::to_doc).collect();
    let filter = Filter::parse(&obj! { "date" => obj!{ "$gte" => "2021-01" } }, &[]).unwrap();
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|shards| {
            let c = Collection::new(
                CollectionConfig::new("pubs")
                    .with_shards(shards)
                    .with_text_fields(Publication::text_fields()),
            );
            let t0 = Instant::now();
            c.insert_parallel(docs.clone(), 8).unwrap();
            let ingest = t0.elapsed();
            let t1 = Instant::now();
            let mut matched = 0;
            for _ in 0..5 {
                matched = std::hint::black_box(c.count(&filter));
            }
            obj! {
                "row" => "e8", "shards" => shards, "docs" => docs.len(),
                "balance" => c.stats().balance_ratio(),
                "scan_matches" => matched,
                "ingest_ms" => millis(ingest),
                "docs_per_sec" => docs.len() as f64 / ingest.as_secs_f64(),
                "scan_ms" => millis(t1.elapsed() / 5),
            }
        })
        .collect()
}

/// Whether a row member is a measurement of this run's host — a time, a
/// rate or a speedup — rather than a deterministic function of the seed.
fn timed(member: &str) -> bool {
    member.ends_with("_ms") || member.ends_with("_per_sec") || member.ends_with("speedup")
}

/// The `member` of the first row of `kind` whose `key` is `value`, as a
/// number; NaN when there is none, so a missing row fails every check.
fn member(rows: &[Value], kind: &str, (key, value): (&str, &str), member: &str) -> f64 {
    rows.iter()
        .find(|r| {
            r.get("row").and_then(Value::as_str) == Some(kind)
                && (key.is_empty() || r.get(key).and_then(Value::as_str) == Some(value))
        })
        .and_then(|r| r.get(member)?.as_f64())
        .unwrap_or(f64::NAN)
}

/// The paper's shapes over the rows of a `bench paper` run: the name of
/// every check that misses.
pub fn shape_misses(rows: &[Value]) -> Vec<&'static str> {
    let e1_f1 = |model| member(rows, "e1", ("model", model), "f1");
    let e2 = |m| member(rows, "e2_delta", ("", ""), m);
    let e3 = |pipeline| member(rows, "e3", ("pipeline", pipeline), "mean_ms");
    let e5: Vec<f64> = rows
        .iter()
        .filter(|r| r.get("row").and_then(Value::as_str) == Some("e5"))
        .filter_map(|r| r.get("train_ms")?.as_f64())
        .collect();
    let band = |f1: f64| (0.80..=1.0).contains(&f1);
    let checks = [
        ("E1: SVM overall F1 in 0.80..=1.0", band(e1_f1("SVM"))),
        ("E1: BiGRU overall F1 in 0.80..=1.0", band(e1_f1("BiGRU"))),
        ("E2: |GRU - LSTM F1| < 0.1", e2("d_f1").abs() < 0.1),
        (
            "E2: the GRU trains faster than the LSTM",
            e2("gru_speedup") > 1.0,
        ),
        (
            "E3: $match first beats $match last",
            e3("$match first + $project") < e3("$match last ($function/sort first)"),
        ),
        (
            "E3: $project helps or is neutral (within 1.25x)",
            e3("$match first + $project") <= e3("$match first, no $project") * 1.25,
        ),
        (
            "E5: training time grows with dimensionality",
            matches!((e5.first(), e5.last()), (Some(a), Some(b)) if b > a),
        ),
        (
            "E7: profiles fold at least 3 sources on average",
            member(rows, "e7", ("", ""), "sources_per_profile") >= 3.0,
        ),
    ];
    checks
        .into_iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| name)
        .collect()
}

/// The first deterministic member where the rows of a run differ from
/// the committed ones, named by row index, kind and member.
pub fn first_drift(run: &[Value], committed: &[Value]) -> Option<String> {
    if run.len() != committed.len() {
        return Some(format!("{} rows, committed {}", run.len(), committed.len()));
    }
    for (i, (now, then)) in run.iter().zip(committed).enumerate() {
        let kind = now.get("row").and_then(Value::as_str).unwrap_or("?");
        let keys = now.as_object().unwrap_or_default().iter();
        let keys = keys.chain(then.as_object().unwrap_or_default());
        for (key, _) in keys.filter(|(key, _)| !timed(key)) {
            let (a, b) = (now.get(key), then.get(key));
            if a != b {
                let show = |v: Option<&Value>| v.map_or("absent".into(), Value::to_json);
                return Some(format!(
                    "rows[{i}] ({kind}) member {key:?}: this run {}, committed {}",
                    show(a),
                    show(b)
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(rows: &[Value]) -> Vec<&str> {
        rows.iter().filter_map(|r| r.get("row")?.as_str()).collect()
    }

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(corpus(5)[3].title, corpus(5)[3].title);
        assert_eq!(collection_with(&corpus(8), 4).len(), 8);
    }

    #[test]
    fn e1_reports_both_models_over_every_slice() {
        let rows = e1_classification(16, 3);
        assert_eq!(kinds(&rows), ["e1"; 10]);
        for model in ["SVM", "BiGRU"] {
            let f1 = member(&rows, "e1", ("model", model), "f1");
            assert!((0.0..=1.0).contains(&f1), "{model}: {f1}");
        }
    }

    /// At the documented 400 documents the top 10 by title length ends
    /// inside a tie, and `$match` pushdown feeds the tied documents in
    /// another order: only the `_id` tie-break keeps the two orderings'
    /// answers equal.
    #[test]
    fn e3_match_first_and_last_agree_at_the_documented_size() {
        let rows = e3_pipeline_order(400, 1);
        assert_eq!(kinds(&rows), ["e3"; 3]);
        assert_eq!(member(&rows, "e3", ("", ""), "docs"), 400.0);
    }

    #[test]
    fn e4_times_naive_beside_pruned() {
        let rows = e4_search_engines(48);
        assert_eq!(kinds(&rows).last(), Some(&"e4_index"));
        let naive = member(
            &rows,
            "e4",
            ("engine", "all fields (§2.1.2)"),
            "naive_mean_ms",
        );
        assert!(naive > 0.0, "{rows:?}");
    }

    #[test]
    fn e5_sweeps_six_vocabulary_caps() {
        assert_eq!(kinds(&e5_feature_space(24)), ["e5"; 6]);
    }

    #[test]
    fn e6_reports_both_arms_and_three_rounds() {
        let rows = e6_fusion(30, 0.4);
        assert_eq!(
            kinds(&rows),
            ["e6", "e6", "e6_round", "e6_round", "e6_round"]
        );
    }

    #[test]
    fn e7_profiles_compress() {
        let rows = e7_profiles(40);
        assert!(
            member(&rows, "e7", ("", ""), "sources_per_profile") >= 3.0,
            "{rows:?}"
        );
    }

    #[test]
    fn e8_sweeps_four_shard_counts() {
        let rows = e8_store_scaling(60);
        assert_eq!(kinds(&rows), ["e8"; 4]);
        assert_eq!(member(&rows, "e8", ("", ""), "docs"), 60.0);
    }

    #[test]
    fn expected_parent_mapping() {
        assert_eq!(expected_parent("Vaccine"), Some("Vaccine(s)"));
        assert_eq!(expected_parent("Adverse reactions"), Some("Side-effects"));
        assert_eq!(expected_parent("Unknown"), None);
    }
}
