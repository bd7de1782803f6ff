//! Cross-crate integration tests: the full Fig 1 flow, exercised through
//! the public facade.

use covidkg::{ClassifierChoice, CovidKg, CovidKgConfig, SearchMode};

fn system() -> CovidKg {
    CovidKg::build(CovidKgConfig {
        corpus_size: 36,
        seed: 1234,
        max_training_rows: 400,
        ..CovidKgConfig::default()
    })
    .expect("system builds")
}

#[test]
fn construction_produces_every_fig1_artifact() {
    let s = system();
    let r = s.report();
    assert_eq!(r.publications, 36);
    assert!(r.tables_parsed >= r.publications);
    assert!(r.subtrees > 0);
    assert!(r.kg_nodes >= 18);
    assert!(r.fusion.auto_fused > 0);
    assert!(!s.profiles().is_empty());
    assert!(s.registry().fetch_embeddings("cord19-wdc-w2v").is_some());
}

#[test]
fn all_three_search_engines_answer() {
    let s = system();
    let all = s.search(&SearchMode::AllFields("vaccine".into()), 0);
    assert!(all.total > 0);
    let tables = s.search(&SearchMode::Tables("side-effects".into()), 0);
    assert!(tables.total > 0);
    let scoped = s.search(
        &SearchMode::TitleAbstractCaption {
            title: String::new(),
            abstract_q: "symptom".into(),
            caption: String::new(),
        },
        0,
    );
    assert!(scoped.total > 0);
    // Every result renders with at least one highlighted snippet or title.
    for r in &all.results {
        assert!(!r.id.is_empty());
        assert!(r.score > 0.0);
    }
}

#[test]
fn kg_paths_reach_provenance() {
    let s = system();
    let kg = s.kg();
    let mut checked = 0;
    for node in kg.nodes() {
        if kg.provenance(node.id).len() == 0 {
            continue;
        }
        checked += 1;
        // Every provenance id resolves to a stored publication.
        for paper in kg.provenance(node.id) {
            assert!(
                s.publications().get(paper).is_some(),
                "dangling provenance {paper} on {}",
                node.label
            );
        }
        // And the node is reachable from the root.
        assert_eq!(kg.path_to_root(node.id)[0], 0);
    }
    assert!(checked > 0, "no fused nodes carry provenance");
}

#[test]
fn search_results_resolve_to_full_documents() {
    let s = system();
    let page = s.search(&SearchMode::AllFields("fever".into()), 0);
    for result in &page.results {
        let doc = s.publications().get(&result.id).expect("result id resolves");
        assert!(doc.path("title").is_some());
        assert!(doc.path("abstract").is_some());
    }
}

#[test]
fn released_svm_is_reusable() {
    // №11/13: the registry payload must round-trip into a working model.
    let s = system();
    let svm = s
        .registry()
        .fetch_svm("metadata-classifier")
        .expect("released SVM deserializes");
    assert!(svm.n_support() > 0);
    // The fetched model makes finite decisions on arbitrary vectors.
    let d = svm.decision(&vec![(0u32, 1.0f32), (3, 0.5)]);
    assert!(d.is_finite());
}

#[test]
fn documents_carry_enrichment_after_build() {
    // §2: publications are "enriched with different classified
    // characteristics by our Deep-Learning models".
    let s = system();
    let enriched = s
        .publications()
        .scan_all()
        .iter()
        .filter(|d| d.path("enrichment.tables").is_some())
        .count();
    assert_eq!(enriched, s.report().publications);
    let doc = s.publications().get("paper-000000").unwrap();
    assert!(doc.path("enrichment.metadata_rows").is_some());
}

#[test]
fn builds_are_deterministic_for_a_seed() {
    let a = system();
    let b = system();
    assert_eq!(a.report().subtrees, b.report().subtrees);
    assert_eq!(a.report().kg_nodes, b.report().kg_nodes);
    let pa = a.search(&SearchMode::AllFields("mask".into()), 0);
    let pb = b.search(&SearchMode::AllFields("mask".into()), 0);
    let ids_a: Vec<&str> = pa.results.iter().map(|r| r.id.as_str()).collect();
    let ids_b: Vec<&str> = pb.results.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids_a, ids_b);
}

#[test]
fn durable_system_reopens_without_retraining() {
    let dir = std::env::temp_dir().join(format!("covidkg-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = CovidKgConfig {
        corpus_size: 24,
        seed: 77,
        max_training_rows: 300,
        data_dir: Some(dir.to_string_lossy().into_owned()),
        ..CovidKgConfig::default()
    };
    let (kg_nodes, total_hits) = {
        let s = CovidKg::build(config.clone()).expect("durable build");
        let page = s.search(&SearchMode::AllFields("vaccine".into()), 0);
        (s.kg().len(), page.total)
    };

    // Reopen from disk: no corpus generation, no training.
    let s = CovidKg::reopen(config.clone()).expect("reopen");
    assert_eq!(s.report().publications, 24);
    assert_eq!(s.kg().len(), kg_nodes);
    let page = s.search(&SearchMode::AllFields("vaccine".into()), 0);
    assert_eq!(page.total, total_hits);
    assert!(s.registry().fetch_svm("metadata-classifier").is_some());
    assert!(!s.profiles().is_empty());

    // The reopened system keeps working: ingest new documents.
    let mut s = s;
    let extra: Vec<_> = covidkg::corpus::CorpusGenerator::with_size(30, 77)
        .generate()
        .into_iter()
        .skip(24)
        .collect();
    s.ingest(&extra).expect("ingest after reopen");
    assert_eq!(s.publications().len(), 30);

    // And its post-ingest state persists for the next reopen.
    drop(s);
    let s = CovidKg::reopen(config).expect("second reopen");
    assert_eq!(s.report().publications, 30);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bigru_system_reopens_too() {
    let dir = std::env::temp_dir().join(format!("covidkg-bigru-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = CovidKgConfig {
        corpus_size: 10,
        seed: 3,
        classifier: ClassifierChoice::BiGru,
        max_training_rows: 100,
        data_dir: Some(dir.to_string_lossy().into_owned()),
        ..CovidKgConfig::default()
    };
    let kg_nodes = {
        let s = CovidKg::build(config.clone()).expect("bigru durable build");
        s.kg().len()
    };
    let s = CovidKg::reopen(config).expect("bigru reopen");
    assert_eq!(s.kg().len(), kg_nodes);
    assert_eq!(s.report().publications, 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bigru_backed_build_works() {
    let s = CovidKg::build(CovidKgConfig {
        corpus_size: 12,
        seed: 5,
        classifier: ClassifierChoice::BiGru,
        max_training_rows: 120,
        ..CovidKgConfig::default()
    })
    .expect("bigru system builds");
    assert!(s.report().rows_classified > 0);
}
