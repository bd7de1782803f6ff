//! The Fig 1 construction flow, step by step, with the review queue made
//! visible: seed the KG (№1), extract findings from classified tables
//! (№6), fuse with embedding fallback (№2), route multi-layer subtrees to
//! the expert (№14), and show supervision dropping as corrections are
//! learned.
//!
//! ```text
//! cargo run --release --example build_kg
//! ```

use covidkg::corpus::CorpusGenerator;
use covidkg::kg::{
    extract_subtrees, seed_graph, FusionConfig, FusionEngine, FusionOutcome, ScriptedExpert,
};
use covidkg::ml::{Word2Vec, Word2VecConfig};
use covidkg::tables::{detect_orientation, Orientation};

fn main() {
    // №1 — the expert's initial 10-20 node layout.
    let kg = seed_graph();
    println!("№1 seed graph: {} nodes", kg.len());
    for node in kg.nodes().iter().take(6) {
        println!("   {}{}", "  ".repeat(kg.depth(node.id)), node.label);
    }
    println!("   …");

    // Corpus + embeddings (№3/№4).
    let pubs = CorpusGenerator::with_size(60, 11).generate();
    let sentences: Vec<Vec<String>> = pubs.iter().map(|p| p.all_tokens()).collect();
    let w2v = Word2Vec::train(
        &sentences,
        &Word2VecConfig {
            dims: 24,
            epochs: 4,
            ..Word2VecConfig::default()
        },
    );
    println!(
        "\n№4 embeddings: {} terms × {} dims",
        w2v.vocab_size(),
        w2v.dims()
    );

    // №6 — extract candidate subtrees from (ground-truth-classified)
    // tables; the quickstart example shows the learned-classifier path.
    let mut trees = Vec::new();
    for p in &pubs {
        for t in &p.tables {
            let orientation = detect_orientation(&t.rows);
            trees.extend(extract_subtrees(
                &t.rows,
                &t.metadata_rows,
                orientation == Orientation::Vertical,
                &t.caption,
                &p.id,
            ));
        }
    }
    println!("№6 extracted {} candidate subtrees", trees.len());

    // №2/№14 — fuse in two rounds to watch supervision decrease.
    let mut engine = FusionEngine::new(kg, Some(&w2v), FusionConfig::default());
    let mut expert = ScriptedExpert::new(&[
        ("Vaccine", "Vaccine(s)"),
        ("Side effect", "Side-effects"),
        ("Symptom", "Symptoms"),
        ("Characteristic", "Epidemiology"),
        ("Arm", "Treatments"),
        ("Product", "Prevention"),
    ]);

    let half = trees.len() / 2;
    for (round, chunk) in [&trees[..half], &trees[half..]].into_iter().enumerate() {
        let before = engine.stats();
        let mut outcomes = (0usize, 0usize); // auto, queued
        for tree in chunk {
            match engine.fuse(tree.clone()) {
                FusionOutcome::AutoFused { .. } => outcomes.0 += 1,
                FusionOutcome::Queued { .. } => outcomes.1 += 1,
                FusionOutcome::Discarded => {}
            }
        }
        engine.process_reviews(&mut expert);
        let after = engine.stats();
        println!(
            "\nround {}: {} subtrees → {} auto-fused, {} queued for review",
            round + 1,
            chunk.len(),
            outcomes.0,
            outcomes.1
        );
        println!(
            "         expert reviews this round: {}",
            after.reviewed - before.reviewed
        );
    }
    let stats = engine.stats();
    println!(
        "\nfusion totals: {} auto ({} memory, {} embedding), {} reviewed, {} leaves added",
        stats.auto_fused, stats.via_memory, stats.via_embedding, stats.reviewed, stats.leaves_added
    );
    println!("supervision rate: {:.1}%", stats.supervision_rate() * 100.0);

    // Browse the grown graph (№9/10).
    let kg = engine.into_graph();
    println!("\nfinal KG: {} nodes; sample paths:", kg.len());
    for query in ["fever", "pfizer", "rash"] {
        for hit in kg.search(query).into_iter().take(1) {
            let labels: Vec<&str> = hit
                .path
                .iter()
                .map(|&n| kg.node(n).label.as_str())
                .collect();
            let prov = kg.provenance(hit.node);
            println!(
                "  {:<22} {}  (from {} papers)",
                format!("{query:?} →"),
                labels.join(" → "),
                prov.len()
            );
        }
    }

    // Persist and reload (the KG "is stored in JSON format", §4.2).
    let json = kg.to_json();
    let restored = covidkg::kg::KnowledgeGraph::from_json(&json).expect("round trip");
    println!(
        "\nKG serialized to {} bytes of JSON and restored ({} nodes)",
        json.to_json().len(),
        restored.len()
    );
}
