//! Property tests: fusion streams keep the knowledge graph a rooted DAG,
//! JSON round-trips preserve structure, the provenance indexes the graph
//! maintains on write equal a scan over provenance strings, and search
//! never panics. Runs on the in-repo `covidkg_rand::prop` harness.

use covidkg_kg::{
    seed_graph, ExtractedTree, FusionConfig, FusionEngine, FusionOutcome, KnowledgeGraph, NodeKind,
    ScriptedExpert,
};
use covidkg_rand::prop::{self, any_string, charset_string, lowercase_string, vec_of};
use covidkg_rand::{Rng, SmallRng};
use std::collections::BTreeSet;

const UPPER: &[char] = &[
    'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M', 'N', 'O', 'P', 'Q', 'R', 'S',
    'T', 'U', 'V', 'W', 'X', 'Y', 'Z',
];
const DIGITS_LOWER: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9',
];

/// A capitalised word like the old `[A-Z][a-z]{2,8}` strategy produced.
fn cap_word(rng: &mut SmallRng) -> String {
    let head = charset_string(rng, UPPER, 1, 1);
    let tail = lowercase_string(rng, 2, 8);
    format!("{head}{tail}")
}

fn random_tree(rng: &mut SmallRng) -> ExtractedTree {
    let root = match rng.gen_range(0u32..5) {
        0 => "Vaccine".to_string(),
        1 => "Side effect".to_string(),
        2 => "Symptoms".to_string(),
        3 => "Treatments".to_string(),
        _ => cap_word(rng),
    };
    let leaves = vec_of(rng, 0, 3, cap_word);
    let layers = vec_of(rng, 0, 1, |_| "Children side-effects".to_string());
    let paper = charset_string(rng, DIGITS_LOWER, 4, 8);
    ExtractedTree {
        root,
        layers,
        leaves,
        paper_id: format!("paper-{paper}"),
    }
}

fn assert_rooted_dag(kg: &KnowledgeGraph) {
    for node in kg.nodes() {
        if node.id == 0 {
            assert!(node.parents.is_empty());
            continue;
        }
        assert!(!node.parents.is_empty(), "{} orphaned", node.label);
        let path = kg.path_to_root(node.id);
        assert_eq!(path[0], 0, "{} unreachable from root", node.label);
        assert!(path.len() <= kg.len(), "cycle suspected at {}", node.label);
        // Parent/child symmetry.
        for &p in &node.parents {
            assert!(
                kg.node(p).children.contains(&node.id),
                "asymmetric edge {} -> {}",
                p,
                node.id
            );
        }
    }
}

#[test]
fn fusion_streams_preserve_graph_invariants() {
    prop::run(48, |rng| {
        let trees = vec_of(rng, 0, 24, random_tree);
        let cfg = FusionConfig { use_embeddings: false, ..FusionConfig::default() };
        let mut engine = FusionEngine::new(seed_graph(), None, cfg);
        let mut expert = ScriptedExpert::default();
        for tree in trees {
            let _ = engine.fuse(tree);
            engine.process_reviews(&mut expert);
        }
        let stats = engine.stats();
        let kg = engine.into_graph();
        assert_rooted_dag(&kg);
        // Accounting: every submission is exactly one of the outcomes.
        assert_eq!(stats.reviewed, stats.queued, "all queued items must be reviewed");
    });
}

#[test]
fn fusion_outcomes_are_exhaustive() {
    prop::run(48, |rng| {
        let tree = random_tree(rng);
        let cfg = FusionConfig { use_embeddings: false, ..FusionConfig::default() };
        let mut engine = FusionEngine::new(seed_graph(), None, cfg);
        let outcome = engine.fuse(tree.clone());
        let stats = engine.stats();
        match outcome {
            FusionOutcome::AutoFused { .. } => assert_eq!(stats.auto_fused, 1),
            FusionOutcome::Queued { .. } => assert_eq!(stats.queued, 1),
            FusionOutcome::Discarded => assert_eq!(stats.discarded, 1),
        }
    });
}

#[test]
fn json_round_trip_preserves_fused_graphs() {
    prop::run(48, |rng| {
        let trees = vec_of(rng, 0, 14, random_tree);
        let cfg = FusionConfig { use_embeddings: false, ..FusionConfig::default() };
        let mut engine = FusionEngine::new(seed_graph(), None, cfg);
        let mut expert = ScriptedExpert::default();
        for tree in trees {
            let _ = engine.fuse(tree);
        }
        engine.process_reviews(&mut expert);
        let kg = engine.into_graph();
        let back = KnowledgeGraph::from_json(&kg.to_json()).expect("round trip");
        assert_eq!(back.len(), kg.len());
        for (a, b) in kg.nodes().iter().zip(back.nodes()) {
            assert_eq!(&a.label, &b.label);
            assert_eq!(&a.parents, &b.parents);
            assert!(kg.provenance(a.id).eq(back.provenance(b.id)));
        }
        assert_rooted_dag(&back);
    });
}

/// One write to the graph; indices are taken modulo the graph size.
#[derive(Debug, Clone)]
enum Write {
    Child { parent: usize },
    Parent { node: usize, parent: usize },
    /// `count` consecutive papers of a 160-paper pool from `first`, so
    /// bitsets cross word boundaries and repeats hit the dedupe.
    Provenance { node: usize, first: usize, count: usize },
}

fn gen_write(rng: &mut SmallRng) -> Write {
    match rng.gen_range(0u8..4) {
        0 => Write::Child { parent: rng.gen_range(0usize..64) },
        1 => Write::Parent { node: rng.gen_range(0usize..64), parent: rng.gen_range(0usize..64) },
        _ => Write::Provenance {
            node: rng.gen_range(0usize..64),
            first: rng.gen_range(0usize..160),
            count: rng.gen_range(1usize..=40),
        },
    }
}

/// Apply the writes to a graph and, beside it, to the model the
/// indexes are judged against: each node's paper strings, first
/// attachment first.
fn apply_writes(writes: &[Write]) -> (KnowledgeGraph, Vec<Vec<String>>) {
    let mut kg = KnowledgeGraph::new();
    kg.add_root("covid");
    let mut model: Vec<Vec<String>> = vec![Vec::new()];
    for w in writes {
        let len = kg.len();
        match *w {
            Write::Child { parent } => {
                kg.add_child(parent % len, format!("n{len}"), NodeKind::Entity, 0.9);
                model.push(Vec::new());
            }
            Write::Parent { node, parent } => {
                if node % len != parent % len {
                    kg.add_parent(node % len, parent % len);
                }
            }
            Write::Provenance { node, first, count } => {
                for p in first..first + count {
                    let paper = format!("paper-{}", p % 160);
                    kg.add_provenance(node % len, &paper);
                    if !model[node % len].contains(&paper) {
                        model[node % len].push(paper);
                    }
                }
            }
        }
    }
    (kg, model)
}

/// Every maintained provenance index against a scan over the model's
/// strings.
fn check_indexes(kg: &KnowledgeGraph, model: &[Vec<String>], paths: &[Vec<usize>]) -> Result<(), String> {
    for (n, papers) in model.iter().enumerate() {
        let rendered: Vec<&str> = kg.provenance(n).collect();
        if rendered != *papers {
            return Err(format!("node {n} renders {rendered:?}, attached {papers:?}"));
        }
        let scan: Vec<usize> = (0..model.len())
            .filter(|&m| m != n && model[m].iter().any(|p| papers.contains(p)))
            .collect();
        if kg.co_neighbors(n) != scan {
            return Err(format!("node {n} co-neighbours {:?}, scan {scan:?}", kg.co_neighbors(n)));
        }
    }
    for path in paths {
        let path: Vec<usize> = path.iter().map(|n| n % model.len()).collect();
        let distinct: BTreeSet<&String> = path.iter().flat_map(|&n| &model[n]).collect();
        if kg.support(&path) != distinct.len() {
            return Err(format!("support({path:?}) = {}, distinct strings {}", kg.support(&path), distinct.len()));
        }
    }
    Ok(())
}

#[test]
fn provenance_indexes_match_a_scan_over_strings() {
    prop::run_shrink(
        64,
        |rng| {
            let writes = vec_of(rng, 0, 48, gen_write);
            let paths = vec_of(rng, 1, 6, |r| vec_of(r, 1, 5, |r| r.gen_range(0usize..64)));
            (writes, paths)
        },
        |(writes, paths)| {
            prop::shrink_vec(writes, |_| Vec::new())
                .into_iter()
                .map(|writes| (writes, paths.clone()))
                .collect()
        },
        |(writes, paths)| {
            let (kg, model) = apply_writes(writes);
            check_indexes(&kg, &model, paths)?;
            let stored = kg.to_json();
            let back = KnowledgeGraph::from_json(&stored).ok_or("graph JSON failed to load")?;
            check_indexes(&back, &model, paths).map_err(|e| format!("after a JSON round trip: {e}"))?;
            // A stored document repeating a provenance entry loads
            // deduplicated, with every index as if it were not there.
            let mut repeated = stored.clone();
            for node in repeated.as_array_mut().expect("graph JSON is an array") {
                let papers = node.get_mut("provenance").and_then(|p| p.as_array_mut()).expect("provenance array");
                if let Some(first) = papers.first().cloned() {
                    papers.push(first);
                }
            }
            let deduped = KnowledgeGraph::from_json(&repeated).ok_or("repeated JSON failed to load")?;
            check_indexes(&deduped, &model, paths).map_err(|e| format!("with repeated entries: {e}"))?;
            if deduped.to_json().to_json() != stored.to_json() {
                return Err("repeated entries survived the load".to_string());
            }
            Ok(())
        },
    );
}

#[test]
fn kg_search_never_panics() {
    prop::run(96, |rng| {
        let query = any_string(rng, 0, 24);
        let kg = seed_graph();
        let hits = kg.search(&query);
        for hit in hits {
            assert!(hit.node < kg.len());
            assert_eq!(hit.path.last(), Some(&hit.node));
        }
    });
}
