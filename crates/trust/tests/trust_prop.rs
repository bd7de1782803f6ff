//! Seeded equivalence properties for the trust store.
//!
//! Property 1 drives a [`TrustStore`] through random mutation
//! sequences — paper upserts/deletes interleaved with graph growth
//! (new nodes, extra parents, extra provenance) — and demands that
//! after every step the propagated trust vector and every served
//! document (node and source) be **bit-identical** to a from-scratch
//! `rebuild_all` over the same papers and graph: incremental
//! propagation ≡ full fixed-point. Property 2 feeds the same paper set
//! in shuffled scan orders and demands identical output: propagation
//! is deterministic regardless of shard or scan order. Failures shrink
//! to a minimal op sequence via `covidkg_rand::prop::run_shrink` and
//! print a replay seed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use covidkg_kg::{GraphChanges, KnowledgeGraph, NodeKind};
use covidkg_rand::rngs::SmallRng;
use covidkg_rand::{prop, Rng};
use covidkg_trust::store::SEEDED_BASE;
use covidkg_trust::{PaperFacts, TrustStore};

const VENUES: &[&str] = &["lancet", "nejm", "medrxiv", "jama"];
const CLAIMS: &[&str] = &["pfizer|fever", "pfizer|chills", "moderna|fever", "az|fatigue"];
const LABELS: &[&str] = &["fever", "chills", "pfizer", "moderna", "dose"];
const PAPERS: usize = 6;

/// One step: a collection mutation, a graph mutation, or both — the
/// store must stay equivalent to a full rebuild through any interleave.
#[derive(Debug, Clone)]
enum Op {
    /// Insert-or-replace one paper's facts.
    Upsert { paper: usize, venue: usize, year: u32, tables: usize, claims: Vec<usize> },
    /// Drop the paper entirely.
    Delete { paper: usize },
    /// Grow the graph: `add_child` with provenance into the paper pool.
    Grow { parent: usize, label: usize, papers: Vec<usize> },
    /// `add_parent` between existing nodes (skipped when identical).
    Link { node: usize, parent: usize },
    /// More provenance on a node the graph already has.
    Attach { node: usize, paper: usize },
    /// The graph read back from its JSON, as a replica reloads it.
    Reload,
}

fn gen_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0u8..11) {
        0..=4 => Op::Upsert {
            paper: rng.gen_range(0..PAPERS),
            venue: rng.gen_range(0..VENUES.len()),
            year: 2019 + rng.gen_range(0u32..4),
            tables: rng.gen_range(0usize..3),
            claims: prop::vec_of(rng, 0, 3, |r| r.gen_range(0..CLAIMS.len())),
        },
        5 => Op::Delete { paper: rng.gen_range(0..PAPERS) },
        6 => Op::Attach { node: rng.gen_range(0usize..32), paper: rng.gen_range(0..PAPERS) },
        7..=8 => Op::Grow {
            parent: rng.gen_range(0usize..32),
            label: rng.gen_range(0..LABELS.len()),
            papers: prop::vec_of(rng, 0, 2, |r| r.gen_range(0..PAPERS)),
        },
        9 => Op::Link { node: rng.gen_range(0usize..32), parent: rng.gen_range(0usize..32) },
        _ => Op::Reload,
    }
}

fn paper_id(i: usize) -> String {
    format!("paper-{:02}", i % PAPERS)
}

fn make_facts(paper: usize, venue: usize, year: u32, tables: usize, claims: &[usize]) -> PaperFacts {
    PaperFacts {
        paper_id: paper_id(paper),
        venue: VENUES[venue].to_string(),
        year,
        tables,
        captions: tables,
        claims: claims.iter().map(|&c| CLAIMS[c].to_string()).collect(),
    }
}

/// One node's base read off the graph's provenance strings and the
/// model's facts (mean prior of the distinct venues, summed in sorted
/// order, times corroboration and confidence), with priors from
/// `scored`: an oracle that shares no state with the store's per-node
/// venue counts.
fn base_from_strings(
    scored: &TrustStore,
    model: &BTreeMap<String, PaperFacts>,
    kg: &KnowledgeGraph,
    id: usize,
) -> f64 {
    let conf = kg.node(id).confidence;
    let venues: BTreeSet<&str> =
        kg.provenance(id).filter_map(|p| model.get(p)).map(|f| f.venue.as_str()).collect();
    if venues.is_empty() {
        return SEEDED_BASE * conf;
    }
    let vcount = venues.len() as f64;
    let mass: f64 = venues.iter().map(|v| scored.venue_score(v).unwrap().prior).sum();
    (mass / vcount) * (vcount / (vcount + 1.0)) * (0.5 + 0.5 * conf)
}

/// Compare every observable surface of the incremental store against a
/// from-scratch rebuild over the same papers and graph.
fn assert_equiv(
    store: &TrustStore,
    model: &BTreeMap<String, PaperFacts>,
    kg: &KnowledgeGraph,
    ctx: &str,
) -> Result<(), String> {
    let mut fresh = TrustStore::new();
    fresh.rebuild_all(model.values().cloned().collect(), kg, store.epoch());
    for id in 0..kg.len() {
        let want = base_from_strings(&fresh, model, kg, id);
        if store.base(id).map(f64::to_bits) != Some(want.to_bits()) {
            return Err(format!("{ctx}: node {id} base {:?}, strings say {want}", store.base(id)));
        }
        let got = store.node_document(id).map(|d| d.to_json());
        let want = fresh.node_document(id).map(|d| d.to_json());
        if got != want {
            return Err(format!("{ctx}: node {id} diverged\n  incr: {got:?}\n  full: {want:?}"));
        }
    }
    let got: Vec<&str> = store.venues().collect();
    let want: Vec<&str> = fresh.venues().collect();
    if got != want {
        return Err(format!("{ctx}: venue sets diverged {got:?} vs {want:?}"));
    }
    for v in want {
        let got = store.source_document(v).map(|d| d.to_json());
        let want = fresh.source_document(v).map(|d| d.to_json());
        if got != want {
            return Err(format!("{ctx}: venue {v} diverged\n  incr: {got:?}\n  full: {want:?}"));
        }
    }
    Ok(())
}

#[test]
fn incremental_propagation_matches_full_fixed_point() {
    prop::run_shrink(
        48,
        |rng| prop::vec_of(rng, 1, 24, gen_op),
        |ops| prop::shrink_vec(ops, |_| Vec::new()),
        |ops| {
            let mut kg = KnowledgeGraph::new();
            kg.add_root("covid");
            let mut model: BTreeMap<String, PaperFacts> = BTreeMap::new();
            let mut store = TrustStore::new();
            store.rebuild_all(Vec::new(), &kg, 0);
            for (epoch0, op) in ops.iter().enumerate() {
                let epoch = epoch0 as u64 + 1;
                let mut touched: Vec<String> = Vec::new();
                match op {
                    Op::Upsert { paper, venue, year, tables, claims } => {
                        let f = make_facts(*paper, *venue, *year, *tables, claims);
                        model.insert(f.paper_id.clone(), f.clone().canonicalize());
                        touched.push(f.paper_id);
                    }
                    Op::Delete { paper } => {
                        let id = paper_id(*paper);
                        model.remove(&id);
                        touched.push(id);
                    }
                    Op::Grow { parent, label, papers } => {
                        let id = kg.add_child(parent % kg.len(), LABELS[*label], NodeKind::Entity, 0.8);
                        for p in papers {
                            kg.add_provenance(id, paper_id(*p));
                        }
                    }
                    Op::Link { node, parent } => {
                        let len = kg.len();
                        if node % len != parent % len {
                            kg.add_parent(node % len, parent % len);
                        }
                    }
                    Op::Attach { node, paper } => kg.add_provenance(node % kg.len(), paper_id(*paper)),
                    Op::Reload => kg = KnowledgeGraph::from_json(&kg.to_json()).unwrap(),
                }
                let changed = kg.take_changed();
                store.refresh(epoch, &touched, &kg, &changed, |id| model.get(id).cloned());
                assert_equiv(&store, &model, &kg, &format!("after epoch {epoch} ({op:?})"))?;
            }
            Ok(())
        },
    );
}

#[test]
fn propagation_is_deterministic_across_scan_orders() {
    prop::run_shrink(
        32,
        |rng| {
            let papers: Vec<Op> = (0..PAPERS)
                .map(|i| Op::Upsert {
                    paper: i,
                    venue: rng.gen_range(0..VENUES.len()),
                    year: 2019 + rng.gen_range(0u32..4),
                    tables: rng.gen_range(0usize..3),
                    claims: prop::vec_of(rng, 0, 3, |r| r.gen_range(0..CLAIMS.len())),
                })
                .collect();
            let grows = prop::vec_of(rng, 0, 8, gen_op);
            (papers, grows)
        },
        |(papers, grows)| {
            prop::shrink_vec(grows, |_| Vec::new())
                .into_iter()
                .map(|g| (papers.clone(), g))
                .collect()
        },
        |(papers, grows)| {
            let mut kg = KnowledgeGraph::new();
            kg.add_root("covid");
            for op in grows {
                match op {
                    Op::Grow { parent, label, papers } => {
                        let id = kg.add_child(parent % kg.len(), LABELS[*label], NodeKind::Entity, 0.8);
                        for p in papers {
                            kg.add_provenance(id, paper_id(*p));
                        }
                    }
                    Op::Link { node, parent } => {
                        let len = kg.len();
                        if node % len != parent % len {
                            kg.add_parent(node % len, parent % len);
                        }
                    }
                    _ => {}
                }
            }
            let facts: Vec<PaperFacts> = papers
                .iter()
                .map(|op| match op {
                    Op::Upsert { paper, venue, year, tables, claims } => {
                        make_facts(*paper, *venue, *year, *tables, claims)
                    }
                    _ => unreachable!("papers are all upserts"),
                })
                .collect();
            let mut fwd = TrustStore::new();
            fwd.rebuild_all(facts.clone(), &kg, 1);
            let mut rev = TrustStore::new();
            rev.rebuild_all(facts.iter().rev().cloned().collect(), &kg, 1);
            // Interleaved arrival through the incremental path, odd
            // papers first: same papers, third order.
            let mut incr = TrustStore::new();
            incr.rebuild_all(Vec::new(), &kg, 0);
            for pass in [1usize, 0] {
                for (i, f) in facts.iter().enumerate() {
                    if i % 2 == pass {
                        let id = std::slice::from_ref(&f.paper_id);
                        incr.refresh(1, id, &kg, &GraphChanges::default(), |_| Some(f.clone()));
                    }
                }
            }
            for id in 0..kg.len() {
                let a = fwd.node_document(id).map(|d| d.to_json());
                let b = rev.node_document(id).map(|d| d.to_json());
                let c = incr.node_document(id).map(|d| d.to_json());
                if a != b || a != c {
                    return Err(format!(
                        "node {id} depends on scan order:\n  fwd: {a:?}\n  rev: {b:?}\n  incr: {c:?}"
                    ));
                }
            }
            for v in fwd.venues().map(str::to_string).collect::<Vec<_>>() {
                let a = fwd.source_document(&v).map(|d| d.to_json());
                let b = rev.source_document(&v).map(|d| d.to_json());
                if a != b {
                    return Err(format!("venue {v} depends on scan order"));
                }
            }
            Ok(())
        },
    );
}

/// A venue's prior can move while no node's provenance does: its
/// breadth is relative to the largest venue (`max_papers`), its recency
/// to the corpus-wide year window, and its corroboration to what other
/// venues claim. Papers outside the graph move all three; every node
/// carrying the venue must be rebased all the same.
#[test]
fn venue_prior_moves_without_provenance_changes() {
    static MOVED: AtomicUsize = AtomicUsize::new(0);
    prop::run_shrink(
        48,
        |rng| {
            let on_graph: Vec<Op> = (0..2)
                .map(|paper| Op::Upsert {
                    paper,
                    venue: rng.gen_range(0..VENUES.len()),
                    year: 2020 + rng.gen_range(0u32..2),
                    tables: rng.gen_range(0usize..3),
                    claims: prop::vec_of(rng, 0, 2, |r| r.gen_range(0..CLAIMS.len())),
                })
                .collect();
            // Off-graph papers 2.. : bulk up one venue, stretch the year
            // window, corroborate or withdraw claims — then delete.
            let off_graph = prop::vec_of(rng, 1, 12, |r| {
                let paper = r.gen_range(2..PAPERS);
                if r.gen_range(0u8..4) == 0 {
                    Op::Delete { paper }
                } else {
                    Op::Upsert {
                        paper,
                        venue: r.gen_range(0..VENUES.len()),
                        year: 2015 + r.gen_range(0u32..12),
                        tables: r.gen_range(0usize..3),
                        claims: prop::vec_of(r, 0, 3, |r| r.gen_range(0..CLAIMS.len())),
                    }
                }
            });
            (on_graph, off_graph)
        },
        |(on_graph, off_graph)| {
            prop::shrink_vec(off_graph, |_| Vec::new())
                .into_iter()
                .map(|o| (on_graph.clone(), o))
                .collect()
        },
        |(on_graph, off_graph)| {
            let mut kg = KnowledgeGraph::new();
            let root = kg.add_root("covid");
            for (i, label) in ["pfizer", "moderna"].into_iter().enumerate() {
                let node = kg.add_child(root, label, NodeKind::Entity, 0.8);
                kg.add_provenance(node, paper_id(i));
            }
            let mut model: BTreeMap<String, PaperFacts> = BTreeMap::new();
            for op in on_graph {
                if let Op::Upsert { paper, venue, year, tables, claims } = op {
                    let f = make_facts(*paper, *venue, *year, *tables, claims).canonicalize();
                    model.insert(f.paper_id.clone(), f);
                }
            }
            let mut store = TrustStore::new();
            store.rebuild_all(model.values().cloned().collect(), &kg, 0);
            kg.take_changed();
            let mut moved = 0;
            for (epoch0, op) in off_graph.iter().enumerate() {
                let epoch = epoch0 as u64 + 1;
                let id = match op {
                    Op::Upsert { paper, venue, year, tables, claims } => {
                        let f = make_facts(*paper, *venue, *year, *tables, claims).canonicalize();
                        model.insert(f.paper_id.clone(), f.clone());
                        f.paper_id
                    }
                    Op::Delete { paper } => {
                        model.remove(&paper_id(*paper));
                        paper_id(*paper)
                    }
                    _ => unreachable!("off-graph ops are paper writes"),
                };
                let before: Vec<Option<f64>> = (0..kg.len()).map(|n| store.base(n)).collect();
                let changed = kg.take_changed();
                if changed != GraphChanges::default() {
                    return Err(format!("epoch {epoch}: the graph reported {changed:?} changed"));
                }
                store.refresh(epoch, std::slice::from_ref(&id), &kg, &changed, |id| {
                    model.get(id).cloned()
                });
                moved += (0..kg.len()).filter(|&n| store.base(n) != before[n]).count();
                assert_equiv(&store, &model, &kg, &format!("after epoch {epoch} ({op:?})"))?;
            }
            MOVED.fetch_add(moved, Ordering::Relaxed);
            Ok(())
        },
    );
    assert!(MOVED.load(Ordering::Relaxed) > 0, "no case moved an on-graph base: the test tests nothing");
}
