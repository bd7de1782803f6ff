//! Seeded equivalence properties for the graph query engine and the
//! incremental profile materializer.
//!
//! Each case draws a random graph (hierarchy edges, multi-parent links,
//! overlapping provenance drawn from a pool wide enough that the
//! graph's paper bitsets run past one and two words, papers first seen
//! at any point of the op sequence) plus a random query plan, and
//! demands the body the served executor writes — on the graph as built
//! and on its JSON round trip — be **byte-identical**, `(score desc,
//! path lex)` tie-breaks and work counters included, to the naive
//! exhaustive-DFS oracle, which reads provenance as strings. A second
//! property drives a [`ProfileStore`] through random mutation sequences
//! (insert/update/delete papers) and demands every materialized
//! document match a from-scratch full rebuild byte for byte. Failures
//! shrink to a minimal op sequence via `covidkg_rand::prop::run_shrink`
//! and print a replay seed.

use std::collections::BTreeMap;

use covidkg_kg::materialize::ProfileStore;
use covidkg_kg::profile::Observation;
use covidkg_kg::query::{execute_optimized, QueryPlan, MAX_FANOUT, MAX_K};
use covidkg_kg::{execute_oracle, KnowledgeGraph, NodeKind};
use covidkg_rand::rngs::SmallRng;
use covidkg_rand::{prop, Rng};

/// Small label pool: collisions make `term:` starts multi-node and give
/// the inverted index duplicate postings to manage.
const LABELS: &[&str] = &["fever", "chills", "pfizer", "moderna", "dose", "trial", "fatigue"];
/// Paper pool. Half the draws come from the first few ids — overlap is
/// what makes co-occurrence hops fire — the rest from the whole pool,
/// so a graph interns well over 128 papers and its bitsets cross the
/// 64- and 128-paper word boundaries.
const PAPER_POOL: usize = 160;
const HOT_PAPERS: usize = 6;

fn paper(i: usize) -> String {
    format!("p{i}")
}

fn gen_paper(rng: &mut SmallRng) -> usize {
    if rng.gen_bool(0.5) {
        rng.gen_range(0..HOT_PAPERS)
    } else {
        rng.gen_range(0..PAPER_POOL)
    }
}

// ---------------------------------------------------------------------
// Random graphs.
// ---------------------------------------------------------------------

/// One graph-construction op; node/parent indices are taken modulo the
/// graph size at apply time so every op sequence is valid (and stays
/// valid under shrinking).
#[derive(Debug, Clone)]
enum GraphOp {
    /// `add_child(parent % len, label, kind)` + provenance papers.
    Child { parent: usize, label: usize, kind: u8, papers: Vec<usize> },
    /// `add_parent(node % len, parent % len)` (skipped when identical).
    Link { node: usize, parent: usize },
    /// `add_provenance(node % len, paper)` for `count` consecutive pool
    /// papers from `first`: the long provenance list of a well-studied
    /// node.
    Provenance { node: usize, first: usize, count: usize },
    /// A paper no earlier op can have named, attached to two nodes: a
    /// co-occurrence edge made by the newest interned id, wherever in
    /// the sequence the op falls.
    Fresh { a: usize, b: usize },
}

fn gen_graph_op(rng: &mut SmallRng) -> GraphOp {
    match rng.gen_range(0u8..11) {
        0..=5 => GraphOp::Child {
            parent: rng.gen_range(0usize..64),
            label: rng.gen_range(0..LABELS.len()),
            kind: rng.gen_range(0u8..2),
            papers: prop::vec_of(rng, 0, 3, gen_paper),
        },
        6..=7 => GraphOp::Link {
            node: rng.gen_range(0usize..64),
            parent: rng.gen_range(0usize..64),
        },
        8..=9 => GraphOp::Provenance {
            node: rng.gen_range(0usize..64),
            first: rng.gen_range(0..PAPER_POOL),
            count: rng.gen_range(1usize..=64),
        },
        _ => GraphOp::Fresh {
            a: rng.gen_range(0usize..64),
            b: rng.gen_range(0usize..64),
        },
    }
}

/// Replay an op sequence into a graph. Deterministic: the same ops
/// always produce the same graph, which is what lets shrinking drop
/// ops and still get a meaningful smaller counterexample.
fn build_graph(ops: &[GraphOp]) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    let root = kg.add_root("covid");
    kg.add_provenance(root, paper(0));
    for (at, op) in ops.iter().enumerate() {
        let len = kg.len();
        match op {
            GraphOp::Child { parent, label, kind, papers } => {
                let kind = if *kind == 0 { NodeKind::Category } else { NodeKind::Entity };
                let id = kg.add_child(parent % len, LABELS[*label], kind, 0.9);
                for p in papers {
                    kg.add_provenance(id, paper(*p));
                }
            }
            GraphOp::Link { node, parent } => {
                if node % len != parent % len {
                    kg.add_parent(node % len, parent % len);
                }
            }
            GraphOp::Provenance { node, first, count } => {
                for p in *first..first + count {
                    kg.add_provenance(node % len, paper(p % PAPER_POOL));
                }
            }
            GraphOp::Fresh { a, b } => {
                kg.add_provenance(a % len, format!("fresh-{at}"));
                kg.add_provenance(b % len, format!("fresh-{at}"));
            }
        }
    }
    kg
}

// ---------------------------------------------------------------------
// Property 1: engine ≡ oracle, byte for byte.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct QueryCase {
    ops: Vec<GraphOp>,
    start: String,
    steps: Vec<String>,
    fanout: usize,
    k: usize,
}

fn gen_step(rng: &mut SmallRng) -> String {
    let rel = ["child", "parent", "any", "co"][rng.gen_range(0usize..4)];
    match rng.gen_range(0u8..4) {
        0 => format!("{rel}:entity"),
        1 => format!("{rel}:category"),
        // A filter paper from the pool (which any one graph attaches only
        // part of), or one no graph has.
        2 if rng.gen_bool(0.2) => format!("{rel}::ghost"),
        2 => format!("{rel}::{}", paper(gen_paper(rng))),
        _ => rel.to_string(),
    }
}

fn gen_start(rng: &mut SmallRng) -> String {
    match rng.gen_range(0u8..4) {
        0 => format!("term:{}", LABELS[rng.gen_range(0..LABELS.len())]),
        1 => "kind:category".to_string(),
        2 => "kind:entity".to_string(),
        _ => format!("node:{}", rng.gen_range(0usize..24)),
    }
}

#[test]
fn engine_matches_oracle_on_random_graphs() {
    prop::run_shrink(
        64,
        |rng| QueryCase {
            ops: prop::vec_of(rng, 0, 40, gen_graph_op),
            start: gen_start(rng),
            steps: prop::vec_of(rng, 1, 4, gen_step),
            fanout: rng.gen_range(1usize..10),
            k: rng.gen_range(1usize..12),
        },
        |case| {
            // Shrink toward fewer graph ops first (the usual culprit),
            // then fewer hops, then tighter bounds.
            let mut out: Vec<QueryCase> = prop::shrink_vec(&case.ops, |_| Vec::new())
                .into_iter()
                .map(|ops| QueryCase { ops, ..case.clone() })
                .collect();
            if case.steps.len() > 1 {
                out.extend(
                    prop::shrink_vec(&case.steps, |_| Vec::new())
                        .into_iter()
                        .filter(|s| !s.is_empty())
                        .map(|steps| QueryCase { steps, ..case.clone() }),
                );
            }
            for fanout in prop::shrink_usize(case.fanout) {
                if fanout > 0 {
                    out.push(QueryCase { fanout, ..case.clone() });
                }
            }
            for k in prop::shrink_usize(case.k) {
                if k > 0 {
                    out.push(QueryCase { k, ..case.clone() });
                }
            }
            out
        },
        |case| {
            let kg = build_graph(&case.ops);
            let reloaded = KnowledgeGraph::from_json(&kg.to_json()).ok_or("graph JSON failed to load")?;
            let drawn = QueryPlan::parse(&case.start, &case.steps.join(","), case.fanout, case.k)
                .map_err(|e| format!("plan failed to parse: {e}"))?;
            // Beside the drawn plan, one `co` hop out of every node at the
            // widest bounds: every co-occurrence edge of the graph is
            // walked in every case, and counted in `hops`.
            let sweep = ["kind:root", "kind:category", "kind:entity"]
                .map(|start| QueryPlan::parse(start, "co", MAX_FANOUT, MAX_K).expect("sweep plan parses"));
            for plan in std::iter::once(&drawn).chain(&sweep) {
                // The oracle walks the same forward traversal, so the
                // work counters — they are in the wire body — must agree.
                let oracle = execute_oracle(&kg, plan).to_json().to_json();
                for (which, kg) in [("built", &kg), ("reloaded", &reloaded)] {
                    // The body the wire sends, written by the served path.
                    let served = execute_optimized(kg, plan).to_body();
                    if served != oracle {
                        return Err(format!(
                            "engine != oracle on the {which} graph, plan {}\n  engine: {served}\n  oracle: {oracle}",
                            plan.cache_key()
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Property 2: index-backed search ≡ linear scan on random graphs.
// ---------------------------------------------------------------------

#[test]
fn indexed_search_matches_scan_on_random_graphs() {
    prop::run_shrink(
        48,
        |rng| {
            let ops = prop::vec_of(rng, 0, 40, gen_graph_op);
            let query = LABELS[rng.gen_range(0..LABELS.len())].to_string();
            (ops, query)
        },
        |(ops, query)| {
            prop::shrink_vec(ops, |_| Vec::new())
                .into_iter()
                .map(|ops| (ops, query.clone()))
                .collect()
        },
        |(ops, query)| {
            let kg = build_graph(ops);
            let indexed = kg.search(query);
            let scanned = kg.search_scan(query);
            if indexed != scanned {
                return Err(format!(
                    "search({query:?}) diverged: indexed {indexed:?} vs scan {scanned:?}"
                ));
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Property 3: incremental materialization ≡ full rebuild.
// ---------------------------------------------------------------------

/// One collection-level mutation; the paper index is taken modulo a
/// small pool so updates and deletes actually hit existing papers.
#[derive(Debug, Clone)]
enum PaperOp {
    /// Insert-or-replace the paper's observation list.
    Upsert { paper: usize, obs: Vec<(usize, u8, usize, u32)> },
    /// Drop the paper entirely.
    Delete { paper: usize },
}

const VACCINES: &[&str] = &["pfizer", "moderna", "astrazeneca", "janssen"];
const EFFECTS: &[&str] = &["fever", "chills", "fatigue"];

fn gen_paper_op(rng: &mut SmallRng) -> PaperOp {
    if rng.gen_bool(0.75) {
        PaperOp::Upsert {
            paper: rng.gen_range(0usize..6),
            obs: prop::vec_of(rng, 0, 4, |r| {
                (
                    r.gen_range(0..VACCINES.len()),
                    r.gen_range(1u8..4),
                    r.gen_range(0..EFFECTS.len()),
                    r.gen_range(0u32..400),
                )
            }),
        }
    } else {
        PaperOp::Delete { paper: rng.gen_range(0usize..6) }
    }
}

fn observations(paper: &str, obs: &[(usize, u8, usize, u32)]) -> Vec<Observation> {
    obs.iter()
        .map(|&(v, dose, e, rate)| Observation {
            vaccine: VACCINES[v].to_string(),
            dose,
            effect: EFFECTS[e].to_string(),
            rate: rate as f32 / 10.0,
            paper_id: paper.to_string(),
        })
        .collect()
}

/// A store rebuilt from scratch over the model's current papers — the
/// oracle the incremental store must match after every mutation.
fn full_rebuild(model: &BTreeMap<String, Vec<Observation>>, epoch: u64) -> ProfileStore {
    let mut store = ProfileStore::new();
    store.rebuild_all(model.iter().map(|(k, v)| (k.clone(), v.clone())).collect(), epoch);
    store
}

#[test]
fn incremental_materialization_matches_full_rebuild() {
    prop::run_shrink(
        48,
        |rng| prop::vec_of(rng, 1, 24, gen_paper_op),
        |ops| prop::shrink_vec(ops, |_| Vec::new()),
        |ops| {
            let mut model: BTreeMap<String, Vec<Observation>> = BTreeMap::new();
            let mut store = ProfileStore::new();
            store.rebuild_all(Vec::new(), 0);
            for (epoch0, op) in ops.iter().enumerate() {
                let epoch = epoch0 as u64 + 1;
                let paper_id = match op {
                    PaperOp::Upsert { paper, obs } => {
                        let id = format!("paper-{:02}", paper % 6);
                        model.insert(id.clone(), observations(&id, obs));
                        id
                    }
                    PaperOp::Delete { paper } => {
                        let id = format!("paper-{:02}", paper % 6);
                        model.remove(&id);
                        id
                    }
                };
                store.refresh(epoch, &[paper_id], |id| {
                    model.get(id).cloned().unwrap_or_default()
                });
                let oracle = full_rebuild(&model, epoch);
                // Profile structs must match, and so must every
                // epoch-stamped wire document, byte for byte.
                if store.profiles() != oracle.profiles() {
                    return Err(format!(
                        "profiles diverged after epoch {epoch}: {:?} vs {:?}",
                        store.profiles(),
                        oracle.profiles()
                    ));
                }
                for p in oracle.profiles() {
                    let got = store.document(&p.vaccine).map(|d| d.to_json());
                    let want = oracle.document(&p.vaccine).map(|d| d.to_json());
                    if got != want {
                        return Err(format!(
                            "document({}) diverged after epoch {epoch}:\n  {got:?}\n  {want:?}",
                            p.vaccine
                        ));
                    }
                }
                if store.stats().epoch != epoch {
                    return Err(format!(
                        "store epoch {} not stamped to {epoch}",
                        store.stats().epoch
                    ));
                }
            }
            Ok(())
        },
    );
}
