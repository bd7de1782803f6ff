//! Whole-chain equivalence for the derived-view driver.
//!
//! One property drives a real [`Collection`], a growing
//! [`KnowledgeGraph`] and a [`Views`] through random interleavings of
//! every kind of write the mutation log must carry — insert (with and
//! without a `tables` array), replace, `update`, delete,
//! delete-then-reinsert, a burst longer than the log window,
//! replicated `Insert`/`Update`/`Delete` frames — with graph growth and
//! `advance` at random points. After every `advance` the views must
//! serve exactly what a fresh `rebuild` at the same epoch serves:
//! profiles equal, every profile/trust document byte-equal, trust
//! bit-identical, and the ANN index holding exactly the live ids with
//! the same top-k as a rebuilt index (HNSW edges depend on insertion
//! order, so results, not bytes). Failures shrink to a minimal op
//! sequence. The named cases below pin the dense tier's incremental
//! behaviours one by one.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use covidkg_core::Views;
use covidkg_json::{obj, Value};
use covidkg_kg::{GraphChanges, KnowledgeGraph, NodeKind};
use covidkg_ml::{Word2Vec, Word2VecConfig};
use covidkg_rand::rngs::SmallRng;
use covidkg_rand::{prop, Rng};
use covidkg_store::{Collection, CollectionConfig, WalRecord};
use covidkg_text::tokenize_lower;

const PAPERS: usize = 8;
const VENUES: &[&str] = &["lancet", "nejm", "medrxiv"];
const VACCINES: &[&str] = &["Pfizer", "Moderna", "Janssen"];
const EFFECTS: &[&str] = &["Fever", "Chills", "Fatigue"];
const TITLES: &[&str] = &[
    "masks reduce viral transmission",
    "vaccines prevent severe outcomes",
    "ventilators support icu patients",
];
const LABELS: &[&str] = &["fever", "chills", "pfizer", "moderna"];
/// Writes in one [`Op::Burst`]: more than the store's log window
/// (`MUTATION_LOG_CAP`, 512), so the next `advance` must rebuild. The
/// property asserts that it did, so raising the window past this
/// fails here instead of silently testing nothing.
const BURST: usize = 520;

fn model() -> &'static Word2Vec {
    static MODEL: OnceLock<Word2Vec> = OnceLock::new();
    MODEL.get_or_init(|| {
        let sentences: Vec<Vec<String>> = (0..30)
            .map(|i| tokenize_lower(TITLES[i % TITLES.len()]))
            .collect();
        let config = Word2VecConfig {
            dims: 12,
            epochs: 2,
            seed: 5,
            ..Word2VecConfig::default()
        };
        Word2Vec::train(&sentences, &config)
    })
}

/// What one version of a paper says.
#[derive(Debug, Clone)]
struct Shape {
    venue: usize,
    year: u32,
    title: usize,
    /// `None` = no `tables` member at all; `Some(rows)` = one
    /// side-effect table with a `(vaccine, effect, rate)` row each.
    table: Option<Vec<(usize, usize, u8)>>,
}

#[derive(Debug, Clone)]
enum Frame {
    Insert { paper: usize, shape: Shape },
    Update { paper: usize, shape: Shape },
    Delete { paper: usize },
}

#[derive(Debug, Clone)]
enum Op {
    Insert { paper: usize, shape: Shape },
    Replace { paper: usize, shape: Shape },
    /// An in-place edit of a stored paper: an `enrichment` member set.
    Enrich { paper: usize },
    Delete { paper: usize },
    Reinsert { paper: usize, shape: Shape },
    Burst { paper: usize, shape: Shape },
    /// A frame applied beneath the views, as a replica's puller does.
    Shipped(Frame),
    /// Fusion grows the graph (possibly with no document written).
    Grow { parent: usize, label: usize, papers: Vec<usize> },
    /// Fusion attaches a paper to a node the graph already has.
    Attach { node: usize, paper: usize },
    Advance,
}

fn gen_shape(rng: &mut SmallRng) -> Shape {
    Shape {
        venue: rng.gen_range(0..VENUES.len()),
        year: 2019 + rng.gen_range(0u32..4),
        title: rng.gen_range(0..TITLES.len()),
        table: rng.gen_bool(0.7).then(|| {
            prop::vec_of(rng, 0, 3, |r| {
                (
                    r.gen_range(0..VACCINES.len()),
                    r.gen_range(0..EFFECTS.len()),
                    r.gen_range(1u8..60),
                )
            })
        }),
    }
}

fn gen_op(rng: &mut SmallRng) -> Op {
    let paper = rng.gen_range(0..PAPERS);
    match rng.gen_range(0u8..20) {
        0..=4 => Op::Insert { paper, shape: gen_shape(rng) },
        5..=6 => Op::Replace { paper, shape: gen_shape(rng) },
        7 => Op::Enrich { paper },
        8 => Op::Delete { paper },
        9 => Op::Reinsert { paper, shape: gen_shape(rng) },
        10 => Op::Burst { paper, shape: gen_shape(rng) },
        11 => Op::Shipped(Frame::Insert { paper, shape: gen_shape(rng) }),
        12 => Op::Shipped(Frame::Update { paper, shape: gen_shape(rng) }),
        13 => Op::Shipped(Frame::Delete { paper }),
        14..=15 => Op::Grow {
            parent: rng.gen_range(0usize..32),
            label: rng.gen_range(0..LABELS.len()),
            papers: prop::vec_of(rng, 0, 2, |r| r.gen_range(0..PAPERS)),
        },
        16 => Op::Attach { node: rng.gen_range(0usize..32), paper },
        _ => Op::Advance,
    }
}

fn paper_id(paper: usize) -> String {
    format!("paper-{paper:02}")
}

fn doc(paper: usize, shape: &Shape) -> Value {
    let mut doc = obj! {
        "_id" => paper_id(paper),
        "title" => TITLES[shape.title],
        "abstract" => TITLES[shape.title],
        "venue" => VENUES[shape.venue],
        "date" => format!("{}-03", shape.year),
    };
    if let Some(rows) = &shape.table {
        let mut html = String::from(
            "<table><caption>Reported side-effects</caption>\
             <tr><th>Side effect</th><th>Pfizer dose 1 (%)</th>\
             <th>Moderna dose 2 (%)</th><th>Janssen dose 1 (%)</th></tr>",
        );
        for (vaccine, effect, rate) in rows {
            let mut cells = ["n/a".to_string(), "n/a".to_string(), "n/a".to_string()];
            cells[*vaccine] = format!("{rate}%");
            html.push_str(&format!("<tr><td>{}</td>", EFFECTS[*effect]));
            for cell in cells {
                html.push_str(&format!("<td>{cell}</td>"));
            }
            html.push_str("</tr>");
        }
        html.push_str("</table>");
        doc.insert("tables", Value::Array(vec![obj! { "html" => html }]));
    }
    doc
}

/// Apply one write; rejected writes (duplicate insert, missing target)
/// are part of the input space and change nothing.
fn write(coll: &Collection, kg: &mut KnowledgeGraph, op: &Op) {
    match op {
        Op::Insert { paper, shape } => {
            let _ = coll.insert(doc(*paper, shape));
        }
        Op::Replace { paper, shape } => {
            let _ = coll.replace(&paper_id(*paper), doc(*paper, shape));
        }
        Op::Enrich { paper } => {
            let _ = coll.update(&paper_id(*paper), |d| d.insert("enrichment", obj! { "tables" => 1 }));
        }
        Op::Delete { paper } => {
            let _ = coll.delete(&paper_id(*paper));
        }
        Op::Reinsert { paper, shape } => {
            let _ = coll.delete(&paper_id(*paper));
            coll.insert(doc(*paper, shape)).expect("id was just freed");
        }
        Op::Burst { paper, shape } => {
            let _ = coll.insert(doc(*paper, shape));
            for _ in 0..BURST {
                coll.replace(&paper_id(*paper), doc(*paper, shape)).expect("exists");
            }
        }
        Op::Shipped(frame) => {
            let record = match frame {
                Frame::Insert { paper, shape } => WalRecord::Insert(doc(*paper, shape)),
                Frame::Update { paper, shape } => WalRecord::Update {
                    id: paper_id(*paper),
                    doc: doc(*paper, shape),
                },
                Frame::Delete { paper } => WalRecord::Delete { id: paper_id(*paper) },
            };
            let applied = coll.apply_replicated(coll.repl_watermark() + 1, &record);
            assert!(applied.expect("in sequence"));
        }
        Op::Grow { parent, label, papers } => {
            let id = kg.add_child(parent % kg.len(), LABELS[*label], NodeKind::Entity, 0.8);
            for p in papers {
                kg.add_provenance(id, paper_id(*p));
            }
        }
        Op::Attach { node, paper } => kg.add_provenance(node % kg.len(), paper_id(*paper)),
        Op::Advance => {}
    }
}

fn top_ids(views: &Views, query: &str) -> Vec<String> {
    let q = model().embed_phrase(&tokenize_lower(query));
    let (hits, _) = views.ann().search(&q, 5);
    hits.into_iter().map(|(id, _)| id).collect()
}

/// Every observable surface of `views` against a from-scratch rebuild
/// over the same collection and graph.
fn equals_rebuild(
    views: &Views,
    coll: &Collection,
    kg: &KnowledgeGraph,
    ctx: &str,
) -> Result<(), String> {
    let mut fresh = Views::new(model().dims());
    fresh.rebuild(coll, kg, model(), None);
    if views.cursor() != fresh.cursor() || views.trust().epoch() != fresh.cursor() {
        return Err(format!(
            "{ctx}: stamped profiles {} / trust {}, store at {}",
            views.cursor(),
            views.trust().epoch(),
            fresh.cursor()
        ));
    }
    if views.profiles().profiles() != fresh.profiles().profiles() {
        return Err(format!(
            "{ctx}: profiles diverged\n  incr: {:?}\n  full: {:?}",
            views.profiles().profiles(),
            fresh.profiles().profiles()
        ));
    }
    for v in VACCINES {
        let got = views.profiles().document(v).map(|d| d.to_json());
        let want = fresh.profiles().document(v).map(|d| d.to_json());
        if got != want {
            return Err(format!("{ctx}: profile {v} diverged\n  incr: {got:?}\n  full: {want:?}"));
        }
    }
    for id in 0..=kg.len() {
        let got = views.trust().trust(id).map(f64::to_bits);
        let want = fresh.trust().trust(id).map(f64::to_bits);
        if got != want {
            return Err(format!("{ctx}: node {id} trust bits {got:?} vs {want:?}"));
        }
        let got = views.trust().node_document(id).map(|d| d.to_json());
        let want = fresh.trust().node_document(id).map(|d| d.to_json());
        if got != want {
            return Err(format!("{ctx}: node {id} diverged\n  incr: {got:?}\n  full: {want:?}"));
        }
    }
    let got: Vec<&str> = views.trust().venues().collect();
    let want: Vec<&str> = fresh.trust().venues().collect();
    if got != want {
        return Err(format!("{ctx}: venue sets diverged {got:?} vs {want:?}"));
    }
    for v in want {
        let got = views.trust().source_document(v).map(|d| d.to_json());
        let want = fresh.trust().source_document(v).map(|d| d.to_json());
        if got != want {
            return Err(format!("{ctx}: venue {v} diverged\n  incr: {got:?}\n  full: {want:?}"));
        }
    }
    let live: BTreeSet<String> = coll
        .scan_all()
        .iter()
        .filter_map(|d| d.get("_id").and_then(Value::as_str).map(str::to_string))
        .collect();
    if views.ann().len() != live.len() || !live.iter().all(|id| views.ann().contains(id)) {
        return Err(format!("{ctx}: ann holds {} ids, live set is {live:?}", views.ann().len()));
    }
    for query in TITLES {
        let (got, want) = (top_ids(views, query), top_ids(&fresh, query));
        if got != want {
            return Err(format!("{ctx}: top-5 for {query:?} {got:?} vs rebuilt {want:?}"));
        }
    }
    Ok(())
}

#[test]
fn advanced_views_equal_a_rebuild_at_the_same_epoch() {
    prop::run_shrink(
        64,
        |rng| prop::vec_of(rng, 1, 28, gen_op),
        |ops| prop::shrink_vec(ops, |_| Vec::new()),
        |ops| {
            let coll = Collection::new(CollectionConfig::new("publications").with_shards(3));
            let mut kg = KnowledgeGraph::new();
            kg.add_root("covid");
            kg.take_changed();
            let mut views = Views::new(model().dims());
            views.rebuild(&coll, &kg, model(), None);
            let mut burst_pending = false;
            // A trailing advance, so every sequence is checked at least once.
            for (step, op) in ops.iter().chain([&Op::Advance]).enumerate() {
                write(&coll, &mut kg, op);
                burst_pending |= matches!(op, Op::Burst { .. });
                if !matches!(op, Op::Advance) {
                    continue;
                }
                let rebuilds = |v: &Views| {
                    (v.profiles().stats().full_rebuilds, v.trust().stats().full_rebuilds)
                };
                let before = rebuilds(&views);
                let changed = kg.take_changed();
                views.advance(&coll, &kg, &changed, model());
                let expected = before.0 + u64::from(burst_pending);
                if rebuilds(&views) != (expected, expected) {
                    return Err(format!(
                        "step {step}: full rebuilds {before:?} -> {:?}, burst pending: {burst_pending}",
                        rebuilds(&views)
                    ));
                }
                burst_pending = false;
                equals_rebuild(&views, &coll, &kg, &format!("after step {step}"))?;
            }
            Ok(())
        },
    );
}

/// Six stored papers, views rebuilt over them.
fn six_papers() -> (Collection, KnowledgeGraph, Views) {
    let coll = Collection::new(CollectionConfig::new("publications").with_shards(2));
    for paper in 0..6 {
        coll.insert(doc(paper, &plain(0))).unwrap();
    }
    let mut kg = KnowledgeGraph::new();
    kg.add_root("covid");
    kg.take_changed();
    let mut views = Views::new(model().dims());
    views.rebuild(&coll, &kg, model(), None);
    (coll, kg, views)
}

/// A table-less paper titled `TITLES[title]`.
fn plain(title: usize) -> Shape {
    Shape { venue: 0, year: 2021, title, table: None }
}

#[test]
fn insert_only_delta_reaches_every_view() {
    let (coll, kg, mut views) = six_papers();
    assert_eq!(views.ann().len(), 6);
    // A table-less insert: nothing but the log names it.
    coll.insert(doc(6, &plain(1))).unwrap();
    let with_table = Shape { table: Some(vec![(0, 0, 12)]), ..plain(1) };
    coll.insert(doc(7, &with_table)).unwrap();
    views.advance(&coll, &kg, &GraphChanges::default(), model());
    assert_eq!(views.ann().len(), 8);
    assert!(views.ann().contains(&paper_id(6)));
    assert_eq!(views.trust().stats().papers, 8);
    assert_eq!(views.profiles().stats().papers, 1, "only paper 7 has observations");
    assert_eq!(views.profiles().stats().full_rebuilds, 1, "the initial one");
    equals_rebuild(&views, &coll, &kg, "insert-only").unwrap();
}

#[test]
fn enriched_new_id_is_indexed_once() {
    // Ingest enriches what it has just stored, so a new id is logged
    // twice; a second index insert would only leave a tombstone behind
    // (every tombstone widens every later search beam).
    let (coll, kg, mut views) = six_papers();
    let dead = views.ann().tombstones();
    coll.insert(doc(6, &plain(0))).unwrap();
    coll.replace(&paper_id(6), doc(6, &plain(1))).unwrap();
    views.advance(&coll, &kg, &GraphChanges::default(), model());
    assert!(views.ann().contains(&paper_id(6)));
    assert_eq!(views.ann().tombstones(), dead);
}

#[test]
fn replace_and_delete_reach_the_index_and_a_second_advance_is_a_no_op() {
    let (coll, kg, mut views) = six_papers();
    coll.replace(&paper_id(0), doc(0, &plain(2))).unwrap();
    coll.delete(&paper_id(1)).unwrap();
    views.advance(&coll, &kg, &GraphChanges::default(), model());
    assert_eq!(views.ann().len(), 5);
    assert!(!views.ann().contains(&paper_id(1)));
    assert!(views.ann().contains(&paper_id(0)));
    equals_rebuild(&views, &coll, &kg, "replace+delete").unwrap();

    let (cursor, dead) = (views.cursor(), views.ann().tombstones());
    let repropagated = views.trust().stats().nodes_repropagated;
    views.advance(&coll, &kg, &GraphChanges::default(), model());
    assert_eq!(views.cursor(), cursor);
    assert_eq!(views.ann().len(), 5);
    assert_eq!(views.ann().tombstones(), dead);
    assert_eq!(views.trust().stats().nodes_repropagated, repropagated);
}

#[test]
fn graph_growth_alone_reaches_trust() {
    let (coll, mut kg, mut views) = six_papers();
    let node = kg.add_child(0, "fever", NodeKind::Entity, 0.8);
    kg.add_provenance(node, paper_id(2));
    assert!(views.trust().trust(node).is_none());
    let changed = kg.take_changed();
    views.advance(&coll, &kg, &changed, model());
    assert!(views.trust().trust(node).is_some(), "empty document delta, new graph");
    equals_rebuild(&views, &coll, &kg, "graph growth").unwrap();
}
