//! Multi-hop graph queries over the knowledge graph.
//!
//! The paper's §4 interrogation story ("Searching COVID-19 Clinical
//! Research Using Graph Queries" is the workload model): a typed query
//! plan — a start set plus a sequence of hop steps with predicate
//! filters — executed as a bounded traversal that returns the top-k
//! complete paths ranked by provenance support and inverse path length.
//!
//! The serving engine is [`execute`]: one in-place depth-first
//! traversal over the provenance indexes the graph maintains on write —
//! interned paper ids, a per-node paper bitset and a per-node
//! co-neighbour list — feeding a bounded top-k buffer, with hop/visit
//! counters for the `covidkg_kg_*` metrics series and every
//! `/kg/query` body. Its equivalence oracle, [`crate::oracle::execute_oracle`],
//! shares nothing with it but the plan and result types below.
//!
//! Determinism contract: successors are sorted by node id, filtered,
//! then truncated to `max_fanout`; a path scores
//! `(distinct provenance papers + 1) / length`; ranking breaks score
//! ties by lexicographic path order (`(score desc, path lex asc)`).
//! Engine and oracle each implement that contract on their own, and
//! the property tests hold them to byte-identical results, tie-breaks
//! included.

use crate::graph::{KnowledgeGraph, NodeId, NodeKind, PaperId};
use covidkg_json::{obj, write_number, write_string, Number, Value};

/// Hard ceiling on hop steps per plan (bounded depth).
pub const MAX_STEPS: usize = 8;
/// Hard ceiling on successors expanded per node per step.
pub const MAX_FANOUT: usize = 64;
/// Hard ceiling on requested paths.
pub const MAX_K: usize = 100;

/// Where a traversal starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartSet {
    /// Nodes whose label normalizes to the term (`find_by_term`).
    Term(String),
    /// Every node of the given kind.
    Kind(NodeKind),
    /// One explicit node id.
    Node(NodeId),
}

/// Edge relation followed by a hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopRel {
    /// Parent → child edges.
    Child,
    /// Child → parent edges.
    Parent,
    /// Either direction.
    Any,
    /// Co-occurrence: nodes sharing at least one provenance paper.
    CoOccur,
}

impl HopRel {
    /// Stable serialization label (query-param grammar).
    pub fn as_str(self) -> &'static str {
        match self {
            HopRel::Child => "child",
            HopRel::Parent => "parent",
            HopRel::Any => "any",
            HopRel::CoOccur => "co",
        }
    }
}

/// One hop: a relation plus optional predicate filters on the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopStep {
    /// Which edges to follow.
    pub rel: HopRel,
    /// Keep only targets of this kind, when set.
    pub kind: Option<NodeKind>,
    /// Keep only targets whose provenance contains this paper id.
    pub provenance: Option<String>,
}

/// A complete query plan: start set, hop steps, bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Where traversal starts.
    pub start: StartSet,
    /// Hops to take, in order. A path is complete only after all steps.
    pub steps: Vec<HopStep>,
    /// Successor truncation per node per step (and start-set bound).
    pub max_fanout: usize,
    /// How many ranked paths to return.
    pub k: usize,
}

/// One ranked result path.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPath {
    /// Node ids, start first.
    pub nodes: Vec<NodeId>,
    /// Labels of the same nodes (for rendering).
    pub labels: Vec<String>,
    /// Distinct provenance papers supporting the path.
    pub support: usize,
    /// `(support + 1) / path length` — provenance support × inverse
    /// path length, with a +1 floor so seeded (paperless) paths still
    /// rank by length.
    pub score: f64,
}

/// Traversal outcome: ranked paths plus work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Top-k paths, `(score desc, path lex asc)`.
    pub paths: Vec<RankedPath>,
    /// Edges traversed (successors pushed).
    pub hops: u64,
    /// Nodes expanded (start nodes included).
    pub visited: u64,
}

impl QueryPlan {
    /// Parse the textual plan grammar shared by the CLI and the
    /// `GET /kg/query` route.
    ///
    /// `start`: `term:<text>` | `kind:<root|category|entity>` |
    /// `node:<id>`. `steps`: comma-separated hops, each
    /// `<child|parent|any|co>[:<kind>[:<paper-id>]]` with empty slots
    /// allowed (`co::paper-3` filters provenance without a kind).
    pub fn parse(start: &str, steps: &str, max_fanout: usize, k: usize) -> Result<QueryPlan, String> {
        let start = match start.split_once(':') {
            Some(("term", t)) if !t.is_empty() => StartSet::Term(t.to_string()),
            Some(("kind", k)) => StartSet::Kind(
                NodeKind::parse(k).ok_or_else(|| format!("unknown kind {k:?}: expected root, category or entity"))?,
            ),
            Some(("node", id)) => StartSet::Node(
                id.parse::<usize>().map_err(|_| format!("node id {id:?} is not a non-negative integer"))?,
            ),
            _ => return Err(format!("start {start:?} must be term:<text>, kind:<kind> or node:<id>")),
        };
        let mut parsed = Vec::new();
        for step in steps.split(',').filter(|s| !s.is_empty()) {
            let mut parts = step.splitn(3, ':');
            let rel = match parts.next().unwrap_or_default() {
                "child" => HopRel::Child,
                "parent" => HopRel::Parent,
                "any" => HopRel::Any,
                "co" => HopRel::CoOccur,
                other => return Err(format!("unknown relation {other:?}: expected child, parent, any or co")),
            };
            let kind = match parts.next() {
                None | Some("") => None,
                Some(k) => Some(
                    NodeKind::parse(k).ok_or_else(|| format!("unknown kind {k:?} in step {step:?}"))?,
                ),
            };
            let provenance = match parts.next() {
                None | Some("") => None,
                Some(p) => Some(p.to_string()),
            };
            parsed.push(HopStep { rel, kind, provenance });
        }
        if parsed.len() > MAX_STEPS {
            return Err(format!("{} steps exceed the bound of {MAX_STEPS}", parsed.len()));
        }
        if max_fanout == 0 || max_fanout > MAX_FANOUT {
            return Err(format!("fanout must be in 1..={MAX_FANOUT}"));
        }
        if k == 0 || k > MAX_K {
            return Err(format!("k must be in 1..={MAX_K}"));
        }
        Ok(QueryPlan { start, steps: parsed, max_fanout, k })
    }

    /// Collision-free canonical form — the serve-layer cache key.
    /// Free-form fields (term, paper ids) are length-prefixed so no
    /// two distinct plans can serialize alike.
    pub fn cache_key(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("kgq|");
        match &self.start {
            StartSet::Term(t) => { let _ = write!(out, "t{}:{t}", t.len()); }
            StartSet::Kind(k) => { let _ = write!(out, "k:{}", k.as_str()); }
            StartSet::Node(id) => { let _ = write!(out, "n:{id}"); }
        }
        for s in &self.steps {
            let _ = write!(out, "|{}", s.rel.as_str());
            if let Some(k) = s.kind {
                let _ = write!(out, ":{}", k.as_str());
            } else {
                out.push(':');
            }
            match &s.provenance {
                Some(p) => { let _ = write!(out, ":p{}:{p}", p.len()); }
                None => out.push(':'),
            }
        }
        let _ = write!(out, "|f{}|k{}", self.max_fanout, self.k);
        out
    }
}

impl RankedPath {
    /// JSON form of one path. The wire writes it with
    /// [`RankedPath::write_members`], held to this byte for byte.
    pub fn to_json(&self) -> Value {
        obj! {
            "nodes" => Value::Array(self.nodes.iter().map(|&n| Value::int(n as i64)).collect()),
            "labels" => Value::Array(self.labels.iter().map(|l| Value::str(l.clone())).collect()),
            "support" => self.support,
            "score" => self.score,
        }
    }

    /// The members of [`RankedPath::to_json`]'s object, serialized in its
    /// order without the braces, so a caller can close the object or
    /// append members of its own first.
    pub fn write_members(&self, out: &mut String) {
        out.push_str("\"nodes\":[");
        for (i, &n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_number(Number::Int(n as i64), out);
        }
        out.push_str("],\"labels\":[");
        for (i, label) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(label, out);
        }
        out.push_str("],\"support\":");
        write_number(Number::Int(self.support as i64), out);
        out.push_str(",\"score\":");
        write_number(Number::Float(self.score), out);
    }

    /// What [`RankedPath::write_members`] writes at most, braces and a
    /// separating comma included, unless a label escapes or the score
    /// prints longer than 24 bytes: member names and punctuation, every
    /// label's unescaped length in quotes, and every number at its
    /// longest integer (20 bytes).
    pub fn body_capacity(&self) -> usize {
        let labels: usize = self.labels.iter().map(|l| l.len() + 3).sum();
        90 + 21 * self.nodes.len() + labels
    }
}

impl QueryResult {
    /// Full JSON form: paths plus work counters. The wire body is
    /// [`QueryResult::to_body`], held to `to_json().to_json()`.
    pub fn to_json(&self) -> Value {
        obj! {
            "paths" => Value::Array(self.paths.iter().map(RankedPath::to_json).collect()),
            "hops" => self.hops as i64,
            "visited" => self.visited as i64,
        }
    }

    /// The `GET /kg/query` body: [`QueryResult::to_json`] serialized,
    /// written straight into one `String` sized up front
    /// (`to_json().to_json()` is its byte-for-byte oracle).
    pub fn to_body(&self) -> String {
        let paths: usize = self.paths.iter().map(RankedPath::body_capacity).sum();
        let mut out = String::with_capacity(72 + paths);
        out.push_str("{\"paths\":[");
        for (i, p) in self.paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            p.write_members(&mut out);
            out.push('}');
        }
        out.push(']');
        self.write_counters(&mut out);
        out.push('}');
        out
    }

    /// The `hops` and `visited` members, each after a comma: what follows
    /// the paths array in every serialized query result.
    pub fn write_counters(&self, out: &mut String) {
        out.push_str(",\"hops\":");
        write_number(Number::Int(self.hops as i64), out);
        out.push_str(",\"visited\":");
        write_number(Number::Int(self.visited as i64), out);
    }
}

/// A hop step as the engine reads it: the provenance filter resolved
/// against the graph's interned papers once per plan, not once per
/// candidate.
struct Step {
    rel: HopRel,
    kind: Option<NodeKind>,
    /// `Some(None)` names a paper no node carries: no target passes.
    paper: Option<Option<PaperId>>,
}

impl Step {
    fn resolve(kg: &KnowledgeGraph, plan: &QueryPlan) -> Vec<Step> {
        plan.steps
            .iter()
            .map(|s| Step {
                rel: s.rel,
                kind: s.kind,
                paper: s.provenance.as_deref().map(|p| kg.paper_id(p)),
            })
            .collect()
    }

    /// Does a node satisfy the step's predicate filters?
    fn admits(&self, kg: &KnowledgeGraph, node: NodeId) -> bool {
        self.kind.is_none_or(|k| kg.node(node).kind == k)
            && match self.paper {
                None => true,
                Some(None) => false,
                Some(Some(paper)) => kg.has_paper(node, paper),
            }
    }
}

/// The nodes one `rel` edge away from `from`, ascending and distinct,
/// written over `out`. A `co` hop reads the graph's maintained
/// co-neighbour list, which is already in that form.
fn neighbours(kg: &KnowledgeGraph, from: NodeId, rel: HopRel, out: &mut Vec<NodeId>) {
    let node = kg.node(from);
    out.clear();
    match rel {
        HopRel::Child => out.extend_from_slice(&node.children),
        HopRel::Parent => out.extend_from_slice(&node.parents),
        HopRel::Any => {
            out.extend_from_slice(&node.children);
            out.extend_from_slice(&node.parents);
        }
        HopRel::CoOccur => {
            out.extend_from_slice(kg.co_neighbors(from));
            return;
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Resolve the start set: sorted by id, truncated to `max_fanout`.
fn start_nodes(kg: &KnowledgeGraph, plan: &QueryPlan) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = match &plan.start {
        StartSet::Term(t) => kg.find_by_term(t),
        StartSet::Kind(k) => kg.nodes().iter().filter(|n| n.kind == *k).map(|n| n.id).collect(),
        StartSet::Node(id) => {
            if *id < kg.len() {
                vec![*id]
            } else {
                Vec::new()
            }
        }
    };
    ids.sort_unstable();
    ids.dedup();
    ids.truncate(plan.max_fanout);
    ids
}

/// Bounded buffer keeping the best `k` paths in the deterministic
/// result order, `(score desc, path lex asc)`.
struct TopK {
    k: usize,
    items: Vec<RankedPath>,
}

impl TopK {
    /// Offer a complete path with its support (distinct provenance
    /// papers): scored `(support + 1) / length`, and its node ids copied
    /// only when it enters the buffer. Labels are left empty: a path can
    /// still be pushed out, so [`traverse`] fills them for the survivors.
    fn offer(&mut self, nodes: &[NodeId], support: usize) {
        let score = (support + 1) as f64 / nodes.len() as f64;
        let pos = self.items.partition_point(|q| {
            score.total_cmp(&q.score).then_with(|| q.nodes.as_slice().cmp(nodes)).is_lt()
        });
        if pos >= self.k {
            return;
        }
        self.items.truncate(self.k - 1);
        let path = RankedPath { nodes: nodes.to_vec(), labels: Vec::new(), support, score };
        self.items.insert(pos, path);
    }
}

/// The traversal [`execute`] runs: a depth-first walk, in candidate
/// order, over paths of `depth` hops rooted at `roots`, ranking the
/// complete ones.
///
/// `expand(path, out)` writes the successors of `path`'s head over
/// `out`. Everything the walk needs lives in per-depth buffers
/// allocated once: the candidate list of each path position, and the
/// union of the paper bitsets of the path so far — so a complete
/// path's support is one OR + popcount against its parent's row, and
/// nothing is allocated per path.
fn traverse(
    kg: &KnowledgeGraph,
    roots: Vec<NodeId>,
    depth: usize,
    k: usize,
    mut expand: impl FnMut(&[NodeId], &mut Vec<NodeId>),
) -> QueryResult {
    let words = kg.paper_words();
    let mut top = TopK { k, items: Vec::new() };
    let (mut hops, mut visited) = (0u64, 0u64);
    // cands[d]: the candidates for path position d; taken[d] of them
    // have been walked.
    let mut cands = vec![Vec::new(); depth + 1];
    cands[0] = roots;
    let mut taken = vec![0usize; depth + 1];
    // Row d: the papers of path[..d] (row 0 stays empty).
    let mut unions = vec![0u64; (depth + 1) * words];
    let mut path: Vec<NodeId> = Vec::with_capacity(depth + 1);
    loop {
        let d = path.len();
        let Some(&n) = cands[d].get(taken[d]) else {
            if path.pop().is_none() {
                break;
            }
            continue;
        };
        taken[d] += 1;
        visited += 1;
        path.push(n);
        // A node's set is trimmed to its highest paper: past its end the
        // union is the parent row's words.
        let set = kg.paper_set(n);
        let (above, below) = unions[d * words..].split_at_mut(words);
        let (shared, rest) = above.split_at(set.len());
        if d == depth {
            let support = shared.iter().zip(set).map(|(a, b)| (a | b).count_ones()).sum::<u32>()
                + rest.iter().map(|a| a.count_ones()).sum::<u32>();
            top.offer(&path, support as usize);
            path.pop();
        } else {
            let (row, row_rest) = below[..words].split_at_mut(set.len());
            for ((row, a), b) in row.iter_mut().zip(shared).zip(set) {
                *row = a | b;
            }
            row_rest.copy_from_slice(rest);
            expand(&path, &mut cands[d + 1]);
            hops += cands[d + 1].len() as u64;
            taken[d + 1] = 0;
        }
    }
    let mut paths = top.items;
    for p in &mut paths {
        p.labels = p.nodes.iter().map(|&n| kg.node(n).label.clone()).collect();
    }
    QueryResult { paths, hops, visited }
}

/// The serving engine: forward traversal from the start set.
/// Successors are the step's relation read off the graph, filtered by
/// the step's predicates and the no-revisit rule, then truncated to
/// `max_fanout`.
pub fn execute(kg: &KnowledgeGraph, plan: &QueryPlan) -> QueryResult {
    let steps = Step::resolve(kg, plan);
    traverse(kg, start_nodes(kg, plan), steps.len(), plan.k, |path, out| {
        let step = &steps[path.len() - 1];
        neighbours(kg, *path.last().expect("path never empty"), step.rel, out);
        out.retain(|&c| !path.contains(&c) && step.admits(kg, c));
        out.truncate(plan.max_fanout);
    })
}

/// [`execute`] under the name the benchmark's trace replay
/// (`benchmark/src/trace.rs`) calls it by.
pub use self::execute as execute_optimized;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::execute_oracle;
    use crate::seed::seed_graph;

    fn provenance_graph() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let root = kg.add_root("COVID-19");
        let vaccines = kg.add_child(root, "Vaccine(s)", NodeKind::Category, 1.0);
        let pfizer = kg.add_child(vaccines, "Pfizer", NodeKind::Entity, 0.9);
        let moderna = kg.add_child(vaccines, "Moderna", NodeKind::Entity, 0.9);
        let symptoms = kg.add_child(root, "Symptoms", NodeKind::Category, 1.0);
        let fever = kg.add_child(symptoms, "Fever", NodeKind::Entity, 0.8);
        kg.add_provenance(pfizer, "paper-1");
        kg.add_provenance(pfizer, "paper-2");
        kg.add_provenance(moderna, "paper-2");
        kg.add_provenance(fever, "paper-1");
        kg
    }

    fn plan(start: &str, steps: &str) -> QueryPlan {
        QueryPlan::parse(start, steps, 8, 10).expect("plan parses")
    }

    #[test]
    fn child_hops_walk_the_hierarchy() {
        let kg = provenance_graph();
        let r = execute(&kg, &plan("node:0", "child,child"));
        // Root → {Vaccines, Symptoms} → entities: 3 complete paths.
        assert_eq!(r.paths.len(), 3);
        for p in &r.paths {
            assert_eq!(p.nodes.len(), 3);
            assert_eq!(p.nodes[0], 0);
        }
        // Pfizer path carries 2 papers → best score.
        assert_eq!(r.paths[0].labels, ["COVID-19", "Vaccine(s)", "Pfizer"]);
        assert_eq!(r.paths[0].support, 2);
        assert!(r.hops > 0 && r.visited > 0);
    }

    #[test]
    fn kind_and_provenance_filters_apply() {
        let kg = provenance_graph();
        let r = execute(&kg, &plan("term:vaccine", "child:entity:paper-2"));
        assert_eq!(r.paths.len(), 2);
        assert!(r.paths.iter().all(|p| p.labels[1] == "Pfizer" || p.labels[1] == "Moderna"));
        let none = execute(&kg, &plan("term:vaccine", "child:category:paper-2"));
        assert!(none.paths.is_empty(), "entities are not categories");
    }

    #[test]
    fn cooccurrence_expands_via_shared_papers() {
        let kg = provenance_graph();
        // Pfizer co-occurs with Moderna (paper-2) and Fever (paper-1).
        let r = execute(&kg, &plan("term:pfizer", "co"));
        let targets: Vec<&str> = r.paths.iter().map(|p| p.labels[1].as_str()).collect();
        assert_eq!(targets, ["Moderna", "Fever"], "sorted by node id");
    }

    #[test]
    fn no_revisits_within_a_path() {
        let kg = provenance_graph();
        let r = execute(&kg, &plan("node:2", "parent,child"));
        // Pfizer → Vaccines → {Moderna} only; Pfizer itself is excluded.
        assert_eq!(r.paths.len(), 1);
        assert_eq!(r.paths[0].labels, ["Pfizer", "Vaccine(s)", "Moderna"]);
    }

    #[test]
    fn tie_break_is_path_lexicographic() {
        let kg = seed_graph(); // no provenance: all scores equal per length
        let r = execute(&kg, &plan("node:0", "child"));
        let mut sorted = r.paths.clone();
        sorted.sort_by(|a, b| a.nodes.cmp(&b.nodes));
        assert_eq!(r.paths, sorted, "equal scores fall back to path order");
    }

    #[test]
    fn fanout_truncates_and_k_bounds() {
        let kg = seed_graph();
        let narrow = QueryPlan::parse("node:0", "child", 2, 10).unwrap();
        assert_eq!(execute(&kg, &narrow).paths.len(), 2);
        let top1 = QueryPlan::parse("node:0", "child", 8, 1).unwrap();
        assert_eq!(execute(&kg, &top1).paths.len(), 1);
    }

    #[test]
    fn engine_matches_oracle_on_fixed_graphs() {
        for (kg, plans) in [
            (provenance_graph(), vec![
                plan("node:0", "child,child"),
                plan("term:vaccine", "child:entity"),
                plan("term:pfizer", "co,co"),
                plan("kind:entity", "parent,child"),
                plan("kind:category", "any,any"),
            ]),
            (seed_graph(), vec![
                plan("node:0", "child,child,child"),
                plan("kind:category", "parent"),
                plan("term:symptoms", "any,any"),
            ]),
        ] {
            for p in plans {
                let engine = execute(&kg, &p);
                let oracle = execute_oracle(&kg, &p);
                assert_eq!(engine.to_json().to_json(), oracle.to_json().to_json(), "plan {p:?}");
            }
        }
    }

    #[test]
    fn plan_grammar_round_trips_and_rejects() {
        let p = plan("term:vaccine", "child:entity,co::paper-1,parent");
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.steps[0].kind, Some(NodeKind::Entity));
        assert_eq!(p.steps[1].provenance.as_deref(), Some("paper-1"));
        assert_eq!(p.steps[2], HopStep { rel: HopRel::Parent, kind: None, provenance: None });
        assert!(QueryPlan::parse("term:", "", 8, 10).is_err());
        assert!(QueryPlan::parse("node:x", "", 8, 10).is_err());
        assert!(QueryPlan::parse("kind:planet", "", 8, 10).is_err());
        assert!(QueryPlan::parse("node:0", "sideways", 8, 10).is_err());
        assert!(QueryPlan::parse("node:0", "child", 0, 10).is_err());
        assert!(QueryPlan::parse("node:0", "child", 8, 0).is_err());
        assert!(QueryPlan::parse("node:0", &["child"; MAX_STEPS + 1].join(","), 8, 10).is_err());
    }

    #[test]
    fn cache_keys_are_collision_free_for_tricky_terms() {
        let a = plan("term:a|b", "").cache_key();
        let b = plan("term:a", "").cache_key();
        assert_ne!(a, b);
        let c = plan("node:0", "co::p|x").cache_key();
        let d = plan("node:0", "co::p").cache_key();
        assert_ne!(c, d);
        assert_eq!(plan("term:x", "child").cache_key(), plan("term:x", "child").cache_key());
    }

    #[test]
    fn missing_start_yields_empty_result() {
        let kg = provenance_graph();
        let r = execute(&kg, &plan("term:ventilator", "child"));
        assert!(r.paths.is_empty());
        let r = execute(&kg, &plan("node:999", "child"));
        assert!(r.paths.is_empty());
    }
}
