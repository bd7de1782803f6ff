//! The hierarchical knowledge-graph structure.
//!
//! §4.2: "The graph is populated with nodes and edges and is stored in
//! JSON format. The structure of the graph is hierarchical, so all child
//! nodes have parent nodes." Overlapping categorizations are explicitly
//! kept ("it was decided to store all different ways to categorize the
//! data without merging them"), so a node may have several parents. The
//! root has none. Search returns matching nodes together with the path
//! from the root, which the front-end highlights.

use covidkg_json::{obj, Value};
use covidkg_text::{normalize_term, NormalizedTerm};
use std::collections::{BTreeSet, HashMap};

/// Index of a node within the graph.
pub type NodeId = usize;

/// Dense id of an interned publication id: its position in the order
/// papers were first attached to any node.
pub(crate) type PaperId = u32;

/// What a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The single root (e.g. `COVID-19`).
    Root,
    /// An organizing category (`Vaccines`, `Symptoms`, …).
    Category,
    /// A concrete entity / finding (`Pfizer`, `Fever`, …).
    Entity,
}

impl NodeKind {
    /// Stable serialization label (also used by the HTTP layer).
    pub fn as_str(self) -> &'static str {
        match self {
            NodeKind::Root => "root",
            NodeKind::Category => "category",
            NodeKind::Entity => "entity",
        }
    }

    /// Inverse of [`NodeKind::as_str`] (query-plan and JSON parsing).
    pub fn parse(s: &str) -> Option<NodeKind> {
        match s {
            "root" => Some(NodeKind::Root),
            "category" => Some(NodeKind::Category),
            "entity" => Some(NodeKind::Entity),
            _ => None,
        }
    }
}

/// One node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Id (index).
    pub id: NodeId,
    /// Display label.
    pub label: String,
    /// Node kind.
    pub kind: NodeKind,
    /// Parent ids (empty only for the root).
    pub parents: Vec<NodeId>,
    /// Child ids.
    pub children: Vec<NodeId>,
    /// Fusion confidence in `[0, 1]` (1.0 for seeded nodes).
    pub confidence: f64,
    /// Publications this node's knowledge came from (provenance — "the
    /// nodes along the path provide access to the publications"), as
    /// interned ids in insertion order. Read them back as strings with
    /// [`KnowledgeGraph::provenance`].
    papers: Vec<PaperId>,
    /// The same papers as a bitset over [`PaperId`]s, trimmed to the
    /// word holding the node's highest id: membership is a bit test and
    /// a path's support an OR + popcount.
    paper_set: Vec<u64>,
    /// Other nodes sharing at least one paper with this one, ascending.
    co: Vec<NodeId>,
}

/// A search hit: the node plus the highlighted path from the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchHit {
    /// Matching node.
    pub node: NodeId,
    /// Node ids from the root to the match (inclusive).
    pub path: Vec<NodeId>,
}

/// The knowledge graph.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeGraph {
    nodes: Vec<Node>,
    /// normalized-term key → node ids (several labels can normalize alike).
    term_index: HashMap<String, Vec<NodeId>>,
    /// label stem → node ids (search's stem-containment candidates).
    stem_index: HashMap<String, Vec<NodeId>>,
    /// lowercased-label byte trigram → node ids (search's substring
    /// candidates; a substring match implies every query trigram occurs).
    trigram_index: HashMap<[u8; 3], Vec<NodeId>>,
    /// Interned publication ids: `paper_names[id]` is the string,
    /// `paper_ids` its inverse.
    paper_names: Vec<String>,
    paper_ids: HashMap<String, PaperId>,
    /// `paper_nodes[id]` — the nodes carrying that paper, in attachment
    /// order (what a new attachment's co-neighbours are read from).
    paper_nodes: Vec<Vec<NodeId>>,
    /// Nodes created, or whose parents, children or provenance grew,
    /// since the last [`KnowledgeGraph::take_changed`]: how fusion tells
    /// the views built over the graph which nodes to re-read.
    changed: BTreeSet<NodeId>,
    /// Set by the first [`KnowledgeGraph::take_changed`].
    drained: bool,
}

/// What [`KnowledgeGraph::take_changed`] reports: the nodes that changed
/// since the previous call. The default reports nothing changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphChanges {
    /// No earlier call saw this graph (it was built, or read back by
    /// [`KnowledgeGraph::from_json`], since): a view must re-read it
    /// whole. Otherwise a node outside `nodes` reads exactly as it did
    /// at the previous call, and one inside it either is new or only
    /// gained parents, children or provenance — provenance appended
    /// after what it carried then.
    pub fresh: bool,
    /// Nodes created, or whose parents, children or provenance grew,
    /// ascending.
    pub nodes: Vec<NodeId>,
}

impl KnowledgeGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create the root node. Panics if called twice.
    pub fn add_root(&mut self, label: impl Into<String>) -> NodeId {
        assert!(self.nodes.is_empty(), "root must be the first node");
        self.push_node(label.into(), NodeKind::Root, Vec::new(), 1.0)
    }

    /// Add a node under `parent`.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        label: impl Into<String>,
        kind: NodeKind,
        confidence: f64,
    ) -> NodeId {
        assert!(parent < self.nodes.len(), "unknown parent {parent}");
        let id = self.push_node(label.into(), kind, vec![parent], confidence);
        self.nodes[parent].children.push(id);
        self.changed.insert(parent);
        id
    }

    /// Link an existing node under an additional parent (overlapping
    /// categorizations, §4.2).
    pub fn add_parent(&mut self, node: NodeId, parent: NodeId) {
        assert!(node < self.nodes.len() && parent < self.nodes.len());
        assert_ne!(node, parent, "node cannot parent itself");
        if !self.nodes[node].parents.contains(&parent) {
            self.nodes[node].parents.push(parent);
            self.nodes[parent].children.push(node);
            self.changed.extend([node, parent]);
        }
    }

    fn push_node(
        &mut self,
        label: String,
        kind: NodeKind,
        parents: Vec<NodeId>,
        confidence: f64,
    ) -> NodeId {
        let id = self.nodes.len();
        self.index_label(id, &label);
        self.changed.insert(id);
        self.nodes.push(Node {
            id,
            label,
            kind,
            parents,
            children: Vec::new(),
            confidence,
            papers: Vec::new(),
            paper_set: Vec::new(),
            co: Vec::new(),
        });
        id
    }

    /// Maintain every label-derived index for a new node. Labels are
    /// immutable after creation, so insertion is the only sync point —
    /// `add_child`/`add_parent` mutate topology, never labels, and both
    /// funnel node creation through here.
    fn index_label(&mut self, id: NodeId, label: &str) {
        let norm = normalize_term(label);
        self.term_index.entry(norm.key()).or_default().push(id);
        for stem in &norm.stems {
            let ids = self.stem_index.entry(stem.clone()).or_default();
            if ids.last() != Some(&id) {
                ids.push(id);
            }
        }
        for tri in trigrams(&label.to_lowercase()) {
            let ids = self.trigram_index.entry(tri).or_default();
            if ids.last() != Some(&id) {
                ids.push(id);
            }
        }
    }

    /// Attach provenance (a publication id) to a node; a paper the node
    /// already carries is ignored.
    ///
    /// The only writer of the provenance indexes (fusion and
    /// [`KnowledgeGraph::from_json`] both come through here): the paper
    /// is interned, appended to the node's list and bitset, and every
    /// node already carrying it becomes a co-neighbour, both ways.
    pub fn add_provenance(&mut self, node: NodeId, paper_id: impl AsRef<str>) {
        let paper_id = paper_id.as_ref();
        let paper = match self.paper_ids.get(paper_id) {
            Some(&paper) => paper,
            None => {
                let paper = PaperId::try_from(self.paper_names.len()).expect("fewer than 2^32 papers");
                self.paper_ids.insert(paper_id.to_string(), paper);
                self.paper_names.push(paper_id.to_string());
                self.paper_nodes.push(Vec::new());
                paper
            }
        };
        if self.has_paper(node, paper) {
            return;
        }
        let (word, bit) = (paper as usize / 64, paper % 64);
        self.changed.insert(node);
        let n = &mut self.nodes[node];
        n.papers.push(paper);
        if n.paper_set.len() <= word {
            n.paper_set.resize(word + 1, 0);
        }
        n.paper_set[word] |= 1 << bit;
        for &other in &self.paper_nodes[paper as usize] {
            insert_sorted(&mut self.nodes[node].co, other);
            insert_sorted(&mut self.nodes[other].co, node);
        }
        self.paper_nodes[paper as usize].push(node);
    }

    /// Drain the change journal: the nodes created, or whose parents,
    /// children or provenance grew, since the previous call. Labels,
    /// kinds and confidences never change after creation and provenance
    /// is only appended to, which is what lets a view built over the
    /// graph re-read the reported nodes alone (see [`GraphChanges`]).
    pub fn take_changed(&mut self) -> GraphChanges {
        let fresh = !std::mem::replace(&mut self.drained, true);
        let nodes = std::mem::take(&mut self.changed).into_iter().collect();
        GraphChanges { fresh, nodes }
    }

    /// The publication ids attached to a node, in the order they were
    /// attached.
    pub fn provenance(&self, node: NodeId) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.nodes[node]
            .papers
            .iter()
            .map(|&p| self.paper_names[p as usize].as_str())
    }

    /// The interned id of a publication id, if any node carries it.
    pub(crate) fn paper_id(&self, paper_id: &str) -> Option<PaperId> {
        self.paper_ids.get(paper_id).copied()
    }

    /// Does the node carry the paper?
    pub(crate) fn has_paper(&self, node: NodeId, paper: PaperId) -> bool {
        self.nodes[node]
            .paper_set
            .get(paper as usize / 64)
            .is_some_and(|w| (w >> (paper % 64)) & 1 == 1)
    }

    /// The node's papers as a bitset over [`PaperId`]s; words past the
    /// slice's end are zero.
    pub(crate) fn paper_set(&self, node: NodeId) -> &[u64] {
        &self.nodes[node].paper_set
    }

    /// Words a bitset over every interned paper takes.
    pub(crate) fn paper_words(&self) -> usize {
        self.paper_names.len().div_ceil(64)
    }

    /// The other nodes sharing at least one paper with `node`, ascending.
    pub fn co_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node].co
    }

    /// Distinct papers across the nodes of `path` — the support a
    /// ranked path is scored by.
    pub fn support(&self, path: &[NodeId]) -> usize {
        (0..self.paper_words())
            .map(|w| {
                let union = path
                    .iter()
                    .fold(0u64, |acc, &n| acc | self.nodes[n].paper_set.get(w).copied().unwrap_or(0));
                union.count_ones() as usize
            })
            .sum()
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Nodes whose label normalizes to the same key as `term`
    /// (`Vaccine` finds `Vaccine(s)`, §4.2's normalized NLP matching).
    pub fn find_by_term(&self, term: &str) -> Vec<NodeId> {
        let norm = normalize_term(term);
        if norm.is_empty() {
            return Vec::new();
        }
        self.term_index.get(&norm.key()).cloned().unwrap_or_default()
    }

    /// Same, restricted to children of `parent`.
    pub fn find_child_by_term(&self, parent: NodeId, term: &str) -> Option<NodeId> {
        let norm = normalize_term(term);
        self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| normalize_term(&self.nodes[c].label) == norm)
    }

    /// Path from the root to `node` (first parent chain). Used for path
    /// highlighting in the front-end.
    pub fn path_to_root(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = vec![node];
        let mut cur = node;
        let mut guard = 0;
        while let Some(&parent) = self.nodes[cur].parents.first() {
            path.push(parent);
            cur = parent;
            guard += 1;
            if guard > self.nodes.len() {
                break; // cycle guard; the API prevents cycles but stay safe
            }
        }
        path.reverse();
        path
    }

    /// Substring/stem search over labels; returns hits with highlighted
    /// paths, ordered by node id.
    ///
    /// Executes from the incrementally-maintained label indexes: stem
    /// postings intersected for stem-containment, the normalized-term
    /// index for exact matches, and a lowercased-trigram index for
    /// substring candidates — each candidate then verified against the
    /// exact scan predicate, so results are provably identical to
    /// [`KnowledgeGraph::search_scan`] (pinned by a unit test here and
    /// the seeded property test in `tests/query_prop.rs`). Queries too
    /// short to have a trigram fall back to the scan.
    pub fn search(&self, query: &str) -> Vec<SearchHit> {
        let qnorm = normalize_term(query);
        if qnorm.is_empty() {
            return Vec::new();
        }
        let qlower = query.to_lowercase();
        if qlower.len() < 3 {
            return self.search_scan(query);
        }
        let mut cands: Vec<NodeId> = Vec::new();
        // Substring candidates: nodes containing every query trigram.
        cands.extend(self.intersect_postings(
            trigrams(&qlower).map(|t| self.trigram_index.get(&t)),
        ));
        // Exact normalized match.
        if let Some(ids) = self.term_index.get(&qnorm.key()) {
            cands.extend_from_slice(ids);
        }
        // Stem containment: nodes whose label stems cover the query's.
        if !qnorm.stems.is_empty() {
            cands.extend(self.intersect_postings(
                qnorm.stems.iter().map(|s| self.stem_index.get(s)),
            ));
        }
        cands.sort_unstable();
        cands.dedup();
        cands
            .into_iter()
            .filter(|&id| self.matches_query(id, &qlower, &qnorm))
            .map(|id| SearchHit { node: id, path: self.path_to_root(id) })
            .collect()
    }

    /// The original linear scan, kept as the equivalence oracle for the
    /// index-backed [`KnowledgeGraph::search`].
    pub fn search_scan(&self, query: &str) -> Vec<SearchHit> {
        let qnorm = normalize_term(query);
        if qnorm.is_empty() {
            return Vec::new();
        }
        let qlower = query.to_lowercase();
        self.nodes
            .iter()
            .filter(|n| self.matches_query(n.id, &qlower, &qnorm))
            .map(|n| SearchHit {
                node: n.id,
                path: self.path_to_root(n.id),
            })
            .collect()
    }

    /// The one search predicate both paths share.
    fn matches_query(&self, id: NodeId, qlower: &str, qnorm: &NormalizedTerm) -> bool {
        let n = &self.nodes[id];
        let nnorm = normalize_term(&n.label);
        n.label.to_lowercase().contains(qlower) || nnorm == *qnorm || contains_all(&nnorm, qnorm)
    }

    /// Intersect posting lists (each ascending by construction); any
    /// missing list empties the result.
    fn intersect_postings<'a>(
        &self,
        lists: impl Iterator<Item = Option<&'a Vec<NodeId>>>,
    ) -> Vec<NodeId> {
        let mut acc: Option<Vec<NodeId>> = None;
        for list in lists {
            let Some(list) = list else { return Vec::new() };
            acc = Some(match acc {
                None => list.clone(),
                Some(prev) => prev
                    .into_iter()
                    .filter(|id| list.binary_search(id).is_ok())
                    .collect(),
            });
            if acc.as_ref().is_some_and(Vec::is_empty) {
                return Vec::new();
            }
        }
        acc.unwrap_or_default()
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, node: NodeId) -> usize {
        self.path_to_root(node).len().saturating_sub(1)
    }

    /// Render the hierarchy as an indented tree down to `max_depth`
    /// (root = depth 0), the textual form of the №9/10 interactive
    /// browse. Nodes with children beyond the depth limit show a
    /// collapsed marker with the hidden-subtree size, mirroring the
    /// front-end's expand/collapse affordance.
    pub fn render_tree(&self, from: NodeId, max_depth: usize) -> String {
        let mut out = String::new();
        self.render_rec(from, 0, max_depth, &mut out, &mut vec![false; self.nodes.len()]);
        out
    }

    fn render_rec(
        &self,
        node: NodeId,
        depth: usize,
        max_depth: usize,
        out: &mut String,
        visited: &mut Vec<bool>,
    ) {
        // Multi-parent nodes appear once; later encounters show a ref.
        use std::fmt::Write as _;
        let n = &self.nodes[node];
        let prov = if n.papers.is_empty() {
            String::new()
        } else {
            format!("  [{} papers]", n.papers.len())
        };
        if visited[node] {
            let _ = writeln!(out, "{}{} (↟ shared)", "  ".repeat(depth), n.label);
            return;
        }
        visited[node] = true;
        let _ = writeln!(out, "{}{}{}", "  ".repeat(depth), n.label, prov);
        if depth >= max_depth {
            if !n.children.is_empty() {
                let hidden = self.subtree_size(node) - 1;
                let _ = writeln!(out, "{}▸ {} more…", "  ".repeat(depth + 1), hidden);
            }
            return;
        }
        for &c in &n.children {
            self.render_rec(c, depth + 1, max_depth, out, visited);
        }
    }

    /// Number of nodes in the subtree under `node` (including it; shared
    /// descendants counted once).
    pub fn subtree_size(&self, node: NodeId) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![node];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if seen[n] {
                continue;
            }
            seen[n] = true;
            count += 1;
            stack.extend(self.nodes[n].children.iter().copied());
        }
        count
    }

    /// Node detail view: path, kind, confidence and the publications the
    /// knowledge came from ("the nodes along the path provide access to
    /// the publications", §5).
    pub fn render_node(&self, node: NodeId) -> String {
        use std::fmt::Write as _;
        let n = &self.nodes[node];
        let mut out = String::new();
        let path: Vec<&str> = self
            .path_to_root(node)
            .iter()
            .map(|&p| self.nodes[p].label.as_str())
            .collect();
        let _ = writeln!(out, "{}", path.join(" → "));
        let _ = writeln!(
            out,
            "kind: {:?}   confidence: {:.2}   children: {}",
            n.kind,
            n.confidence,
            n.children.len()
        );
        if n.papers.is_empty() {
            let _ = writeln!(out, "provenance: (seeded by expert)");
        } else {
            let papers: Vec<&str> = self.provenance(node).collect();
            let _ = writeln!(out, "provenance: {}", papers.join(", "));
        }
        out
    }

    /// Serialize the whole graph to JSON.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.nodes
                .iter()
                .map(|n| {
                    obj! {
                        "id" => n.id,
                        "label" => n.label.clone(),
                        "kind" => n.kind.as_str(),
                        "parents" => Value::Array(n.parents.iter().map(|&p| Value::int(p as i64)).collect()),
                        "provenance" => Value::Array(self.provenance(n.id).map(Value::str).collect()),
                        "confidence" => n.confidence,
                    }
                })
                .collect(),
        )
    }

    /// Rebuild a graph from [`KnowledgeGraph::to_json`] output.
    pub fn from_json(v: &Value) -> Option<KnowledgeGraph> {
        let items = v.as_array()?;
        let mut kg = KnowledgeGraph::new();
        for (expect_id, item) in items.iter().enumerate() {
            let id = item.get("id")?.as_i64()? as usize;
            if id != expect_id {
                return None;
            }
            let label = item.get("label")?.as_str()?.to_string();
            let kind = NodeKind::parse(item.get("kind")?.as_str()?)?;
            let parents = item
                .get("parents")?
                .as_array()?
                .iter()
                .filter_map(|p| p.as_i64().map(|i| i as usize))
                .collect();
            let confidence = item.get("confidence")?.as_f64()?;
            kg.push_node(label, kind, parents, confidence);
            for paper in item.get("provenance")?.as_array()?.iter().filter_map(Value::as_str) {
                kg.add_provenance(id, paper);
            }
        }
        // Rebuild child lists.
        for id in 0..kg.nodes.len() {
            for p in kg.nodes[id].parents.clone() {
                if p >= kg.nodes.len() {
                    return None;
                }
                kg.nodes[p].children.push(id);
            }
        }
        Some(kg)
    }
}

fn contains_all(hay: &NormalizedTerm, needles: &NormalizedTerm) -> bool {
    !needles.stems.is_empty() && needles.stems.iter().all(|s| hay.stems.contains(s))
}

/// Insert into an ascending, duplicate-free list, keeping it so.
fn insert_sorted(ids: &mut Vec<NodeId>, id: NodeId) {
    if let Err(at) = ids.binary_search(&id) {
        ids.insert(at, id);
    }
}

/// Byte trigrams of a string (empty for strings shorter than 3 bytes).
/// Operating on bytes is sound for the substring candidate set: if
/// `q` is a `str` substring of `label`, every byte trigram of `q`
/// occurs in `label`'s bytes.
fn trigrams(s: &str) -> impl Iterator<Item = [u8; 3]> + '_ {
    s.as_bytes().windows(3).map(|w| [w[0], w[1], w[2]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let root = kg.add_root("COVID-19");
        let vaccines = kg.add_child(root, "Vaccine(s)", NodeKind::Category, 1.0);
        let pfizer = kg.add_child(vaccines, "Pfizer", NodeKind::Entity, 1.0);
        kg.add_provenance(pfizer, "paper-000001");
        let symptoms = kg.add_child(root, "Symptoms", NodeKind::Category, 1.0);
        kg.add_child(symptoms, "Fever", NodeKind::Entity, 0.9);
        kg
    }

    #[test]
    fn structure_and_accessors() {
        let kg = sample();
        assert_eq!(kg.len(), 5);
        assert_eq!(kg.node(0).kind, NodeKind::Root);
        assert_eq!(kg.node(1).parents, [0]);
        assert_eq!(kg.node(0).children, [1, 3]);
        assert_eq!(kg.depth(2), 2);
        assert_eq!(kg.provenance(2).collect::<Vec<_>>(), ["paper-000001"]);
    }

    #[test]
    fn normalized_term_lookup() {
        let kg = sample();
        // "Vaccine" must find "Vaccine(s)" — the paper's own example.
        assert_eq!(kg.find_by_term("Vaccine"), [1]);
        assert_eq!(kg.find_by_term("vaccines"), [1]);
        assert!(kg.find_by_term("ventilator").is_empty());
        assert!(kg.find_by_term("...").is_empty());
    }

    #[test]
    fn find_child_scoped_to_parent() {
        let kg = sample();
        assert_eq!(kg.find_child_by_term(1, "pfizer"), Some(2));
        assert_eq!(kg.find_child_by_term(3, "pfizer"), None);
    }

    #[test]
    fn path_highlighting() {
        let kg = sample();
        let hits = kg.search("fever");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path, vec![0, 3, 4]);
    }

    #[test]
    fn search_matches_stems_and_substrings() {
        let kg = sample();
        assert_eq!(kg.search("vaccine").len(), 1);
        assert_eq!(kg.search("vacc").len(), 1); // substring
        assert!(kg.search("").is_empty());
        assert!(kg.search("zzz").is_empty());
    }

    #[test]
    fn indexed_search_identical_to_scan() {
        let mut kg = sample();
        // Mutate through every topology entry point: the indexes must
        // stay in sync with add_child/add_parent/add_provenance.
        let side = kg.add_child(0, "Side-effects", NodeKind::Category, 1.0);
        kg.add_parent(4, side);
        kg.add_child(side, "Rash and swelling", NodeKind::Entity, 0.7);
        kg.add_provenance(side, "paper-000009");
        let json_round_trip = KnowledgeGraph::from_json(&kg.to_json()).unwrap();
        for g in [&kg, &json_round_trip] {
            for q in [
                "vaccine", "vacc", "VACCINE(S)", "fever", "side effects", "effects side",
                "swelling rash", "rash", "ras", "sw", "e", "", "zzz", "covid-19", "covid",
                "-19", "(s)", "symptoms fever", "…", "paper",
            ] {
                let indexed: Vec<_> = g.search(q);
                let scanned: Vec<_> = g.search_scan(q);
                assert_eq!(indexed, scanned, "query {q:?}");
            }
        }
    }

    #[test]
    fn multi_parent_categorization() {
        let mut kg = sample();
        // Fever is both a Symptom and a Side-effect.
        let side = kg.add_child(0, "Side-effects", NodeKind::Category, 1.0);
        kg.add_parent(4, side);
        assert_eq!(kg.node(4).parents, [3, side]);
        assert!(kg.node(side).children.contains(&4));
        // Idempotent.
        kg.add_parent(4, side);
        assert_eq!(kg.node(4).parents.len(), 2);
        // Path uses the first parent.
        assert_eq!(kg.path_to_root(4), vec![0, 3, 4]);
    }

    #[test]
    fn provenance_dedupes() {
        let mut kg = sample();
        kg.add_provenance(2, "paper-000001");
        assert_eq!(kg.provenance(2).len(), 1);
        kg.add_provenance(2, "paper-000002");
        assert_eq!(kg.provenance(2).len(), 2);
    }

    #[test]
    fn render_tree_indents_and_collapses() {
        let kg = sample();
        let full = kg.render_tree(0, 5);
        assert!(full.contains("COVID-19\n"));
        assert!(full.contains("  Vaccine(s)"));
        assert!(full.contains("    Pfizer  [1 papers]"));
        // Depth-limited view collapses with a count.
        let shallow = kg.render_tree(0, 0);
        assert!(shallow.contains("▸ 4 more…"), "{shallow}");
        assert!(!shallow.contains("Pfizer"));
    }

    #[test]
    fn render_tree_handles_shared_nodes() {
        let mut kg = sample();
        let side = kg.add_child(0, "Side-effects", NodeKind::Category, 1.0);
        kg.add_parent(4, side); // Fever shared
        let text = kg.render_tree(0, 5);
        assert!(text.contains("(↟ shared)"), "{text}");
    }

    #[test]
    fn subtree_size_counts_unique_nodes() {
        let kg = sample();
        assert_eq!(kg.subtree_size(0), 5);
        assert_eq!(kg.subtree_size(1), 2);
        assert_eq!(kg.subtree_size(2), 1);
    }

    #[test]
    fn node_detail_shows_path_and_provenance() {
        let kg = sample();
        let detail = kg.render_node(2);
        assert!(detail.contains("COVID-19 → Vaccine(s) → Pfizer"));
        assert!(detail.contains("paper-000001"));
        let seeded = kg.render_node(1);
        assert!(seeded.contains("seeded by expert"));
    }

    #[test]
    fn json_round_trip() {
        let kg = sample();
        let j = kg.to_json();
        let back = KnowledgeGraph::from_json(&j).unwrap();
        assert_eq!(back.len(), kg.len());
        assert_eq!(back.node(2).label, "Pfizer");
        assert_eq!(back.provenance(2).collect::<Vec<_>>(), ["paper-000001"]);
        assert_eq!(back.node(0).children, kg.node(0).children);
        assert_eq!(back.find_by_term("vaccine"), [1]);
        assert_eq!(back.path_to_root(4), kg.path_to_root(4));
    }

    #[test]
    fn change_journal_reports_growth_once() {
        let mut kg = KnowledgeGraph::from_json(&sample().to_json()).unwrap();
        let first = kg.take_changed();
        assert!(first.fresh, "a graph read back is new to every view");
        assert_eq!(first.nodes, (0..kg.len()).collect::<Vec<_>>());
        assert_eq!(kg.take_changed(), GraphChanges::default(), "nothing since");
        kg.add_provenance(2, "paper-000001"); // already carried
        kg.add_parent(4, 2);
        kg.add_provenance(3, "paper-9");
        let child = kg.add_child(3, "Chills", NodeKind::Entity, 0.9);
        let changes = kg.take_changed();
        assert!(!changes.fresh);
        assert_eq!(changes.nodes, [2, 3, 4, child]);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(KnowledgeGraph::from_json(&Value::int(3)).is_none());
        assert!(KnowledgeGraph::from_json(&covidkg_json::arr![obj! { "id" => 5 }]).is_none());
    }

    #[test]
    #[should_panic(expected = "root must be the first")]
    fn double_root_panics() {
        let mut kg = sample();
        kg.add_root("another");
    }

    #[test]
    #[should_panic(expected = "unknown parent")]
    fn bad_parent_panics() {
        let mut kg = KnowledgeGraph::new();
        kg.add_root("r");
        kg.add_child(99, "x", NodeKind::Entity, 1.0);
    }
}
