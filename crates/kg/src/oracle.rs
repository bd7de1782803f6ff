//! The query engine's equivalence oracle: a naive recursive exhaustive
//! DFS that collects *every* complete path, sorts, and truncates.
//!
//! It reads the graph the slow, obvious way — co-occurrence by a linear
//! scan comparing provenance strings, support by counting distinct
//! strings — and shares no code with [`crate::query`]'s engine beyond
//! the plan and result types, so a fault in the engine or in an index
//! the graph maintains for it shows up as a difference.

use crate::graph::{KnowledgeGraph, NodeId};
use crate::query::{HopRel, HopStep, QueryPlan, QueryResult, RankedPath, StartSet};
use covidkg_text::normalize_term;
use std::collections::BTreeSet;

/// Execute a plan exhaustively. Exists for equivalence tests.
pub fn execute_oracle(kg: &KnowledgeGraph, plan: &QueryPlan) -> QueryResult {
    let mut all = Vec::new();
    let mut hops = 0u64;
    let mut visited = 0u64;
    for n in start_nodes(kg, plan) {
        dfs(kg, plan, &mut vec![n], &mut all, &mut hops, &mut visited);
    }
    all.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.nodes.cmp(&b.nodes)));
    all.truncate(plan.k);
    QueryResult { paths: all, hops, visited }
}

fn dfs(
    kg: &KnowledgeGraph,
    plan: &QueryPlan,
    path: &mut Vec<NodeId>,
    all: &mut Vec<RankedPath>,
    hops: &mut u64,
    visited: &mut u64,
) {
    *visited += 1;
    let depth = path.len() - 1;
    if depth == plan.steps.len() {
        all.push(ranked(kg, path));
        return;
    }
    for n in successors(kg, path, &plan.steps[depth], plan.max_fanout) {
        *hops += 1;
        path.push(n);
        dfs(kg, plan, path, all, hops, visited);
        path.pop();
    }
}

/// The start set by a scan over every node: ascending, truncated to
/// `max_fanout`.
fn start_nodes(kg: &KnowledgeGraph, plan: &QueryPlan) -> Vec<NodeId> {
    let all = kg.nodes().iter();
    let mut ids: Vec<NodeId> = match &plan.start {
        StartSet::Term(t) => {
            let term = normalize_term(t);
            all.filter(|n| !term.is_empty() && normalize_term(&n.label).key() == term.key())
                .map(|n| n.id)
                .collect()
        }
        StartSet::Kind(k) => all.filter(|n| n.kind == *k).map(|n| n.id).collect(),
        StartSet::Node(id) => all.filter(|n| n.id == *id).map(|n| n.id).collect(),
    };
    ids.truncate(plan.max_fanout);
    ids
}

/// Candidates by relation, sorted by node id, deduplicated, filtered by
/// the step's predicates and the no-revisit rule, truncated.
fn successors(kg: &KnowledgeGraph, path: &[NodeId], step: &HopStep, max_fanout: usize) -> Vec<NodeId> {
    let from = kg.node(*path.last().expect("path never empty"));
    let mut cands: Vec<NodeId> = match step.rel {
        HopRel::Child => from.children.clone(),
        HopRel::Parent => from.parents.clone(),
        HopRel::Any => from.children.iter().chain(&from.parents).copied().collect(),
        HopRel::CoOccur => {
            let mine: BTreeSet<&str> = kg.provenance(from.id).collect();
            (0..kg.len())
                .filter(|&n| kg.provenance(n).any(|p| mine.contains(p)))
                .collect()
        }
    };
    cands.sort_unstable();
    cands.dedup();
    cands.retain(|&c| {
        !path.contains(&c)
            && step.kind.is_none_or(|k| kg.node(c).kind == k)
            && step
                .provenance
                .as_deref()
                .is_none_or(|paper| kg.provenance(c).any(|p| p == paper))
    });
    cands.truncate(max_fanout);
    cands
}

/// Score a complete path: distinct provenance strings across its
/// nodes, +1 floor, divided by path length.
fn ranked(kg: &KnowledgeGraph, path: &[NodeId]) -> RankedPath {
    let papers: BTreeSet<&str> = path.iter().flat_map(|&n| kg.provenance(n)).collect();
    let support = papers.len();
    RankedPath {
        nodes: path.to_vec(),
        labels: path.iter().map(|&n| kg.node(n).label.clone()).collect(),
        support,
        score: (support + 1) as f64 / path.len() as f64,
    }
}
