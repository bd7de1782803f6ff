//! The §4.2 fusion algorithm.
//!
//! "The first step of fusing the extracted hierarchical knowledge into
//! the KG is matching the root node of the extracted subtree to the
//! corresponding node(s) in the KG. This matching process is based on
//! normalized NLP term matching, amended by the embedding-driven
//! matching. The latter is especially important in context of new terms,
//! unseen before …"
//!
//! Rules implemented exactly as the paper lays them out:
//!
//! * single-layer subtrees whose root term-matches a KG node fuse their
//!   leaves unsupervised ("fusion of leaves with nodes matched with high
//!   confidence score may be left unsupervised");
//! * when no term match exists, the leaves' embedding vectors are
//!   compared against existing KG leaves; a close match proposes the
//!   matched leaves' parent, but the *insertion of new nodes* still goes
//!   to the expert queue (№14);
//! * multi-layer subtrees (e.g. `Side-effects → Children side-effects →
//!   Rash`) always queue — qualified categories stay separate even when
//!   their leaves overlap the general category;
//! * expert decisions are remembered: "Over time, all categories of
//!   initial fusion mistakes identified by the expert will be learned by
//!   the fusion module to be automatically corrected, hence most of the
//!   fusion is expected to become minimally supervised."

use crate::extract::ExtractedTree;
use crate::graph::{KnowledgeGraph, NodeId, NodeKind};
use covidkg_ml::word2vec::cosine;
use covidkg_ml::Word2Vec;
use covidkg_text::{normalize_term, tokenize_lower};
use std::collections::HashMap;

/// Fusion tuning knobs.
#[derive(Debug, Clone)]
pub struct FusionConfig {
    /// Minimum leaf-embedding cosine for a leaf to cast a vote.
    pub embed_threshold: f32,
    /// Minimum gap between a leaf's best-parent similarity and its best
    /// similarity to any *other* parent's leaves (kills category-agnostic
    /// leaves like "Total" that sit near everything).
    pub embed_margin: f32,
    /// Confidence recorded on auto-fused leaves.
    pub auto_confidence: f64,
    /// Disable the embedding fallback (the E6 ablation arm).
    pub use_embeddings: bool,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            embed_threshold: 0.9,
            embed_margin: 0.1,
            auto_confidence: 0.8,
            use_embeddings: true,
        }
    }
}

/// What happened to a submitted subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionOutcome {
    /// Leaves fused under an existing node without supervision.
    AutoFused {
        /// Parent the leaves went under.
        parent: NodeId,
        /// Leaves newly added (existing ones only gain provenance).
        added: usize,
        /// True when the parent came from the correction memory.
        via_memory: bool,
        /// True when the parent was found by embedding matching.
        via_embedding: bool,
    },
    /// Sent to the expert review queue.
    Queued {
        /// Index in the pending queue.
        ticket: usize,
        /// Why it queued.
        reason: QueueReason,
    },
    /// Dropped: no usable content.
    Discarded,
}

/// Why a subtree reached the review queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueReason {
    /// The subtree has intermediate layers (always expert-reviewed).
    MultiLayer,
    /// The root is unseen and a new category node would be inserted.
    NewNode,
    /// Several KG nodes matched the root ambiguously.
    Ambiguous,
}

/// A queued fusion awaiting expert review.
#[derive(Debug, Clone)]
pub struct PendingFusion {
    /// The extracted subtree.
    pub tree: ExtractedTree,
    /// Parent proposed by embedding matching, if any.
    pub proposed_parent: Option<NodeId>,
    /// Queue reason.
    pub reason: QueueReason,
}

/// The expert's verdict on a pending fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpertDecision {
    /// Fuse under this existing node.
    AttachUnder(NodeId),
    /// Create the subtree's root as a new child of this node, then fuse.
    CreateUnder(NodeId),
    /// Reject the subtree entirely.
    Reject,
}

/// Anything that can play the reviewing expert (№14 in Fig 1).
pub trait ExpertOracle {
    /// Review one pending fusion.
    fn review(&mut self, kg: &KnowledgeGraph, pending: &PendingFusion) -> ExpertDecision;
}

/// A scripted expert driven by ground truth: maps normalized root terms to
/// canonical KG category labels. Substitutes for the human expert in
/// experiments (see DESIGN.md substitutions). An optional error-injection
/// mode makes a seeded fraction of reviews wrong, modeling a fallible
/// human so the correction-memory machinery can be tested for robustness.
#[derive(Debug, Clone, Default)]
pub struct ScriptedExpert {
    /// normalized root key → canonical category label in the KG.
    mapping: HashMap<String, String>,
    /// Reviews performed (supervision cost metric).
    pub reviews: usize,
    /// Wrong reviews issued by the error-injection mode.
    pub errors: usize,
    /// Probability of a wrong decision, with the LCG state driving it.
    error: Option<(f64, u64)>,
}

impl ScriptedExpert {
    /// Expert with a ground-truth mapping (`root term → category label`).
    pub fn new(pairs: &[(&str, &str)]) -> ScriptedExpert {
        ScriptedExpert {
            mapping: pairs
                .iter()
                .map(|(k, v)| (normalize_term(k).key(), v.to_string()))
                .collect(),
            reviews: 0,
            errors: 0,
            error: None,
        }
    }

    /// Enable error injection: each review is wrong with probability
    /// `rate` (deterministic per `seed`).
    pub fn with_error_rate(mut self, rate: f64, seed: u64) -> ScriptedExpert {
        self.error = Some((rate, seed | 1));
        self
    }

    /// Advance the internal LCG; returns true when this review should err.
    fn roll_error(&mut self) -> bool {
        let Some((rate, state)) = &mut self.error else {
            return false;
        };
        // Minimal LCG (Numerical Recipes constants) — dependency-free and
        // deterministic across platforms.
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let draw = (*state >> 11) as f64 / (1u64 << 53) as f64;
        draw < *rate
    }
}

impl ExpertOracle for ScriptedExpert {
    fn review(&mut self, kg: &KnowledgeGraph, pending: &PendingFusion) -> ExpertDecision {
        self.reviews += 1;
        if self.roll_error() {
            self.errors += 1;
            // A wrong-but-plausible decision: dump the subtree at the root.
            return ExpertDecision::CreateUnder(0);
        }
        let key = normalize_term(&pending.tree.root).key();
        if let Some(label) = self.mapping.get(&key) {
            if let Some(&node) = kg.find_by_term(label).first() {
                return ExpertDecision::AttachUnder(node);
            }
        }
        if let Some(parent) = pending.proposed_parent {
            return ExpertDecision::AttachUnder(parent);
        }
        // Fall back to creating the category under the root.
        ExpertDecision::CreateUnder(0)
    }
}

/// Running counters for the E6 experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Subtrees fused without supervision.
    pub auto_fused: usize,
    /// … of which via correction memory.
    pub via_memory: usize,
    /// … of which via embedding matching.
    pub via_embedding: usize,
    /// Subtrees queued for expert review.
    pub queued: usize,
    /// Expert reviews resolved.
    pub reviewed: usize,
    /// Subtrees discarded.
    pub discarded: usize,
    /// Leaf nodes added to the graph.
    pub leaves_added: usize,
}

impl FusionStats {
    /// Fraction of submissions that needed the expert.
    pub fn supervision_rate(&self) -> f64 {
        let total = self.auto_fused + self.queued + self.discarded;
        if total == 0 {
            0.0
        } else {
            self.queued as f64 / total as f64
        }
    }
}

/// The fusion engine, owning the graph it grows.
pub struct FusionEngine<'w> {
    kg: KnowledgeGraph,
    cfg: FusionConfig,
    embeddings: Option<&'w Word2Vec>,
    /// Learned corrections: normalized root key → parent node.
    memory: HashMap<String, NodeId>,
    queue: Vec<PendingFusion>,
    stats: FusionStats,
}

impl<'w> FusionEngine<'w> {
    /// Engine over an initial graph, optionally with embeddings for the
    /// unseen-term fallback.
    pub fn new(kg: KnowledgeGraph, embeddings: Option<&'w Word2Vec>, cfg: FusionConfig) -> Self {
        FusionEngine {
            kg,
            cfg,
            embeddings,
            memory: HashMap::new(),
            queue: Vec::new(),
            stats: FusionStats::default(),
        }
    }

    /// The graph so far.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.kg
    }

    /// Consume the engine, returning the graph.
    pub fn into_graph(self) -> KnowledgeGraph {
        self.kg
    }

    /// Consume the engine, returning the graph and the learned correction
    /// memory — callers doing incremental ingest (№12 in Fig 1) restore
    /// the memory into the next engine so supervision keeps decreasing
    /// across sessions.
    pub fn into_parts(self) -> (KnowledgeGraph, HashMap<String, NodeId>) {
        (self.kg, self.memory)
    }

    /// Restore a previously learned correction memory.
    pub fn set_memory(&mut self, memory: HashMap<String, NodeId>) {
        self.memory = memory;
    }

    /// Running statistics.
    pub fn stats(&self) -> FusionStats {
        self.stats
    }

    /// Pending review tickets.
    pub fn pending(&self) -> &[PendingFusion] {
        &self.queue
    }

    /// Submit one extracted subtree.
    pub fn fuse(&mut self, tree: ExtractedTree) -> FusionOutcome {
        if tree.leaves.is_empty() || tree.root.trim().is_empty() {
            self.stats.discarded += 1;
            return FusionOutcome::Discarded;
        }
        let key = normalize_term(&tree.root).key();

        // Multi-layer subtrees always need the expert (§4.2: "Fusion of
        // sub-trees, having several layers … will have to be evaluated by
        // a human expert").
        if tree.is_multi_layer() {
            return self.enqueue(tree, None, QueueReason::MultiLayer);
        }

        // 0. Correction memory (expert-derived: high confidence).
        if let Some(&parent) = self.memory.get(&key) {
            let added = self.attach_leaves_with(parent, &tree, 0.9);
            self.stats.auto_fused += 1;
            self.stats.via_memory += 1;
            return FusionOutcome::AutoFused {
                parent,
                added,
                via_memory: true,
                via_embedding: false,
            };
        }

        // 1. Normalized NLP term matching on the root.
        let matches = self.kg.find_by_term(&tree.root);
        match matches.len() {
            1 => {
                let parent = matches[0];
                // Normalized term matches are the paper's gold standard.
                let added = self.attach_leaves_with(parent, &tree, 1.0);
                self.stats.auto_fused += 1;
                FusionOutcome::AutoFused {
                    parent,
                    added,
                    via_memory: false,
                    via_embedding: false,
                }
            }
            0 => {
                // 2. Embedding fallback: match the subtree's leaves to
                // existing KG leaves; their parent is the proposal.
                let proposal = if self.cfg.use_embeddings {
                    self.embedding_proposal(&tree)
                } else {
                    None
                };
                match proposal {
                    Some((parent, sim)) => {
                        // The root term itself is unseen, so attaching the
                        // leaves under the matched parent is the paper's
                        // NovoVac scenario; leaf-level fusion with a high
                        // confidence match stays unsupervised, recording
                        // the embedding similarity as the confidence.
                        let added =
                            self.attach_leaves_with(parent, &tree, f64::from(sim).clamp(0.0, 1.0));
                        self.memory.insert(key, parent);
                        self.stats.auto_fused += 1;
                        self.stats.via_embedding += 1;
                        FusionOutcome::AutoFused {
                            parent,
                            added,
                            via_memory: false,
                            via_embedding: true,
                        }
                    }
                    None => self.enqueue(tree, None, QueueReason::NewNode),
                }
            }
            _ => self.enqueue(tree, None, QueueReason::Ambiguous),
        }
    }

    /// Resolve every queued fusion with the expert, learning corrections.
    /// Returns the number of tickets resolved.
    pub fn process_reviews(&mut self, expert: &mut dyn ExpertOracle) -> usize {
        let queue = std::mem::take(&mut self.queue);
        let n = queue.len();
        for pending in queue {
            let decision = expert.review(&self.kg, &pending);
            self.stats.reviewed += 1;
            let key = normalize_term(&pending.tree.root).key();
            match decision {
                ExpertDecision::AttachUnder(parent) => {
                    self.apply_layers_then_leaves(parent, &pending.tree);
                    self.memory.insert(key, parent);
                }
                ExpertDecision::CreateUnder(grandparent) => {
                    let parent = self.kg.add_child(
                        grandparent,
                        pending.tree.root.clone(),
                        NodeKind::Category,
                        self.cfg.auto_confidence,
                    );
                    self.apply_layers_then_leaves(parent, &pending.tree);
                    self.memory.insert(key, parent);
                }
                ExpertDecision::Reject => {
                    self.stats.discarded += 1;
                }
            }
        }
        n
    }

    /// Walk/create the intermediate layer chain, then attach the leaves.
    fn apply_layers_then_leaves(&mut self, mut parent: NodeId, tree: &ExtractedTree) {
        for layer in &tree.layers {
            parent = match self.kg.find_child_by_term(parent, layer) {
                Some(existing) => existing,
                // §4.2: the qualified category is added even if its leaves
                // overlap the general category's.
                None => self.kg.add_child(
                    parent,
                    layer.clone(),
                    NodeKind::Category,
                    self.cfg.auto_confidence,
                ),
            };
        }
        self.attach_leaves(parent, tree);
    }

    /// Merge leaves under `parent`: existing leaves gain provenance, new
    /// ones become Entity children. Returns the number added.
    fn attach_leaves(&mut self, parent: NodeId, tree: &ExtractedTree) -> usize {
        self.attach_leaves_with(parent, tree, self.cfg.auto_confidence)
    }

    /// Like [`Self::attach_leaves`] but recording an explicit per-match
    /// confidence (§4.2 grades matches by "high confidence score"; term
    /// matches score 1.0, memory-driven fusions 0.9, embedding matches
    /// carry their mean cosine).
    fn attach_leaves_with(
        &mut self,
        parent: NodeId,
        tree: &ExtractedTree,
        confidence: f64,
    ) -> usize {
        let mut added = 0;
        for leaf in &tree.leaves {
            let node = match self.kg.find_child_by_term(parent, leaf) {
                Some(existing) => existing,
                None => {
                    added += 1;
                    self.kg
                        .add_child(parent, leaf.clone(), NodeKind::Entity, confidence)
                }
            };
            self.kg.add_provenance(node, &tree.paper_id);
        }
        self.stats.leaves_added += added;
        added
    }

    fn enqueue(
        &mut self,
        tree: ExtractedTree,
        proposed_parent: Option<NodeId>,
        reason: QueueReason,
    ) -> FusionOutcome {
        // Even for queued trees, try to give the expert a proposal.
        let proposed = proposed_parent.or_else(|| {
            if self.cfg.use_embeddings {
                self.embedding_proposal(&tree).map(|(p, _)| p)
            } else {
                None
            }
        });
        self.queue.push(PendingFusion {
            tree,
            proposed_parent: proposed,
            reason,
        });
        self.stats.queued += 1;
        FusionOutcome::Queued {
            ticket: self.queue.len() - 1,
            reason,
        }
    }

    /// Embedding-driven matching (§4.2): each new leaf votes for the
    /// parent of its most similar existing Entity leaf, but only when the
    /// similarity is high **and** clearly separated from the next-best
    /// parent (category-agnostic strings like `Total` sit moderately
    /// close to everything and must abstain). The proposal stands when a
    /// strict majority of leaves votes for the same parent.
    fn embedding_proposal(&self, tree: &ExtractedTree) -> Option<(NodeId, f32)> {
        let w2v = self.embeddings?;
        let new_vecs: Vec<Vec<f32>> = tree
            .leaves
            .iter()
            .map(|l| w2v.embed_phrase(&tokenize_lower(l)))
            .filter(|v| v.iter().any(|&x| x != 0.0))
            .collect();
        if new_vecs.is_empty() {
            return None;
        }
        // Existing leaves with embeddings, tagged by parent.
        let entities: Vec<(NodeId, Vec<f32>)> = self
            .kg
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::Entity && !n.parents.is_empty())
            .filter_map(|n| {
                let v = w2v.embed_phrase(&tokenize_lower(&n.label));
                v.iter().any(|&x| x != 0.0).then_some((n.parents[0], v))
            })
            .collect();
        if entities.is_empty() {
            return None;
        }
        let mut votes: std::collections::HashMap<NodeId, (f32, usize)> =
            std::collections::HashMap::new();
        for v in &new_vecs {
            // Best similarity per candidate parent.
            let mut per_parent: std::collections::HashMap<NodeId, f32> =
                std::collections::HashMap::new();
            for (parent, existing) in &entities {
                let sim = cosine(v, existing);
                let slot = per_parent.entry(*parent).or_insert(f32::MIN);
                if sim > *slot {
                    *slot = sim;
                }
            }
            let mut ranked: Vec<(NodeId, f32)> = per_parent.into_iter().collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let (best_parent, best_sim) = ranked[0];
            let runner_up = ranked.get(1).map_or(f32::MIN, |&(_, s)| s);
            if best_sim >= self.cfg.embed_threshold
                && best_sim - runner_up >= self.cfg.embed_margin
            {
                let slot = votes.entry(best_parent).or_insert((0.0, 0));
                slot.0 += best_sim;
                slot.1 += 1;
            }
        }
        let (parent, (sum, n)) = votes.into_iter().max_by(|a, b| {
            a.1 .1
                .cmp(&b.1 .1)
                .then(a.1 .0.partial_cmp(&b.1 .0).unwrap_or(std::cmp::Ordering::Equal))
        })?;
        // Strict majority of all leaves must have voted for this parent.
        (n * 2 > new_vecs.len()).then(|| (parent, sum / n as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::seed_graph;
    use covidkg_ml::{Word2Vec, Word2VecConfig};

    fn tree(root: &str, leaves: &[&str], paper: &str) -> ExtractedTree {
        ExtractedTree {
            root: root.to_string(),
            layers: Vec::new(),
            leaves: leaves.iter().map(|s| s.to_string()).collect(),
            paper_id: paper.to_string(),
        }
    }

    #[test]
    fn term_match_fuses_unsupervised() {
        // The paper's example: root `Vaccine` matches KG node `Vaccine(s)`.
        let mut engine = FusionEngine::new(seed_graph(), None, FusionConfig::default());
        let outcome = engine.fuse(tree("Vaccine", &["Pfizer", "NovoVac"], "p1"));
        let FusionOutcome::AutoFused { parent, added, via_memory, via_embedding } = outcome else {
            panic!("expected auto fusion, got {outcome:?}");
        };
        assert_eq!(added, 2);
        assert!(!via_memory && !via_embedding);
        let kg = engine.graph();
        assert_eq!(kg.node(parent).label, "Vaccine(s)");
        let novo = kg.find_by_term("NovoVac")[0];
        assert_eq!(kg.provenance(novo).collect::<Vec<_>>(), ["p1"]);
        assert_eq!(engine.stats().supervision_rate(), 0.0);
    }

    #[test]
    fn confidence_grades_by_match_kind() {
        let mut engine = FusionEngine::new(seed_graph(), None, FusionConfig::default());
        // Term match → confidence 1.0 on the new leaf.
        engine.fuse(tree("Vaccine", &["Pfizer"], "p1"));
        let pfizer = engine.graph().find_by_term("Pfizer")[0];
        assert_eq!(engine.graph().node(pfizer).confidence, 1.0);
        // Memory-driven fusion (after expert review) → 0.9.
        engine.fuse(tree("Jabs", &["Moderna"], "p2"));
        let mut expert = ScriptedExpert::new(&[("Jabs", "Vaccine(s)")]);
        engine.process_reviews(&mut expert);
        engine.fuse(tree("Jabs", &["Sputnik"], "p3"));
        let sputnik = engine.graph().find_by_term("Sputnik")[0];
        assert_eq!(engine.graph().node(sputnik).confidence, 0.9);
    }

    #[test]
    fn repeated_leaves_gain_provenance_not_duplicates() {
        let mut engine = FusionEngine::new(seed_graph(), None, FusionConfig::default());
        engine.fuse(tree("Vaccine", &["Pfizer"], "p1"));
        let before = engine.graph().len();
        engine.fuse(tree("Vaccines", &["Pfizer"], "p2"));
        assert_eq!(engine.graph().len(), before);
        let pfizer = engine.graph().find_by_term("Pfizer")[0];
        assert_eq!(engine.graph().provenance(pfizer).collect::<Vec<_>>(), ["p1", "p2"]);
    }

    #[test]
    fn multi_layer_always_queues() {
        let mut engine = FusionEngine::new(seed_graph(), None, FusionConfig::default());
        let t = ExtractedTree {
            root: "Side-effects".into(),
            layers: vec!["Children side-effects".into()],
            leaves: vec!["Rash".into()],
            paper_id: "p3".into(),
        };
        let outcome = engine.fuse(t);
        assert!(matches!(
            outcome,
            FusionOutcome::Queued { reason: QueueReason::MultiLayer, .. }
        ));
        assert_eq!(engine.pending().len(), 1);
    }

    #[test]
    fn expert_resolves_multi_layer_and_rash_stays_qualified() {
        let mut engine = FusionEngine::new(seed_graph(), None, FusionConfig::default());
        engine.fuse(ExtractedTree {
            root: "Side-effects".into(),
            layers: vec!["Children side-effects".into()],
            leaves: vec!["Rash".into()],
            paper_id: "p3".into(),
        });
        let mut expert = ScriptedExpert::new(&[("Side-effects", "Side-effects")]);
        let resolved = engine.process_reviews(&mut expert);
        assert_eq!(resolved, 1);
        assert_eq!(expert.reviews, 1);
        let kg = engine.graph();
        // Rash lives under Children side-effects, not the general node.
        let rash = kg.find_by_term("Rash")[0];
        let path_labels: Vec<&str> = kg
            .path_to_root(rash)
            .iter()
            .map(|&n| kg.node(n).label.as_str())
            .collect();
        assert!(path_labels.contains(&"Children side-effects"), "{path_labels:?}");
    }

    #[test]
    fn unseen_root_without_embeddings_queues_as_new_node() {
        let cfg = FusionConfig {
            use_embeddings: false,
            ..FusionConfig::default()
        };
        let mut engine = FusionEngine::new(seed_graph(), None, cfg);
        let outcome = engine.fuse(tree("Immunization products", &["NovoVac"], "p4"));
        assert!(matches!(
            outcome,
            FusionOutcome::Queued { reason: QueueReason::NewNode, .. }
        ));
    }

    /// The paper's NovoVac scenario: a brand-new term whose embedding sits
    /// near existing vaccines fuses under the vaccines node automatically.
    #[test]
    fn embedding_fallback_handles_unseen_terms() {
        // Train embeddings where "novovac" co-occurs with known vaccines.
        let sentences: Vec<Vec<String>> = (0..40)
            .map(|i| {
                let mut s = vec![
                    "pfizer".to_string(),
                    "moderna".to_string(),
                    "novovac".to_string(),
                    "dose".to_string(),
                ];
                s.rotate_left(i % 4);
                s
            })
            .chain((0..40).map(|i| {
                let mut s = vec![
                    "ventilator".to_string(),
                    "icu".to_string(),
                    "oxygen".to_string(),
                    "intubation".to_string(),
                ];
                s.rotate_left(i % 4);
                s
            }))
            .collect();
        let w2v = Word2Vec::train(
            &sentences,
            &Word2VecConfig {
                epochs: 25,
                ..Word2VecConfig::default()
            },
        );

        let mut kg = seed_graph();
        let vaccines = kg.find_by_term("Vaccine")[0];
        kg.add_child(vaccines, "Pfizer", NodeKind::Entity, 1.0);
        kg.add_child(vaccines, "Moderna", NodeKind::Entity, 1.0);

        // The toy corpus trains weaker vectors than the real pipeline, so
        // relax the vote threshold (the default 0.9 targets corpus-scale
        // embeddings).
        let cfg = FusionConfig {
            embed_threshold: 0.5,
            ..FusionConfig::default()
        };
        let mut engine = FusionEngine::new(kg, Some(&w2v), cfg);
        // Root "Immunization products" is unseen; leaf "novovac" is close
        // to pfizer/moderna in embedding space.
        let outcome = engine.fuse(tree("Immunization products", &["novovac"], "p5"));
        let FusionOutcome::AutoFused { parent, via_embedding, .. } = outcome else {
            panic!("expected embedding-driven fusion, got {outcome:?}");
        };
        assert!(via_embedding);
        assert_eq!(engine.graph().node(parent).label, "Vaccine(s)");
    }

    #[test]
    fn correction_memory_reduces_supervision() {
        let cfg = FusionConfig {
            use_embeddings: false,
            ..FusionConfig::default()
        };
        let mut engine = FusionEngine::new(seed_graph(), None, cfg);
        let mut expert = ScriptedExpert::new(&[("Jabs", "Vaccine(s)")]);

        // Round 1: unseen root queues, expert resolves.
        let o1 = engine.fuse(tree("Jabs", &["Pfizer"], "p1"));
        assert!(matches!(o1, FusionOutcome::Queued { .. }));
        engine.process_reviews(&mut expert);
        assert_eq!(expert.reviews, 1);

        // Round 2: same root now fuses from memory — no expert needed.
        let o2 = engine.fuse(tree("Jabs", &["Moderna"], "p2"));
        assert!(
            matches!(o2, FusionOutcome::AutoFused { via_memory: true, .. }),
            "{o2:?}"
        );
        assert_eq!(expert.reviews, 1, "no new reviews");
        let stats = engine.stats();
        assert_eq!(stats.via_memory, 1);
        assert!(stats.supervision_rate() < 0.51);
    }

    #[test]
    fn ambiguous_roots_queue() {
        let mut kg = seed_graph();
        // Create a second node normalizing like "Symptoms".
        let clinical = kg.find_by_term("Clinical presentation")[0];
        kg.add_child(clinical, "Symptom", NodeKind::Category, 1.0);
        let mut engine = FusionEngine::new(kg, None, FusionConfig::default());
        let outcome = engine.fuse(tree("Symptoms", &["Cough"], "p6"));
        assert!(matches!(
            outcome,
            FusionOutcome::Queued { reason: QueueReason::Ambiguous, .. }
        ));
    }

    #[test]
    fn empty_trees_are_discarded() {
        let mut engine = FusionEngine::new(seed_graph(), None, FusionConfig::default());
        assert_eq!(engine.fuse(tree("Vaccine", &[], "p")), FusionOutcome::Discarded);
        assert_eq!(engine.fuse(tree("  ", &["x"], "p")), FusionOutcome::Discarded);
        assert_eq!(engine.stats().discarded, 2);
    }

    #[test]
    fn erring_expert_is_deterministic_and_bounded() {
        let mut expert =
            ScriptedExpert::new(&[("Jabs", "Vaccine(s)")]).with_error_rate(0.5, 9);
        let cfg = FusionConfig {
            use_embeddings: false,
            ..FusionConfig::default()
        };
        let mut engine = FusionEngine::new(seed_graph(), None, cfg.clone());
        for i in 0..40 {
            engine.fuse(ExtractedTree {
                root: format!("Novel topic {i}"),
                layers: Vec::new(),
                leaves: vec![format!("Leaf {i}")],
                paper_id: "p".into(),
            });
            engine.process_reviews(&mut expert);
        }
        assert_eq!(expert.reviews, 40);
        assert!(
            (8..=32).contains(&expert.errors),
            "error injection out of band: {}",
            expert.errors
        );
        // Determinism per seed.
        let mut expert2 =
            ScriptedExpert::new(&[("Jabs", "Vaccine(s)")]).with_error_rate(0.5, 9);
        let mut engine2 = FusionEngine::new(seed_graph(), None, cfg);
        for i in 0..40 {
            engine2.fuse(ExtractedTree {
                root: format!("Novel topic {i}"),
                layers: Vec::new(),
                leaves: vec![format!("Leaf {i}")],
                paper_id: "p".into(),
            });
            engine2.process_reviews(&mut expert2);
        }
        assert_eq!(expert.errors, expert2.errors);
        // Even with errors, the graph stays rooted.
        let kg = engine.into_graph();
        for n in kg.nodes() {
            assert_eq!(kg.path_to_root(n.id)[0], 0);
        }
    }

    #[test]
    fn expert_create_under_builds_new_category() {
        let cfg = FusionConfig {
            use_embeddings: false,
            ..FusionConfig::default()
        };
        let mut engine = FusionEngine::new(seed_graph(), None, cfg);
        engine.fuse(tree("Long covid", &["Brain fog"], "p7"));
        // Expert without a mapping creates under root.
        let mut expert = ScriptedExpert::default();
        engine.process_reviews(&mut expert);
        let kg = engine.graph();
        let lc = kg.find_by_term("Long covid");
        assert_eq!(lc.len(), 1);
        assert_eq!(kg.path_to_root(lc[0]), vec![0, lc[0]]);
        assert_eq!(kg.find_by_term("Brain fog").len(), 1);
    }
}
