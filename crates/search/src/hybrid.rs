//! The dense retrieval modes: pure-semantic and hybrid lexical+dense.
//!
//! Semantic search embeds the query with the same Word2Vec model that
//! embeds documents (average of known token vectors) and asks the HNSW
//! index for the nearest documents by cosine — finding papers that share
//! *vocabulary distribution* with the query even when no query term
//! appears verbatim. Hybrid search union-merges those neighbors with the
//! lexical engine's top-k via reciprocal-rank fusion:
//!
//! ```text
//! fused(d) = Σ_lists 1 / (K + rank_list(d) + 1)        (K = 60)
//! ```
//!
//! RRF needs no score calibration between the two lists (lexical scores
//! are TF-IDF-ish sums, dense scores are cosines), degrades gracefully
//! when either list is empty, and rewards documents both retrievers
//! agree on. Ties break by `_id` ascending, the repo-wide rule, so a
//! hybrid page is a pure function of `(corpus, model, query, page)` —
//! the wire byte-identity test depends on that.

use crate::engine::{normalized, SearchEngine, SearchMode, PAGE_SIZE};
use crate::query::parse_query;
use crate::result::SearchPage;
use covidkg_ann::HnswIndex;
use covidkg_ml::Word2Vec;
use covidkg_text::tokenize_lower;

/// Which dense serving mode to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DenseMode {
    /// ANN neighbors only, scored by cosine similarity.
    Semantic(String),
    /// ANN neighbors fused with the all-fields lexical top-k by
    /// reciprocal rank.
    Hybrid(String),
}

impl DenseMode {
    /// The raw query text.
    pub fn query(&self) -> &str {
        match self {
            DenseMode::Semantic(q) | DenseMode::Hybrid(q) => q,
        }
    }
}

/// Fusion knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// ANN neighbors requested per query.
    pub k_dense: usize,
    /// Lexical candidates requested per query.
    pub k_lexical: usize,
    /// The RRF smoothing constant (60 in the original paper; larger
    /// flattens the rank discount).
    pub rrf_k: f64,
}

impl Default for HybridConfig {
    fn default() -> HybridConfig {
        HybridConfig {
            k_dense: 20,
            k_lexical: 30,
            rrf_k: 60.0,
        }
    }
}

/// Canonical cache key for a dense query, mirroring
/// [`crate::engine::cache_key`]: the embedding averages token vectors,
/// so the key is the sorted token multiset (order-insensitive, count-
/// sensitive); hybrid keys add the lexical stem/phrase normalization
/// because the fused page also depends on the lexical candidate list.
pub fn dense_cache_key(mode: &DenseMode, page: usize) -> String {
    let mut tokens = tokenize_lower(mode.query());
    tokens.sort();
    let dense = tokens.join(",");
    match mode {
        DenseMode::Semantic(_) => format!("sem|{dense}|{page}"),
        DenseMode::Hybrid(q) => format!("hyb|{dense}|{}|{page}", normalized(&parse_query(q))),
    }
}

/// Run a dense/hybrid search, returning the requested 0-based page.
///
/// This is the single implementation every surface uses — the CLI, the
/// serve layer and the HTTP front-end all call through here, so a wire
/// response body is byte-identical to the in-process page by
/// construction.
pub fn dense_search(
    engine: &SearchEngine,
    ann: &HnswIndex,
    embeddings: &Word2Vec,
    mode: &DenseMode,
    page: usize,
    config: &HybridConfig,
) -> SearchPage {
    let tokens = tokenize_lower(mode.query());
    let qvec = embeddings.embed_phrase(&tokens);
    let empty_embedding = qvec.iter().all(|&x| x == 0.0);

    // Dense candidates: `(rank, id, cosine)` — skipped entirely when no
    // query token is in vocabulary (the zero vector is equidistant from
    // everything; its "neighbors" would be noise).
    let dense: Vec<(String, f32)> = if empty_embedding {
        Vec::new()
    } else {
        ann.search(&qvec, config.k_dense).0
    };

    // The query compiled once, as the all-fields engine compiles it: its
    // ranker orders the hybrid's lexical list and highlights every dense
    // page, so dense pages look like lexical pages (title, highlighted
    // snippets) and share their cached renders.
    let (query_text, parsed, filter, mut fields) =
        engine.compile(&SearchMode::AllFields(mode.query().to_string()));
    let ranker = engine.ranker(parsed, &fields);

    // Scored candidate list, ordered: either cosine (semantic) or RRF
    // over the dense + lexical lists (hybrid).
    let scored: Vec<(f64, String)> = match mode {
        DenseMode::Semantic(_) => dense
            .into_iter()
            .map(|(id, sim)| (f64::from(sim), id))
            .collect(),
        DenseMode::Hybrid(_) => {
            let (_, lexical) = engine.scored_top_k(&filter, &ranker, 0..config.k_lexical);
            let mut fused: std::collections::HashMap<String, f64> =
                std::collections::HashMap::new();
            for (rank, (id, _)) in dense.iter().enumerate() {
                *fused.entry(id.clone()).or_insert(0.0) +=
                    1.0 / (config.rrf_k + rank as f64 + 1.0);
            }
            for (rank, (_, id)) in lexical.iter().enumerate() {
                *fused.entry(id.clone()).or_insert(0.0) +=
                    1.0 / (config.rrf_k + rank as f64 + 1.0);
            }
            let mut out: Vec<(f64, String)> =
                fused.into_iter().map(|(id, s)| (s, id)).collect();
            out.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            out
        }
    };

    fields.push("date".to_string());
    let hits = scored.chunks(PAGE_SIZE).nth(page).unwrap_or_default();
    let results = engine.render_hits(hits, &ranker, &fields);
    SearchPage {
        query: query_text,
        page,
        page_size: PAGE_SIZE,
        total: scored.len(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_ann::HnswConfig;
    use covidkg_json::obj;
    use covidkg_store::{Collection, CollectionConfig};
    use std::sync::Arc;

    /// A hand-built embedding model with controlled geometry: three
    /// topic axes (masks / vaccines / ventilators) so the test asserts
    /// the *plumbing* (query embedding → ANN → fused page), not the
    /// luck of a toy training run.
    fn model() -> Word2Vec {
        let axes: &[(&str, [f32; 4])] = &[
            ("mask", [1.0, 0.0, 0.0, 0.1]),
            ("masks", [1.0, 0.0, 0.0, 0.1]),
            ("respirator", [0.9, 0.0, 0.0, 0.2]),
            ("respirators", [0.9, 0.0, 0.0, 0.2]),
            ("droplets", [0.8, 0.1, 0.0, 0.0]),
            ("transmission", [0.7, 0.2, 0.0, 0.0]),
            ("vaccine", [0.0, 1.0, 0.0, 0.1]),
            ("vaccines", [0.0, 1.0, 0.0, 0.1]),
            ("booster", [0.0, 0.9, 0.0, 0.2]),
            ("boosters", [0.0, 0.9, 0.0, 0.2]),
            ("antibody", [0.1, 0.8, 0.0, 0.0]),
            ("ventilator", [0.0, 0.0, 1.0, 0.1]),
            ("ventilators", [0.0, 0.0, 1.0, 0.1]),
            ("icu", [0.0, 0.1, 0.9, 0.0]),
            ("oxygen", [0.0, 0.0, 0.8, 0.2]),
            ("covid", [0.3, 0.3, 0.3, 0.5]),
        ];
        let mut text = format!("{} 4\n", axes.len());
        for (w, v) in axes {
            text.push_str(&format!("{w} {} {} {} {}\n", v[0], v[1], v[2], v[3]));
        }
        Word2Vec::load_text(&text).expect("fixture model parses")
    }

    fn fixture() -> (SearchEngine, HnswIndex, Word2Vec) {
        let model = model();
        let docs = [
            ("d1", "Mask mandates reduce transmission", "masks reduce viral transmission"),
            ("d2", "Respirator supply chains", "masks and respirators block droplets"),
            ("d3", "Vaccine efficacy in adults", "vaccines prevent severe covid outcomes"),
            ("d4", "Booster campaigns", "vaccines and boosters raise antibody titers"),
            ("d5", "ICU ventilator capacity", "ventilators support icu patients breathing"),
        ];
        let c = Collection::new(CollectionConfig::new("pubs").with_text_fields([
            "title",
            "abstract",
            "tables",
            "figure_captions",
            "body",
        ]));
        let mut ann = HnswIndex::new(4, HnswConfig::default());
        for (id, title, abs) in docs {
            c.insert(obj! {
                "_id" => id,
                "title" => title,
                "abstract" => abs,
                "date" => "2021-01",
            })
            .unwrap();
            let text = format!("{title} {abs}");
            ann.insert(id, &model.embed_phrase(&tokenize_lower(&text)));
        }
        (SearchEngine::new(Arc::new(c)), ann, model)
    }

    #[test]
    fn semantic_search_finds_related_docs_without_shared_terms() {
        let (engine, ann, model) = fixture();
        let cfg = HybridConfig::default();
        // "respirators" never appears in d1, but the embedding space
        // puts mask-related docs together.
        let page = dense_search(
            &engine,
            &ann,
            &model,
            &DenseMode::Semantic("respirators".into()),
            0,
            &cfg,
        );
        assert!(page.total >= 2);
        let ids: Vec<&str> = page.results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids[0], "d2", "direct mention ranks first: {ids:?}");
        let rank = |id: &str| ids.iter().position(|x| *x == id).unwrap_or(usize::MAX);
        assert!(
            rank("d1") < rank("d5"),
            "mask doc must outrank ventilator doc for a respirator query: {ids:?}"
        );
    }

    #[test]
    fn semantic_scores_are_cosines_in_descending_order() {
        let (engine, ann, model) = fixture();
        let page = dense_search(
            &engine,
            &ann,
            &model,
            &DenseMode::Semantic("vaccines".into()),
            0,
            &HybridConfig::default(),
        );
        assert!(!page.results.is_empty());
        for w in page.results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(page.results[0].score <= 1.0 + 1e-6);
    }

    #[test]
    fn hybrid_fuses_lexical_and_dense_lists() {
        let (engine, ann, model) = fixture();
        let cfg = HybridConfig::default();
        let hybrid = dense_search(
            &engine,
            &ann,
            &model,
            &DenseMode::Hybrid("vaccines".into()),
            0,
            &cfg,
        );
        // The lexical engine alone finds the docs with the term; hybrid
        // must keep those AND may add dense-only neighbors.
        let lexical = engine.ranked_ids(&SearchMode::AllFields("vaccines".into()), cfg.k_lexical);
        let hybrid_ids: Vec<&str> = hybrid.results.iter().map(|r| r.id.as_str()).collect();
        for (_, id) in &lexical {
            assert!(hybrid_ids.contains(&id.as_str()), "lexical hit {id} kept");
        }
        assert!(hybrid.total >= lexical.len());
        // A doc on both lists outranks a doc on one list at similar rank:
        // d3/d4 (lexical + dense) above dense-only strays.
        assert!(hybrid_ids[0] == "d3" || hybrid_ids[0] == "d4", "{hybrid_ids:?}");
    }

    #[test]
    fn unknown_vocabulary_degrades_to_lexical_or_empty() {
        let (engine, ann, model) = fixture();
        let cfg = HybridConfig::default();
        let sem = dense_search(
            &engine,
            &ann,
            &model,
            &DenseMode::Semantic("zzzunknownzzz".into()),
            0,
            &cfg,
        );
        assert_eq!(sem.total, 0, "zero embedding must not return noise");
        let hyb = dense_search(
            &engine,
            &ann,
            &model,
            &DenseMode::Hybrid("zzzunknownzzz masks".into()),
            0,
            &cfg,
        );
        // Embedding still averages over "masks"; at minimum the lexical
        // list keeps the page non-empty.
        assert!(hyb.total >= 1);
    }

    #[test]
    fn dense_pages_are_deterministic_and_paginate() {
        let (engine, ann, model) = fixture();
        let cfg = HybridConfig::default();
        let mode = DenseMode::Hybrid("masks vaccines ventilators".into());
        let a = dense_search(&engine, &ann, &model, &mode, 0, &cfg);
        let b = dense_search(&engine, &ann, &model, &mode, 0, &cfg);
        assert_eq!(a.to_json().to_json(), b.to_json().to_json());
        assert_eq!(a.page_size, PAGE_SIZE);
        let beyond = dense_search(&engine, &ann, &model, &mode, 7, &cfg);
        assert_eq!(beyond.total, a.total);
        assert!(beyond.results.is_empty());
    }

    #[test]
    fn dense_cache_keys_canonicalize() {
        let a = dense_cache_key(&DenseMode::Semantic("Masks Vaccine".into()), 0);
        let b = dense_cache_key(&DenseMode::Semantic("vaccine masks".into()), 0);
        assert_eq!(a, b, "token multiset is order/case-insensitive");
        let dup = dense_cache_key(&DenseMode::Semantic("masks masks vaccine".into()), 0);
        assert_ne!(a, dup, "duplicate tokens shift the average embedding");
        let c = dense_cache_key(&DenseMode::Semantic("vaccine masks".into()), 1);
        assert_ne!(a, c, "page is part of the key");
        let d = dense_cache_key(&DenseMode::Hybrid("vaccine masks".into()), 0);
        assert_ne!(a, d, "mode is part of the key");
        let e = dense_cache_key(&DenseMode::Hybrid("Masks Vaccine".into()), 0);
        assert_eq!(d, e);
    }

    #[test]
    fn snippets_render_for_dense_hits() {
        let (engine, ann, model) = fixture();
        let page = dense_search(
            &engine,
            &ann,
            &model,
            &DenseMode::Hybrid("masks".into()),
            0,
            &HybridConfig::default(),
        );
        let rendered = page.render();
        assert!(rendered.to_lowercase().contains("[mask"), "{rendered}");
    }
}
