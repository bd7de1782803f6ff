//! The dense retrieval tier: document embeddings + HNSW index build.
//!
//! Every publication gets one vector — the average Word2Vec embedding of
//! its title+abstract tokens, the same representation §5's clustering
//! uses — indexed in a `covidkg-ann` HNSW graph keyed by `_id`. The
//! index is one of the three derived views [`crate::views::Views`]
//! builds and keeps fresh off the store's mutation log; it is persisted
//! through the model registry and served by the `semantic`/`hybrid`
//! search modes.

use covidkg_ann::{HnswConfig, HnswIndex};
use covidkg_json::Value;
use covidkg_ml::Word2Vec;
use covidkg_text::tokenize_lower;

/// The document representation the ANN tier indexes: the mean embedding
/// of the title and abstract tokens (zeros when every token is OOV —
/// such documents are indexed but unreachable by any real query, which
/// is the right failure mode for an empty-text record).
pub fn doc_embedding(doc: &Value, embeddings: &Word2Vec) -> Vec<f32> {
    let title = doc.get("title").and_then(Value::as_str).unwrap_or_default();
    let abstract_text = doc
        .get("abstract")
        .and_then(Value::as_str)
        .unwrap_or_default();
    let mut tokens = tokenize_lower(title);
    tokens.extend(tokenize_lower(abstract_text));
    embeddings.embed_phrase(&tokens)
}

/// Build a fresh index over `docs` (a collection scan), in `_id` order
/// so the graph is a pure function of the corpus (scan order varies by
/// shard layout; insertion order shapes edges).
pub fn build_ann(docs: &[Value], embeddings: &Word2Vec, config: HnswConfig) -> HnswIndex {
    let mut vectors: Vec<(&str, Vec<f32>)> = docs
        .iter()
        .filter_map(|doc| {
            let id = doc.get("_id").and_then(Value::as_str)?;
            Some((id, doc_embedding(doc, embeddings)))
        })
        .collect();
    vectors.sort_by(|a, b| a.0.cmp(b.0));
    HnswIndex::build(
        embeddings.dims(),
        config,
        vectors.iter().map(|(id, v)| (*id, v.as_slice())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_json::obj;
    use covidkg_ml::Word2VecConfig;
    use covidkg_store::{Collection, CollectionConfig};

    fn model() -> Word2Vec {
        let sentences: Vec<Vec<String>> = (0..30)
            .map(|i| {
                tokenize_lower(match i % 3 {
                    0 => "masks reduce viral transmission",
                    1 => "vaccines prevent severe outcomes",
                    _ => "ventilators support icu patients",
                })
            })
            .collect();
        Word2Vec::train(
            &sentences,
            &Word2VecConfig {
                dims: 12,
                epochs: 2,
                seed: 5,
                ..Word2VecConfig::default()
            },
        )
    }

    fn doc(id: &str, title: &str) -> Value {
        obj! { "_id" => id, "title" => title, "abstract" => title, "date" => "2021-01" }
    }

    #[test]
    fn build_is_scan_order_independent() {
        let model = model();
        let a = Collection::new(CollectionConfig::new("p").with_shards(1));
        let b = Collection::new(CollectionConfig::new("p").with_shards(7));
        for (coll, order) in [(&a, [0usize, 1, 2, 3]), (&b, [3, 1, 0, 2])] {
            for i in order {
                coll.insert(doc(&format!("p{i}"), "masks reduce transmission"))
                    .unwrap();
            }
        }
        let ia = build_ann(&a.scan_all(), &model, HnswConfig::default());
        let ib = build_ann(&b.scan_all(), &model, HnswConfig::default());
        assert_eq!(ia.save_text(), ib.save_text());
        assert_eq!(ia.len(), 4);
    }
}
