//! The dense retrieval tier: document embeddings + HNSW index lifecycle.
//!
//! Every publication gets one vector — the average Word2Vec embedding of
//! its title+abstract tokens, the same representation §5's clustering
//! uses — indexed in a `covidkg-ann` HNSW graph keyed by `_id`. The
//! index is built once per system, kept in sync incrementally off the
//! store's mutation log (replaces/deletes) plus the ingest path's
//! new-id list (inserts never bump the mutation epoch), persisted
//! through the model registry, and served by the `semantic`/`hybrid`
//! search modes.

use covidkg_ann::{HnswConfig, HnswIndex};
use covidkg_json::Value;
use covidkg_ml::Word2Vec;
use covidkg_store::Collection;
use covidkg_text::tokenize_lower;
use std::collections::BTreeSet;

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

/// Build a fresh index over every stored publication, in `_id` order so
/// the graph is a pure function of the corpus (scan order varies by
/// shard layout; insertion order shapes edges).
pub fn build_ann(
    publications: &Collection,
    embeddings: &Word2Vec,
    config: HnswConfig,
) -> HnswIndex {
    let mut docs: Vec<(String, Vec<f32>)> = publications
        .scan_all()
        .iter()
        .filter_map(|doc| {
            let id = doc.get("_id").and_then(Value::as_str)?.to_string();
            Some((id, doc_embedding(doc, embeddings)))
        })
        .collect();
    docs.sort_by(|a, b| a.0.cmp(&b.0));
    HnswIndex::build(
        embeddings.dims(),
        config,
        docs.iter().map(|(id, v)| (id.as_str(), v.as_slice())),
    )
}

/// Bring `ann` up to date with the collection: re-embed every document
/// the mutation log reports touched since `ann_epoch` (tombstoning ids
/// that vanished) and every id in `new_ids` from the ingest path — each
/// id once: ingest enriches the documents it has just stored, so a new
/// id is usually in the log too, and a second insert would only leave a
/// tombstone behind (every tombstone widens every later search beam).
/// Falls back to a full rebuild when the bounded log no longer covers
/// the window. Returns the new epoch watermark.
pub fn sync_ann(
    ann: &mut HnswIndex,
    ann_epoch: u64,
    publications: &Collection,
    embeddings: &Word2Vec,
    new_ids: &[String],
) -> u64 {
    let epoch = publications.mutation_epoch();
    let mut ids: BTreeSet<&str> = new_ids.iter().map(String::as_str).collect();
    let touched = if epoch == ann_epoch {
        Vec::new()
    } else {
        match publications.touched_since(ann_epoch) {
            Some(touched) => touched,
            None => {
                *ann = build_ann(publications, embeddings, *ann.config());
                return epoch;
            }
        }
    };
    ids.extend(touched.iter().map(String::as_str));
    for id in ids {
        match publications.with_doc(id, |doc| doc_embedding(doc, embeddings)) {
            Some(vector) => ann.insert(id, &vector),
            None => {
                ann.remove(id);
            }
        }
    }
    epoch
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_json::obj;
    use covidkg_ml::Word2VecConfig;
    use covidkg_store::CollectionConfig;

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
        let ia = build_ann(&a, &model, HnswConfig::default());
        let ib = build_ann(&b, &model, HnswConfig::default());
        assert_eq!(ia.save_text(), ib.save_text());
        assert_eq!(ia.len(), 4);
    }

    #[test]
    fn sync_tracks_insert_replace_delete() {
        let model = model();
        let coll = Collection::new(CollectionConfig::new("p").with_shards(2));
        for i in 0..6 {
            coll.insert(doc(&format!("p{i}"), "masks reduce transmission"))
                .unwrap();
        }
        let mut ann = build_ann(&coll, &model, HnswConfig::default());
        let mut epoch = coll.mutation_epoch();
        assert_eq!(ann.len(), 6);

        // Insert (no epoch bump) — carried by new_ids.
        coll.insert(doc("p6", "vaccines prevent outcomes")).unwrap();
        epoch = sync_ann(&mut ann, epoch, &coll, &model, &["p6".to_string()]);
        assert_eq!(ann.len(), 7);
        assert!(ann.contains("p6"));

        // Replace + delete — carried by the mutation log.
        coll.replace("p0", doc("p0", "ventilators support icu")).unwrap();
        coll.delete("p1").unwrap();
        epoch = sync_ann(&mut ann, epoch, &coll, &model, &[]);
        assert_eq!(ann.len(), 6);
        assert!(!ann.contains("p1"));
        assert!(ann.contains("p0"));

        // No-op sync is stable.
        let again = sync_ann(&mut ann, epoch, &coll, &model, &[]);
        assert_eq!(again, epoch);
        assert_eq!(ann.len(), 6);

        // An ingested id that was also enriched (so it is in the mutation
        // log as well as the new-id list) is inserted once, not
        // inserted, tombstoned and inserted again.
        let dead = ann.tombstones();
        coll.insert(doc("p7", "masks reduce transmission")).unwrap();
        coll.replace("p7", doc("p7", "vaccines prevent outcomes")).unwrap();
        sync_ann(&mut ann, epoch, &coll, &model, &["p7".to_string()]);
        assert!(ann.contains("p7"));
        assert_eq!(ann.tombstones(), dead);
    }

    #[test]
    fn synced_index_matches_fresh_rebuild_results() {
        let model = model();
        let coll = Collection::new(CollectionConfig::new("p").with_shards(2));
        for i in 0..10 {
            coll.insert(doc(&format!("p{i:02}"), "masks reduce transmission"))
                .unwrap();
        }
        let mut ann = build_ann(&coll, &model, HnswConfig::default());
        let epoch = coll.mutation_epoch();
        coll.replace("p03", doc("p03", "vaccines prevent outcomes"))
            .unwrap();
        coll.delete("p07").unwrap();
        coll.insert(doc("p10", "ventilators support icu")).unwrap();
        sync_ann(&mut ann, epoch, &coll, &model, &["p10".to_string()]);
        let fresh = build_ann(&coll, &model, HnswConfig::default());
        let q = model.embed_phrase(&tokenize_lower("vaccines prevent outcomes"));
        let (synced_hits, _) = ann.search(&q, 5);
        let (fresh_hits, _) = fresh.search(&q, 5);
        let a: Vec<&str> = synced_hits.iter().map(|(id, _)| id.as_str()).collect();
        let b: Vec<&str> = fresh_hits.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(a, b, "incremental sync must agree with a rebuild");
    }
}
