//! Secondary indexes: hash indexes on field values and a stemmed inverted
//! text index with full posting lists.
//!
//! The paper's `$match`-first pipeline design (§2.1) "minimizes the amount
//! of data being passed through all the latter stages". The inverted index
//! extends that twice over: a `$text` match resolves to a candidate id set
//! before any document is touched (which the E4 bench compares against a
//! full scan), and each posting carries enough structure — indexed field,
//! string-leaf ordinal, token positions — that the ranker can score a
//! candidate straight from the index without re-tokenizing the document.

use covidkg_json::Value;
use covidkg_text::{stem, tokenize_lower};
use std::sync::{RwLock, RwLockReadGuard};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A hash index over one dot path. Values are keyed by their compact JSON
/// encoding so heterogeneous types stay distinct.
#[derive(Debug, Default)]
pub struct HashIndex {
    path: String,
    map: RwLock<HashMap<String, BTreeSet<String>>>,
}

impl HashIndex {
    /// Index over `path`.
    pub fn new(path: impl Into<String>) -> Self {
        HashIndex {
            path: path.into(),
            map: RwLock::new(HashMap::new()),
        }
    }

    /// The indexed path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The document's value at the indexed path as JSON, which fixes
    /// every key it is indexed under. `Value` equality is no substitute:
    /// `2020 == 2020.0` and `0.0 == -0.0`, yet their keys differ.
    pub(crate) fn key_of(&self, doc: &Value) -> Option<String> {
        doc.path(&self.path).map(Value::to_json)
    }

    /// Index a document (array fields index every element).
    pub fn add(&self, id: &str, doc: &Value) {
        let Some(v) = doc.path(&self.path) else { return };
        let mut map = self.map.write().unwrap();
        match v {
            Value::Array(items) => {
                for item in items {
                    map.entry(item.to_json()).or_default().insert(id.to_string());
                }
            }
            other => {
                map.entry(other.to_json()).or_default().insert(id.to_string());
            }
        }
    }

    /// Remove a document's entries.
    pub fn remove(&self, id: &str, doc: &Value) {
        let Some(v) = doc.path(&self.path) else { return };
        let mut map = self.map.write().unwrap();
        let mut drop_key = |key: String| {
            if let Some(set) = map.get_mut(&key) {
                set.remove(id);
                if set.is_empty() {
                    map.remove(&key);
                }
            }
        };
        match v {
            Value::Array(items) => {
                for item in items {
                    drop_key(item.to_json());
                }
            }
            other => drop_key(other.to_json()),
        }
    }

    /// Ids whose field equals `value`.
    pub fn lookup(&self, value: &Value) -> Vec<String> {
        self.map
            .read().unwrap()
            .get(&value.to_json())
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.read().unwrap().len()
    }

    /// Drop every entry (used when a checkpoint wholesale-replaces the
    /// collection contents before the index is rebuilt).
    pub fn clear(&self) {
        self.map.write().unwrap().clear();
    }
}

/// Number of lock stripes in the text index. Striping keeps concurrent
/// ingest threads from serializing on one postings lock (the E8 scaling
/// experiment measures this).
const TEXT_STRIPES: usize = 16;

/// One stem's occurrences within one string leaf of one document.
///
/// `field` is the ordinal of the indexed dot path in [`TextIndex::fields`];
/// `leaf` is the ordinal of the string leaf within that field's value, in
/// the same depth-first order the ranker walks strings — so postings can be
/// replayed against the ranker's per-leaf scoring without the raw text.
/// `positions` are the token indices of the stem inside the leaf, ascending;
/// term frequency is `positions.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Ordinal into [`TextIndex::fields`].
    pub field: u16,
    /// String-leaf ordinal within the field value (depth-first order).
    pub leaf: u32,
    /// Ascending token positions of the stem inside the leaf.
    pub positions: Vec<u32>,
}

/// One stem's postings: document id → that document's posting list, sorted
/// by `(field, leaf)` because postings are built in field-then-DFS order.
pub type DocPostings = BTreeMap<String, Vec<Posting>>;

type Stripe = HashMap<String, DocPostings>;

/// Stemmed inverted index over a set of text fields, with posting lists
/// striped across several locks by stem hash.
#[derive(Debug)]
pub struct TextIndex {
    fields: Vec<String>,
    stripes: Vec<RwLock<Stripe>>,
}

impl Default for TextIndex {
    fn default() -> Self {
        TextIndex::new(Vec::new())
    }
}

impl TextIndex {
    /// Index over the given dot paths.
    pub fn new(fields: Vec<String>) -> Self {
        TextIndex {
            fields,
            stripes: (0..TEXT_STRIPES).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    /// The indexed field paths.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// Ordinal of an indexed dot path, if indexed.
    pub fn field_id(&self, path: &str) -> Option<u16> {
        self.fields.iter().position(|f| f == path).map(|i| i as u16)
    }

    fn stripe_of(s: &str) -> usize {
        (crate::shard::route_hash(s) % TEXT_STRIPES as u64) as usize
    }

    fn stripe(&self, s: &str) -> &RwLock<Stripe> {
        &self.stripes[Self::stripe_of(s)]
    }

    /// Lock the whole index for reading, for the length of one query:
    /// every stem the query names then resolves without further locking,
    /// and candidates, scores and highlights all come from one state of
    /// the index. Until the reader is dropped this thread must not call
    /// the index's own (locking) methods — a second read of a stripe
    /// deadlocks once a writer is queued between the two.
    pub fn read(&self) -> IndexReader<'_> {
        IndexReader {
            index: self,
            stripes: self
                .stripes
                .iter()
                .map(|s| s.read().expect("no writer panics holding a stripe"))
                .collect(),
        }
    }

    /// Every stem's postings for one document, built by walking the indexed
    /// fields in order and each field's string leaves depth-first.
    fn doc_postings(&self, doc: &Value) -> HashMap<String, Vec<Posting>> {
        let mut map: HashMap<String, Vec<Posting>> = HashMap::new();
        for (fi, field) in self.fields.iter().enumerate() {
            let mut leaf = 0u32;
            collect_text(doc.path(field), &mut |text| {
                for (pos, tok) in tokenize_lower(text).iter().enumerate() {
                    let postings = map.entry(stem(tok)).or_default();
                    match postings.last_mut() {
                        Some(p) if p.field == fi as u16 && p.leaf == leaf => {
                            p.positions.push(pos as u32)
                        }
                        _ => postings.push(Posting {
                            field: fi as u16,
                            leaf,
                            positions: vec![pos as u32],
                        }),
                    }
                }
                leaf += 1;
            });
        }
        map
    }

    /// A document's postings grouped by the stripe each stem lives in,
    /// so a write takes each stripe's lock once rather than once per
    /// stem.
    fn doc_postings_by_stripe(&self, doc: &Value) -> Vec<Vec<(String, Vec<Posting>)>> {
        let mut by_stripe: Vec<Vec<(String, Vec<Posting>)>> =
            (0..TEXT_STRIPES).map(|_| Vec::new()).collect();
        for (s, postings) in self.doc_postings(doc) {
            by_stripe[Self::stripe_of(&s)].push((s, postings));
        }
        by_stripe
    }

    /// Index a document.
    pub fn add(&self, id: &str, doc: &Value) {
        for (stripe, stems) in self.stripes.iter().zip(self.doc_postings_by_stripe(doc)) {
            if stems.is_empty() {
                continue;
            }
            let mut stripe = stripe.write().unwrap();
            for (s, postings) in stems {
                stripe.entry(s).or_default().insert(id.to_string(), postings);
            }
        }
    }

    /// Remove a document.
    pub fn remove(&self, id: &str, doc: &Value) {
        for (stripe, stems) in self.stripes.iter().zip(self.doc_postings_by_stripe(doc)) {
            if stems.is_empty() {
                continue;
            }
            let mut stripe = stripe.write().unwrap();
            for (s, _) in stems {
                if let Some(docs) = stripe.get_mut(&s) {
                    docs.remove(id);
                    if docs.is_empty() {
                        stripe.remove(&s);
                    }
                }
            }
        }
    }

    /// Document frequency of a stem.
    pub fn doc_freq(&self, s: &str) -> usize {
        self.stripe(s).read().unwrap().get(s).map_or(0, BTreeMap::len)
    }

    /// Number of distinct stems.
    pub fn term_count(&self) -> usize {
        self.stripes.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Drop every posting (used when a checkpoint wholesale-replaces
    /// the collection contents before the index is rebuilt).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            stripe.write().unwrap().clear();
        }
    }
}

/// The whole index under read locks (see [`TextIndex::read`]).
pub struct IndexReader<'i> {
    index: &'i TextIndex,
    stripes: Vec<RwLockReadGuard<'i, Stripe>>,
}

impl IndexReader<'_> {
    /// Ordinal of an indexed dot path, if indexed.
    pub fn field_id(&self, path: &str) -> Option<u16> {
        self.index.field_id(path)
    }

    /// Every document's postings for one stem.
    pub fn docs(&self, stem: &str) -> Option<&DocPostings> {
        self.stripes[TextIndex::stripe_of(stem)].get(stem)
    }

    /// Ids containing any of the query stems **within the given fields**,
    /// ascending and without duplicates: matches in indexed-but-unlisted
    /// fields don't qualify a document, so the set is exact (not merely a
    /// superset) for a `$text` filter scoped to those fields. One k-way
    /// merge over the stems' postings, which are already ordered by id.
    pub fn candidates_in_fields(&self, stems: &[String], fields: &[u16]) -> Vec<&str> {
        let mut cursors: Vec<_> = stems
            .iter()
            .filter_map(|s| self.docs(s))
            .map(|docs| docs.iter().peekable())
            .collect();
        let mut out = Vec::new();
        while let Some(id) = cursors.iter_mut().filter_map(|c| c.peek().map(|&(id, _)| id)).min() {
            let mut hit = false;
            for cursor in &mut cursors {
                if let Some((_, postings)) = cursor.next_if(|&(other, _)| other == id) {
                    hit = hit || postings.iter().any(|p| fields.contains(&p.field));
                }
            }
            if hit {
                out.push(id.as_str());
            }
        }
        out
    }
}

/// Walk a value collecting every string leaf (arrays/objects recurse).
fn collect_text(v: Option<&Value>, f: &mut impl FnMut(&str)) {
    match v {
        Some(Value::Str(s)) => f(s),
        Some(Value::Array(items)) => {
            for item in items {
                collect_text(Some(item), f);
            }
        }
        Some(Value::Object(members)) => {
            for (_, val) in members {
                collect_text(Some(val), f);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_json::{arr, obj};

    #[test]
    fn hash_index_round_trip() {
        let idx = HashIndex::new("year");
        let d1 = obj! { "year" => 2020 };
        let d2 = obj! { "year" => 2021 };
        idx.add("a", &d1);
        idx.add("b", &d2);
        idx.add("c", &d2);
        assert_eq!(idx.lookup(&Value::int(2021)), ["b", "c"]);
        idx.remove("b", &d2);
        assert_eq!(idx.lookup(&Value::int(2021)), ["c"]);
        assert_eq!(idx.key_count(), 2);
        idx.remove("c", &d2);
        assert_eq!(idx.key_count(), 1);
    }

    #[test]
    fn hash_index_arrays_index_elements() {
        let idx = HashIndex::new("tags");
        let d = obj! { "tags" => arr!["masks", "policy"] };
        idx.add("a", &d);
        assert_eq!(idx.lookup(&Value::str("policy")), ["a"]);
        idx.remove("a", &d);
        assert!(idx.lookup(&Value::str("policy")).is_empty());
    }

    #[test]
    fn hash_index_distinguishes_types() {
        let idx = HashIndex::new("v");
        idx.add("s", &obj! { "v" => "1" });
        idx.add("n", &obj! { "v" => 1 });
        assert_eq!(idx.lookup(&Value::str("1")), ["s"]);
        assert_eq!(idx.lookup(&Value::int(1)), ["n"]);
    }

    /// Ids holding any of `words` (stemmed) in any of the first `n_fields`.
    fn ids(idx: &TextIndex, words: &[&str], n_fields: u16) -> Vec<String> {
        let stems: Vec<String> = words.iter().map(|w| stem(w)).collect();
        let fields: Vec<u16> = (0..n_fields).collect();
        let reader = idx.read();
        let hits = reader.candidates_in_fields(&stems, &fields);
        hits.into_iter().map(str::to_string).collect()
    }

    #[test]
    fn text_index_stems_and_prunes() {
        let idx = TextIndex::new(vec!["title".into(), "abstract".into()]);
        idx.add("a", &obj! { "title" => "Mask mandates work" });
        idx.add("b", &obj! { "abstract" => "Vaccination rates climb" });
        idx.add("c", &obj! { "title" => "Ventilator supply" });

        assert_eq!(ids(&idx, &["mandate"], 2), ["a"]);
        // Query stem "vaccin" from "vaccine" reaches "Vaccination".
        assert_eq!(ids(&idx, &["vaccine"], 2), ["b"]);
        // OR semantics across stems.
        assert_eq!(ids(&idx, &["mask", "ventilators"], 2), ["a", "c"]);
    }

    #[test]
    fn text_index_nested_fields() {
        let idx = TextIndex::new(vec!["tables".into()]);
        idx.add(
            "a",
            &obj! { "tables" => arr![ obj!{ "caption" => "dosage outcomes" } ] },
        );
        assert_eq!(ids(&idx, &["dosage"], 1), ["a"]);
    }

    #[test]
    fn text_index_remove() {
        let idx = TextIndex::new(vec!["t".into()]);
        let d = obj! { "t" => "masks" };
        idx.add("a", &d);
        assert_eq!(idx.doc_freq(&stem("masks")), 1);
        idx.remove("a", &d);
        assert_eq!(idx.doc_freq(&stem("masks")), 0);
        assert_eq!(idx.term_count(), 0);
    }

    #[test]
    fn missing_fields_are_ignored() {
        let idx = TextIndex::new(vec!["title".into()]);
        idx.add("a", &obj! { "other" => "text" });
        assert_eq!(idx.term_count(), 0);
    }

    #[test]
    fn postings_carry_field_leaf_and_positions() {
        let idx = TextIndex::new(vec!["title".into(), "tables".into()]);
        idx.add(
            "a",
            &obj! {
                "title" => "mask mandates mask",
                "tables" => arr![
                    obj!{ "caption" => "no match here" },
                    obj!{ "caption" => "a mask table" },
                ],
            },
        );
        let reader = idx.read();
        let mask = reader.docs(&stem("mask")).unwrap();
        assert_eq!(
            mask["a"],
            vec![
                Posting { field: 0, leaf: 0, positions: vec![0, 2] },
                // Second caption is the tables field's second string leaf
                // (one leaf per string, DFS through the array of objects).
                Posting { field: 1, leaf: 1, positions: vec![1] },
            ]
        );
        assert!(!mask.contains_key("missing"));
        assert!(reader.docs("unseen").is_none());
    }

    #[test]
    fn candidates_in_fields_scopes_to_listed_fields() {
        let idx = TextIndex::new(vec!["title".into(), "abstract".into()]);
        idx.add("a", &obj! { "title" => "mask mandates" });
        idx.add("b", &obj! { "abstract" => "mask efficacy" });
        assert_eq!(ids(&idx, &["mask"], 1), ["a"], "title only");
        assert_eq!(ids(&idx, &["mask"], 2), ["a", "b"]);
        assert_eq!(idx.field_id("abstract"), Some(1));
        assert_eq!(idx.read().field_id("abstract"), Some(1));
        assert_eq!(idx.field_id("body"), None);
    }

    #[test]
    fn postings_removed_with_document() {
        let idx = TextIndex::new(vec!["t".into()]);
        let d = obj! { "t" => "masks and masks" };
        idx.add("a", &d);
        idx.add("b", &obj! { "t" => "masks" });
        idx.remove("a", &d);
        assert_eq!(idx.doc_freq(&stem("masks")), 1);
        let reader = idx.read();
        let masks = reader.docs(&stem("masks")).unwrap();
        assert!(!masks.contains_key("a") && masks.contains_key("b"));
    }
}
