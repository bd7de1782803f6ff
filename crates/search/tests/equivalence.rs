//! Property test: the served path (index-pruned candidates, postings- or
//! document-scored top-k in per-shard buffers, merged, then only the
//! page rendered) must return **byte-identical** pages to the naive
//! full-scan, tokenizing-scorer, full-sort pipeline oracle — same totals,
//! same ids in the same order (including `(score, _id)` tie-breaks),
//! bit-equal `f64` scores and the same snippets. Collections index a
//! random subset of the ranked fields, the empty one included, so both
//! scorers and the unindexed scan are drawn.

use covidkg_json::{arr, obj, Value};
use covidkg_rand::prop;
use covidkg_rand::{Rng, SmallRng};
use covidkg_search::{SearchEngine, SearchMode, SearchPage};
use covidkg_store::{Collection, CollectionConfig};
use std::sync::Arc;

/// Word pool: includes stems the default synonym table links
/// ("vaccine"/"immunization", "mask"/"face covering") plus generic noise,
/// so random queries exercise direct, synonym, proximity and phrase paths,
/// and non-ASCII words — "İ" lowercases to a longer string, so a phrase's
/// offsets in the lowercased text drift from the leaf's.
const WORDS: &[&str] = &[
    "vaccine",
    "immunization",
    "mask",
    "masks",
    "covering",
    "transmission",
    "ventilator",
    "icu",
    "antibody",
    "variant",
    "dose",
    "efficacy",
    "trial",
    "cohort",
    "surge",
    "policy",
    "mandate",
    "aerosol",
    "testing",
    "outbreak",
    "İstanbul",
    "İİ",
    "médecine",
    "naïve",
];

fn sentence(rng: &mut SmallRng, min_words: usize, max_words: usize) -> String {
    let n = rng.gen_range(min_words..=max_words);
    (0..n)
        .map(|_| *prop::pick(rng, WORDS))
        .collect::<Vec<_>>()
        .join(" ")
}

fn random_doc(rng: &mut SmallRng, id: usize, clone_pool: &[Value]) -> Value {
    // Occasionally clone a previous doc's content (new _id) so several
    // documents share an exact score and the `_id` tie-break is exercised.
    if !clone_pool.is_empty() && rng.gen_bool(0.25) {
        let src = &clone_pool[rng.gen_range(0..clone_pool.len())];
        let mut doc = src.clone();
        doc.insert("_id", format!("d{id:04}"));
        return doc;
    }
    let year = 2019 + rng.gen_range(0u32..4);
    let month = 1 + rng.gen_range(0u32..12);
    obj! {
        "_id" => format!("d{id:04}"),
        "title" => sentence(rng, 2, 6),
        "abstract" => sentence(rng, 4, 12),
        "date" => format!("{year}-{month:02}"),
        "body" => arr![
            obj!{ "heading" => sentence(rng, 1, 2), "text" => sentence(rng, 3, 10) }
        ],
        "tables" => arr![
            obj!{ "caption" => sentence(rng, 2, 5), "html" => "<table></table>" }
        ],
    }
}

/// Every field a search ranks: the all-fields engine ranks all five.
const RANKED_FIELDS: [&str; 5] = ["title", "abstract", "tables", "figure_captions", "body"];

/// The fields a collection indexes: all of them half the time (the
/// postings scorer), otherwise a random subset, possibly empty (no text
/// index at all).
fn random_text_fields(rng: &mut SmallRng) -> Vec<&'static str> {
    if rng.gen_bool(0.5) {
        return RANKED_FIELDS.to_vec();
    }
    RANKED_FIELDS.into_iter().filter(|_| rng.gen_bool(0.5)).collect()
}

fn random_corpus(
    rng: &mut SmallRng,
    n_docs: usize,
    shards: usize,
    text_fields: &[&str],
) -> Arc<Collection> {
    let c = Collection::new(
        CollectionConfig::new("pubs")
            .with_shards(shards)
            .with_text_fields(text_fields.iter().copied()),
    );
    let mut inserted: Vec<Value> = Vec::new();
    for i in 0..n_docs {
        let doc = random_doc(rng, i, &inserted);
        inserted.push(doc.clone());
        c.insert(doc).unwrap();
    }
    // A few mutations so the postings index has seen remove/re-add churn.
    let n_mut = rng.gen_range(0..=3usize.min(n_docs));
    for _ in 0..n_mut {
        let victim = format!("d{:04}", rng.gen_range(0..n_docs));
        if rng.gen_bool(0.5) {
            let _ = c.delete(&victim);
        } else if c.get(&victim).is_some() {
            let fresh_id = 9000 + rng.gen_range(0..1000usize);
            let mut fresh = random_doc(rng, fresh_id, &[]);
            fresh.insert("_id", victim.clone());
            let _ = c.replace(&victim, fresh);
        }
    }
    Arc::new(c)
}

fn random_query(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(1..=3usize);
    let mut q = (0..n)
        .map(|_| *prop::pick(rng, WORDS))
        .collect::<Vec<_>>()
        .join(" ");
    if rng.gen_bool(0.3) {
        // Add a quoted phrase, sometimes multi-word.
        let phrase = sentence(rng, 1, 2);
        q = format!("{q} \"{phrase}\"");
    }
    q
}

fn random_mode(rng: &mut SmallRng) -> SearchMode {
    match rng.gen_range(0..4u32) {
        0 => SearchMode::AllFields(random_query(rng)),
        1 => SearchMode::Tables(random_query(rng)),
        2 => SearchMode::TitleAbstractCaption {
            title: random_query(rng),
            abstract_q: String::new(),
            caption: String::new(),
        },
        _ => SearchMode::TitleAbstractCaption {
            title: if rng.gen_bool(0.5) { random_query(rng) } else { String::new() },
            abstract_q: random_query(rng),
            caption: if rng.gen_bool(0.3) { random_query(rng) } else { String::new() },
        },
    }
}

/// Byte-identical comparison: totals, ids+order and bit-equal scores
/// first, for a readable failure, then the whole serialized page.
fn assert_identical(fast: &SearchPage, naive: &SearchPage, ctx: &str) {
    assert_eq!(fast.total, naive.total, "total mismatch: {ctx}");
    assert_eq!(fast.page, naive.page, "page mismatch: {ctx}");
    let fast_ids: Vec<&str> = fast.results.iter().map(|r| r.id.as_str()).collect();
    let naive_ids: Vec<&str> = naive.results.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(fast_ids, naive_ids, "id order mismatch: {ctx}");
    for (f, n) in fast.results.iter().zip(naive.results.iter()) {
        assert_eq!(
            f.score.to_bits(),
            n.score.to_bits(),
            "score bits differ for {} ({} vs {}): {ctx}",
            f.id,
            f.score,
            n.score
        );
        assert_eq!(f.title, n.title, "title mismatch for {}: {ctx}", f.id);
    }
    assert_eq!(fast.to_json().to_json(), naive.to_json().to_json(), "page bytes differ: {ctx}");
}

/// Pages past every corpus's end whose first rank, `page × PAGE_SIZE`,
/// overflows `usize`: both paths must answer the same empty page, with
/// the same total.
const HUGE_PAGES: [usize; 2] = [usize::MAX / 10 + 1, usize::MAX];

#[test]
fn pruned_top_k_is_byte_identical_to_full_scan() {
    prop::run(25, |rng| {
        let n_docs = rng.gen_range(5..40usize);
        let shards = *prop::pick(rng, &[1usize, 2, 3, 4, 7]);
        let text_fields = random_text_fields(rng);
        let collection = random_corpus(rng, n_docs, shards, &text_fields);
        let engine = SearchEngine::new(collection);
        for _ in 0..3 {
            let mode = random_mode(rng);
            for page in (0..4).chain(HUGE_PAGES) {
                let fast = engine.search(&mode, page);
                let naive = engine.search_naive(&mode, page);
                let ctx = format!(
                    "docs={n_docs} shards={shards} indexed={text_fields:?} page={page} mode={mode:?}"
                );
                assert_identical(&fast, &naive, &ctx);
            }
        }
    });
}

/// More than 512 candidates, per-shard buffers merged: every shard
/// fills its own top-k buffer before the merge, at a size the small
/// random corpora above never reach — under the postings scorer (every
/// ranked field indexed) and the document scorer (two of them).
#[test]
fn equivalence_past_512_candidates() {
    for text_fields in [&RANKED_FIELDS[..], &["title", "tables"]] {
        let mut rng = <SmallRng as covidkg_rand::SeedableRng>::seed_from_u64(0xD0C5);
        let collection = random_corpus(&mut rng, 700, 4, text_fields);
        assert_pages_at_scale(&SearchEngine::new(collection), text_fields);
    }
}

fn assert_pages_at_scale(engine: &SearchEngine, text_fields: &[&str]) {
    let modes = [
        SearchMode::AllFields("vaccine efficacy".into()),
        SearchMode::AllFields("mask transmission \"icu surge\"".into()),
        SearchMode::Tables("dose trial".into()),
        SearchMode::TitleAbstractCaption {
            title: "variant".into(),
            abstract_q: "outbreak testing".into(),
            caption: String::new(),
        },
    ];
    for mode in &modes {
        for page in (0..5).chain(HUGE_PAGES) {
            let fast = engine.search(mode, page);
            let naive = engine.search_naive(mode, page);
            let ctx = format!("parallel-scale indexed={text_fields:?} page={page} mode={mode:?}");
            assert_identical(&fast, &naive, &ctx);
        }
    }
}
