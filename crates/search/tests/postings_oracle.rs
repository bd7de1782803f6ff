//! Property test: a page answered from the postings — membership, score,
//! top-k ids and highlights all read from the inverted index, documents
//! opened only to render — is **byte for byte** (`to_json().to_json()`)
//! the page the tokenizing oracles produce: `search_naive` for the three
//! lexical engines, and for semantic/hybrid pages the same hits rendered
//! by the tokenizing `build_result`. Corpora are random, with nested
//! `tables`/`body` arrays, empty and punctuation-only leaves,
//! hyphen/apostrophe tokens and non-ASCII text, and every check runs
//! again after interleaved replace/delete/insert, when index and shards
//! must still agree. Failures shrink to a minimal corpus and query.

use covidkg_ann::{HnswConfig, HnswIndex};
use covidkg_json::{obj, Value};
use covidkg_ml::Word2Vec;
use covidkg_rand::prop::{self, pick, shrink_vec, vec_of};
use covidkg_rand::{Rng, SmallRng};
use covidkg_search::result::build_result;
use covidkg_search::{
    dense_search, parse_query, DenseMode, HybridConfig, RankWeights, Ranker, RenderCache,
    SearchEngine, SearchMode, SearchPage,
};
use covidkg_store::pipeline::project;
use covidkg_store::{Collection, CollectionConfig};
use covidkg_text::tokenize_lower;
use std::sync::Arc;

const FIELDS: [&str; 5] = ["title", "abstract", "tables", "figure_captions", "body"];

/// Words with curated synonyms ("vaccine"/"immunization"/"jab",
/// "mask"/"respirator", "covid-19"/"sars-cov-2"), joiners, case variants,
/// stop words and non-ASCII — "İ" lowercases to two chars, so phrase
/// spans drift against the original text.
#[rustfmt::skip]
const WORDS: &[&str] = &[
    "vaccine", "Vaccines", "immunization", "jab", "mask", "masks", "respirator", "COVID-19",
    "sars-cov-2", "patient's", "patient’s", "dose", "two", "efficacy", "effectiveness", "trial",
    "médecine", "naïve", "İstanbul", "straße", "the", "of", "and", "ICU", "surge", "x-ray",
];

/// Whole leaves that hold no token at all.
const BLANKS: &[&str] = &["", "—", "...", "(§)", " "];

/// One publication, as the strings it is made of.
#[derive(Debug, Clone)]
struct Doc {
    title: String,
    abstract_text: String,
    year: u32,
    /// `(caption, rows of cells)`.
    tables: Vec<(String, Vec<Vec<String>>)>,
    figure_captions: Vec<String>,
    /// `(heading, paragraphs)`.
    body: Vec<(String, Vec<String>)>,
}

#[derive(Debug, Clone)]
enum Op {
    Replace(usize, Doc),
    Delete(usize),
    Insert(Doc),
}

#[derive(Debug, Clone)]
struct Case {
    shards: usize,
    docs: Vec<Doc>,
    ops: Vec<Op>,
    queries: Vec<String>,
}

fn leaf(rng: &mut SmallRng) -> String {
    if rng.gen_bool(0.15) {
        return pick(rng, BLANKS).to_string();
    }
    let sep = *pick(rng, &[" ", " ", ", ", " - ", "; "]);
    vec_of(rng, 1, 7, |rng| *pick(rng, WORDS)).join(sep)
}

fn doc(rng: &mut SmallRng) -> Doc {
    Doc {
        title: leaf(rng),
        abstract_text: leaf(rng),
        year: 2018 + rng.gen_range(0..6u32),
        tables: vec_of(rng, 0, 2, |rng| {
            (leaf(rng), vec_of(rng, 0, 2, |rng| vec_of(rng, 0, 3, leaf)))
        }),
        figure_captions: vec_of(rng, 0, 2, leaf),
        body: vec_of(rng, 0, 3, |rng| (leaf(rng), vec_of(rng, 0, 3, leaf))),
    }
}

fn query(rng: &mut SmallRng) -> String {
    let terms = |rng: &mut SmallRng, max| vec_of(rng, 1, max, |rng| *pick(rng, WORDS)).join(" ");
    match rng.gen_range(0..6u32) {
        0 => format!("\"{}\"", terms(rng, 2)),
        1 => format!("{} \"{}\"", terms(rng, 2), terms(rng, 2)),
        2 => "the of".to_string(),
        _ => terms(rng, 3),
    }
}

fn case(rng: &mut SmallRng) -> Case {
    let docs = vec_of(rng, 1, 30, doc);
    let n = docs.len();
    Case {
        shards: *pick(rng, &[1usize, 2, 3, 4]),
        ops: vec_of(rng, 0, 6, |rng| match rng.gen_range(0..3u32) {
            0 => Op::Replace(rng.gen_range(0..n), doc(rng)),
            1 => Op::Delete(rng.gen_range(0..n)),
            _ => Op::Insert(doc(rng)),
        }),
        docs,
        queries: vec_of(rng, 1, 3, query),
    }
}

fn shrink(case: &Case) -> Vec<Case> {
    // Fewer documents first, then fewer mutations and queries, then
    // documents with fewer parts. Op targets index the original corpus
    // modulo its length, so removing documents keeps them valid.
    let strip = |d: &Doc| {
        let mut out = Vec::new();
        for part in 0..3 {
            let mut smaller = d.clone();
            let had = match part {
                0 => !std::mem::take(&mut smaller.tables).is_empty(),
                1 => !std::mem::take(&mut smaller.body).is_empty(),
                _ => !std::mem::take(&mut smaller.figure_captions).is_empty(),
            };
            if had {
                out.push(smaller);
            }
        }
        out
    };
    let mut out = Vec::new();
    for docs in shrink_vec(&case.docs, strip) {
        if !docs.is_empty() {
            out.push(Case {
                docs,
                ..case.clone()
            });
        }
    }
    for ops in shrink_vec(&case.ops, |_| Vec::new()) {
        out.push(Case {
            ops,
            ..case.clone()
        });
    }
    for queries in shrink_vec(&case.queries, |_| Vec::new()) {
        if !queries.is_empty() {
            out.push(Case {
                queries,
                ..case.clone()
            });
        }
    }
    out
}

fn to_value(d: &Doc, id: &str) -> Value {
    let strings = |v: &[String]| Value::Array(v.iter().map(|s| Value::str(s.as_str())).collect());
    obj! {
        "_id" => id,
        "title" => d.title.as_str(),
        "abstract" => d.abstract_text.as_str(),
        "date" => format!("{}-03", d.year),
        "tables" => Value::Array(d.tables.iter().map(|(caption, rows)| obj! {
            "caption" => caption.as_str(),
            "rows" => Value::Array(rows.iter().map(|r| strings(r)).collect()),
        }).collect()),
        "figure_captions" => strings(&d.figure_captions),
        "body" => Value::Array(d.body.iter().map(|(heading, paras)| obj! {
            "heading" => heading.as_str(),
            "sections" => Value::Array(paras.iter().map(|p| obj! { "text" => p.as_str() }).collect()),
        }).collect()),
    }
}

/// A fixed embedding model over the word pool: geometry is irrelevant
/// here, only that queries embed and neighbors come back.
fn model() -> Word2Vec {
    let mut words: Vec<String> = WORDS.iter().flat_map(|w| tokenize_lower(w)).collect();
    words.sort();
    words.dedup();
    let mut text = format!("{} 3\n", words.len());
    for (i, w) in words.iter().enumerate() {
        let a = i as f32 * 0.7;
        text.push_str(&format!(
            "{w} {} {} {}\n",
            a.cos(),
            a.sin(),
            0.1 * (i % 5) as f32
        ));
    }
    Word2Vec::load_text(&text).expect("fixture model parses")
}

fn modes(q: &str) -> Vec<SearchMode> {
    let q = q.to_string();
    vec![
        SearchMode::AllFields(q.clone()),
        SearchMode::Tables(q.clone()),
        SearchMode::TitleAbstractCaption {
            title: q.clone(),
            abstract_q: String::new(),
            caption: String::new(),
        },
        SearchMode::TitleAbstractCaption {
            title: String::new(),
            abstract_q: q.clone(),
            caption: q,
        },
    ]
}

/// `page`'s hits rendered the tokenizing way: project, then `build_result`.
fn rendered_by_tokenizing(page: &SearchPage, coll: &Collection) -> SearchPage {
    let ranker = Ranker::new(
        parse_query(&page.query),
        RankWeights::publication_default(),
        coll.text_index(),
        coll.len(),
    );
    let mut projection: Vec<String> = FIELDS.iter().map(|f| f.to_string()).collect();
    projection.push("date".to_string());
    SearchPage {
        results: page
            .results
            .iter()
            .map(|r| {
                let doc = coll.get(&r.id).expect("a rendered hit is stored");
                build_result(&project(&doc, &projection), r.score, &ranker)
            })
            .collect(),
        ..page.clone()
    }
}

fn check_all(
    engine: &SearchEngine,
    coll: &Collection,
    ann: &HnswIndex,
    model: &Word2Vec,
    queries: &[String],
    stage: &str,
) -> Result<(), String> {
    let same = |got: &SearchPage, want: &SearchPage, what: String| {
        let (got, want) = (got.to_json().to_json(), want.to_json().to_json());
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{stage}: {what}\n  postings: {got}\n  oracle:   {want}"
            ))
        }
    };
    for q in queries {
        for page in 0..4 {
            for mode in modes(q) {
                let fast = engine.search(&mode, page);
                same(
                    &fast,
                    &engine.search_naive(&mode, page),
                    format!("{mode:?} page {page}"),
                )?;
            }
            for mode in [DenseMode::Semantic(q.clone()), DenseMode::Hybrid(q.clone())] {
                let fast = dense_search(engine, ann, model, &mode, page, &HybridConfig::default());
                let oracle = rendered_by_tokenizing(&fast, coll);
                same(&fast, &oracle, format!("{mode:?} page {page}"))?;
            }
        }
    }
    Ok(())
}

fn check(case: &Case) -> Result<(), String> {
    let coll = Arc::new(Collection::new(
        CollectionConfig::new("pubs")
            .with_shards(case.shards)
            .with_text_fields(FIELDS),
    ));
    let model = model();
    let mut ann = HnswIndex::new(3, HnswConfig::default());
    let id = |i: usize| format!("d{i:03}");
    for (i, d) in case.docs.iter().enumerate() {
        coll.insert(to_value(d, &id(i)))
            .map_err(|e| e.to_string())?;
        let text = format!("{} {}", d.title, d.abstract_text);
        ann.insert(&id(i), &model.embed_phrase(&tokenize_lower(&text)));
    }
    // The render cache is attached so cached and fresh renders are both
    // compared (later pages and modes reuse earlier renders).
    let engine =
        SearchEngine::new(Arc::clone(&coll)).with_render_cache(Arc::new(RenderCache::new(256)));
    check_all(&engine, &coll, &ann, &model, &case.queries, "fresh corpus")?;

    // Mutate (the ANN index is left as it was: hits whose document is
    // gone must drop out of dense pages) and check everything again.
    let n = case.docs.len();
    for (k, op) in case.ops.iter().enumerate() {
        match op {
            Op::Replace(i, d) => {
                let _ = coll.replace(&id(i % n), to_value(d, &id(i % n)));
            }
            Op::Delete(i) => {
                let _ = coll.delete(&id(i % n));
            }
            Op::Insert(d) => {
                coll.insert(to_value(d, &id(900 + k)))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    check_all(
        &engine,
        &coll,
        &ann,
        &model,
        &case.queries,
        "after mutations",
    )
}

#[test]
fn postings_pages_equal_the_tokenizing_oracles_byte_for_byte() {
    prop::run_shrink(40, case, shrink, check);
}
