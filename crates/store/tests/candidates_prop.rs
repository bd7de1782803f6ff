//! Property test: the inverted index resolves a filter to exactly the
//! documents a full scan matches. For random `$text` / `$and` / `$or`
//! nests over random documents and field lists, `Filter::index_candidates`
//! — one k-way merge over each `$text`'s postings, sorted merges for
//! `$and` and `$or` — must list the full scan's match set, ascending and
//! without duplicates. Nests that also hold what the index cannot bound
//! (an unindexed field, a comparison) must bound it from above, and the
//! candidates that pass `Filter::residual` must again be exactly the
//! full scan's set, which is what `Collection::scored_top_k` relies on.

use covidkg_json::{arr, obj, Value};
use covidkg_rand::prop::{self, pick, vec_of};
use covidkg_rand::{Rng, SmallRng};
use covidkg_store::{Collection, CollectionConfig, Filter};

/// Inflected forms share a stem; "İstanbul" lowercases to a longer
/// string; "the" is a word like any other to the index.
const WORDS: &[&str] = &[
    "mask",
    "masks",
    "masking",
    "vaccine",
    "vaccination",
    "dose",
    "doses",
    "icu",
    "trial",
    "İstanbul",
    "naïve",
    "the",
    "covid-19",
];

const INDEXED: [&str; 3] = ["title", "abstract", "tables"];

fn text(rng: &mut SmallRng) -> String {
    vec_of(rng, 0, 5, |rng| *pick(rng, WORDS)).join(" ")
}

fn doc(rng: &mut SmallRng, id: usize) -> Value {
    let mut d = obj! {
        "_id" => format!("d{id:03}"),
        "year" => 2019 + rng.gen_range(0..4i64),
    };
    if rng.gen_bool(0.8) {
        d.insert("title", text(rng));
    }
    if rng.gen_bool(0.6) {
        d.insert("abstract", text(rng));
    }
    if rng.gen_bool(0.5) {
        d.insert(
            "tables",
            arr![obj! { "caption" => text(rng), "rows" => arr![text(rng)] }],
        );
    }
    if rng.gen_bool(0.5) {
        d.insert("body", text(rng));
    }
    d
}

/// A random `$text` / `$and` / `$or` nest. With `bounded` every leaf is
/// a `$text` over indexed fields, which the index resolves exactly;
/// otherwise leaves may search the unindexed `body` or compare `year`.
fn filter(rng: &mut SmallRng, depth: usize, bounded: bool) -> Filter {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    if leaf {
        if !bounded && rng.gen_bool(0.2) {
            return Filter::Gte("year".into(), Value::int(2019 + rng.gen_range(0..4i64)));
        }
        let mut fields: Vec<String> = INDEXED
            .iter()
            .filter(|_| rng.gen_bool(0.5))
            .map(|f| f.to_string())
            .collect();
        if fields.is_empty() {
            fields.push(pick(rng, &INDEXED).to_string());
        }
        if !bounded && rng.gen_bool(0.2) {
            fields.push("body".into());
        }
        let search = vec_of(rng, 1, 3, |rng| *pick(rng, WORDS)).join(" ");
        return Filter::text(&search, fields);
    }
    let branches = vec_of(rng, 1, 3, |rng| filter(rng, depth - 1, bounded));
    if rng.gen_bool(0.5) {
        Filter::And(branches)
    } else {
        Filter::Or(branches)
    }
}

fn corpus(rng: &mut SmallRng) -> Collection {
    let c = Collection::new(
        CollectionConfig::new("pubs")
            .with_shards(*pick(rng, &[1usize, 3, 4]))
            .with_text_fields(INDEXED),
    );
    let n = rng.gen_range(0..40usize);
    for i in 0..n {
        c.insert(doc(rng, i)).unwrap();
    }
    // Churn, so postings have seen removals and re-adds.
    for _ in 0..rng.gen_range(0..5usize) {
        let id = format!("d{:03}", rng.gen_range(0..n.max(1)));
        if rng.gen_bool(0.5) {
            let _ = c.delete(&id);
        } else if c.get(&id).is_some() {
            c.replace(&id, doc(rng, 0)).unwrap();
        }
    }
    c
}

/// The ids a full scan matches, ascending.
fn scanned(c: &Collection, f: &Filter) -> Vec<String> {
    let mut ids: Vec<String> = c
        .scan_all()
        .iter()
        .filter(|d| f.matches(d))
        .map(|d| d.get("_id").and_then(Value::as_str).unwrap().to_string())
        .collect();
    ids.sort();
    ids
}

#[test]
fn index_candidates_are_the_full_scan_match_set_ascending() {
    prop::run(300, |rng| {
        let c = corpus(rng);
        let index = c.text_index().unwrap().read();
        for _ in 0..4 {
            let f = filter(rng, 3, true);
            let ids = f.index_candidates(&index).expect("every leaf is boundable");
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "ascending, no duplicates: {ids:?} for {f:?}"
            );
            assert_eq!(ids, scanned(&c, &f), "candidates vs full scan for {f:?}");
        }
    });
}

#[test]
fn candidates_that_pass_the_residual_are_the_full_scan_match_set() {
    prop::run(300, |rng| {
        let c = corpus(rng);
        let index = c.text_index().unwrap().read();
        for _ in 0..4 {
            let f = filter(rng, 3, false);
            let Some(ids) = f.index_candidates(&index) else {
                continue;
            };
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "ascending, no duplicates: {ids:?} for {f:?}"
            );
            let mut residual = Vec::new();
            f.residual(&index, &mut residual);
            let passed: Vec<&str> = ids
                .iter()
                .copied()
                .filter(|id| {
                    c.get(id)
                        .is_some_and(|d| residual.iter().all(|r| r.matches(&d)))
                })
                .collect();
            assert_eq!(
                passed,
                scanned(&c, &f),
                "candidates ∩ residual vs full scan for {f:?}"
            );
        }
    });
}
