//! Index maintenance under updates: a collection that only re-indexes
//! what a write changed must hold exactly the indexes of one built fresh
//! from its current documents.
//!
//! Random `insert` / `replace` / `update` sequences run against a
//! collection with two text fields (one nested) and two hash indexes (a
//! scalar and an array field). After every write, each stem's postings
//! and each hash lookup are compared with a fresh collection's. The
//! generators lean on the writes that skip re-indexing — an edit setting
//! a text field to the string it already holds, an edit of a field no
//! index reads — and on hash keys `Value` equality cannot tell apart:
//! `2020` vs `2020.0` and `0.0` vs `-0.0`.

use covidkg_json::{arr, obj, Value};
use covidkg_rand::{prop, Rng, SeedableRng, SmallRng};
use covidkg_store::{Collection, CollectionConfig, HashIndex};
use covidkg_text::stem;
use std::sync::Arc;

const IDS: [&str; 4] = ["d0", "d1", "d2", "d3"];
const WORDS: [&str; 6] = ["mask", "masks", "vaccine", "ventilator", "icu", "dose"];
const HASHED: [&str; 2] = ["year", "tags"];

/// Every value the generators put in a hash-indexed field.
fn years() -> Vec<Value> {
    vec![
        Value::int(2020),
        Value::float(2020.0),
        Value::int(0),
        Value::float(0.0),
        Value::float(-0.0),
        Value::float(2020.5),
        Value::str("2020"),
        Value::Null,
        arr![2020, 2020.0],
    ]
}

fn title(words: &[usize]) -> Value {
    Value::str(
        words
            .iter()
            .map(|&w| WORDS[w])
            .collect::<Vec<_>>()
            .join(" "),
    )
}

/// One write against the collection under test.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize, Value),
    Replace(usize, Value),
    /// `update` with an in-place edit of the stored document.
    Update(usize, Edit),
}

#[derive(Debug, Clone, Copy)]
enum Edit {
    /// `year` as `Int` becomes the equal `Float` and back.
    SwapYearKind,
    /// `year` of ±0.0 flips its sign.
    FlipZeroSign,
    /// `title` set to the string it already holds.
    RewriteTitle,
    /// A field no index reads.
    Annotate,
    /// `title` removed.
    UnsetTitle,
    /// `year` set to the `years()` value at this index.
    SetYear(usize),
    /// The `years()` value at this index appended to `tags` (created when
    /// missing).
    PushTag(usize),
    /// The nested text field and its non-indexed sibling set together.
    SetMeta,
}

fn gen_doc(rng: &mut SmallRng) -> Value {
    let mut members: Vec<(String, Value)> = Vec::new();
    if rng.gen_bool(0.8) {
        let words = prop::vec_of(rng, 0, 4, |r| r.gen_range(0..WORDS.len()));
        let t = if rng.gen_bool(0.2) {
            Value::Array(vec![title(&words), title(&words[..words.len() / 2])])
        } else {
            title(&words)
        };
        members.push(("title".into(), t));
    }
    if rng.gen_bool(0.6) {
        let words = prop::vec_of(rng, 0, 3, |r| r.gen_range(0..WORDS.len()));
        members.push((
            "meta".into(),
            obj! { "abstract" => title(&words), "pages" => 3 },
        ));
    }
    if rng.gen_bool(0.8) {
        members.push(("year".into(), prop::pick(rng, &years()).clone()));
    }
    if rng.gen_bool(0.5) {
        let tags = prop::vec_of(rng, 0, 3, |r| prop::pick(r, &years()).clone());
        members.push(("tags".into(), Value::Array(tags)));
    }
    Value::Object(members)
}

fn gen_op(rng: &mut SmallRng) -> Op {
    let id = rng.gen_range(0..IDS.len());
    let value = rng.gen_range(0..years().len());
    match rng.gen_range(0..6) {
        0 | 1 => Op::Insert(id, gen_doc(rng)),
        2 => Op::Replace(id, gen_doc(rng)),
        _ => Op::Update(
            id,
            *prop::pick(
                rng,
                &[
                    Edit::SwapYearKind,
                    Edit::FlipZeroSign,
                    Edit::RewriteTitle,
                    Edit::Annotate,
                    Edit::UnsetTitle,
                    Edit::SetYear(value),
                    Edit::PushTag(value),
                    Edit::SetMeta,
                ],
            ),
        ),
    }
}

fn edit(e: Edit, doc: &mut Value) {
    match e {
        Edit::SwapYearKind => {
            let swapped = match doc.get("year") {
                Some(Value::Num(covidkg_json::Number::Int(i))) => Value::float(*i as f64),
                Some(Value::Num(covidkg_json::Number::Float(f))) if f.fract() == 0.0 => {
                    Value::int(*f as i64)
                }
                _ => return,
            };
            doc.insert("year", swapped);
        }
        Edit::FlipZeroSign => {
            if let Some(f) = doc.get("year").and_then(Value::as_f64) {
                if f == 0.0 {
                    doc.insert("year", Value::float(-f));
                }
            }
        }
        Edit::RewriteTitle => {
            if let Some(t) = doc.get("title").cloned() {
                doc.insert("title", t);
            }
        }
        Edit::Annotate => doc.insert("seen", Value::Bool(true)),
        Edit::UnsetTitle => {
            doc.remove("title");
        }
        Edit::SetYear(i) => doc.insert("year", years().swap_remove(i)),
        Edit::PushTag(i) => {
            let tag = years().swap_remove(i);
            match doc.get_mut("tags") {
                Some(Value::Array(tags)) => tags.push(tag),
                Some(_) => {}
                None => doc.insert("tags", arr![tag]),
            }
        }
        Edit::SetMeta => {
            doc.set_path("meta.abstract", Value::str("icu dose"));
            doc.set_path("meta.pages", Value::int(4));
        }
    }
}

/// A collection with the indexes under test, and its hash indexes.
struct Indexed {
    coll: Collection,
    hashes: Vec<Arc<HashIndex>>,
}

fn indexed() -> Indexed {
    let coll = Collection::new(
        CollectionConfig::new("pubs")
            .with_shards(2)
            .with_text_fields(["title", "meta.abstract"]),
    );
    let hashes = HASHED
        .iter()
        .map(|p| coll.create_hash_index(*p).unwrap())
        .collect();
    Indexed { coll, hashes }
}

/// Where `live`'s indexes differ from those of a collection holding the
/// same documents, built from scratch.
fn index_difference(live: &Indexed) -> Option<String> {
    let fresh = indexed();
    for doc in live.coll.scan_all() {
        fresh.coll.insert(doc).unwrap();
    }
    difference(live, &fresh)
}

/// Where `live`'s indexes differ from `fresh`'s.
fn difference(live: &Indexed, fresh: &Indexed) -> Option<String> {
    let (a, b) = (
        live.coll.text_index().unwrap(),
        fresh.coll.text_index().unwrap(),
    );
    if a.term_count() != b.term_count() {
        return Some(format!(
            "{} stems vs {} fresh",
            a.term_count(),
            b.term_count()
        ));
    }
    let (ra, rb) = (a.read(), b.read());
    for w in WORDS {
        let s = stem(w);
        if ra.docs(&s) != rb.docs(&s) {
            return Some(format!(
                "stem {s:?}: {:?} vs fresh {:?}",
                ra.docs(&s),
                rb.docs(&s)
            ));
        }
    }
    for (ia, ib) in live.hashes.iter().zip(&fresh.hashes) {
        if ia.key_count() != ib.key_count() {
            return Some(format!(
                "{}: {} keys vs {} fresh",
                ia.path(),
                ia.key_count(),
                ib.key_count()
            ));
        }
        for v in years() {
            if ia.lookup(&v) != ib.lookup(&v) {
                return Some(format!(
                    "{} = {}: {:?} vs fresh {:?}",
                    ia.path(),
                    v.to_json(),
                    ia.lookup(&v),
                    ib.lookup(&v)
                ));
            }
        }
    }
    None
}

fn apply(c: &Collection, op: &Op) {
    // Writes that fail (a duplicate insert, a missing id) must leave the
    // indexes as they were: the check after each write covers them too.
    let _ = match op {
        Op::Insert(id, doc) => {
            let mut doc = doc.clone();
            doc.insert("_id", Value::str(IDS[*id]));
            c.insert(doc).map(|_| ())
        }
        Op::Replace(id, doc) => c.replace(IDS[*id], doc.clone()),
        Op::Update(id, e) => c.update(IDS[*id], |doc| edit(*e, doc)),
    };
}

#[test]
fn indexes_after_every_write_equal_a_fresh_build() {
    prop::run_shrink(
        160,
        |rng| prop::vec_of(rng, 1, 40, gen_op),
        |ops| prop::shrink_vec(ops, |_| Vec::new()),
        |ops| {
            let c = indexed();
            for (step, op) in ops.iter().enumerate() {
                apply(&c.coll, op);
                if let Some(diff) = index_difference(&c) {
                    return Err(format!("after write {step} ({op:?}): {diff}"));
                }
            }
            Ok(())
        },
    );
}

/// `insert_parallel` runs no more workers than documents; whatever the
/// batch size against the thread count, it must land what sequential
/// `insert` lands: the same count, the same `DuplicateId` for an id
/// already stored, the same documents and the same indexes.
#[test]
fn parallel_insert_of_small_batches_equals_sequential_insert() {
    let mut rng = SmallRng::seed_from_u64(0x1ab5);
    for docs in 0..4 {
        for threads in [0, 1, 2, 4, 8] {
            for duplicate in [false, true] {
                let mut batch: Vec<Value> = (0..docs)
                    .map(|i| {
                        let mut doc = gen_doc(&mut rng);
                        doc.insert("_id", Value::str(IDS[i + 1]));
                        doc
                    })
                    .collect();
                let (seq, par) = (indexed(), indexed());
                if duplicate {
                    // The clash is last, so sequential insert has landed
                    // every other document when it stops.
                    let stored = obj! { "_id" => IDS[0], "title" => "mask" };
                    seq.coll.insert(stored.clone()).unwrap();
                    par.coll.insert(stored).unwrap();
                    batch.push(obj! { "_id" => IDS[0], "title" => "dose" });
                }
                let want = batch
                    .iter()
                    .try_fold(0, |n, doc| seq.coll.insert(doc.clone()).map(|_| n + 1));
                let got = par.coll.insert_parallel(batch, threads);
                let ctx = format!("{docs} docs, {threads} threads, duplicate {duplicate}");
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{ctx}");
                assert_eq!(par.coll.scan_all(), seq.coll.scan_all(), "{ctx}");
                assert_eq!(difference(&par, &seq), None, "{ctx}");
            }
        }
    }
}
