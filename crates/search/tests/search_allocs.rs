//! A search's allocations pinned by counts: one lexical page and one
//! hybrid page over a fixed corpus, cold (every render built) and warm
//! (every render from the render cache). The ranking pass allocates per
//! query, not per candidate — the candidate merge, the postings scorer's
//! cursors and the top-k buffer's borrowed ids — and a page's renders
//! cost one probe and one insert, so nothing here is paid per matching
//! document (only the candidate list's doubling grows with their count).
//! A rise means something on the search path started allocating per
//! candidate or per hit again.

use covidkg_ann::{HnswConfig, HnswIndex};
use covidkg_json::{arr, obj, Value};
use covidkg_ml::Word2Vec;
use covidkg_rand::{Rng, SeedableRng, SmallRng};
use covidkg_search::{
    dense_search, DenseMode, HybridConfig, RenderCache, SearchEngine, SearchMode, SearchPage,
};
use covidkg_store::{Collection, CollectionConfig};
use covidkg_text::tokenize_lower;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts this thread's allocations while armed.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    if ARMED.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is passed to `System` unchanged; the counting beside
// it touches only counters (never the allocator, so it cannot recurse).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s value and how many allocations this thread made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, COUNT.with(Cell::get))
}

/// The corpus vocabulary, each word with a point in a 4-d embedding
/// space (three topic axes and a shared one).
const WORDS: [(&str, [f32; 4]); 16] = [
    ("mask", [1.0, 0.0, 0.0, 0.1]),
    ("masks", [1.0, 0.0, 0.0, 0.1]),
    ("respirator", [0.9, 0.0, 0.0, 0.2]),
    ("droplets", [0.8, 0.1, 0.0, 0.0]),
    ("transmission", [0.7, 0.2, 0.0, 0.0]),
    ("vaccine", [0.0, 1.0, 0.0, 0.1]),
    ("vaccines", [0.0, 1.0, 0.0, 0.1]),
    ("booster", [0.0, 0.9, 0.0, 0.2]),
    ("antibody", [0.1, 0.8, 0.0, 0.0]),
    ("ventilator", [0.0, 0.0, 1.0, 0.1]),
    ("icu", [0.0, 0.1, 0.9, 0.0]),
    ("oxygen", [0.0, 0.0, 0.8, 0.2]),
    ("covid", [0.3, 0.3, 0.3, 0.5]),
    ("cohort", [0.2, 0.2, 0.2, 0.9]),
    ("trial", [0.1, 0.3, 0.1, 0.8]),
    ("outcomes", [0.2, 0.1, 0.3, 0.7]),
];

fn sentence(rng: &mut SmallRng, words: usize) -> String {
    (0..words)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())].0)
        .collect::<Vec<_>>()
        .join(" ")
}

fn model() -> Word2Vec {
    let mut text = format!("{} 4\n", WORDS.len());
    for (w, v) in WORDS {
        text.push_str(&format!("{w} {} {} {} {}\n", v[0], v[1], v[2], v[3]));
    }
    Word2Vec::load_text(&text).expect("fixture model parses")
}

/// 300 publications over four shards, every ranked field indexed, with
/// their title + abstract embeddings in an HNSW index.
fn fixture() -> (SearchEngine, HnswIndex, Word2Vec) {
    let model = model();
    let mut rng = SmallRng::seed_from_u64(0x5EA6C4);
    let c = Collection::new(
        CollectionConfig::new("pubs")
            .with_shards(4)
            .with_text_fields(["title", "abstract", "tables", "figure_captions", "body"]),
    );
    let mut ann = HnswIndex::new(4, HnswConfig::default());
    for i in 0..300 {
        let id = format!("p{i:04}");
        let title = sentence(&mut rng, 5);
        let abstract_text = sentence(&mut rng, 14);
        let doc: Value = obj! {
            "_id" => id.as_str(),
            "title" => title.as_str(),
            "abstract" => abstract_text.as_str(),
            "date" => format!("20{}-0{}", 20 + i % 3, 1 + i % 9),
            "tables" => arr![ obj!{ "caption" => sentence(&mut rng, 4), "html" => "<table></table>" } ],
            "body" => arr![ obj!{ "heading" => sentence(&mut rng, 2), "text" => sentence(&mut rng, 20) } ],
        };
        c.insert(doc).unwrap();
        ann.insert(
            &id,
            &model.embed_phrase(&tokenize_lower(&format!("{title} {abstract_text}"))),
        );
    }
    let engine = SearchEngine::new(Arc::new(c)).with_render_cache(Arc::new(RenderCache::new(256)));
    (engine, ann, model)
}

/// Cold and warm counts of one page, and the page.
fn cold_and_warm(search: impl Fn() -> SearchPage) -> (SearchPage, usize, usize) {
    let (page, cold) = counted(&search);
    let (again, warm) = counted(&search);
    assert_eq!(
        page.to_json().to_json(),
        again.to_json().to_json(),
        "a warm page is the cold page"
    );
    (page, cold, warm)
}

#[test]
fn a_search_allocates_per_query_and_per_page_not_per_candidate() {
    let (engine, ann, model) = fixture();
    // First uses build process-wide tables (the synonym index): not a
    // search's cost.
    engine.search(&SearchMode::AllFields("covid".into()), 0);
    let lexical = SearchMode::AllFields("vaccine mask icu".into());
    let (page, lexical_cold, lexical_warm) = cold_and_warm(|| engine.search(&lexical, 1));
    assert!(
        page.total > 150,
        "most of the corpus is a candidate: {}",
        page.total
    );
    assert_eq!(page.results.len(), 10);

    let cfg = HybridConfig::default();
    let hybrid = DenseMode::Hybrid("vaccine booster ventilator".into());
    let (page, dense_cold, dense_warm) =
        cold_and_warm(|| dense_search(&engine, &ann, &model, &hybrid, 0, &cfg));
    assert_eq!(page.results.len(), 10);

    println!(
        "allocations: lexical page {lexical_cold} cold / {lexical_warm} warm over {} matches, \
         hybrid page {dense_cold} cold / {dense_warm} warm",
        engine.search(&lexical, 0).total
    );
    for (what, got, bound) in [
        ("lexical, cold", lexical_cold, 844),
        ("lexical, warm", lexical_warm, 317),
        ("hybrid, cold", dense_cold, 872),
        ("hybrid, warm", dense_warm, 437),
    ] {
        assert!(got <= bound, "{what}: {got} allocations, pinned at {bound}");
    }
}
