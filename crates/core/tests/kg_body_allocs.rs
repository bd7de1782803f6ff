//! The two `/kg/query` body writers pinned by a count: each writes the
//! whole body into one `String` sized up front, so the number of
//! allocations does not grow with the number of paths. The trusted
//! writer also collects its rank vector (one `(trusted_score, trust,
//! &path)` per path) and allocates nothing else.

use covidkg_core::{CovidKg, CovidKgConfig, QueryPlan};
use covidkg_kg::query::{QueryResult, RankedPath};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// `paths` 4-node paths over `system`'s graph, labelled and scored as
/// the engine labels and scores them.
fn result(system: &CovidKg, paths: usize) -> QueryResult {
    let kg = system.kg();
    QueryResult {
        paths: (0..paths)
            .map(|i| {
                let nodes: Vec<usize> = (0..4).map(|j| (i * 7 + j * 13) % kg.len()).collect();
                RankedPath {
                    labels: nodes.iter().map(|&n| kg.node(n).label.clone()).collect(),
                    nodes,
                    support: i % 9,
                    score: (i % 9 + 1) as f64 / 4.0,
                }
            })
            .collect(),
        hops: 4_127,
        visited: 1_385,
    }
}

#[test]
fn both_writers_allocate_their_body_once_whatever_the_path_count() {
    let system = CovidKg::build(CovidKgConfig {
        corpus_size: 24,
        max_training_rows: 200,
        ..CovidKgConfig::default()
    })
    .expect("system builds");
    let (small, large) = (result(&system, 1), result(&system, 100));
    let (small_body, small_allocs) = counted(|| small.to_body());
    let (large_body, large_allocs) = counted(|| large.to_body());
    assert!(large_body.len() > 50 * small_body.len());
    assert_eq!(
        (small_allocs, large_allocs),
        (1, 1),
        "to_body allocations for a {}-byte 1-path body and a {}-byte 100-path body \
         (the body's own buffer, reserved once)",
        small_body.len(),
        large_body.len(),
    );

    let (small_body, small_allocs) = counted(|| system.kg_trust_body(&small));
    let (large_body, large_allocs) = counted(|| system.kg_trust_body(&large));
    assert_eq!(
        (small_allocs, large_allocs),
        (2, 2),
        "kg_trust_body allocations for a {}-byte 1-path body and a {}-byte 100-path body \
         (the rank vector and the body's buffer)",
        small_body.len(),
        large_body.len(),
    );

    // A traversal's own result, written both ways.
    let plan = QueryPlan::parse("kind:category", "any,any", 16, 100).expect("plan parses");
    let traversed = system.kg_query(&plan);
    assert!(traversed.paths.len() > 10, "{} paths", traversed.paths.len());
    assert_eq!(counted(|| traversed.to_body()).1, 1);
    assert_eq!(counted(|| system.kg_trust_body(&traversed)).1, 2);
}
