//! `SearchPage::to_body` pinned by a count: it writes the whole page into
//! one `String` sized up front, so the number of allocations it makes
//! does not grow with the number of results or the size of the body.

use covidkg_search::result::{FieldSnippet, SearchPage, SearchResult};
use covidkg_text::Snippet;
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

/// A page of `results` results with `snippets` snippets each, in the
/// shape the engines produce (a title, an abstract, a body excerpt).
fn page(results: usize, snippets: usize) -> SearchPage {
    let snippet = |i: usize| FieldSnippet {
        field: ["title", "abstract", "body"][i % 3].to_string(),
        snippet: Snippet {
            text: "Universal masking in schools reduced SARS-CoV-2 transmission by \
                   an estimated 38% (95% CI 21-52%) across the \"high-density\" cohort, \
                   with mask adherence measured by observers."
                .into(),
            highlights: vec![(11, 18), (61, 73)],
            leading_ellipsis: i > 0,
            trailing_ellipsis: true,
        },
    };
    SearchPage {
        query: "masks \"schools\"".into(),
        page: 0,
        page_size: 10,
        total: 4_127,
        results: (0..results)
            .map(|r| SearchResult {
                id: format!("cord-{r:06}"),
                title: format!("Mask mandates and school transmission, cohort {r}"),
                score: 12.25 - r as f64 * 0.731,
                snippets: (0..snippets).map(snippet).collect(),
                collapsed: (0..snippets).map(snippet).collect(),
            })
            .collect(),
    }
}

#[test]
fn to_body_allocates_once_whatever_the_page_size() {
    let small = page(1, 1);
    let large = page(10, 3);
    let ((small_body, _), small_allocs) = counted(|| small.to_body());
    let ((large_body, _), large_allocs) = counted(|| large.to_body());
    assert!(large_body.len() > 10 * small_body.len());
    assert_eq!(
        small_allocs,
        large_allocs,
        "to_body made {small_allocs} allocations for a {}-byte 1-result page and \
         {large_allocs} for a {}-byte 10-result, 3-snippet page (1 and 1 when written)",
        small_body.len(),
        large_body.len(),
    );
    assert_eq!(large_allocs, 1, "the body's own buffer, reserved once");
}
