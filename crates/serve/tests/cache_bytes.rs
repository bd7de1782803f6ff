//! The cache's byte budget against the allocator's own count. An entry
//! is the serialized body plus the typed page — every snippet of it,
//! the collapsed ones (most of a page, and once skipped) included — so
//! `resident_bytes` must track what the heap actually holds, and
//! `cache_max_bytes` must bound it.

use covidkg_search::result::FieldSnippet;
use covidkg_search::{SearchPage, SearchResult};
use covidkg_serve::{Entry, QueryCache};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Bytes live on the heap, process-wide (this file is one test).
struct Live;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is passed to `System` unchanged; the counting beside
// it touches only counters (never the allocator, so it cannot recurse).
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Live = Live;

fn snippet(field: &str, seed: usize) -> FieldSnippet {
    FieldSnippet {
        field: field.to_string(),
        snippet: covidkg_text::Snippet {
            text: format!("{seed:04} vaccine efficacy against severe outcomes ")
                .repeat(3 + seed % 3),
            highlights: (0..2 + seed % 4).map(|i| (i * 9, i * 9 + 7)).collect(),
            leading_ellipsis: true,
            trailing_ellipsis: seed % 3 == 1,
        },
    }
}

/// Ten results, each with two shown snippets and a dozen collapsed.
fn collapsed_heavy_page(seed: usize) -> SearchPage {
    SearchPage {
        query: format!("vaccine outcomes {seed}"),
        page: 0,
        page_size: 10,
        total: 40 + seed,
        results: (0..10)
            .map(|r| SearchResult {
                id: format!("paper-{seed}-{r}"),
                title: format!("Outcomes of vaccination, cohort {seed}/{r}"),
                score: 10.0 - r as f64,
                snippets: (0..2).map(|i| snippet("abstract", seed + r + i)).collect(),
                collapsed: (0..12).map(|i| snippet("body", seed * 7 + r + i)).collect(),
            })
            .collect(),
    }
}

fn fill(cache: &QueryCache, pages: usize) {
    for seed in 0..pages {
        let entry = Arc::new(Entry::from(Arc::new(collapsed_heavy_page(seed))));
        cache.insert(format!("all|s=outcom,vaccin;y=;p=|{seed}"), 1, entry);
    }
}

#[test]
fn resident_bytes_track_the_heap_and_the_budget_bounds_it() {
    let live = || LIVE.load(Ordering::Relaxed);

    // Unbounded: what the cache says it holds is what the heap holds.
    let before = live();
    let cache = QueryCache::new(256, 8);
    fill(&cache, 100);
    let (measured, resident) = ((live() - before) as f64, cache.resident_bytes() as f64);
    assert_eq!(cache.len(), 100);
    let off = (resident - measured).abs() / measured;
    println!("100 collapsed-heavy pages: {measured} B live, {resident} B accounted ({off:.4} off)");
    assert!(
        off <= 0.10,
        "accounted {resident} B, heap holds {measured} B"
    );
    let per_entry = resident as usize / 100;
    drop(cache);

    // Bounded at a budget that fits about a third of them: the heap
    // stays under the budget, by evicting.
    let budget = per_entry * 32;
    let before = live();
    let cache = QueryCache::with_limits(256, 8, None, Some(budget));
    fill(&cache, 100);
    let (measured, stats) = ((live() - before) as usize, cache.stats());
    println!("budget {budget} B: {measured} B live, {stats:?}");
    assert!(stats.evicted_bytes > 0 && stats.resident < 100, "{stats:?}");
    assert!(stats.resident_bytes <= budget, "{stats:?}");
    assert!(
        measured <= budget,
        "heap holds {measured} B under a {budget} B budget"
    );
}
