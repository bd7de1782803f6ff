//! The hit path, pinned by counts. A cache hit costs a probe and a
//! write: for one warmed target per op row, `Parser::feed` +
//! `router::handle` + `Response::write_to` make at most the allocations
//! quoted below, and `handle` makes none as large as the body — the
//! cached bytes reach the writer shared, never copied or re-rendered.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_net::{router, Parser, WireStats};
use covidkg_serve::{ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (and the largest) while armed.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if ARMED.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
        LARGEST.with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every call is passed to `System` unchanged; the counting beside
// it touches only counters (never the allocator, so it cannot recurse).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s value, how many allocations this thread made inside it, and
/// the largest.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    COUNT.with(|c| c.set(0));
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, COUNT.with(Cell::get), LARGEST.with(Cell::get))
}

#[test]
fn a_hit_costs_a_probe_and_a_write() {
    let system = CovidKg::build(CovidKgConfig {
        corpus_size: 48,
        max_training_rows: 200,
        ..CovidKgConfig::default()
    })
    .unwrap();
    let vaccine = system
        .profiles()
        .first()
        .expect("a profile")
        .vaccine
        .clone();
    let venue = system
        .trust_store()
        .venues()
        .next()
        .expect("a venue")
        .replace(' ', "+");
    let server = Server::start(system, ServeConfig::default());
    let wire = WireStats::default();

    // One target per op row (every engine of the `/search/` row, and the
    // re-ranked variants, which are entries of their own), with the
    // allocations its parse / handle / write make today. Parsing owns the
    // request line and each header. Handling a lookup is the cache key
    // and the header list; a `/kg/query` also parses its plan, and a
    // search decodes the parameters it reads and parses, stems and
    // normalizes the query into its key (three times for `scoped`) —
    // which is all that is left. Writing renders the head.
    let rows: [(String, [usize; 3]); 12] = [
        (
            "/search/all-fields?q=vaccine+side+effects".into(),
            [9, 57, 1],
        ),
        ("/search/tables?q=vaccine+dose&trust=1".into(), [9, 47, 1]),
        ("/search/scoped?q=vaccine".into(), [9, 110, 1]),
        ("/search/semantic?q=vaccine+immunity".into(), [9, 13, 1]),
        (
            "/search/hybrid?q=vaccine+immunity&trust=1".into(),
            [9, 69, 1],
        ),
        (
            "/kg/query?start=kind:category&steps=child,child&k=20".into(),
            [9, 13, 1],
        ),
        (
            "/kg/query?start=kind:category&steps=child&trust=1".into(),
            [9, 13, 1],
        ),
        (format!("/kg/profile/{vaccine}"), [9, 4, 1]),
        ("/kg/node/0".into(), [9, 2, 1]),
        ("/trust/node/0".into(), [9, 2, 1]),
        (format!("/trust/source/{venue}"), [9, 5, 1]),
        ("/bias/report".into(), [9, 2, 1]),
    ];
    assert!(router::op_patterns().all(|p| rows.iter().any(|(t, _)| t.starts_with(p))));

    for (target, [parse_max, handle_max, write_max]) in &rows {
        let raw = format!("GET {target} HTTP/1.1\r\nHost: covidkg\r\n\r\n");
        let request = || {
            Parser::new()
                .feed(raw.as_bytes())
                .unwrap()
                .expect("one whole request")
        };
        let warm = router::handle(&server, &wire, None, &request());
        assert_eq!(warm.status, 200, "{target}");

        let (req, parse, _) = counted(request);
        let (resp, handle, largest) = counted(|| router::handle(&server, &wire, None, &req));
        assert!(
            resp.headers
                .iter()
                .any(|(n, v)| n == "X-Cache" && v == "hit"),
            "{target}: warmed"
        );
        let mut sink = Vec::with_capacity(resp.body.len() + 512);
        let (written, write, _) = counted(|| resp.write_to(&mut sink, false).unwrap());
        assert_eq!(written as usize, sink.len());
        assert!(
            sink.ends_with(&warm.body.to_vec()),
            "{target}: the hit's bytes are the miss's"
        );
        println!(
            "{target}: parse {parse} + handle {handle} + write {write} allocations, \
             largest in handle {largest} B, body {} B",
            resp.body.len()
        );
        assert!(
            parse <= *parse_max,
            "{target}: parse made {parse} allocations"
        );
        assert!(
            handle <= *handle_max,
            "{target}: handle made {handle} allocations"
        );
        assert!(
            write <= *write_max,
            "{target}: write made {write} allocations"
        );
        // A body copy (or a re-render) allocates at least the body's
        // length at once. Bodies smaller than the header list are not
        // told apart from it this way.
        if resp.body.len() >= 1024 {
            assert!(
                largest < resp.body.len(),
                "{target}: handle allocated {largest} B at once for a {} B body",
                resp.body.len()
            );
        }
    }
    server.shutdown();
}
