//! `SearchPage::to_body` writes the page straight to bytes; the
//! `Value`-tree serialization `to_json().to_json()` is its oracle. For
//! random pages — hostile text in every string, empty and missing
//! sections, every float shape a score can take — the two agree to the
//! byte, and the recorded echo range holds exactly the query's literal.

use covidkg_rand::prop::{self, charset_string, pick, vec_of};
use covidkg_rand::{Rng, SmallRng};
use covidkg_search::result::{FieldSnippet, SearchPage, SearchResult};
use covidkg_text::Snippet;

/// Text that makes the writer escape, straddle 8-byte chunks with
/// multi-byte UTF-8, and meet the characters JSON leaves alone.
fn hostile(rng: &mut SmallRng, max: usize) -> String {
    const CHARS: &[char] = &[
        'a', 'b', 'z', ' ', '.', '-', '0', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}',
        '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', '\u{2028}', '\u{2029}', '漢', '😷', '\u{feff}',
    ];
    if rng.gen_bool(0.2) {
        // Long clean runs, so the chunked scan runs many steps in a row.
        let mut s = "x".repeat(rng.gen_range(0..40));
        s.push_str(&charset_string(rng, CHARS, 0, 3));
        s
    } else {
        charset_string(rng, CHARS, 0, max)
    }
}

fn score(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..3) {
        0 => *pick(
            rng,
            &[
                0.0,
                -0.0,
                1.0,
                1e15,
                1e-300,
                f64::NAN,
                f64::INFINITY,
                -2.5,
                999_999_999_999_999.0,
                f64::MAX,
                f64::MIN_POSITIVE,
            ],
        ),
        1 => rng.gen_range(-50.0..50.0),
        _ => f64::from(rng.gen_range(0u32..1000)),
    }
}

fn snippet(rng: &mut SmallRng) -> FieldSnippet {
    FieldSnippet {
        field: pick(rng, &["title", "abstract", "table", "figure", "body"]).to_string(),
        snippet: Snippet {
            text: hostile(rng, 48),
            highlights: vec_of(rng, 0, 4, |r| {
                let s: usize = r.gen_range(0..200);
                (s, s + r.gen_range(0..12usize))
            }),
            leading_ellipsis: rng.gen_bool(0.5),
            trailing_ellipsis: rng.gen_bool(0.5),
        },
    }
}

fn page(rng: &mut SmallRng) -> SearchPage {
    SearchPage {
        query: hostile(rng, 24),
        page: rng.gen_range(0..5),
        page_size: *pick(rng, &[0, 1, 10]),
        total: *pick(rng, &[0, 7, 10, 123_456, usize::MAX]),
        results: vec_of(rng, 0, 10, |r| SearchResult {
            id: hostile(r, 12),
            title: hostile(r, 40),
            score: score(r),
            snippets: vec_of(r, 0, 3, snippet),
            collapsed: vec_of(r, 0, 3, snippet),
        }),
    }
}

fn assert_parity(page: &SearchPage) {
    let (body, echo) = page.to_body();
    assert_eq!(
        body,
        page.to_json().to_json(),
        "to_body differs from its oracle"
    );
    assert_eq!(
        body[echo],
        *SearchPage::query_literal(&page.query),
        "the echo range is not the query's literal"
    );
}

#[test]
fn to_body_equals_the_value_tree_serialization() {
    prop::run(512, |rng| assert_parity(&page(rng)));
}

/// The shapes a random page reaches only sometimes, each on its own.
#[test]
fn edge_pages_equal_the_value_tree_serialization() {
    let result =
        |score: f64, snippets: Vec<FieldSnippet>, collapsed: Vec<FieldSnippet>| SearchResult {
            id: String::new(),
            title: "\"\\\u{0}".into(),
            score,
            snippets,
            collapsed,
        };
    let marked = FieldSnippet {
        field: "abstract".into(),
        snippet: Snippet {
            text: "masks \"reduce\" transmission".into(),
            highlights: vec![(0, 5), (7, 13), (usize::MAX - 1, usize::MAX)],
            leading_ellipsis: true,
            trailing_ellipsis: true,
        },
    };
    let bare = FieldSnippet {
        field: String::new(),
        snippet: Snippet {
            text: String::new(),
            highlights: Vec::new(),
            leading_ellipsis: false,
            trailing_ellipsis: false,
        },
    };
    let mut pages = vec![SearchPage {
        query: String::new(),
        page: 0,
        page_size: 10,
        total: 0,
        results: Vec::new(),
    }];
    for score in [0.0, -0.0, 1.0, 1e15, 1e-300, f64::NAN] {
        pages.push(SearchPage {
            query: "\u{2028}\"q\"\\".into(),
            page: 3,
            page_size: 10,
            total: 31,
            results: vec![
                result(score, Vec::new(), Vec::new()),
                result(
                    score,
                    vec![marked.clone()],
                    vec![bare.clone(), marked.clone()],
                ),
            ],
        });
    }
    for page in &pages {
        assert_parity(page);
    }
    assert!(pages[2].to_body().0.contains("\"score\":-0.0,"));
    assert!(pages[6].to_body().0.contains("\"score\":null,"));
}
