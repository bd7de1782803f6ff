//! A search `page` is unbounded on the wire (`?page=` parses any
//! `usize`), so the rank arithmetic behind it must not overflow: a page
//! past the end, however far, is an empty page, and nothing panics or
//! reaches the class's breaker. A page above `i64::MAX` is served, and
//! echoed, as page `i64::MAX`.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_net::{router, Parser, WireStats};
use covidkg_serve::{ServeConfig, Server};
use std::time::Duration;

/// The first page whose first rank, `page × 10`, overflows `usize`, and
/// the largest page there is, each with the page its body echoes.
const HUGE_PAGES: [(&str, &str); 2] = [
    ("1844674407370955162", "1844674407370955162"),
    ("18446744073709551615", "9223372036854775807"),
];

#[test]
fn a_page_past_the_end_is_empty_for_every_lexical_engine() {
    let system = CovidKg::build(CovidKgConfig {
        corpus_size: 24,
        max_training_rows: 300,
        ..CovidKgConfig::default()
    })
    .unwrap();
    // One failure would open a class's breaker for the whole test.
    let server = Server::start(
        system,
        ServeConfig {
            breaker_min_samples: 1,
            breaker_error_rate: 0.0,
            breaker_cooldown: Duration::from_secs(600),
            ..ServeConfig::default()
        },
    );
    for search in [
        "/search/all-fields?q=vaccine",
        "/search/tables?q=vaccine",
        "/search/scoped?q=&caption=vaccine",
    ] {
        let first = get(&server, search);
        assert!(!first.contains("\"results\":[]"), "{search} has hits: {first}");
        for (page, echo) in HUGE_PAGES {
            let body = get(&server, &format!("{search}&page={page}"));
            assert!(body.contains("\"results\":[]"), "{search} page {page}: {body}");
            assert!(body.contains(&format!("\"page\":{echo},")), "{search} page {page}: {body}");
        }
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.breaker_opens, 0);
    assert_eq!(stats.degraded, 0);
}

/// `target`'s body through `router::handle`, asserting a 200.
fn get(server: &Server, target: &str) -> String {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: covidkg\r\n\r\n");
    let req = Parser::new().feed(raw.as_bytes()).unwrap().expect("one whole request");
    let resp = router::handle(server, &WireStats::default(), None, &req);
    assert_eq!(resp.status, 200, "{target}");
    String::from_utf8(resp.body.to_vec()).unwrap()
}
