//! Splice ≡ re-render. A serve-cache entry is serialized once, by the
//! request that computed it, and every other reply under its key sends
//! those bytes with its own `query` literal in place of the entry's. For
//! seeded queries in two spellings that share a cache key, on all five
//! search classes, plain and `trust=1`: the miss body, the hit body, the
//! other spelling's hit body and (where the class may serve stale) both
//! stale bodies each equal `page.to_json().to_json()` of the page a
//! direct search of that spelling gives, and the typed
//! `ServeResponse.page.query` agrees.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_corpus::CorpusGenerator;
use covidkg_net::{router, Parser, Response, WireStats};
use covidkg_rand::prop::{pick, run_shrink, shrink_string};
use covidkg_rand::{Rng, SmallRng};
use covidkg_search::{DenseMode, SearchMode, SearchPage};
use covidkg_serve::{InjectedFaults, ServeConfig, Server};
use std::cell::Cell;

const CORPUS: usize = 24;
const ENGINES: [&str; 5] = ["all-fields", "tables", "scoped", "semantic", "hybrid"];

/// Words the corpus answers to, and the characters a JSON writer must
/// escape, pass through or encode in more than one byte.
const WORDS: [&str; 8] = [
    "vaccine",
    "Vaccines",
    "mask",
    "side effects",
    "immunity",
    "ventilators",
    "\"exact phrase\"",
    "dose",
];
const ODD: [&str; 11] = [
    "\"",
    "\\",
    "\\\"",
    "\u{1}",
    "\n",
    "\t",
    "\u{2028}",
    "\u{1F637}",
    "é",
    "\u{7f}",
    "/",
];

fn gen_query(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..10) {
        0 => String::new(),
        // 4 KiB, kept to characters that do not grow when percent-encoded
        // so the request line stays under the parser's 8 KiB cap.
        1 => "vaccine mask dose ".repeat(4096 / 18 + 1)[..4096].to_string(),
        _ => (0..rng.gen_range(1..7))
            .map(|_| {
                if rng.gen_bool(0.6) {
                    *pick(rng, &WORDS)
                } else {
                    *pick(rng, &ODD)
                }
            })
            .collect::<Vec<_>>()
            .join(if rng.gen_bool(0.7) { " " } else { "" }),
    }
}

/// Another spelling under the same cache key: keys are built from
/// lowercased tokens and trimmed, lowercased phrases.
fn respell(query: &str) -> String {
    let swapped: String = query
        .chars()
        .map(|c| {
            if c.is_ascii_lowercase() {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect();
    format!(" {swapped}  ")
}

fn encode(text: &str) -> String {
    text.bytes()
        .map(|b| match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' => (b as char).to_string(),
            b' ' => "+".to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

fn get(server: &Server, target: &str) -> Response {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: covidkg\r\n\r\n");
    let req = Parser::new()
        .feed(raw.as_bytes())
        .unwrap()
        .expect("one whole request");
    router::handle(server, &WireStats::default(), None, &req)
}

fn cache_state(resp: &Response) -> String {
    let value = resp
        .headers
        .iter()
        .find(|(n, _)| n == "X-Cache")
        .map(|(_, v)| v.to_string());
    value.unwrap_or_default()
}

/// `engine`'s search of `query`, as either tier takes it.
enum Mode {
    Lexical(SearchMode),
    Dense(DenseMode),
}

fn mode(engine: &str, query: &str) -> Mode {
    let q = || query.to_string();
    match engine {
        "semantic" => Mode::Dense(DenseMode::Semantic(q())),
        "hybrid" => Mode::Dense(DenseMode::Hybrid(q())),
        "all-fields" => Mode::Lexical(SearchMode::AllFields(q())),
        "tables" => Mode::Lexical(SearchMode::Tables(q())),
        _ => Mode::Lexical(SearchMode::TitleAbstractCaption {
            title: q(),
            abstract_q: q(),
            caption: q(),
        }),
    }
}

/// The page a direct search of `query` gives — what an in-process caller
/// serializes.
fn direct(server: &Server, engine: &str, query: &str, trust: bool) -> SearchPage {
    server.with_system(|system| {
        let page = match mode(engine, query) {
            Mode::Lexical(mode) => system.search(&mode, 0),
            Mode::Dense(mode) => system.search_dense(&mode, 0),
        };
        if trust {
            system.rerank_by_trust(page)
        } else {
            page
        }
    })
}

/// The typed reply's echoed query, through the same cache.
fn typed_query(server: &Server, engine: &str, query: &str) -> String {
    let resp = match mode(engine, query) {
        Mode::Lexical(mode) => server.search(&mode, 0),
        Mode::Dense(mode) => server.search_dense(&mode, 0),
    };
    resp.expect("served").page.query.clone()
}

fn expect(
    server: &Server,
    target: &str,
    state: &str,
    body: &str,
    what: &str,
) -> Result<(), String> {
    let resp = get(server, target);
    if resp.status != 200 || cache_state(&resp) != state {
        return Err(format!(
            "{what} {target}: {} X-Cache {:?}, wanted {state}",
            resp.status,
            cache_state(&resp)
        ));
    }
    if resp.body.to_vec() != body.as_bytes() {
        let got = String::from_utf8_lossy(&resp.body.to_vec())
            .chars()
            .take(160)
            .collect::<String>();
        let want = body.chars().take(160).collect::<String>();
        return Err(format!(
            "{what} {target} differs from re-rendering:\n   got {got}\n  want {want}"
        ));
    }
    Ok(())
}

#[test]
fn every_reply_equals_rerendering_a_page_with_its_own_query() {
    let system = CovidKg::build(CovidKgConfig {
        corpus_size: CORPUS,
        max_training_rows: 200,
        ..CovidKgConfig::default()
    })
    .unwrap();
    let server = Server::start(
        system,
        ServeConfig {
            // Injected panics must reach a worker every time, not trip a breaker.
            breaker_min_samples: u32::MAX,
            ..ServeConfig::default()
        },
    );
    let fresh = CorpusGenerator::with_size(CORPUS + 64, 7).generate();
    let ingested = Cell::new(CORPUS);

    run_shrink(
        24,
        gen_query,
        |q| shrink_string(q),
        |query| {
            let respelled = respell(query);
            let mut stale = Vec::new();
            for engine in ENGINES {
                for trust in [false, true] {
                    let knob = if trust { "&trust=1" } else { "" };
                    let target = |q: &str| format!("/search/{engine}?q={}{knob}", encode(q));
                    let (own, other) = (target(query), target(&respelled));
                    let page = direct(&server, engine, query, trust);
                    let other_page = direct(&server, engine, &respelled, trust);
                    let (body, other_body) =
                        (page.to_json().to_json(), other_page.to_json().to_json());
                    expect(&server, &own, "miss", &body, "miss")?;
                    expect(&server, &own, "hit", &body, "hit")?;
                    expect(&server, &other, "hit", &other_body, "other spelling's hit")?;
                    if !trust {
                        for (q, page) in
                            [(query.as_str(), &page), (respelled.as_str(), &other_page)]
                        {
                            let typed = typed_query(&server, engine, q);
                            if typed != page.query {
                                return Err(format!(
                                    "{engine}: typed page echoes {typed:?}, not {:?}",
                                    page.query
                                ));
                            }
                        }
                    }
                    if !matches!(engine, "semantic" | "hybrid") {
                        stale.push((own, body, other, other_body));
                    }
                }
            }
            // An ingest moves the generation on; with every worker
            // panicking, the lexical classes answer from what is resident.
            let at = ingested.get();
            ingested.set(at + 1);
            server
                .ingest(&fresh[at..at + 1])
                .map_err(|e| e.to_string())?;
            server.set_injected_faults(Some(InjectedFaults {
                panic_every: 1,
                ..InjectedFaults::default()
            }));
            let outcome = stale.iter().try_for_each(|(own, body, other, other_body)| {
                expect(&server, own, "stale", body, "stale")?;
                expect(
                    &server,
                    other,
                    "stale",
                    other_body,
                    "other spelling's stale",
                )
            });
            server.set_injected_faults(None);
            outcome
        },
    );
    server.shutdown();
}
