//! Replication-aware wire serving: a primary system behind a
//! [`ReplListener`], a full [`ReplicaNode`], and an [`HttpServer`]
//! started with a [`ReadContext`] — reads route lag-aware over HTTP,
//! read-your-writes rides the `X-Min-Seq` header (or `min_seq` query
//! parameter), and `/metrics` carries the replication series.

use covidkg_core::{CovidKg, CovidKgConfig, QueryPlan};
use covidkg_net::bench::encode_query;
use covidkg_net::{router, HttpClient, HttpServer, NetConfig, ReadContext};
use covidkg_repl::{
    ReadRouter, ReplConfig, ReplListener, ReplicaNode, ReplicaNodeConfig, ReplicaTarget,
};
use covidkg_search::{DenseMode, SearchMode};
use covidkg_serve::{ServeConfig, Server};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("covidkg-net-routed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.to_string_lossy().into_owned()
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn routed_reads_replica_headers_and_metrics_over_the_wire() {
    let system = CovidKg::build(CovidKgConfig {
        corpus_size: 24,
        max_training_rows: 300,
        data_dir: Some(scratch("primary")),
        ..CovidKgConfig::default()
    })
    .unwrap();
    let primary_server = Arc::new(Server::start(system, ServeConfig::default()));
    let sources = primary_server.with_system(|s| {
        let db = s.database();
        db.collection_names()
            .into_iter()
            .map(|name| {
                let coll = db.collection(&name).unwrap();
                (name, coll)
            })
            .collect::<Vec<_>>()
    });
    let listener = ReplListener::start(sources.clone(), ReplConfig::default()).unwrap();

    let node = ReplicaNode::start(ReplicaNodeConfig::new(
        listener.local_addr(),
        "replica-w",
        scratch("replica"),
    ))
    .unwrap();

    let pubs = sources
        .iter()
        .find(|(n, _)| n == "publications")
        .map(|(_, c)| Arc::clone(c))
        .unwrap();
    let mark = pubs.repl_watermark();
    assert!(mark > 0, "primary must have a publications watermark");
    assert!(
        wait_until(Duration::from_secs(10), || node.applied() >= mark),
        "replica never caught up before wire serving"
    );

    let watermark_pubs = Arc::clone(&pubs);
    let router = Arc::new(ReadRouter::new(
        Some(Arc::clone(&primary_server)),
        vec![ReplicaTarget::tracking(
            "replica-w",
            node.server(),
            &node.publications_state(),
        )],
        Arc::new(move || watermark_pubs.repl_watermark()),
        8,
    ));
    let http = HttpServer::start_routed(
        Arc::clone(&primary_server),
        Some(ReadContext::new(Arc::clone(&router), Some(listener.metrics()))),
        NetConfig::default(),
    )
    .unwrap();
    let mut client = HttpClient::connect(http.local_addr(), Duration::from_secs(5)).unwrap();

    // Read-your-writes at the current watermark: 200, routing headers
    // present, body byte-identical to the in-process page.
    let expected = primary_server
        .search(&SearchMode::AllFields("covid".into()), 0)
        .unwrap()
        .page
        .to_json()
        .to_json();
    let raw = format!(
        "GET /search/all-fields?q=covid HTTP/1.1\r\nHost: covidkg\r\nX-Min-Seq: {mark}\r\n\r\n"
    );
    let resp = client.send_raw(raw.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.text(), expected, "wire body must be byte-identical");
    let served_by = resp.header("X-Served-By").expect("routed header").to_string();
    assert!(served_by == "replica-w" || served_by == "primary");
    let applied: u64 = resp.header("X-Applied-Seq").unwrap().parse().unwrap();
    assert!(applied >= mark);
    resp.header("X-Replica-Lag").expect("lag header");
    // Routed 200s set the ambient read-your-writes session cookie.
    let cookie = resp.header("Set-Cookie").expect("session cookie").to_string();
    assert!(
        cookie.starts_with(&format!("covidkg-session={applied}.")),
        "cookie carries the applied sequence: {cookie}"
    );
    assert!(cookie.ends_with("; Path=/"), "{cookie}");

    // Replaying that cookie is an ambient min-seq floor: the read must
    // again be served at (or past) the sequence it encodes.
    let cookie_value = cookie.trim_end_matches("; Path=/");
    let with_cookie = format!(
        "GET /search/all-fields?q=covid HTTP/1.1\r\nHost: covidkg\r\nCookie: {cookie_value}\r\n\r\n"
    );
    let replay = client.send_raw(with_cookie.as_bytes()).unwrap();
    assert_eq!(replay.status, 200, "{}", replay.text());
    let replay_applied: u64 = replay.header("X-Applied-Seq").unwrap().parse().unwrap();
    assert!(replay_applied >= applied, "cookie floor honored");

    // The caught-up replica takes reads once its gauge mirror ticks.
    assert!(
        wait_until(Duration::from_secs(5), || {
            let r = client.send_raw(raw.as_bytes()).unwrap();
            r.status == 200 && r.header("X-Served-By") == Some("replica-w")
        }),
        "caught-up replica never served a routed read"
    );

    // `/metrics` exposes the replication series.
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains(&format!("covidkg_repl_watermark {mark}\n")), "{text}");
    assert!(text.contains("covidkg_repl_replicas 1\n"), "{text}");
    assert!(
        text.contains("covidkg_repl_replica_applied{replica=\"replica-w\"}"),
        "{text}"
    );
    assert!(text.contains("covidkg_repl_bytes_shipped "), "{text}");
    assert!(text.contains("covidkg_repl_epoch "), "{text}");
    assert!(text.contains("covidkg_repl_batches_shipped "), "{text}");
    assert!(text.contains("covidkg_repl_bytes_saved "), "{text}");
    assert!(text.contains("covidkg_repl_fenced_sessions 0\n"), "{text}");

    drop(http);
    drop(node);
}

#[test]
fn unsatisfiable_min_seq_on_a_pure_replica_pool_is_503() {
    let system = CovidKg::build(CovidKgConfig {
        corpus_size: 12,
        max_training_rows: 200,
        data_dir: Some(scratch("pure-pool")),
        ..CovidKgConfig::default()
    })
    .unwrap();
    let server = Arc::new(Server::start(system, ServeConfig::default()));

    // A pool with no primary fallback and one permanently stale target:
    // read-your-writes past its applied sequence must fail honestly.
    let router = Arc::new(ReadRouter::new(
        None,
        vec![ReplicaTarget {
            name: "stale".into(),
            server: Arc::clone(&server),
            applied: Arc::new(AtomicU64::new(3)),
            health: Arc::new(std::sync::atomic::AtomicU8::new(0)),
        }],
        Arc::new(|| 3),
        8,
    ));
    let http = HttpServer::start_routed(
        Arc::clone(&server),
        Some(ReadContext {
            router,
            metrics: None,
            epoch: None,
            ryw_deadline: Duration::from_millis(100),
        }),
        NetConfig::default(),
    )
    .unwrap();
    let mut client = HttpClient::connect(http.local_addr(), Duration::from_secs(5)).unwrap();

    // Satisfiable token (query-parameter form): the stale-but-adequate
    // replica serves it.
    let ok = client.get("/search/all-fields?q=covid&min_seq=3").unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());
    assert_eq!(ok.header("X-Served-By"), Some("stale"));

    // Unsatisfiable token: 503 with Retry-After and the best applied —
    // for a search and a KG node alike, each routed like the other.
    let miss = client.get("/search/all-fields?q=covid&min_seq=999").unwrap();
    assert_eq!(miss.status, 503, "{}", miss.text());
    assert_eq!(miss.header("Retry-After"), Some("1"));
    assert_eq!(miss.header("X-Applied-Seq"), Some("3"));
    let node = client
        .send_raw(b"GET /kg/node/0 HTTP/1.1\r\nHost: covidkg\r\nX-Min-Seq: 999\r\n\r\n")
        .unwrap();
    assert_eq!(node.status, 503, "{}", node.text());
    assert_eq!(node.header("Retry-After"), Some("1"));
    assert_eq!(node.header("X-Applied-Seq"), Some("3"));

    // Malformed token: 400, not a routed read.
    let bad = client.send_raw(
        b"GET /search/all-fields?q=covid HTTP/1.1\r\nHost: covidkg\r\nX-Min-Seq: nope\r\n\r\n",
    );
    assert_eq!(bad.unwrap().status, 400);

    drop(http);
}

/// Every op row of the route table, under a [`ReadContext`] whose pool
/// is one real [`ReplicaNode`] and no primary: each 200 is the replica's
/// answer — routing headers and session cookie set, body byte-identical
/// to the replica's own in-process serialization (a `trust=1` search
/// re-ranked by the replica's weights) — and an unknown node's 404 names
/// the replica's graph, not the front end's local one.
#[test]
fn every_op_row_is_answered_by_the_routed_replica() {
    let primary = CovidKg::build(CovidKgConfig {
        corpus_size: 24,
        max_training_rows: 300,
        data_dir: Some(scratch("every-row-primary")),
        ..CovidKgConfig::default()
    })
    .unwrap();
    let primary = Arc::new(Server::start(primary, ServeConfig::default()));
    let sources = primary.with_system(|s| {
        let db = s.database();
        let names = db.collection_names().into_iter();
        names.map(|name| (name.clone(), db.collection(&name).unwrap())).collect::<Vec<_>>()
    });
    let pubs = sources.iter().find(|(n, _)| n == "publications").unwrap().1.clone();
    let listener = ReplListener::start(sources, ReplConfig::default()).unwrap();
    let node = ReplicaNode::start(ReplicaNodeConfig::new(
        listener.local_addr(),
        "replica-r",
        scratch("every-row-replica"),
    ))
    .unwrap();
    let mark = pubs.repl_watermark();
    assert!(wait_until(Duration::from_secs(10), || node.applied() >= mark));
    let replica = node.server();
    let clock = Arc::clone(&pubs);
    let router = Arc::new(ReadRouter::new(
        None,
        vec![ReplicaTarget::tracking("replica-r", replica.clone(), &node.publications_state())],
        Arc::new(move || clock.repl_watermark()),
        u64::MAX,
    ));
    // The front end's own server holds another, smaller system.
    let local = CovidKgConfig { corpus_size: 8, max_training_rows: 50, ..CovidKgConfig::default() };
    let local = CovidKg::build(local).unwrap();
    let local = Arc::new(Server::start(local, ServeConfig::default()));
    let http = HttpServer::start_routed(
        Arc::clone(&local),
        Some(ReadContext::new(router, None)),
        NetConfig::default(),
    )
    .unwrap();
    let mut client = HttpClient::connect(http.local_addr(), Duration::from_secs(5)).unwrap();

    let q = || "covid vaccine".to_string();
    let search = |engine: &str, trust: u8| {
        format!("/search/{engine}?q={}&trust={trust}", encode_query(&q()))
    };
    let targets: Vec<(&str, String, String)> = replica.with_system(|s| {
        let plan = QueryPlan::parse("kind:category", "child", 16, 10).unwrap();
        let vaccine = s.profiles().first().expect("a profile").vaccine.clone();
        let venue = s.trust_store().venues().next().expect("a venue").to_string();
        let lexical = SearchMode::AllFields(q());
        vec![
            ("/search/", search("all-fields", 0), s.search(&lexical, 0).to_json().to_json()),
            (
                "/search/",
                search("all-fields", 1),
                s.rerank_by_trust(s.search(&lexical, 0)).to_json().to_json(),
            ),
            (
                "/search/",
                search("hybrid", 0),
                s.search_dense(&DenseMode::Hybrid(q()), 0).to_json().to_json(),
            ),
            (
                "/kg/query",
                "/kg/query?start=kind:category&steps=child&fanout=16&k=10".into(),
                s.kg_query(&plan).to_json().to_json(),
            ),
            (
                "/kg/profile/",
                format!("/kg/profile/{vaccine}"),
                s.kg_profile(&vaccine).unwrap().to_json(),
            ),
            ("/kg/node/", "/kg/node/0".into(), s.kg_node(0).unwrap().to_json()),
            ("/trust/node/", "/trust/node/0".into(), s.trust_node(0).unwrap().to_json()),
            (
                "/trust/source/",
                format!("/trust/source/{}", encode_query(&venue)),
                s.trust_source(&venue).unwrap().to_json(),
            ),
            ("/bias/report", "/bias/report".into(), s.bias_document().to_json()),
        ]
    });
    let mut covered: Vec<&str> = targets.iter().map(|(pattern, ..)| *pattern).collect();
    covered.dedup();
    assert_eq!(covered, router::op_patterns().collect::<Vec<_>>(), "one target per op row");

    for (_, target, expected) in &targets {
        let raw = format!("GET {target} HTTP/1.1\r\nHost: covidkg\r\nX-Min-Seq: {mark}\r\n\r\n");
        let resp = client.send_raw(raw.as_bytes()).unwrap();
        assert_eq!(resp.status, 200, "{target}: {}", resp.text());
        assert_eq!(resp.header("X-Served-By"), Some("replica-r"), "{target}");
        let applied: u64 = resp.header("X-Applied-Seq").expect("applied").parse().unwrap();
        assert!(applied >= mark, "{target}");
        resp.header("X-Replica-Lag").expect("lag header");
        let cookie = resp.header("Set-Cookie").expect("session cookie");
        assert!(cookie.starts_with(&format!("covidkg-session={applied}.")), "{target}: {cookie}");
        assert!(resp.text() == *expected, "{target}: not the replica's bytes");
    }

    let replica_len = replica.with_system(|s| s.kg().len());
    let local_len = local.with_system(|s| s.kg().len());
    assert_ne!(replica_len, local_len, "the two graphs must be told apart");
    let unknown = client.get("/kg/node/999999").unwrap();
    assert_eq!(unknown.status, 404, "{}", unknown.text());
    assert!(
        unknown.text().contains(&format!("no node 999999 (graph has {replica_len})")),
        "{}",
        unknown.text()
    );

    drop(http);
    drop(node);
}

/// A replica whose store has applied a write but whose derived views
/// have not refreshed yet (a refresh interval far longer than the test)
/// must not answer a read that asks for that write: the router sees the
/// sequence the views reflect, not the one the store applied. A
/// `/trust/node/0` read at the new watermark gets the primary's
/// document (the replica's would carry the pre-write trust and
/// generation) or, were there no primary, a 503 — never the stale one.
#[test]
fn applied_but_unrefreshed_replica_does_not_serve_derived_views() {
    let config = CovidKgConfig {
        corpus_size: 24,
        max_training_rows: 300,
        data_dir: Some(scratch("unrefreshed-primary")),
        ..CovidKgConfig::default()
    };
    let seed = config.seed;
    let primary = Arc::new(Server::start(CovidKg::build(config).unwrap(), ServeConfig::default()));
    let sources = primary.with_system(|s| {
        let db = s.database();
        let names = db.collection_names().into_iter();
        names.map(|name| (name.clone(), db.collection(&name).unwrap())).collect::<Vec<_>>()
    });
    let pubs = sources.iter().find(|(n, _)| n == "publications").unwrap().1.clone();
    let listener = ReplListener::start(sources, ReplConfig::default()).unwrap();
    let node = ReplicaNode::start(ReplicaNodeConfig {
        refresh_interval: Duration::from_secs(3600),
        ..ReplicaNodeConfig::new(listener.local_addr(), "replica-u", scratch("unrefreshed-replica"))
    })
    .unwrap();
    let before = pubs.repl_watermark();
    assert!(wait_until(Duration::from_secs(10), || node.applied() >= before));

    let extra = covidkg_corpus::CorpusGenerator::with_size(26, seed).generate().split_off(24);
    primary.ingest(&extra).unwrap();
    let mark = pubs.repl_watermark();
    assert!(mark > before);
    assert!(
        wait_until(Duration::from_secs(10), || node.applied() >= mark),
        "the replica's store never applied the write"
    );
    let state = node.publications_state();
    let clock = Arc::clone(&pubs);
    let router = Arc::new(ReadRouter::new(
        Some(Arc::clone(&primary)),
        vec![ReplicaTarget::tracking("replica-u", node.server(), &state)],
        Arc::new(move || clock.repl_watermark()),
        u64::MAX,
    ));
    // Past a few ticks of the gauge's mirror thread.
    std::thread::sleep(Duration::from_millis(50));
    let http = HttpServer::start_routed(
        Arc::clone(&primary),
        Some(ReadContext::new(router, None)),
        NetConfig::default(),
    )
    .unwrap();
    let mut client = HttpClient::connect(http.local_addr(), Duration::from_secs(5)).unwrap();

    let want = primary.with_system(|s| s.trust_node(0).unwrap().to_json());
    let stale = node.server().with_system(|s| s.trust_node(0).unwrap().to_json());
    assert_ne!(want, stale, "the replica's views must still be the pre-write ones");
    let raw = format!("GET /trust/node/0 HTTP/1.1\r\nHost: covidkg\r\nX-Min-Seq: {mark}\r\n\r\n");
    let resp = client.send_raw(raw.as_bytes()).unwrap();
    if !(resp.status == 503 || (resp.status == 200 && resp.text() == want)) {
        // Leak the node rather than shut it down, so the failure is
        // reported at once whatever its refresh thread is doing.
        std::mem::forget(node);
        panic!(
            "{} from {:?}: {}",
            resp.status,
            resp.header("X-Served-By"),
            resp.text()
        );
    }

    drop(http);
    drop(node);
}
