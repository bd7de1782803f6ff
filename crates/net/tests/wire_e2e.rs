//! End-to-end tests over real TCP sockets: a `std::net::TcpStream`
//! client against a live [`HttpServer`], checking the acceptance
//! contract — byte-identical JSON to the in-process API, honest
//! backpressure statuses, keep-alive, reaping and graceful shutdown.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_net::{HttpClient, HttpServer, NetConfig};
use covidkg_search::SearchMode;
use covidkg_serve::{InjectedFaults, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_system() -> CovidKg {
    CovidKg::build(CovidKgConfig {
        corpus_size: 24,
        max_training_rows: 300,
        ..CovidKgConfig::default()
    })
    .unwrap()
}

fn start_stack(serve_config: ServeConfig, net_config: NetConfig) -> (Arc<Server>, HttpServer) {
    let serve = Arc::new(Server::start(build_system(), serve_config));
    let http = HttpServer::start(Arc::clone(&serve), net_config).unwrap();
    (serve, http)
}

fn client(http: &HttpServer) -> HttpClient {
    HttpClient::connect(http.local_addr(), Duration::from_secs(10)).unwrap()
}

#[test]
fn wire_json_is_byte_identical_to_in_process_api() {
    let (serve, http) = start_stack(ServeConfig::default(), NetConfig::default());
    let mut conn = client(&http);
    let cases = [
        ("all-fields", "vaccine", SearchMode::AllFields("vaccine".into()), 0),
        ("all-fields", "vaccine", SearchMode::AllFields("vaccine".into()), 1),
        ("tables", "mortality", SearchMode::Tables("mortality".into()), 0),
        (
            "scoped",
            "vaccine",
            SearchMode::TitleAbstractCaption {
                title: "vaccine".into(),
                abstract_q: "vaccine".into(),
                caption: "vaccine".into(),
            },
            0,
        ),
    ];
    for (engine, q, mode, page) in cases {
        let expected = serve.search_direct(&mode, page).to_json().to_json();
        let target = format!("/search/{engine}?q={q}&page={page}");
        let resp = conn.get(&target).unwrap();
        assert_eq!(resp.status, 200, "{target}: {}", resp.text());
        assert_eq!(
            resp.header("content-type"),
            Some("application/json"),
            "{target}"
        );
        assert_eq!(
            resp.body,
            expected.as_bytes(),
            "wire body for {target} differs from in-process JSON"
        );
    }
}

#[test]
fn cache_hits_are_flagged_but_bodies_stay_identical() {
    let (_serve, http) = start_stack(ServeConfig::default(), NetConfig::default());
    let mut conn = client(&http);
    let target = "/search/all-fields?q=antibody&page=0";
    let first = conn.get(target).unwrap();
    let second = conn.get(target).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.header("x-generation"), second.header("x-generation"));
    assert_eq!(
        first.body, second.body,
        "cache hit must be byte-identical to the miss that filled it"
    );
}

/// The serve cache keys a search by its stems, so two spellings of one
/// query share an entry; the hit must still echo the request's own text.
#[test]
fn a_cache_hit_echoes_the_requests_own_query() {
    let (serve, http) = start_stack(ServeConfig::default(), NetConfig::default());
    let mut conn = client(&http);
    for (engine, first, second) in [
        ("all-fields", "immunity", "immunization"),
        ("scoped", "vaccines", "Vaccine"),
        ("hybrid", "masks%20vaccine", "Vaccine%20masks"),
    ] {
        let miss = conn.get(&format!("/search/{engine}?q={first}")).unwrap();
        let hit = conn.get(&format!("/search/{engine}?q={second}")).unwrap();
        assert_eq!(miss.header("x-cache"), Some("miss"), "{engine}");
        assert_eq!(hit.header("x-cache"), Some("hit"), "{engine}: one shared entry");
        let query = |body: &[u8]| {
            let page = covidkg_json::parse(std::str::from_utf8(body).unwrap()).unwrap();
            page.path("query").and_then(|q| q.as_str()).unwrap().to_string()
        };
        let spoken = second.replace("%20", " ");
        match engine {
            "scoped" => assert!(query(&hit.body).contains(&format!("title:{spoken}")), "{engine}"),
            _ => assert_eq!(query(&hit.body), spoken, "{engine}"),
        }
        assert_ne!(query(&hit.body), query(&miss.body), "{engine}");
        // Apart from the echo the hit is the page the miss computed.
        let echo = |body: &[u8]| String::from_utf8_lossy(body).replacen(&query(body), "", 1);
        assert_eq!(echo(&hit.body), echo(&miss.body), "{engine}");
    }
    drop(serve);
}

#[test]
fn overloaded_queue_maps_to_503_with_retry_after() {
    // One worker held by an injected delay and a queue of one: the next
    // request waits past its deadline (504), and the one after finds the
    // queue full (503 + Retry-After, at once).
    let (serve, http) = start_stack(
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            default_deadline: Duration::from_millis(150),
            ..ServeConfig::default()
        },
        NetConfig::default(),
    );
    serve.set_injected_faults(Some(InjectedFaults {
        delay_every: 1,
        delay: Duration::from_millis(600),
        ..InjectedFaults::default()
    }));
    let get = |i: usize| {
        let mut conn = client(&http);
        move || conn.get(&format!("/search/all-fields?q=q{i}&page=0")).unwrap()
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let t0 = Instant::now();
        while !done() {
            assert!(t0.elapsed() < Duration::from_secs(5), "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    std::thread::scope(|scope| {
        let running = scope.spawn(get(0));
        wait_for("the first request never ran", &|| serve.stats().requests_all_fields == 1);
        let queued = scope.spawn(get(1));
        wait_for("the second request never queued", &|| serve.stats().queue_depth == 1);
        let rejected = get(2)();
        assert_eq!(rejected.status, 503, "{}", rejected.text());
        assert_eq!(rejected.header("retry-after"), Some("1"), "503 carries Retry-After");
        assert_eq!(queued.join().unwrap().status, 504);
        assert_eq!(running.join().unwrap().status, 200);
    });
    let wire = http.wire_stats();
    for status in [200, 503, 504] {
        assert_eq!(wire.responses_by_status.get(&status), Some(&1), "{wire:?}");
    }
}

#[test]
fn kg_stats_and_metrics_endpoints_answer() {
    let (serve, http) = start_stack(ServeConfig::default(), NetConfig::default());
    let mut conn = client(&http);

    let node = conn.get("/kg/node/0").unwrap();
    assert_eq!(node.status, 200, "{}", node.text());
    let parsed = covidkg_json::parse(&node.text()).unwrap();
    assert_eq!(parsed.get("id").and_then(|v| v.as_f64()), Some(0.0));
    assert!(parsed.get("label").is_some());
    assert!(parsed.get("children").is_some());
    let missing = conn.get("/kg/node/999999").unwrap();
    assert_eq!(missing.status, 404);
    let bad = conn.get("/kg/node/banana").unwrap();
    assert_eq!(bad.status, 400);

    let stats = conn.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let parsed = covidkg_json::parse(&stats.text()).unwrap();
    let docs = parsed.get("documents").and_then(|v| v.as_f64()).unwrap();
    let expected = serve.with_system(|s| s.stats().total_docs());
    assert_eq!(docs as usize, expected);

    conn.get("/search/all-fields?q=vaccine&page=0").unwrap();
    let metrics = conn.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("covidkg_net_connections_accepted"), "{text}");
    assert!(text.contains("covidkg_serve_cache_misses"), "{text}");
    assert!(text.contains("covidkg_net_responses{status=\"200\"}"), "{text}");

    let lost = conn.get("/no/such/path").unwrap();
    assert_eq!(lost.status, 404);
}

#[test]
fn malformed_and_oversized_requests_get_4xx_and_close() {
    let (_serve, http) = start_stack(ServeConfig::default(), NetConfig::default());

    let mut conn = client(&http);
    let resp = conn.send_raw(b"BOGUS LINE EXTRA WORDS HERE\r\n\r\n").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.wants_close(), "parse errors poison the connection");

    let mut conn = client(&http);
    let mut long = Vec::from(&b"GET /"[..]);
    long.resize(10 * 1024, b'a');
    long.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let resp = conn.send_raw(&long).unwrap();
    assert_eq!(resp.status, 431);

    let wire = http.wire_stats();
    assert!(wire.parse_errors >= 2, "{wire:?}");
}

#[test]
fn keep_alive_pipelining_and_split_writes_work_over_tcp() {
    let (serve, http) = start_stack(ServeConfig::default(), NetConfig::default());
    let expected = serve
        .search_direct(&SearchMode::AllFields("vaccine".into()), 0)
        .to_json()
        .to_json();
    let mut conn = client(&http);
    // Dribble one request a few bytes at a time; the server must
    // assemble it across reads and answer on the same connection.
    let raw = b"GET /search/all-fields?q=vaccine&page=0 HTTP/1.1\r\nHost: t\r\n\r\n";
    for chunk in raw.chunks(7) {
        use std::io::Write;
        conn.stream().write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let resp = conn.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, expected.as_bytes());
    let resp2 = conn.get("/stats").unwrap();
    assert_eq!(resp2.status, 200, "keep-alive connection survives");
}

#[test]
fn slow_loris_trickle_gets_408_despite_constant_progress() {
    let (_serve, http) = start_stack(
        ServeConfig::default(),
        NetConfig {
            read_timeout: Duration::from_millis(300),
            ..NetConfig::default()
        },
    );
    let mut conn = client(&http);
    // A deliberately trickling client: one byte per 40ms keeps the
    // socket "active" on every tick, so an idle-based deadline would
    // never fire. The cumulative per-request deadline must cut it off
    // with an honest 408 regardless of the steady progress.
    let raw = b"GET /search/all-fields?q=loris&page=0 HTTP/1.1\r\nHost: t\r\n\r\n";
    let start = std::time::Instant::now();
    let mut timed_out = None;
    for byte in raw.iter() {
        use std::io::Write;
        if conn.stream().write_all(std::slice::from_ref(byte)).is_err() {
            break; // server already hung up on us — also acceptable
        }
        std::thread::sleep(Duration::from_millis(40));
        if start.elapsed() > Duration::from_secs(3) {
            break;
        }
        // Trickling far past the deadline: the 408 should have landed.
        if start.elapsed() > Duration::from_millis(600) {
            if let Ok(resp) = conn.read_response() {
                timed_out = Some(resp);
            }
            break;
        }
    }
    let resp = timed_out
        .or_else(|| conn.read_response().ok())
        .expect("server must answer the trickler before hanging up");
    assert_eq!(resp.status, 408, "trickling client gets an honest 408");
    assert!(resp.wants_close(), "a timed-out request poisons the connection");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "the 408 must arrive promptly, not after the full request"
    );
}

#[test]
fn connection_cap_rejects_excess_with_503() {
    let (_serve, http) = start_stack(
        ServeConfig::default(),
        NetConfig {
            max_connections: 2,
            ..NetConfig::default()
        },
    );
    // Two pinned connections fill the cap.
    let mut a = client(&http);
    let mut b = client(&http);
    assert_eq!(a.get("/stats").unwrap().status, 200);
    assert_eq!(b.get("/stats").unwrap().status, 200);
    // The third is turned away at accept time.
    let mut c = client(&http);
    let resp = c.read_response().unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.wants_close());
    // Being capped out does not disturb the admitted connections.
    assert_eq!(a.get("/stats").unwrap().status, 200);
}

#[test]
fn idle_connections_are_reaped() {
    let (_serve, http) = start_stack(
        ServeConfig::default(),
        NetConfig {
            idle_timeout: Duration::from_millis(120),
            ..NetConfig::default()
        },
    );
    let mut conn = client(&http);
    assert_eq!(conn.get("/stats").unwrap().status, 200);
    // Go idle past the timeout; the server must close on us.
    std::thread::sleep(Duration::from_millis(400));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let wire = http.wire_stats();
        if wire.connections_reaped >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle connection never reaped: {wire:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (serve, mut http) = start_stack(ServeConfig::default(), NetConfig::default());
    let addr = http.local_addr();
    // Launch clients that keep issuing requests while we shut down.
    let worker = std::thread::spawn(move || {
        let mut ok = 0u32;
        let mut conn = HttpClient::connect(addr, Duration::from_secs(5)).unwrap();
        for i in 0..50 {
            match conn.get(&format!("/search/all-fields?q=shutdown{}&page=0", i % 5)) {
                Ok(resp) if resp.status == 200 => ok += 1,
                // Once shutdown starts, refusals/errors are legal; every
                // response actually received must still be well-formed.
                Ok(resp) => assert!(resp.status == 503, "unexpected {}", resp.status),
                Err(_) => break,
            }
        }
        ok
    });
    std::thread::sleep(Duration::from_millis(100));
    http.shutdown();
    let ok = worker.join().unwrap();
    assert!(ok > 0, "some requests completed before shutdown");
    // The serve layer is untouched by the front-end shutdown.
    assert!(serve.worker_count() > 0);
    let direct = serve.search_direct(&SearchMode::AllFields("shutdown0".into()), 0);
    assert_eq!(direct.page, 0);
    // Shutdown is idempotent.
    http.shutdown();
}
