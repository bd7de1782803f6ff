//! Reactor-specific end-to-end tests. The protocol regression suite is
//! `wire_e2e.rs`; this file covers what only the event-driven core
//! makes possible — a four-digit standing connection population on one
//! thread — plus the event-loop observability series.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_net::{HttpClient, HttpServer, NetConfig};
use covidkg_search::SearchMode;
use covidkg_serve::{ServeConfig, Server};
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

/// The headline capability: ~1000 idle keep-alive sockets held open at
/// once — 15x the seed's 64-thread ceiling — while fresh requests on
/// new connections still complete promptly. Under thread-per-connection
/// this population would cost a thousand parked OS threads (or be
/// refused outright); under the reactor it is a thousand fds and a
/// slab.
#[test]
fn a_thousand_idle_connections_do_not_starve_fresh_requests() {
    const HELD: usize = 1000;
    let (_serve, http) = start_stack(
        ServeConfig::default(),
        NetConfig {
            // Idle long enough that the held population survives the
            // whole test without the reaper thinning it out.
            idle_timeout: Duration::from_secs(120),
            ..NetConfig::default()
        },
    );
    let addr = http.local_addr();
    let mut held = Vec::with_capacity(HELD);
    for i in 0..HELD {
        match HttpClient::connect(addr, Duration::from_secs(10)) {
            Ok(conn) => held.push(conn),
            Err(e) => panic!("connection {i} of {HELD} refused: {e}"),
        }
    }
    // Give the reactor a beat to finish registering the tail.
    std::thread::sleep(Duration::from_millis(50));
    let wire = http.wire_stats();
    assert!(
        wire.connections_active >= HELD as u64,
        "all held connections stay open: {wire:?}"
    );

    // Fresh requests — some on brand-new connections, some on held
    // ones — must still be served well inside the read deadline.
    let budget = Duration::from_secs(2);
    for i in 0..10 {
        let mut fresh = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
        let t0 = Instant::now();
        let resp = fresh
            .get(&format!("/search/all-fields?q=crowd{i}&page=0"))
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert!(
            t0.elapsed() < budget,
            "request {i} took {:?} with {HELD} idle connections held",
            t0.elapsed()
        );
    }
    let sample = held.len() / 2;
    let resp = held[sample].get("/stats").unwrap();
    assert_eq!(resp.status, 200, "held connections are still serviceable");

    // The open-connections gauge sees the whole population.
    let mut probe = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
    let metrics = probe.get("/metrics").unwrap().text();
    let open = metrics
        .lines()
        .find_map(|l| l.strip_prefix("covidkg_net_open_connections "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("open-connections gauge present");
    assert!(open >= HELD as u64, "gauge {open} < {HELD}\n{metrics}");
    drop(held);
}

/// The `/metrics` page carries the event-loop series: wakeups, the
/// ready-events histogram, dispatch queue depth and the open gauge.
#[test]
fn metrics_expose_epoll_and_dispatch_series() {
    let (_serve, http) = start_stack(ServeConfig::default(), NetConfig::default());
    let mut conn = client(&http);
    for i in 0..5 {
        conn.get(&format!("/search/all-fields?q=loop{i}&page=0"))
            .unwrap();
    }
    let text = conn.get("/metrics").unwrap().text();
    let series_value = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("{name} missing from\n{text}"))
    };
    assert!(series_value("covidkg_net_epoll_wakeups") > 0);
    // Every request above produced at least one readiness event.
    assert!(series_value("covidkg_net_ready_events_per_wakeup_count") > 0);
    assert!(series_value("covidkg_net_ready_events_per_wakeup_sum") > 0);
    assert!(text.contains("covidkg_net_ready_events_per_wakeup_bucket{le=\"1\"}"), "{text}");
    assert!(text.contains("covidkg_net_ready_events_per_wakeup_bucket{le=\"+Inf\"}"), "{text}");
    assert_eq!(series_value("covidkg_net_open_connections"), 1);
    // Quiet wire: nothing should be sitting in the dispatch queue.
    assert_eq!(series_value("covidkg_net_dispatch_queue_depth"), 0);
    // Histogram buckets are cumulative: +Inf equals the count.
    let inf = text
        .lines()
        .find_map(|l| l.strip_prefix("covidkg_net_ready_events_per_wakeup_bucket{le=\"+Inf\"} "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap();
    assert_eq!(inf, series_value("covidkg_net_ready_events_per_wakeup_count"));
}

/// A burst of pipelined requests written in one packet comes back as
/// complete responses in request order, even though each request is
/// dispatched to the worker pool individually.
#[test]
fn pipelined_burst_returns_ordered_responses() {
    let (serve, http) = start_stack(ServeConfig::default(), NetConfig::default());
    let mut conn = client(&http);
    let queries = ["alpha", "beta", "gamma", "delta"];
    let mut burst = Vec::new();
    for q in queries {
        burst.extend_from_slice(
            format!("GET /search/all-fields?q={q}&page=0 HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
        );
    }
    {
        use std::io::Write;
        conn.stream().write_all(&burst).unwrap();
    }
    for q in queries {
        let expected = serve
            .search_direct(&SearchMode::AllFields(q.into()), 0)
            .to_json()
            .to_json();
        let resp = conn.read_response().unwrap();
        assert_eq!(resp.status, 200, "{q}: {}", resp.text());
        assert_eq!(
            resp.body,
            expected.as_bytes(),
            "response for {q} out of order or corrupted"
        );
    }
}

/// Rapid connect → one request → disconnect churn must not leak slab
/// slots or fds: the active gauge returns to zero.
#[test]
fn connection_churn_returns_every_slot() {
    let (_serve, http) = start_stack(ServeConfig::default(), NetConfig::default());
    for i in 0..200 {
        let mut conn = client(&http);
        let resp = conn.get("/stats").unwrap();
        assert_eq!(resp.status, 200, "churn iteration {i}");
        drop(conn);
    }
    // Closes race the gauge: wait for the reactor to observe them all.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let wire = http.wire_stats();
        if wire.connections_active == 0 {
            assert!(wire.connections_accepted >= 200, "{wire:?}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connection slots leaked: {wire:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
