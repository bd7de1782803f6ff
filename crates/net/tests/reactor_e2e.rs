//! Reactor-specific end-to-end tests. The protocol regression suite is
//! `wire_e2e.rs`; this file covers what only the event-driven core
//! makes possible — a four-digit standing connection population on one
//! thread — plus the event-loop observability series.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_net::{HttpClient, HttpServer, NetConfig};
use covidkg_search::SearchMode;
use covidkg_serve::{Op, ServeConfig, Server};
use std::borrow::Cow;
use std::io::Write;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
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
/// ready-events histogram, the open gauge — and the one queue's depth.
#[test]
fn metrics_expose_epoll_and_queue_series() {
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
    // Quiet wire: nothing should be sitting in the serve queue, and
    // there is no other queue to report.
    assert_eq!(series_value("covidkg_serve_queue_depth"), 0);
    assert!(!text.contains("dispatch"), "{text}");
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
/// dispatched to the serve queue individually.
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
    conn.stream().write_all(&burst).unwrap();
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

/// `SO_RCVBUF` through the C library: std has no setter and the
/// workspace is std-only (the reactor declares its epoll calls the same
/// way).
fn shrink_receive_buffer(stream: &TcpStream, bytes: i32) {
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    // SAFETY: `stream` owns an open socket for the length of the call,
    // and `value`/`len` describe one live `i32`, which is what
    // `SO_RCVBUF` reads.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &bytes, 4) };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

/// The largest hot body of the small corpus, its target, and how many
/// pipelined hits of it overflow any socket buffer between the reactor
/// and a peer that is not reading.
const BIG: &str = "/search/all-fields?q=vaccine+side+effects&page=0";
const BURST: usize = 400;

/// Pipeline `burst` hits of `BIG` at a peer that is not reading, and
/// wait until the reactor has answered them all — into the socket while
/// it took bytes, into the connection's buffer after. (Not smaller than
/// this: below the loopback MSS the receiver only reopens its window on
/// the sender's persist timer, and the test takes minutes.)
fn burst_of_hits(conn: &mut HttpClient, http: &HttpServer, burst: usize) {
    shrink_receive_buffer(conn.stream(), 32 * 1024);
    let answered = http.wire_stats().requests;
    let request = format!("GET {BIG} HTTP/1.1\r\nHost: t\r\n\r\n");
    conn.stream()
        .write_all(request.repeat(burst).as_bytes())
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while http.wire_stats().requests < answered + burst as u64 {
        assert!(
            Instant::now() < deadline,
            "burst never answered: {:?}",
            http.wire_stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A reader that stalls mid-body gets what an unstalled one gets. The
/// reactor offers head and shared body to the socket in one vectored
/// write and copies only what the socket did not take; whatever the
/// split, every pipelined reply arrives whole, in order and identical.
#[test]
fn a_reader_that_stalls_mid_body_receives_identical_bytes() {
    let (_serve, http) = start_stack(ServeConfig::default(), NetConfig::default());
    let mut plain = client(&http);
    assert_eq!(plain.get(BIG).unwrap().status, 200);
    let unstalled = plain.get(BIG).unwrap();
    assert_eq!(unstalled.header("x-cache"), Some("hit"));
    assert!(unstalled.body.len() > 8 * 1024, "a body worth stalling on");

    let mut stalled = client(&http);
    burst_of_hits(&mut stalled, &http, BURST);
    let sent = http.wire_stats().bytes_out;
    assert!(
        (sent as usize) < BURST * unstalled.body.len(),
        "the peer's full buffers stalled the writer: {sent} bytes out"
    );
    for i in 0..BURST {
        let resp = stalled.read_response().unwrap();
        assert_eq!(resp.status, 200, "reply {i}");
        assert_eq!(resp.headers, unstalled.headers, "reply {i}");
        assert!(
            resp.body == unstalled.body,
            "reply {i} differs from the unstalled reply"
        );
    }
}

/// A peer that accepts no bytes for `write_timeout` is cut off mid-write,
/// and takes nothing of the cache entry with it: the entry's only
/// holders afterwards are the cache and this test. The peer first reads
/// until the writer moves again (twice `BURST`, so that more stays
/// buffered than that one step takes), which makes the deadline that
/// cuts it off one that write progress has moved since the stall began;
/// with the read and idle deadlines half a minute out, only the write
/// deadline can be what closes the connection in time.
#[test]
fn a_connection_cut_off_mid_write_frees_its_share_of_the_entry() {
    let (serve, http) = start_stack(
        ServeConfig::default(),
        NetConfig {
            write_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            ..NetConfig::default()
        },
    );
    let op = Op::Search(
        Cow::Owned(SearchMode::AllFields("vaccine side effects".into())),
        0,
        false,
    );
    let entry = serve.request(&op).unwrap().expect("a page").entry;
    let holders = Arc::strong_count(&entry);

    let mut stalled = client(&http);
    burst_of_hits(&mut stalled, &http, 2 * BURST);
    let mut delivered = 0;
    let stuck_at = http.wire_stats().bytes_out;
    while http.wire_stats().bytes_out == stuck_at {
        assert_eq!(stalled.read_response().unwrap().status, 200);
        delivered += 1;
        assert!(delivered < BURST, "reading never moved the writer");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while http.wire_stats().connections_active > 0 {
        assert!(
            Instant::now() < deadline,
            "write deadline never fired: {:?}",
            http.wire_stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let wire = http.wire_stats();
    assert!(
        (wire.bytes_out as usize) < 2 * BURST * entry.as_bytes().len(),
        "cut off mid-write, not after delivering everything: {wire:?}"
    );
    assert_eq!(
        Arc::strong_count(&entry),
        holders,
        "nothing else still holds the entry"
    );
    delivered += std::iter::from_fn(|| stalled.read_response().ok()).count();
    assert!(delivered < 2 * BURST, "the peer saw the connection close early");
}
