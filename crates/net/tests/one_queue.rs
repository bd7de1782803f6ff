//! The wire front end over the serve layer's one bounded queue: a burst
//! past the bound is turned away at the front door at once, and a routed
//! read computes on the worker that holds it instead of queueing behind
//! itself. A cache hit never meets the queue: it is answered on the
//! reactor, in request order with the misses around it, and counted as
//! exactly one hit.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_net::{
    router, HttpClient, HttpServer, NetConfig, Parser, ReadContext, Response, WireStats,
};
use covidkg_repl::{ReadRouter, ReplicaTarget};
use covidkg_serve::{InjectedFaults, ServeConfig, ServeStats, Server};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn build_system() -> CovidKg {
    CovidKg::build(CovidKgConfig {
        corpus_size: 24,
        max_training_rows: 300,
        ..CovidKgConfig::default()
    })
    .unwrap()
}

fn client(http: &HttpServer) -> HttpClient {
    HttpClient::connect(http.local_addr(), Duration::from_secs(10)).unwrap()
}

/// `target` answered in process, on the calling thread: no queue, no
/// socket.
fn in_process(serve: &Server, target: &str) -> Response {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: covidkg\r\n\r\n");
    let req = Parser::new().feed(raw.as_bytes()).unwrap().expect("one whole request");
    router::handle(serve, &WireStats::default(), None, &req)
}

/// Every miss sleeps `delay` first (`None` lifts it).
fn delay_misses(serve: &Server, delay: Option<Duration>) {
    serve.set_injected_faults(delay.map(|delay| InjectedFaults {
        delay_every: 1,
        delay,
        ..InjectedFaults::default()
    }));
}

/// Targets of several op rows.
const WARM: [&str; 6] = [
    "/search/all-fields?q=vaccine",
    "/search/tables?q=dose&trust=1",
    "/kg/query?start=kind:category&steps=child",
    "/kg/node/0",
    "/trust/node/0",
    "/bias/report",
];

/// One worker held by a 1 s injected delay, a queue of 8, and 15 more
/// connections at once: 8 wait in the queue, and the 7 past them get
/// 503 + `Retry-After` within 100 ms instead of waiting for a deadline.
#[test]
fn a_burst_past_the_queue_bound_is_turned_away_at_once() {
    const BURST: usize = 15;
    const CAPACITY: usize = 8;
    let serve = Arc::new(Server::start(
        build_system(),
        ServeConfig {
            workers: 1,
            queue_capacity: CAPACITY,
            ..ServeConfig::default()
        },
    ));
    let http = HttpServer::start(Arc::clone(&serve), NetConfig::default()).unwrap();
    serve.set_injected_faults(Some(InjectedFaults {
        delay_every: 1,
        delay: Duration::from_secs(1),
        ..InjectedFaults::default()
    }));
    let (tx, replies) = mpsc::channel();
    let get = |i: usize| {
        let (mut conn, tx) = (client(&http), tx.clone());
        move || {
            let sent = Instant::now();
            let resp = conn.get(&format!("/search/all-fields?q=burst{i}")).unwrap();
            let retry_after = resp.header("Retry-After").map(str::to_string);
            tx.send((resp.status, retry_after, sent.elapsed())).unwrap();
        }
    };
    std::thread::scope(|scope| {
        // The first request takes the worker into its injected delay.
        scope.spawn(get(0));
        let t0 = Instant::now();
        while serve.stats().requests_all_fields == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "the first request never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 1..=BURST {
            scope.spawn(get(i));
        }
        let rejected: Vec<_> = (0..BURST - CAPACITY)
            .map(|_| replies.recv_timeout(Duration::from_secs(2)).expect("a rejection"))
            .collect();
        // The queued eight may now run undelayed.
        serve.set_injected_faults(None);
        for (status, retry_after, took) in rejected {
            assert_eq!((status, retry_after.as_deref()), (503, Some("1")));
            assert!(took < Duration::from_millis(100), "rejected after {took:?}");
        }
        for _ in 0..=CAPACITY {
            let (status, ..) = replies.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(status, 200);
        }
    });
    let stats = serve.stats();
    assert_eq!(stats.overloaded as usize, BURST - CAPACITY);
    assert_eq!(stats.max_queue_depth, CAPACITY);
    assert_eq!(stats.deadline_exceeded, 0);
}

/// A routed read runs on the serve worker that dequeued it and reads the
/// replica with `Server::search` there. With the front end's own server
/// as that replica and one worker, anything but computing in place would
/// wait on the worker it occupies.
#[test]
fn a_routed_read_on_the_only_worker_computes_in_place() {
    let server = Arc::new(Server::start(
        build_system(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    ));
    let router = Arc::new(ReadRouter::new(
        Some(Arc::clone(&server)),
        vec![ReplicaTarget {
            name: "itself".into(),
            server: Arc::clone(&server),
            applied: Arc::new(AtomicU64::new(3)),
            health: Arc::new(AtomicU8::new(0)),
        }],
        Arc::new(|| 3),
        8,
    ));
    let http = HttpServer::start_routed(
        Arc::clone(&server),
        Some(ReadContext::new(router, None)),
        NetConfig::default(),
    )
    .unwrap();
    let mut conn = client(&http);
    for target in [
        "/search/all-fields?q=covid",
        "/search/tables?q=covid&trust=1",
        "/search/scoped?q=vaccine&min_seq=3",
    ] {
        let resp = conn.get(target).unwrap();
        assert_eq!(resp.status, 200, "{target}: {}", resp.text());
        assert!(resp.header("X-Served-By").is_some(), "{target} was routed");
    }
}

/// The only worker parked for a second on a cold miss, and eight
/// connections asking for warmed targets: every one is answered, a hit,
/// within 100 ms, while the miss is still parked.
#[test]
fn hits_keep_flowing_while_every_worker_is_held() {
    let serve = Arc::new(Server::start(
        build_system(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    ));
    let http = HttpServer::start(Arc::clone(&serve), NetConfig::default()).unwrap();
    let mut warm = client(&http);
    for target in WARM {
        assert_eq!(warm.get(target).unwrap().status, 200, "{target}");
    }
    delay_misses(&serve, Some(Duration::from_secs(1)));
    let misses = serve.stats().cache_misses;
    let parked = std::thread::spawn({
        let mut conn = client(&http);
        move || conn.get("/search/all-fields?q=parked+miss").unwrap().status
    });
    let t0 = Instant::now();
    while serve.stats().cache_misses == misses {
        assert!(t0.elapsed() < Duration::from_secs(5), "the miss never reached the worker");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut conns: Vec<HttpClient> = (0..8).map(|_| client(&http)).collect();
    std::thread::scope(|scope| {
        for (i, conn) in conns.iter_mut().enumerate() {
            scope.spawn(move || {
                let target = WARM[i % WARM.len()];
                let sent = Instant::now();
                let resp = conn.get(target).unwrap();
                let took = sent.elapsed();
                assert_eq!(resp.status, 200, "{target}: {}", resp.text());
                assert_eq!(resp.header("X-Cache"), Some("hit"), "{target}");
                assert!(took < Duration::from_millis(100), "{target} answered after {took:?}");
            });
        }
    });
    assert!(!parked.is_finished(), "the worker was held while the hits flowed");
    assert_eq!(parked.join().unwrap(), 200);
    delay_misses(&serve, None);
}

/// One connection pipelines [cold, warm, cold, warm]. Each miss waits
/// 200 ms on the worker while the hit behind it is ready at once; the
/// four replies still come back in request order, each body the bytes
/// `router::handle` answers in process.
#[test]
fn inline_and_queued_replies_leave_a_connection_in_request_order() {
    let serve = Arc::new(Server::start(build_system(), ServeConfig::default()));
    let http = HttpServer::start(Arc::clone(&serve), NetConfig::default()).unwrap();
    let mut conn = client(&http);
    let order = [
        "/search/scoped?q=mask+efficacy",
        WARM[3],
        "/kg/query?start=kind:category&steps=child,child&k=5",
        WARM[0],
    ];
    for target in [order[1], order[3]] {
        assert_eq!(conn.get(target).unwrap().status, 200, "{target}");
    }
    delay_misses(&serve, Some(Duration::from_millis(200)));
    let burst: String = order
        .iter()
        .map(|target| format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
        .collect();
    conn.stream().write_all(burst.as_bytes()).unwrap();
    let replies: Vec<_> = order.iter().map(|_| conn.read_response().unwrap()).collect();
    delay_misses(&serve, None);
    let caches: Vec<_> = replies.iter().map(|r| r.header("X-Cache")).collect();
    assert_eq!(caches, [Some("miss"), Some("hit"), Some("miss"), Some("hit")]);
    for (target, reply) in order.iter().zip(&replies) {
        assert_eq!(reply.status, 200, "{target}: {}", reply.text());
        assert!(
            reply.body == in_process(&serve, target).body.to_vec(),
            "{target}: out of order or not the in-process bytes"
        );
    }
}

/// What a batch of wire requests moved the serve counters by:
/// (hits, misses, requests, completed).
fn moved(before: &ServeStats, after: &ServeStats) -> [u64; 4] {
    [
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
        after.total_requests() - before.total_requests(),
        after.completed - before.completed,
    ]
}

/// N hits and M misses (unknown ids among them) over the wire move the
/// serve counters by exactly N hits, M misses, N + M requests and N + M
/// completions; while only hits arrive the queue stays empty.
#[test]
fn hits_and_misses_over_the_wire_are_counted_once() {
    let serve = Arc::new(Server::start(build_system(), ServeConfig::default()));
    let http = HttpServer::start(Arc::clone(&serve), NetConfig::default()).unwrap();
    // Warmed in process: the queue never sees these.
    for target in WARM {
        assert_eq!(in_process(&serve, target).status, 200, "{target}");
    }
    let mut conn = client(&http);
    let before = serve.stats();
    const ROUNDS: usize = 3;
    for _ in 0..ROUNDS {
        for target in WARM {
            let resp = conn.get(target).unwrap();
            assert_eq!((resp.status, resp.header("X-Cache")), (200, Some("hit")), "{target}");
        }
    }
    let hits = serve.stats();
    let n = (ROUNDS * WARM.len()) as u64;
    assert_eq!(moved(&before, &hits), [n, 0, n, n], "{hits:?}");
    assert_eq!((hits.queue_depth, hits.max_queue_depth), (0, 0), "a hit took a queue slot");

    let misses = [
        ("/search/all-fields?q=counted+once", 200),
        ("/search/semantic?q=counted+once", 200),
        ("/kg/query?start=kind:category&steps=child&k=3", 200),
        ("/kg/node/999999", 404),
        ("/trust/node/999999", 404),
        ("/kg/profile/no-such-vaccine", 404),
        ("/trust/source/no-such-venue", 404),
    ];
    for (target, status) in misses {
        let resp = conn.get(target).unwrap();
        assert_eq!(resp.status, status, "{target}: {}", resp.text());
        if status == 200 {
            assert_eq!(resp.header("X-Cache"), Some("miss"), "{target}");
        }
    }
    let m = misses.len() as u64;
    assert_eq!(moved(&hits, &serve.stats()), [0, m, m, m]);
}
