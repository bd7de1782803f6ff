//! The wire front end over the serve layer's one bounded queue: a burst
//! past the bound is turned away at the front door at once, and a routed
//! read computes on the worker that holds it instead of queueing behind
//! itself.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_net::{HttpClient, HttpServer, NetConfig, ReadContext};
use covidkg_repl::{ReadRouter, ReplicaTarget};
use covidkg_serve::{InjectedFaults, ServeConfig, Server};
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
