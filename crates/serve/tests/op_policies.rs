//! Cross-class contract tests: every op kind goes through the same
//! situations on the one request path and the one queue, and the outcome
//! is the one its row of the op table predicts — not something each
//! class's own test file has to restate.

use covidkg_core::{CovidKg, CovidKgConfig, QueryPlan};
use covidkg_search::{DenseMode, SearchMode};
use covidkg_serve::{Class, InjectedFaults, Op, Reply, ServeConfig, ServeError, Server, Staleness};
use std::borrow::Cow;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CORPUS: usize = 24;

fn build_system() -> CovidKg {
    CovidKg::build(CovidKgConfig {
        corpus_size: CORPUS,
        max_training_rows: 200,
        ..CovidKgConfig::default()
    })
    .unwrap()
}

/// One op of every kind (the three lexical engines each, both dense
/// modes, and the `trust=1` re-rank of every rankable one), all
/// resolving to a value on the built system.
fn every_op(server: &Server) -> Vec<Op<'static>> {
    let (vaccine, venue) = server.with_system(|s| {
        (
            s.profiles().first().expect("a profile").vaccine.clone(),
            s.trust_store().venues().next().expect("a venue").to_string(),
        )
    });
    let plan = QueryPlan::parse("kind:category", "child", 16, 10).unwrap();
    let q = || "vaccine".to_string();
    let scoped = || SearchMode::TitleAbstractCaption { title: q(), abstract_q: q(), caption: q() };
    let mut ops = Vec::new();
    for trusted in [false, true] {
        ops.extend([
            Op::Search(Cow::Owned(SearchMode::AllFields(q())), 0, trusted),
            Op::Search(Cow::Owned(SearchMode::Tables(q())), 0, trusted),
            Op::Search(Cow::Owned(scoped()), 0, trusted),
            Op::Dense(Cow::Owned(DenseMode::Semantic(q())), 0, trusted),
            Op::Dense(Cow::Owned(DenseMode::Hybrid(q())), 0, trusted),
            Op::KgQuery(Cow::Owned(plan.clone()), trusted),
        ]);
    }
    ops.extend([
        Op::KgProfile(Cow::Owned(vaccine)),
        Op::KgNode(0),
        Op::TrustNode(0),
        Op::TrustSource(Cow::Owned(venue)),
        Op::BiasReport,
    ]);
    ops
}

/// Ops that resolve to nothing: the wire layer's 404s.
fn unknown_ops() -> Vec<Op<'static>> {
    vec![
        Op::KgProfile("no-such-vaccine".into()),
        Op::KgNode(999_999),
        Op::TrustNode(999_999),
        Op::TrustSource("no-such-venue".into()),
    ]
}

type Outcome = Result<Result<Option<Reply>, ServeError>, ServeError>;

/// Queue one job per op, each sending back its index and what it got: the
/// queue's own verdict, or the op's reply when it ran. `Err` = the job
/// was turned away at `submit`.
fn submit_each(
    server: &Arc<Server>,
    ops: &[Op<'static>],
    outcomes: &mpsc::Sender<(usize, Outcome)>,
) -> Vec<Result<(), ServeError>> {
    let jobs = ops.iter().cloned().enumerate().map(|(i, op)| {
        let (held, outcomes) = (Arc::clone(server), outcomes.clone());
        server.submit(move |admitted| {
            let _ = outcomes.send((i, admitted.map(|()| held.request(&op))));
        })
    });
    jobs.collect()
}

/// Hold the only worker until the returned sender is dropped.
fn hold_the_worker(server: &Server) -> mpsc::Sender<()> {
    let (release, held) = mpsc::channel::<()>();
    let (started, running) = mpsc::channel();
    server
        .submit(move |admitted| {
            assert_eq!(admitted, Ok(()));
            started.send(()).unwrap();
            let _ = held.recv();
        })
        .unwrap();
    running.recv().unwrap();
    release
}

/// Advance the data generation: everything cached so far stays resident
/// but no longer hits.
fn ingest_more(server: &Server) {
    let more: Vec<_> = covidkg_corpus::CorpusGenerator::with_size(CORPUS + 4, 7)
        .generate()
        .into_iter()
        .skip(CORPUS)
        .collect();
    server.ingest(&more).unwrap();
}

fn fresh(outcome: Result<Option<Reply>, ServeError>, generation: u64, op: &Op<'_>) -> Reply {
    let reply = outcome.unwrap_or_else(|e| panic!("{op:?}: {e}")).expect("a value");
    assert!(!reply.cached && !reply.stale, "{op:?} computed afresh");
    assert_eq!(reply.generation, generation, "{op:?}");
    reply
}

/// What an op whose class is unhealthy (breaker open, or its compute
/// panicked on this request) is answered with, after an ingest moved the
/// generation past its cached value's: a may-serve-stale op gets the old
/// page, marked; a never-stale op gets the typed error and never the
/// old-generation body.
fn assert_degraded_by_policy(server: &Server, op: &Op<'static>, stale_generation: u64) {
    let outcome = server.request(op);
    match op.staleness() {
        Staleness::MayServeStale => {
            let reply = outcome.unwrap().expect("the stale page");
            assert!(reply.stale && reply.cached, "{op:?}");
            assert_eq!(reply.generation, stale_generation, "{op:?}");
        }
        Staleness::NeverStale => {
            assert_eq!(outcome.err(), Some(ServeError::Degraded), "{op:?}");
        }
    }
}

#[test]
fn every_op_kind_meets_its_policy_in_every_situation() {
    // 1. Miss then hit: flags, generation and value agree — then,
    //    3. on the same server, an injected panic mid-compute.
    let server = Server::start(
        build_system(),
        ServeConfig { breaker_min_samples: 100, ..ServeConfig::default() },
    );
    let ops = every_op(&server);
    let generation = server.generation();
    for op in &ops {
        let miss = fresh(server.request(op), generation, op);
        let hit = server.request(op).unwrap().expect("a value");
        assert!(hit.cached && !hit.stale, "{op:?}");
        assert_eq!(hit.generation, generation);
        assert!(std::sync::Arc::ptr_eq(&hit.entry, &miss.entry), "{op:?}: a hit shares the entry");
        assert_eq!(hit.query, None, "{op:?}: same spelling, nothing to echo");
    }
    ingest_more(&server);
    server.set_injected_faults(Some(InjectedFaults { panic_every: 1, ..InjectedFaults::default() }));
    for op in &ops {
        assert_degraded_by_policy(&server, op, generation);
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics as usize, ops.len(), "every op ran its compute");
    assert_eq!(stats.breaker_opens, 0, "the sample floor kept every breaker closed");
    assert_eq!(server.worker_count(), ServeConfig::default().workers);
    server.shutdown();

    // 2. Breaker forced open: one panicking request per class (under
    //    another key) trips it; then no request reaches an engine.
    let server = Server::start(
        build_system(),
        ServeConfig {
            // Any failure opens, whatever successes share the window.
            breaker_min_samples: 1,
            breaker_error_rate: 0.0,
            breaker_cooldown: Duration::from_secs(600),
            ..ServeConfig::default()
        },
    );
    let generation = server.generation();
    for op in &ops {
        fresh(server.request(op), generation, op);
    }
    // Cached under the default ranking only.
    let plain_only = |trusted| Op::Search(Cow::Owned(SearchMode::AllFields("masks".into())), 0, trusted);
    fresh(server.request(&plain_only(false)), generation, &plain_only(false));
    ingest_more(&server);
    server.set_injected_faults(Some(InjectedFaults { panic_every: 1, ..InjectedFaults::default() }));
    let trigger = || "breaker trigger".to_string();
    let triggers = [
        Op::Search(Cow::Owned(SearchMode::AllFields(trigger())), 0, false),
        Op::Search(Cow::Owned(SearchMode::Tables(trigger())), 0, false),
        Op::Search(
            Cow::Owned(SearchMode::TitleAbstractCaption {
                title: trigger(),
                abstract_q: trigger(),
                caption: trigger(),
            }),
            0,
            false,
        ),
        Op::KgProfile(Cow::Owned(trigger())),
        Op::TrustSource(Cow::Owned(trigger())),
        Op::Dense(Cow::Owned(DenseMode::Semantic(trigger())), 0, false),
        Op::Dense(Cow::Owned(DenseMode::Hybrid(trigger())), 0, false),
    ];
    let tripped: Vec<Class> = triggers.iter().map(Op::class).collect();
    assert!(Class::ALL.iter().all(|c| tripped.contains(c)), "one trigger per class");
    for op in &triggers {
        // Nothing cached under these keys: stale-capable or not, degraded.
        assert_eq!(server.request(op).err(), Some(ServeError::Degraded), "{op:?}");
    }
    server.set_injected_faults(None);
    assert_eq!(server.stats().breaker_opens as usize, triggers.len());
    for op in &ops {
        assert_degraded_by_policy(&server, op, generation);
    }
    // A stale `trust=1` page is the trusted entry as ranked at the
    // generation it names (the loop above), never the default ranking
    // re-ranked by today's weights: with only the default ranking
    // resident, the re-rank is the typed error.
    assert_degraded_by_policy(&server, &plain_only(false), generation);
    assert_eq!(server.request(&plain_only(true)).err(), Some(ServeError::Degraded));
    assert_eq!(
        server.stats().worker_panics as usize,
        triggers.len(),
        "open breakers short-circuit: nothing reached an engine after the triggers"
    );
    server.shutdown();

    // 4. Deadline already expired when dequeued: the one worker is held
    //    while a job per op waits out the deadline behind it; every one
    //    is handed `DeadlineExceeded` and computes nothing. The queue does
    //    not look at the op: every row alike.
    let server = Arc::new(Server::start(
        build_system(),
        ServeConfig { workers: 1, default_deadline: Duration::from_millis(300), ..ServeConfig::default() },
    ));
    let generation = server.generation();
    let (outcomes, results) = mpsc::channel();
    let release = hold_the_worker(&server);
    assert!(submit_each(&server, &ops, &outcomes).iter().all(Result::is_ok));
    assert_eq!(server.stats().queue_depth, ops.len(), "all behind the held worker");
    std::thread::sleep(Duration::from_millis(350));
    drop(release);
    for _ in &ops {
        let (i, outcome) = results.recv().unwrap();
        assert_eq!(outcome.err(), Some(ServeError::DeadlineExceeded), "{:?}", ops[i]);
    }
    let stats = server.stats();
    assert_eq!(stats.deadline_exceeded as usize, ops.len());
    assert_eq!(stats.total_requests(), 0, "an expired job never reaches `request`");
    // Within the deadline the same jobs compute.
    assert!(submit_each(&server, &ops, &outcomes).iter().all(Result::is_ok));
    for _ in &ops {
        let (i, outcome) = results.recv().unwrap();
        fresh(outcome.expect("admitted"), generation, &ops[i]);
    }
    server.shutdown();

    // 5. Queue full with zero workers: every job is rejected at once,
    //    whatever its op; a typed caller computes on its own thread and
    //    never sees the queue.
    let server = Arc::new(Server::start(
        build_system(),
        ServeConfig { workers: 0, queue_capacity: 2, ..ServeConfig::default() },
    ));
    for _filler in 0..2 {
        server.submit(|_| {}).unwrap();
    }
    let started = Instant::now();
    let rejected = submit_each(&server, &ops, &outcomes);
    assert!(started.elapsed() < Duration::from_secs(1), "rejection does not wait");
    assert!(rejected.iter().all(|r| *r == Err(ServeError::Overloaded)), "{rejected:?}");
    assert_eq!(server.stats().overloaded as usize, ops.len());
    for op in &ops {
        fresh(server.request(op), server.generation(), op);
    }
    server.shutdown();
}

/// Both dense modes and the node lookup, the cheapest rows, follow the
/// same policy as every other row, on a worker of the one queue: an
/// injected panic is caught, counted and answered with the typed
/// `Degraded` (they are never-stale), the worker survives it, and the
/// panic opens the class's breaker, after which no request of that class
/// reaches an engine while the other classes still compute.
#[test]
fn dense_and_node_rows_meet_their_class_breaker() {
    let server = Arc::new(Server::start(
        build_system(),
        ServeConfig {
            workers: 1,
            // Any failure opens, and stays open for the whole test.
            breaker_min_samples: 1,
            breaker_error_rate: 0.0,
            breaker_cooldown: Duration::from_secs(600),
            ..ServeConfig::default()
        },
    ));
    let q = || "vaccine".to_string();
    let ops = [
        Op::Dense(Cow::Owned(DenseMode::Semantic(q())), 0, false),
        Op::Dense(Cow::Owned(DenseMode::Hybrid(q())), 0, true),
        Op::KgNode(0),
    ];
    let panics = InjectedFaults { panic_every: 1, ..InjectedFaults::default() };
    server.set_injected_faults(Some(panics));
    let (outcomes, results) = mpsc::channel();
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(op.staleness(), Staleness::NeverStale, "{op:?}");
        assert!(submit_each(&server, std::slice::from_ref(op), &outcomes)[0].is_ok());
        let (_, outcome) = results.recv_timeout(Duration::from_secs(10)).expect("an answer");
        assert_eq!(outcome.expect("admitted").err(), Some(ServeError::Degraded), "{op:?}");
        let stats = server.stats();
        assert_eq!(stats.worker_panics as usize, i + 1, "{op:?}: the panic is counted");
        assert_eq!(stats.worker_respawns, 0, "{op:?}: caught on the worker, not escaped");
        assert_eq!(stats.breaker_opens as usize, i + 1, "{op:?}: its class's breaker opened");
    }
    assert_eq!(server.worker_count(), 1);
    server.set_injected_faults(None);
    for op in &ops {
        assert_eq!(server.request(op).err(), Some(ServeError::Degraded), "{op:?}");
    }
    assert_eq!(server.stats().worker_panics, 3, "open breakers short-circuit");
    let lexical = Op::Search(Cow::Owned(SearchMode::AllFields(q())), 0, false);
    fresh(server.request(&lexical), server.generation(), &lexical);
    server.shutdown();
}

/// The accounting identities of the one path: every request is a hit or
/// a miss, and every miss ends completed or in a typed error — for ops
/// that resolve to nothing too (`kg_node` on an out-of-range id used to
/// return before recording its completion). A job the queue rejects
/// (`overloaded`, `deadline_exceeded`) never reaches `request`, so it is
/// counted there and nowhere else: every job submitted is a request or a
/// rejection.
#[test]
fn requests_hits_misses_and_completions_add_up_across_all_ops() {
    let capacity = 16;
    let server = Arc::new(Server::start(
        build_system(),
        ServeConfig {
            workers: 1,
            queue_capacity: capacity,
            default_deadline: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    ));
    let (known, unknown) = (every_op(&server), unknown_ops());
    let resolves = |i: usize| i < known.len();
    let ops: Vec<Op<'static>> = known.iter().chain(&unknown).cloned().collect();
    let (outcomes, results) = mpsc::channel();
    // Two rounds on the caller's thread, one through the queue.
    for _ in 0..2 {
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(server.request(op).unwrap().is_some(), resolves(i), "{op:?}");
        }
    }
    // In batches the queue holds whole, each drained before the next: a
    // batch fits however few jobs the one worker has dequeued yet.
    for (first, batch) in (0..).step_by(capacity).zip(ops.chunks(capacity)) {
        assert!(submit_each(&server, batch, &outcomes).iter().all(Result::is_ok));
        for _ in batch {
            let (i, outcome) = results.recv().unwrap();
            let reply = outcome.expect("admitted").expect("answered");
            assert_eq!(reply.is_some(), resolves(first + i), "{:?}", ops[first + i]);
        }
    }
    // And a round the queue rejects: 16 wait out the deadline behind a
    // held worker, the rest find the queue full.
    let release = hold_the_worker(&server);
    let submitted = submit_each(&server, &ops, &outcomes);
    std::thread::sleep(Duration::from_millis(350));
    drop(release);
    let admitted = submitted.iter().filter(|r| r.is_ok()).count();
    for _ in 0..admitted {
        assert_eq!(results.recv().unwrap().1.err(), Some(ServeError::DeadlineExceeded));
    }
    // A typed error from `request` itself: a panicking compute with
    // nothing cached to stand in.
    server.set_injected_faults(Some(InjectedFaults { panic_every: 1, ..InjectedFaults::default() }));
    assert_eq!(server.request(&unknown[0]).err(), Some(ServeError::Degraded));
    server.set_injected_faults(None);
    let errors = 1;
    let stats = server.stats();
    assert_eq!(
        ops.len() as u64,
        stats.overloaded + stats.deadline_exceeded,
        "every rejected job is a rejection and not a request: {stats:?}"
    );
    assert_eq!((admitted, stats.overloaded as usize), (16, ops.len() - 16));
    assert_eq!(stats.total_requests(), 3 * ops.len() as u64 + errors);
    assert_eq!(stats.total_requests(), stats.cache_hits + stats.cache_misses);
    assert_eq!(
        stats.cache_misses,
        (stats.completed - stats.cache_hits) + errors,
        "every miss completed or failed typed: {stats:?}"
    );
    // Each traversal op — the plain one and its `trust=1` re-rank are
    // separate cache entries — was computed once and counted its work.
    let traversals = known.iter().filter_map(|op| match op {
        Op::KgQuery(plan, _) => Some(server.with_system(|s| s.kg_query(plan))),
        _ => None,
    });
    let (hops, visited) = traversals.fold((0, 0), |(h, v), r| (h + r.hops, v + r.visited));
    assert!(hops > 0 && visited > 0);
    assert_eq!((stats.kg_traversal_hops, stats.kg_nodes_visited), (hops, visited));
    // The nine adapters are that same path.
    assert!(server.kg_node(999_999).unwrap().is_none());
    assert!(server.trust_node(999_999).unwrap().is_none());
    let after = server.stats();
    assert_eq!(after.cache_misses - stats.cache_misses, 2);
    assert_eq!(after.completed - stats.completed, 2);
    server.shutdown();
}
