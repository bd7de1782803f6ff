//! Cross-class contract tests: every op kind goes through the same
//! situations on the one request path, and the outcome is the one its
//! row of the op table predicts — not something each class's own test
//! file has to restate.

use covidkg_core::{CovidKg, CovidKgConfig, QueryPlan};
use covidkg_search::{DenseMode, SearchMode};
use covidkg_serve::{
    Admission, InjectedFaults, Op, Reply, ServeConfig, ServeError, Server, Staleness,
};
use std::borrow::Cow;
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

fn queued(ops: &[Op<'static>]) -> usize {
    ops.iter().filter(|op| op.admission() == Admission::Queued).count()
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

/// What an op whose class is unhealthy (breaker open, or its worker
/// panicked on this request) is answered with, after an ingest moved the
/// generation past its cached value's: inline ops never notice; a
/// may-serve-stale op gets the old page, marked; a never-stale op gets
/// the typed error and never the old-generation body.
fn assert_degraded_by_policy(server: &Server, op: &Op<'static>, stale_generation: u64) {
    let outcome = server.request(op, None);
    match (op.admission(), op.staleness()) {
        (Admission::Inline, _) => {
            fresh(outcome, server.generation(), op);
        }
        (Admission::Queued, Staleness::MayServeStale) => {
            let reply = outcome.unwrap().expect("the stale page");
            assert!(reply.stale && reply.cached, "{op:?}");
            assert_eq!(reply.generation, stale_generation, "{op:?}");
        }
        (Admission::Queued, Staleness::NeverStale) => {
            assert_eq!(outcome.err(), Some(ServeError::Degraded), "{op:?}");
        }
    }
}

#[test]
fn every_op_kind_meets_its_policy_in_every_situation() {
    // 1. Miss then hit: flags, generation and value agree — then,
    //    3. on the same server, an injected panic on the worker.
    let server = Server::start(
        build_system(),
        ServeConfig { breaker_min_samples: 100, ..ServeConfig::default() },
    );
    let ops = every_op(&server);
    let generation = server.generation();
    for op in &ops {
        let miss = fresh(server.request(op, None), generation, op);
        let hit = server.request(op, None).unwrap().expect("a value");
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
    assert_eq!(stats.worker_panics as usize, queued(&ops), "every queued op reached a worker");
    assert_eq!(stats.breaker_opens, 0, "the sample floor kept every breaker closed");
    assert_eq!(server.worker_count(), ServeConfig::default().workers);
    server.shutdown();

    // 2. Breaker forced open: one panicking request per queued class
    //    (under another key) trips it; then no request reaches a worker.
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
        fresh(server.request(op, None), generation, op);
    }
    // Cached under the default ranking only.
    let plain_only = |trusted| Op::Search(Cow::Owned(SearchMode::AllFields("masks".into())), 0, trusted);
    fresh(server.request(&plain_only(false), None), generation, &plain_only(false));
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
    ];
    for op in &triggers {
        // Nothing cached under these keys: stale-capable or not, degraded.
        assert_eq!(server.request(op, None).err(), Some(ServeError::Degraded), "{op:?}");
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
    assert_eq!(server.request(&plain_only(true), None).err(), Some(ServeError::Degraded));
    assert_eq!(
        server.stats().worker_panics as usize,
        triggers.len(),
        "open breakers short-circuit: nothing reached a worker after the triggers"
    );
    server.shutdown();

    // 4. Deadline already expired when dequeued: the one worker is held
    //    by a delayed job while every queued op times out behind it.
    let server = Server::start(build_system(), ServeConfig { workers: 1, ..ServeConfig::default() });
    let generation = server.generation();
    server.set_injected_faults(Some(InjectedFaults {
        delay_every: 1,
        delay: Duration::from_secs(1),
        ..InjectedFaults::default()
    }));
    // The blocker: enqueued by the time its caller gives up, and taken by
    // the idle worker, which then sleeps out the injected delay.
    let blocker = server.request(&Op::KgProfile("blocker".into()), Some(Duration::from_millis(100)));
    assert_eq!(blocker.err(), Some(ServeError::DeadlineExceeded));
    assert_eq!(server.stats().queue_depth, 0, "the worker holds the blocker");
    for op in &ops {
        let outcome = server.request(op, Some(Duration::from_millis(5)));
        match op.admission() {
            Admission::Inline => drop(fresh(outcome, generation, op)),
            Admission::Queued => assert_eq!(outcome.err(), Some(ServeError::DeadlineExceeded), "{op:?}"),
        }
    }
    assert_eq!(server.stats().queue_depth, queued(&ops), "all still behind the blocker");
    server.set_injected_faults(None);
    // Each of these waits its turn at the one worker, so the first to
    // return has seen every expired job dropped.
    for op in ops.iter().filter(|op| op.admission() == Admission::Queued) {
        fresh(server.request(op, None), generation, op); // dropped, not computed
    }
    assert_eq!(
        server.stats().deadline_exceeded as usize,
        1 + 2 * queued(&ops),
        "the blocker's caller; then once by each caller that stopped waiting, once by the worker that dropped the job"
    );
    server.shutdown();

    // 5. Queue full with zero workers: queued ops are rejected at once,
    //    inline ops never are.
    let server = Server::start(
        build_system(),
        ServeConfig { workers: 0, queue_capacity: 2, ..ServeConfig::default() },
    );
    for filler in ["filler one", "filler two"] {
        let op = Op::KgProfile(filler.into());
        let outcome = server.request(&op, Some(Duration::from_millis(5)));
        assert_eq!(outcome.err(), Some(ServeError::DeadlineExceeded));
    }
    for op in &ops {
        let started = Instant::now();
        let outcome = server.request(op, Some(Duration::from_secs(5)));
        match op.admission() {
            Admission::Inline => drop(fresh(outcome, server.generation(), op)),
            Admission::Queued => {
                assert_eq!(outcome.err(), Some(ServeError::Overloaded), "{op:?}");
                assert!(started.elapsed() < Duration::from_secs(5), "rejection does not wait");
            }
        }
    }
    assert_eq!(server.stats().overloaded as usize, queued(&ops));
    server.shutdown();
}

/// The accounting identities of the one path: every request is a hit or
/// a miss, and every miss ends completed or in a typed error — for ops
/// that resolve to nothing too (`kg_node` on an out-of-range id used to
/// return before recording its completion).
#[test]
fn requests_hits_misses_and_completions_add_up_across_all_ops() {
    let server = Server::start(build_system(), ServeConfig::default());
    let (known, unknown) = (every_op(&server), unknown_ops());
    let ops = || known.iter().map(|op| (op, true)).chain(unknown.iter().map(|op| (op, false)));
    let mut errors = 0u64;
    for round in 0..3 {
        for (op, resolves) in ops() {
            // A zero deadline on the last round: queued misses (the
            // unknown ids, never cached) end in a typed error instead.
            let deadline = (round == 2).then_some(Duration::ZERO);
            match server.request(op, deadline) {
                Ok(reply) => assert_eq!(reply.is_some(), resolves, "{op:?}"),
                Err(e) => {
                    assert_eq!(e, ServeError::DeadlineExceeded, "{op:?}");
                    errors += 1;
                }
            }
        }
    }
    assert_eq!(errors as usize, queued(&unknown), "the zero-deadline round's typed errors");
    let stats = server.stats();
    assert_eq!(stats.total_requests(), 3 * ops().count() as u64);
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
