//! End-to-end serving tests: concurrent correctness against the direct
//! search path, generation-based cache invalidation under a racing
//! ingest, and the two ways the one queue turns a job away.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_search::SearchMode;
use covidkg_serve::{loadgen, InjectedFaults, LoadGenConfig, ServeConfig, ServeError, Server};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn build_system() -> CovidKg {
    CovidKg::build(CovidKgConfig {
        corpus_size: 36,
        max_training_rows: 400,
        ..CovidKgConfig::default()
    })
    .unwrap()
}

#[test]
fn concurrent_clients_get_correct_results_and_cache_hits() {
    let server = Server::start(build_system(), ServeConfig::default());
    let report = loadgen::run(
        &server,
        &LoadGenConfig {
            clients: 8,
            queries_per_client: 30,
            verify_every: 4,
            ..LoadGenConfig::default()
        },
    );
    assert_eq!(report.mismatches, 0, "served page disagreed with direct search");
    assert_eq!(report.abandoned, 0);
    assert_eq!(report.deadline_exceeded, 0, "default deadline is generous");
    assert_eq!(report.ok, 8 * 30, "closed loop completes every request");
    assert!(report.verified > 0);
    // 8 clients × 30 draws from a ~36-query pool: repeats are certain,
    // so the cache must have served a large share.
    assert!(
        report.cached > report.ok / 4,
        "expected substantial cache hits, got {}/{}",
        report.cached,
        report.ok
    );
    let stats = server.stats();
    assert_eq!(stats.total_requests(), 8 * 30);
    assert!(stats.requests_all_fields > 0);
    assert!(stats.requests_tables > 0);
    assert!(stats.requests_scoped > 0);
    assert!(stats.p50.is_some() && stats.p99.is_some());
    assert!(stats.p50 <= stats.p99);
}

#[test]
fn full_queue_rejects_immediately_with_overloaded() {
    // No workers: queued jobs are never drained, so the bounded queue
    // fills deterministically.
    let server = Server::start(
        build_system(),
        ServeConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServeConfig::default()
        },
    );
    server.submit(|_| {}).unwrap();
    server.submit(|_| {}).unwrap();
    // Queue is now full: the third job must be rejected without
    // blocking — admission control, not queueing.
    let start = Instant::now();
    assert_eq!(server.submit(|_| {}), Err(ServeError::Overloaded));
    assert!(
        start.elapsed() < Duration::from_millis(50),
        "overload rejection must not wait"
    );
    let stats = server.stats();
    assert_eq!(stats.overloaded, 1);
    assert_eq!((stats.queue_depth, stats.max_queue_depth), (2, 2));
    // A typed caller computes on its own thread: the full queue is not
    // in its way.
    let resp = server.search(&SearchMode::AllFields("vaccine".into()), 0).unwrap();
    assert!(!resp.cached);
}

#[test]
fn deadline_expiry_is_reported_not_hung() {
    let server = Server::start(
        build_system(),
        ServeConfig {
            workers: 1,
            default_deadline: Duration::from_millis(30),
            ..ServeConfig::default()
        },
    );
    // The one worker is held until the expiring job has waited past its
    // deadline behind it.
    let (release, held) = mpsc::channel::<()>();
    server.submit(move |_| {
        let _ = held.recv();
    })
    .unwrap();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    server.submit(move |admitted| tx.send(admitted).unwrap()).unwrap();
    std::thread::sleep(Duration::from_millis(40));
    drop(release);
    let out = rx.recv_timeout(Duration::from_secs(5)).expect("must not hang");
    assert_eq!(out, Err(ServeError::DeadlineExceeded));
    assert!(start.elapsed() >= Duration::from_millis(30));
    let stats = server.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.total_requests(), 0, "an expired job computes nothing");
}

/// A job can hold the last handle to its own server: dropping it runs
/// `Server::drop` → `shutdown` on the worker, which must join the other
/// workers but never itself.
#[test]
fn a_job_dropping_the_last_handle_does_not_join_its_own_worker() {
    let server = Arc::new(Server::start(
        build_system(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    ));
    let (open, gate) = mpsc::channel::<()>();
    let (done, finished) = mpsc::channel();
    let held = Arc::clone(&server);
    server
        .submit(move |admitted| {
            gate.recv().unwrap();
            let served = held.search(&SearchMode::AllFields("vaccine".into()), 0).is_ok();
            drop(held);
            done.send((admitted, served)).unwrap();
        })
        .unwrap();
    drop(server);
    open.send(()).unwrap();
    let (admitted, served) = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("the worker that dropped the server joined itself");
    assert_eq!(admitted, Ok(()));
    assert!(served);
}

#[test]
fn shutdown_closes_the_front_door() {
    let server = Server::start(build_system(), ServeConfig::default());
    let mode = SearchMode::AllFields("vaccine".into());
    assert!(server.search(&mode, 0).is_ok());
    server.shutdown();
    // Cache may still answer identical queries; a fresh query must see
    // Closed instead of hanging.
    let out = server.search(&SearchMode::AllFields("quarantine periods".into()), 0);
    assert!(matches!(out, Err(ServeError::Closed)));
}

/// The headline invariant: readers racing an ingest never observe a
/// stale cache hit. Every response is tagged with the generation it was
/// computed at; a response claiming the post-ingest generation must show
/// post-ingest totals. Pre-ingest-tagged responses may observe some of
/// the new documents early (the store/classify phase runs under a shared
/// lock so reads keep flowing), but only monotonically — totals between
/// the pre- and post-ingest counts, never garbage. A cache serving a
/// stale page would violate the first clause (current generation tag,
/// old totals).
#[test]
fn readers_racing_ingest_never_see_stale_results() {
    let queries = ["vaccine", "masks", "symptom", "treatment"];
    let server = Server::start(build_system(), ServeConfig::default());
    let gen_before = server.generation();

    let pre_totals: Vec<usize> = queries
        .iter()
        .map(|q| server.search_direct(&SearchMode::AllFields((*q).into()), 0).total)
        .collect();

    // Fresh ids beyond the build's 0..36 range.
    let new_pubs: Vec<_> = covidkg_corpus::CorpusGenerator::with_size(48, 42)
        .generate()
        .into_iter()
        .skip(36)
        .collect();

    let observations: Vec<(usize, u64, usize)> = std::thread::scope(|scope| {
        let server = &server;
        let readers: Vec<_> = (0..6)
            .map(|reader| {
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for i in 0..120 {
                        let qi = (i + reader) % queries.len();
                        let mode = SearchMode::AllFields(queries[qi].into());
                        let resp = server.search(&mode, 0).expect("serving must not fail");
                        seen.push((qi, resp.generation, resp.page.total));
                    }
                    seen
                })
            })
            .collect();
        let writer = scope.spawn(move || {
            // Let readers warm the cache first so stale entries exist.
            std::thread::sleep(Duration::from_millis(5));
            server.ingest(&new_pubs).unwrap();
        });
        writer.join().unwrap();
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    });

    let gen_after = server.generation();
    assert_eq!(gen_after, gen_before + 1, "one ingest bumps one generation");
    let post_totals: Vec<usize> = queries
        .iter()
        .map(|q| server.search_direct(&SearchMode::AllFields((*q).into()), 0).total)
        .collect();
    // The 12 new publications must be searchable: corpus topics repeat
    // round-robin, so the query set gains matches overall.
    assert!(
        post_totals.iter().sum::<usize>() > pre_totals.iter().sum::<usize>(),
        "ingest must add matches: {pre_totals:?} -> {post_totals:?}"
    );

    for (qi, generation, total) in observations {
        if generation == gen_before {
            assert!(
                total >= pre_totals[qi] && total <= post_totals[qi],
                "pre-ingest response for {:?} outside the monotonic \
                 [{}, {}] envelope: {total}",
                queries[qi],
                pre_totals[qi],
                post_totals[qi]
            );
        } else {
            assert_eq!(generation, gen_after);
            assert_eq!(
                total, post_totals[qi],
                "post-ingest-tagged response for {:?} served stale data",
                queries[qi]
            );
        }
    }

    // And the cache still works at the new generation.
    let mode = SearchMode::AllFields("vaccine".into());
    let _ = server.search(&mode, 0).unwrap();
    let again = server.search(&mode, 0).unwrap();
    assert!(again.cached, "post-ingest pages are cacheable again");
    assert_eq!(again.generation, gen_after);
}

/// Shard-level write locking (ISSUE 5 satellite): the expensive phases
/// of an ingest — document storage, table classification, persistence —
/// run under a *shared* lock, so uncached reads (which need the system
/// read lock in a worker) complete while the ingest is still in flight.
/// Under the old stop-the-world scheme every uncached read issued after
/// the ingest began would block until it finished, so zero reads could
/// land strictly inside the window.
#[test]
fn uncached_reads_complete_strictly_inside_the_ingest_window() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    let server = Server::start(build_system(), ServeConfig::default());
    let gen_before = server.generation();
    // A large batch so the prepare phase (store + classify) takes long
    // enough for reads to land inside it.
    let new_pubs: Vec<_> = covidkg_corpus::CorpusGenerator::with_size(120, 11)
        .generate()
        .into_iter()
        .skip(36)
        .collect();

    let window = Mutex::new(None::<(Instant, Instant)>);
    let done = AtomicBool::new(false);

    let reads = std::thread::scope(|scope| {
        let server = &server;
        let window = &window;
        let done = &done;
        let readers: Vec<_> = (0..4)
            .map(|reader| {
                scope.spawn(move || {
                    let mut reads = Vec::new();
                    let mut i = 0usize;
                    while !done.load(Ordering::Acquire) {
                        // Unique query per read: a guaranteed cache miss,
                        // so completing one requires the system read lock.
                        let q = format!("vaccine r{reader}q{i}");
                        let started = Instant::now();
                        let resp = server
                            .search(&SearchMode::AllFields(q), 0)
                            .expect("no read may be lost during ingest");
                        reads.push((started, Instant::now(), resp.generation));
                        i += 1;
                    }
                    reads
                })
            })
            .collect();
        let writer = scope.spawn(move || {
            // Let the readers get going first.
            std::thread::sleep(Duration::from_millis(10));
            let started = Instant::now();
            server.ingest(&new_pubs).unwrap();
            *window.lock().unwrap() = Some((started, Instant::now()));
            done.store(true, Ordering::Release);
        });
        writer.join().unwrap();
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect::<Vec<_>>()
    });

    let (ingest_start, ingest_end) = window.lock().unwrap().unwrap();
    let inside = reads
        .iter()
        .filter(|(started, finished, _)| *started > ingest_start && *finished < ingest_end)
        .count();
    assert!(
        inside >= 1,
        "no read completed inside the {}ms ingest window ({} reads total)",
        ingest_end.duration_since(ingest_start).as_millis(),
        reads.len()
    );
    // No torn generation: every response is tagged either pre- or
    // post-ingest, never anything else.
    let gen_after = server.generation();
    assert_eq!(gen_after, gen_before + 1);
    for (_, _, g) in &reads {
        assert!(
            *g == gen_before || *g == gen_after,
            "response tagged impossible generation {g}"
        );
    }
    server.shutdown();
}

/// A panicking query must cost exactly one request: the caller's thread
/// survives, no lock is left poisoned, and every subsequent request is
/// answered normally.
#[test]
fn panicking_query_neither_kills_pool_nor_poisons_requests() {
    let server = Server::start(
        build_system(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    // Every search job panics while this schedule is installed.
    server.set_injected_faults(Some(InjectedFaults {
        panic_every: 1,
        ..InjectedFaults::default()
    }));
    let out = server.search(&SearchMode::AllFields("vaccine".into()), 0);
    // Nothing cached yet, so the degraded answer is the typed error —
    // crucially a *reply*, not a hang or a worker death.
    assert!(matches!(out, Err(ServeError::Degraded)), "{out:?}");
    server.set_injected_faults(None);

    // The server is intact and later requests (including the one that just
    // panicked) succeed; stats and shutdown don't hit poisoned locks.
    for q in ["vaccine", "masks", "treatment", "symptom"] {
        let resp = server.search(&SearchMode::AllFields(q.into()), 0).unwrap();
        assert!(!resp.stale);
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_respawns, 0, "caught panic keeps the worker");
    assert_eq!(server.worker_count(), 2);
    server.shutdown();
}

/// A panic that escapes the per-job catch kills the worker thread; the
/// sentinel must respawn a replacement so the pool never shrinks.
#[test]
fn crashed_workers_are_respawned() {
    let server = Server::start(
        build_system(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    server.inject_worker_panic().unwrap();
    server.inject_worker_panic().unwrap();
    // A queued crash counts its worker as gone until the respawn, which
    // happens during the dying thread's unwind: a full count means both
    // were replaced.
    assert!(server.worker_count() < 2);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.worker_count() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(stats.worker_respawns, 2, "both crashed workers replaced");
    assert_eq!(stats.worker_panics, 2);
    // The replacement workers run jobs.
    let (tx, rx) = mpsc::channel();
    server.submit(move |admitted| tx.send(admitted).unwrap()).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(Ok(())));
    assert_eq!(server.worker_count(), 2);
    server.shutdown();
}

/// Repeated failures trip the engine breaker; while it is open the
/// server answers from the stale cache (marked stale) instead of
/// computing doomed work, and it closes again after the cooldown.
#[test]
fn open_breaker_serves_stale_pages_then_recovers() {
    let server = Server::start(
        build_system(),
        ServeConfig {
            workers: 2,
            // With a 5s window, one warm success and a 0.6 rate floor at
            // two samples, the second failure (rate 2/3) opens the
            // breaker exactly once.
            breaker_window: Duration::from_secs(5),
            breaker_error_rate: 0.6,
            breaker_min_samples: 2,
            breaker_cooldown: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    );
    let mode = SearchMode::AllFields("vaccine".into());
    // Warm the cache at the current generation…
    let warm = server.search(&mode, 0).unwrap();
    assert!(!warm.stale);
    let gen_before = server.generation();
    // …then advance the generation so the entry is stale-but-resident.
    let new_pubs: Vec<_> = covidkg_corpus::CorpusGenerator::with_size(40, 7)
        .generate()
        .into_iter()
        .skip(36)
        .collect();
    server.ingest(&new_pubs).unwrap();

    server.set_injected_faults(Some(InjectedFaults {
        panic_every: 1,
        ..InjectedFaults::default()
    }));
    // Two failures: each panicking request is still answered — with the
    // stale pre-ingest page — and the second trips the breaker.
    for _ in 0..2 {
        let resp = server.search(&mode, 0).unwrap();
        assert!(resp.stale, "degraded fallback serves the stale page");
        assert_eq!(resp.generation, gen_before);
    }
    // Another spelling of the same stems shares the stale entry, yet is
    // answered under its own text.
    let respelled = server
        .search(&SearchMode::AllFields("Vaccines".into()), 0)
        .unwrap();
    assert!(respelled.stale);
    assert_eq!(respelled.page.query, "Vaccines");
    assert_eq!(respelled.page.total, warm.page.total);
    // Breaker now open: requests short-circuit (no engine runs) but
    // still get the stale page.
    let resp = server.search(&mode, 0).unwrap();
    assert!(resp.stale);
    let stats = server.stats();
    assert_eq!(stats.breaker_opens, 1);
    assert!(stats.stale_served >= 4, "{stats:?}");
    assert!(stats.degraded >= 4, "{stats:?}");

    // Heal the backend, wait out the cooldown: the half-open probe runs
    // a real search and fully closes the breaker.
    server.set_injected_faults(None);
    std::thread::sleep(Duration::from_millis(150));
    let healed = server.search(&mode, 0).unwrap();
    assert!(!healed.stale, "half-open probe serves fresh data");
    assert_eq!(healed.generation, server.generation());
    let after = server.search(&mode, 0).unwrap();
    assert!(after.cached && !after.stale, "breaker closed, cache refilled");
    server.shutdown();
}

/// The cache keys a search by its stems, so spellings share an entry —
/// but a page must echo the query of the request it answers, not of the
/// request that happened to fill the cache.
#[test]
fn cache_hits_echo_the_requests_own_query() {
    use covidkg_search::{cache_key, dense_cache_key, DenseMode};
    let server = Server::start(build_system(), ServeConfig::default());
    let all = |q: &str| SearchMode::AllFields(q.into());
    assert_eq!(cache_key(&all("immunity"), 0), cache_key(&all("immunization"), 0));
    let miss = server.search(&all("immunity"), 0).unwrap();
    let hit = server.search(&all("immunization"), 0).unwrap();
    assert!(!miss.cached && hit.cached);
    assert_eq!(miss.page.query, "immunity");
    assert_eq!(hit.page.query, "immunization");
    assert_eq!(hit.page.total, miss.page.total);
    // Same text: the cached page goes out as it is.
    assert_eq!(server.search(&all("immunity"), 0).unwrap().page.query, "immunity");

    let scoped = |title: &str| SearchMode::TitleAbstractCaption {
        title: title.into(),
        abstract_q: String::new(),
        caption: "the".into(),
    };
    server.search(&scoped("masks"), 0).unwrap();
    let hit = server.search(&scoped("Mask"), 0).unwrap();
    assert!(hit.cached);
    assert_eq!(hit.page.query, "title:Mask", "empty field queries are not echoed");

    let hybrid = |q: &str| DenseMode::Hybrid(q.into());
    assert_eq!(
        dense_cache_key(&hybrid("masks vaccine"), 0),
        dense_cache_key(&hybrid("Vaccine masks"), 0)
    );
    server.search_dense(&hybrid("masks vaccine"), 0).unwrap();
    let hit = server.search_dense(&hybrid("Vaccine masks"), 0).unwrap();
    assert!(hit.cached);
    assert_eq!(hit.page.query, "Vaccine masks");
    server.shutdown();
}

/// `paper-000375` draws HNSW level 3 while the index over a small corpus
/// tops out lower. Ingest used to insert every new id twice; the second
/// insert tombstoned the first, the entry point fell back to a lower
/// node while the graph still claimed the higher layer, and the
/// re-insert indexed that node's links out of bounds.
#[test]
fn ingesting_a_publication_that_tops_the_ann_ladder_does_not_panic() {
    let server = Server::start(build_system(), ServeConfig::default());
    let publication = covidkg_corpus::CorpusGenerator::with_size(376, 2023)
        .generate()
        .pop()
        .unwrap();
    assert_eq!(publication.id, "paper-000375");
    let (top, dead) = server.with_system(|s| (s.ann().max_level(), s.ann().tombstones()));
    assert_eq!(server.ingest(&[publication]).unwrap(), 1);
    let (ann_top, ann_dead, indexed) =
        server.with_system(|s| (s.ann().max_level(), s.ann().tombstones(), s.ann().contains("paper-000375")));
    assert!(indexed);
    assert!(ann_top > top, "the new id sits alone on a higher layer");
    assert_eq!(ann_dead, dead, "one insert per ingested id leaves no tombstone");
    let page = server
        .search_dense(&covidkg_search::DenseMode::Semantic("vaccine".into()), 0)
        .unwrap();
    assert!(page.page.total > 0);
    server.shutdown();
}
