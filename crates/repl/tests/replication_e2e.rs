//! End-to-end replication: a real primary system behind a
//! [`ReplListener`], a full [`ReplicaNode`] bootstrapping over loopback
//! TCP, converged reads on the replica's own server, live writes
//! flowing through, and lag-aware routing with read-your-writes.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_repl::{
    ReadRouter, ReplConfig, ReplListener, ReplicaNode, ReplicaNodeConfig, ReplicaTarget,
};
use covidkg_search::SearchMode;
use covidkg_serve::{ServeConfig, Server};
use covidkg_store::Collection;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("covidkg-repl-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.to_string_lossy().into_owned()
}

/// Build a persistent primary system and its serving stack.
fn primary_stack(tag: &str) -> (Arc<Server>, Vec<(String, Arc<Collection>)>) {
    let system = CovidKg::build(CovidKgConfig {
        corpus_size: 24,
        max_training_rows: 300,
        data_dir: Some(scratch(&format!("{tag}-primary"))),
        ..CovidKgConfig::default()
    })
    .unwrap();
    let server = Arc::new(Server::start(system, ServeConfig::default()));
    let sources = server.with_system(|s| {
        let db = s.database();
        db.collection_names()
            .into_iter()
            .map(|name| {
                let coll = db.collection(&name).unwrap();
                (name, coll)
            })
            .collect::<Vec<_>>()
    });
    (server, sources)
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
fn replica_node_converges_serves_and_follows_live_writes() {
    let (primary_server, sources) = primary_stack("node");
    let listener = ReplListener::start(sources.clone(), ReplConfig::default()).unwrap();

    let node = ReplicaNode::start(ReplicaNodeConfig::new(
        listener.local_addr(),
        "replica-1",
        scratch("node-replica"),
    ))
    .unwrap();

    // Byte-identical convergence across every replicated collection.
    for (name, coll) in &sources {
        assert_eq!(
            node.checksum(name),
            Some(coll.content_checksum()),
            "collection {name:?} diverged after initial sync"
        );
    }
    assert_eq!(node.collections().len(), sources.len());

    // The replica's own server answers queries identically.
    for query in covidkg_corpus::query_workload(4, 9) {
        let mode = SearchMode::AllFields(query.clone());
        let on_primary = primary_server.search(&mode, 0).unwrap();
        let on_replica = node.server().search(&mode, 0).unwrap();
        assert_eq!(
            on_primary.page.total, on_replica.page.total,
            "replica disagreed with primary for {query:?}"
        );
    }

    // Live writes: ingest on the primary, watch them arrive.
    let before = listener.watermark();
    let new_pubs: Vec<_> = covidkg_corpus::CorpusGenerator::with_size(36, 77)
        .generate()
        .into_iter()
        .skip(24)
        .collect();
    primary_server.ingest(&new_pubs).unwrap();
    let mark = listener.watermark();
    assert!(mark > before, "ingest must advance the primary watermark");
    assert!(
        wait_until(Duration::from_secs(20), || node.applied() >= mark),
        "replica never applied the live ingest (applied {}, want {mark})",
        node.applied()
    );
    let pubs_coll = sources
        .iter()
        .find(|(n, _)| n == "publications")
        .map(|(_, c)| c)
        .unwrap();
    assert!(wait_until(Duration::from_secs(10), || {
        node.checksum("publications") == Some(pubs_coll.content_checksum())
    }));

    // The refresh thread must surface the new docs through the replica's
    // serving path (derived state rebuilt, generation bumped).
    let total_expected = primary_server
        .search(&SearchMode::AllFields("covid".into()), 0)
        .unwrap()
        .page
        .total;
    assert!(
        wait_until(Duration::from_secs(20), || {
            node.server()
                .search(&SearchMode::AllFields("covid".into()), 0)
                .map(|r| r.page.total == total_expected)
                .unwrap_or(false)
        }),
        "replica reads never caught up with the post-ingest corpus"
    );

    // Primary-side accounting saw this replica ack its frames.
    let stats = listener.stats();
    assert!(stats.frames_shipped > 0);
    assert!(stats.bytes_shipped > 0);
    assert!(
        stats.replicas.iter().any(|(name, acked)| name == "replica-1" && *acked >= mark),
        "primary never recorded replica-1's acks: {:?}",
        stats.replicas
    );
    drop(node);
}

fn kg_json(server: &Server) -> String {
    server.with_system(|s| s.kg().to_json().to_json())
}

/// What a node serves off its graph and derived views: the graph, the
/// profiles and the trust vector's bits.
fn served_views(server: &Server) -> impl PartialEq {
    let trust: Vec<Option<u64>> = server.with_system(|s| {
        (0..s.kg().len())
            .map(|n| s.trust_store().trust(n).map(f64::to_bits))
            .collect()
    });
    (kg_json(server), server.with_system(|s| s.profiles().to_vec()), trust)
}

#[test]
fn replica_views_follow_the_delta_without_rebuilding() {
    let (primary, sources) = primary_stack("views");
    let listener = ReplListener::start(sources, ReplConfig::default()).unwrap();
    let node = ReplicaNode::start(ReplicaNodeConfig::new(
        listener.local_addr(),
        "replica-v",
        scratch("views-replica"),
    ))
    .unwrap();
    let replica = node.server();
    let stats =
        |server: &Server| server.with_system(|s| (s.profile_store().stats(), s.trust_store().stats()));
    let pristine = stats(&replica).1;
    assert_eq!((pristine.full_rebuilds, pristine.incremental_refreshes), (1, 0));
    // What one from-scratch propagation costs per node.
    let sweeps = pristine.nodes_repropagated / pristine.nodes as u64;

    // One publication with a side-effect table, one with no tables at
    // all (nothing but the replicated log names that one).
    let mut fresh = covidkg_corpus::CorpusGenerator::with_size(40, 77)
        .generate()
        .into_iter()
        .skip(24);
    let tabled = fresh
        .find(|p| !covidkg_core::doc_observations(&p.to_doc(), &p.id).is_empty())
        .expect("a generated paper with a side-effect table");
    let mut bare = fresh.next().expect("one more paper");
    bare.tables.clear();

    for (publication, has_table) in [(tabled, true), (bare, false)] {
        let (profiles_before, trust_before) = stats(&replica);
        let primary_before = stats(&primary).0;
        let generation = replica.generation();

        // The ingest in its three phases, so the publications frames
        // reach the replica — and one refresh runs over them against
        // the old graph — before the kg document is even written.
        let prepared = primary
            .with_system(|s| s.ingest_prepare(std::slice::from_ref(&publication)))
            .unwrap();
        let mark = listener.watermark();
        assert!(wait_until(Duration::from_secs(20), || node.applied() >= mark));
        assert!(
            wait_until(Duration::from_secs(20), || {
                replica.generation() > generation
                    && stats(&replica).1.papers == trust_before.papers + 1
            }),
            "no refresh over the publications frames alone"
        );
        let kg_before = kg_json(&primary);
        primary.with_system_mut(|s| s.ingest_commit(prepared)).unwrap();
        let kg_grew = kg_json(&primary) != kg_before;
        assert_eq!(kg_grew, has_table, "fusion adds the tabled paper to the graph");
        primary.with_system(|s| s.persist_now()).unwrap();
        assert!(
            wait_until(Duration::from_secs(20), || served_views(&replica)
                == served_views(&primary)),
            "replica views never converged on the primary's"
        );

        let (profiles, trust) = stats(&replica);
        assert_eq!(profiles.full_rebuilds, profiles_before.full_rebuilds);
        assert_eq!(trust.full_rebuilds, trust_before.full_rebuilds);
        let refreshes = profiles.incremental_refreshes - profiles_before.incremental_refreshes;
        assert!(
            refreshes > u64::from(kg_grew),
            "one before the kg document, one after it changed: {refreshes}"
        );
        assert_eq!(
            trust.incremental_refreshes - trust_before.incremental_refreshes,
            refreshes,
            "the views advance together"
        );
        // Profiles: only the vaccines this paper mentions, once per
        // time the log named it (its insert and its enrichment may
        // straddle two refreshes) — not every vaccine on every refresh.
        let mentioned = stats(&primary).0.vaccines_rebuilt - primary_before.vaccines_rebuilt;
        assert_eq!(mentioned > 0, has_table);
        let rebuilt = profiles.vaccines_rebuilt - profiles_before.vaccines_rebuilt;
        assert!(
            (mentioned..=2 * mentioned).contains(&rebuilt),
            "{rebuilt} vaccines rebuilt for a paper mentioning {mentioned}"
        );
        // Trust: the dirty ball, never the price of a rebuild per refresh.
        let swept = trust.nodes_repropagated - trust_before.nodes_repropagated;
        assert!(
            swept < refreshes * trust.nodes as u64 * sweeps,
            "{swept} node sweeps over {refreshes} refreshes of {} nodes",
            trust.nodes
        );
    }
    drop(node);
}

#[test]
fn router_prefers_caught_up_replica_and_honours_read_your_writes() {
    let (primary_server, sources) = primary_stack("router");
    let listener = ReplListener::start(sources, ReplConfig::default()).unwrap();

    let node = ReplicaNode::start(ReplicaNodeConfig::new(
        listener.local_addr(),
        "replica-r",
        scratch("router-replica"),
    ))
    .unwrap();

    let state = node.publications_state();
    let watermark_listener = &listener;
    let mark_now = watermark_listener.watermark();
    assert!(
        wait_until(Duration::from_secs(10), || {
            state.applied.load(Ordering::Acquire) >= mark_now
        }),
        "replica not caught up before routing"
    );

    let applied = Arc::new(std::sync::atomic::AtomicU64::new(0));
    applied.store(state.applied.load(Ordering::Acquire), Ordering::Release);
    let mark = listener.watermark();
    let router = ReadRouter::new(
        Some(Arc::clone(&primary_server)),
        vec![ReplicaTarget {
            name: "replica-r".into(),
            server: node.server(),
            applied: Arc::clone(&applied),
            health: Arc::new(std::sync::atomic::AtomicU8::new(0)),
        }],
        Arc::new(move || mark),
        8,
    );

    // A caught-up replica takes the read, even with read-your-writes.
    let (server, info) = router.route(mark, Duration::from_secs(2)).unwrap();
    let resp = server.search(&SearchMode::AllFields("vaccine".into()), 0).unwrap();
    assert!(!info.primary, "caught-up replica should have served");
    assert_eq!(info.replica, "replica-r");
    assert_eq!(info.applied, mark);
    assert_eq!(info.lag, 0);
    assert_eq!(
        resp.page.total,
        primary_server
            .search(&SearchMode::AllFields("vaccine".into()), 0)
            .unwrap()
            .page
            .total
    );

    // Force the replica to look stale: the primary fallback serves
    // instantly instead of 503ing.
    applied.store(0, Ordering::Release);
    let (_, info) = router.route(mark.max(1), Duration::from_millis(200)).unwrap();
    assert!(info.primary, "stale replica must fall back to the primary");
    drop(node);
}
