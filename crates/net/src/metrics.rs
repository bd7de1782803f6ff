//! Wire-level counters and the assembly of the `/metrics` page.
//!
//! The serve layer tracks scheduler-side metrics (queue depth, cache hit
//! rate, latency percentiles). This registry adds the network-only
//! dimensions the scheduler cannot see — connections, bytes on the wire,
//! parse failures, ready events per `epoll_wait` and the per-status-code
//! response mix — and [`WireStats::expose`] writes them as the page's
//! first section through the serve layer's [`Exposition`], which owns
//! the page format. `page` lays the sections out in page order.

use crate::router::ReadContext;
use covidkg_serve::{Exposition, Histogram, ServeStats, Server};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Upper bounds of the ready-events-per-wakeup histogram buckets (the
/// last bucket is +Inf).
pub const READY_EVENT_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Lock-free wire counters shared by the reactor and every serve
/// worker that answers a request.
#[derive(Debug)]
pub struct WireMetrics {
    accepted: AtomicU64,
    active: AtomicU64,
    reaped: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    parse_errors: AtomicU64,
    requests: AtomicU64,
    /// `epoll_wait` returns (reactor model only).
    epoll_wakeups: AtomicU64,
    /// Ready-events-per-wakeup histogram over [`READY_EVENT_BUCKETS`].
    ready: Histogram,
    /// Total ready events observed (histogram sum).
    ready_events: AtomicU64,
    /// Response counts keyed by status code. A mutex is fine here: the
    /// map is touched once per response, after the search completed.
    statuses: Mutex<BTreeMap<u16, u64>>,
}

impl Default for WireMetrics {
    fn default() -> WireMetrics {
        WireMetrics {
            accepted: AtomicU64::default(),
            active: AtomicU64::default(),
            reaped: AtomicU64::default(),
            bytes_in: AtomicU64::default(),
            bytes_out: AtomicU64::default(),
            parse_errors: AtomicU64::default(),
            requests: AtomicU64::default(),
            epoll_wakeups: AtomicU64::default(),
            ready: Histogram::new(READY_EVENT_BUCKETS.to_vec()),
            ready_events: AtomicU64::default(),
            statuses: Mutex::default(),
        }
    }
}

impl WireMetrics {
    pub(crate) fn connection_opened(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_reaped(&self) {
        self.reaped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn read(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn wrote(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn parse_error(&self) {
        self.parse_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn responded(&self, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut statuses = self.statuses.lock().unwrap_or_else(|e| e.into_inner());
        *statuses.entry(status).or_insert(0) += 1;
    }

    /// One `epoll_wait` return delivering `ready` events (0 = timer
    /// tick; counted as a wakeup, excluded from the histogram).
    pub(crate) fn epoll_wakeup(&self, ready: usize) {
        self.epoll_wakeups.fetch_add(1, Ordering::Relaxed);
        if ready == 0 {
            return;
        }
        self.ready_events.fetch_add(ready as u64, Ordering::Relaxed);
        self.ready.record(ready as u64);
    }

    /// Point-in-time snapshot.
    pub fn snapshot(&self) -> WireStats {
        WireStats {
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            connections_active: self.active.load(Ordering::Relaxed),
            connections_reaped: self.reaped.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            epoll_wakeups: self.epoll_wakeups.load(Ordering::Relaxed),
            ready_event_buckets: std::array::from_fn(|i| self.ready.bucket(i)),
            ready_events: self.ready_events.load(Ordering::Relaxed),
            responses_by_status: self
                .statuses
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }
}

/// Snapshot of [`WireMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Connections the supervisor accepted (including over-capacity ones
    /// turned away with 503).
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Idle connections closed by the reaper.
    pub connections_reaped: u64,
    /// Request bytes read off sockets.
    pub bytes_in: u64,
    /// Response bytes written to sockets.
    pub bytes_out: u64,
    /// Requests rejected by the HTTP parser.
    pub parse_errors: u64,
    /// Responses written (any status).
    pub requests: u64,
    /// `epoll_wait` returns.
    pub epoll_wakeups: u64,
    /// Non-cumulative ready-events-per-wakeup histogram counts, one per
    /// bucket of [`READY_EVENT_BUCKETS`] plus +Inf.
    pub ready_event_buckets: [u64; READY_EVENT_BUCKETS.len() + 1],
    /// Total ready events across all wakeups (histogram sum).
    pub ready_events: u64,
    /// Responses by status code.
    pub responses_by_status: BTreeMap<u16, u64>,
}

impl WireStats {
    /// Write the wire section of the metrics page: the connection and
    /// byte counters, the ready-events histogram and the responses by
    /// status.
    pub(crate) fn expose(&self, page: &mut Exposition) {
        page.series("net_connections_accepted", self.connections_accepted);
        page.series("net_connections_active", self.connections_active);
        page.series("net_connections_reaped", self.connections_reaped);
        page.series("net_bytes_in", self.bytes_in);
        page.series("net_bytes_out", self.bytes_out);
        page.series("net_parse_errors", self.parse_errors);
        page.series("net_requests", self.requests);
        page.series("net_open_connections", self.connections_active);
        page.series("net_epoll_wakeups", self.epoll_wakeups);
        page.histogram(
            "net_ready_events_per_wakeup",
            &READY_EVENT_BUCKETS,
            &self.ready_event_buckets,
            self.ready_events,
        );
        for (status, count) in &self.responses_by_status {
            page.labelled("net_responses", "status", status, count);
        }
    }
}

/// The `/metrics` page, section by section in page order: `wire`,
/// `serve`, the replication series under a routing layer, and the
/// engine series read through `server`'s system.
pub(crate) fn page(
    server: &Server,
    wire: &WireStats,
    serve: &ServeStats,
    repl: Option<&ReadContext>,
) -> String {
    let mut page = Exposition::default();
    wire.expose(&mut page);
    serve.expose(&mut page);
    if let Some(repl) = repl {
        repl.expose(&mut page);
    }
    server.with_system(|system| serve.expose_engines(system, &mut page));
    page.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_core::{CovidKg, CovidKgConfig};
    use covidkg_repl::{ReadRouter, ReplMetrics, ReplicaTarget};
    use covidkg_serve::ServeConfig;
    use std::sync::atomic::AtomicU8;
    use std::sync::Arc;
    use std::time::Duration;

    /// Every series name `/metrics` emits (less the `covidkg_` prefix)
    /// for a routed primary after one 200 and one 404, in page order.
    const EVERY_SERIES: &str = "\
        net_connections_accepted net_connections_active net_connections_reaped net_bytes_in \
        net_bytes_out net_parse_errors net_requests net_open_connections net_epoll_wakeups \
        net_ready_events_per_wakeup_bucket{le=\"1\"} net_ready_events_per_wakeup_bucket{le=\"2\"} \
        net_ready_events_per_wakeup_bucket{le=\"4\"} net_ready_events_per_wakeup_bucket{le=\"8\"} \
        net_ready_events_per_wakeup_bucket{le=\"16\"} net_ready_events_per_wakeup_bucket{le=\"32\"} \
        net_ready_events_per_wakeup_bucket{le=\"64\"} net_ready_events_per_wakeup_bucket{le=\"+Inf\"} \
        net_ready_events_per_wakeup_count net_ready_events_per_wakeup_sum \
        net_responses{status=\"200\"} net_responses{status=\"404\"} \
        serve_requests_all_fields serve_requests_tables serve_requests_scoped serve_requests_kg \
        serve_requests_trust serve_requests_semantic serve_requests_hybrid serve_cache_hits \
        serve_cache_misses serve_overloaded serve_deadline_exceeded serve_completed \
        serve_worker_panics serve_worker_respawns serve_degraded serve_stale_served \
        serve_breaker_opens serve_io_retries serve_queue_depth serve_max_queue_depth \
        serve_latency_p50_seconds serve_latency_p95_seconds serve_latency_p99_seconds \
        repl_watermark repl_epoch repl_replicas \
        repl_replica_applied{replica=\"replica-1\"} repl_replica_lag{replica=\"replica-1\"} \
        repl_replica_applied{replica=\"weird-name-\"} repl_replica_lag{replica=\"weird-name-\"} \
        repl_bytes_shipped repl_frames_shipped repl_batches_shipped repl_bytes_saved \
        repl_snapshot_bootstraps repl_reconnects repl_fenced_sessions \
        ann_nodes ann_tombstones ann_max_level ann_searches ann_distance_evals ann_hops \
        ann_candidates ann_inserts \
        kg_nodes kg_queries kg_traversal_hops kg_nodes_visited kg_profiles kg_profile_papers \
        kg_profile_observations kg_profile_incremental_refreshes kg_profile_full_rebuilds \
        kg_profile_vaccines_rebuilt kg_profile_epoch \
        trust_papers trust_venues trust_claims trust_nodes trust_queries \
        trust_incremental_refreshes trust_full_rebuilds trust_nodes_repropagated trust_epoch \
        trust_generation";

    #[test]
    fn counters_round_trip_through_snapshot() {
        let m = WireMetrics::default();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.connection_reaped();
        m.read(100);
        m.wrote(250);
        m.parse_error();
        m.responded(200);
        m.responded(200);
        m.responded(503);
        let s = m.snapshot();
        assert_eq!(s.connections_accepted, 2);
        assert_eq!(s.connections_active, 1);
        assert_eq!(s.connections_reaped, 1);
        assert_eq!(s.bytes_in, 100);
        assert_eq!(s.bytes_out, 250);
        assert_eq!(s.parse_errors, 1);
        assert_eq!(s.requests, 3);
        assert_eq!(s.responses_by_status.get(&200), Some(&2));
        assert_eq!(s.responses_by_status.get(&503), Some(&1));
    }

    #[test]
    fn ready_event_histogram_buckets_by_count() {
        let m = WireMetrics::default();
        m.epoll_wakeup(0); // timer tick: wakeup counted, no histogram sample
        m.epoll_wakeup(1);
        m.epoll_wakeup(2);
        m.epoll_wakeup(5);
        m.epoll_wakeup(500); // past the largest bound -> +Inf
        let s = m.snapshot();
        assert_eq!(s.epoll_wakeups, 5);
        assert_eq!(s.ready_events, 1 + 2 + 5 + 500);
        assert_eq!(s.ready_event_buckets[0], 1); // le=1
        assert_eq!(s.ready_event_buckets[1], 1); // le=2
        assert_eq!(s.ready_event_buckets[3], 1); // le=8 holds the 5
        assert_eq!(s.ready_event_buckets[READY_EVENT_BUCKETS.len()], 1); // +Inf
        let serve = ServeStats::default();
        let mut page = Exposition::default();
        s.expose(&mut page);
        serve.expose(&mut page);
        let text = page.finish();
        assert!(text.contains("covidkg_net_epoll_wakeups 5\n"), "{text}");
        assert!(text.contains("covidkg_net_ready_events_per_wakeup_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("covidkg_net_ready_events_per_wakeup_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("covidkg_net_ready_events_per_wakeup_bucket{le=\"8\"} 3\n"));
        assert!(text.contains("covidkg_net_ready_events_per_wakeup_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("covidkg_net_ready_events_per_wakeup_count 4\n"));
        assert!(text.contains("covidkg_net_ready_events_per_wakeup_sum 508\n"));
        assert!(text.contains("covidkg_net_open_connections 0\n"));
    }

    #[test]
    fn exposition_lists_every_series() {
        let m = WireMetrics::default();
        m.connection_opened();
        m.responded(200);
        m.responded(404);
        let serve = ServeStats {
            requests_all_fields: 7,
            requests_kg: 3,
            requests_trust: 6,
            requests_semantic: 2,
            requests_hybrid: 5,
            cache_hits: 3,
            cache_misses: 4,
            overloaded: 1,
            completed: 4,
            kg_traversal_hops: 44,
            kg_nodes_visited: 19,
            max_queue_depth: 2,
            p50: Some(Duration::from_micros(1500)),
            ..ServeStats::default()
        };
        // The engine series come straight off a real system's stores. Two
        // profile-sourcing papers deleted, five publications ingested in
        // three batches and three dense searches leave every counter
        // non-zero (tombstones, incremental refreshes, vaccines rebuilt).
        let mut system = CovidKg::build(CovidKgConfig {
            corpus_size: 40,
            max_training_rows: 50,
            ..CovidKgConfig::default()
        })
        .unwrap();
        let newer = covidkg_corpus::CorpusGenerator::with_size(45, CovidKgConfig::default().seed);
        let newer: Vec<_> = newer.generate().into_iter().skip(40).collect();
        let mut sourced: Vec<String> = system
            .profiles()
            .iter()
            .flat_map(|p| p.sources.clone())
            .collect();
        sourced.sort();
        sourced.dedup();
        for paper in &sourced[..2] {
            system.publications().delete(paper).unwrap();
        }
        // One paper stored and withdrawn again: two writes that move only
        // the epochs, off the observation count they would otherwise equal.
        let withdrawn = covidkg_json::obj! { "_id" => "withdrawn" };
        system.publications().insert(withdrawn).unwrap();
        system.publications().delete("withdrawn").unwrap();
        assert_eq!(system.ingest(&newer[..2]).unwrap(), 2);
        assert_eq!(system.ingest(&newer[2..4]).unwrap(), 2);
        assert_eq!(system.ingest(&newer[4..]).unwrap(), 1);
        for query in ["vaccine", "fever", "mask"] {
            system.search_dense(&covidkg_search::DenseMode::Semantic(query.into()), 0);
        }
        let server = Arc::new(Server::start(
            system,
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        ));
        // A routed primary: a watermark of 42, one replica caught up and
        // one (with a name the label must squash) two behind, and the
        // shipping counters of a primary at epoch 2.
        let target = |name: &str, applied: u64| ReplicaTarget {
            name: name.into(),
            server: Arc::clone(&server),
            applied: Arc::new(AtomicU64::new(applied)),
            health: Arc::new(AtomicU8::new(0)), // ready
        };
        let router = ReadRouter::new(
            None,
            vec![target("replica-1", 42), target("weird name!", 40)],
            Arc::new(|| 42),
            16,
        );
        let shipping = ReplMetrics::default();
        shipping.shipped(1024);
        for (frames, saved) in [(5, 300), (4, 200), (4, 200), (4, 200)] {
            shipping.batch_shipped(frames, 1000 + saved, 1000);
        }
        shipping.snapshot_bootstrap();
        for _ in 0..3 {
            shipping.reconnect();
        }
        shipping.fenced_session();
        shipping.observe_epoch(2);
        let repl = ReadContext::new(Arc::new(router), Some(Arc::new(shipping)));
        let text = page(&server, &m.snapshot(), &serve, Some(&repl));
        assert!(text.contains("covidkg_net_connections_accepted 1\n"), "{text}");
        assert!(text.contains("covidkg_net_responses{status=\"200\"} 1\n"));
        assert!(text.contains("covidkg_net_responses{status=\"404\"} 1\n"));
        assert!(text.contains("covidkg_serve_requests_all_fields 7\n"));
        assert!(text.contains("covidkg_serve_latency_p50_seconds 0.001500\n"));
        assert!(text.contains("covidkg_serve_latency_p95_seconds 0.000000\n"));
        assert!(text.contains("covidkg_repl_watermark 42\n"));
        assert!(text.contains("covidkg_repl_epoch 2\n"));
        assert!(text.contains("covidkg_repl_replicas 2\n"));
        assert!(text.contains("covidkg_repl_replica_applied{replica=\"replica-1\"} 42\n"));
        assert!(text.contains("covidkg_repl_replica_lag{replica=\"weird-name-\"} 2\n"));
        assert!(text.contains("covidkg_repl_bytes_shipped 1024\n"));
        assert!(text.contains("covidkg_repl_frames_shipped 17\n"));
        assert!(text.contains("covidkg_repl_batches_shipped 4\n"));
        assert!(text.contains("covidkg_repl_bytes_saved 900\n"));
        assert!(text.contains("covidkg_repl_snapshot_bootstraps 1\n"));
        assert!(text.contains("covidkg_repl_reconnects 3\n"));
        assert!(text.contains("covidkg_repl_fenced_sessions 1\n"));
        assert!(text.contains("covidkg_serve_requests_semantic 2\n"));
        assert!(text.contains("covidkg_serve_requests_hybrid 5\n"));
        // Every engine series carries its own store's number (or, for the
        // per-class counts interleaved with them, serve's)…
        let expected = server.with_system(|system| {
            let (ann, profiles, trust) = (
                system.ann(),
                system.profile_store().stats(),
                system.trust_store().stats(),
            );
            [
                ("ann_nodes", ann.len() as u64),
                ("ann_tombstones", ann.tombstones() as u64),
                ("ann_max_level", ann.max_level() as u64),
                ("ann_searches", ann.stats().searches),
                ("ann_distance_evals", ann.stats().distance_evals),
                ("ann_hops", ann.stats().hops),
                ("ann_candidates", ann.stats().candidates),
                ("ann_inserts", ann.stats().inserts),
                ("kg_nodes", system.kg().len() as u64),
                ("kg_queries", 3),
                ("kg_traversal_hops", 44),
                ("kg_nodes_visited", 19),
                ("kg_profiles", profiles.profiles as u64),
                ("kg_profile_papers", profiles.papers as u64),
                ("kg_profile_observations", profiles.observations as u64),
                (
                    "kg_profile_incremental_refreshes",
                    profiles.incremental_refreshes,
                ),
                ("kg_profile_full_rebuilds", profiles.full_rebuilds),
                ("kg_profile_vaccines_rebuilt", profiles.vaccines_rebuilt),
                ("kg_profile_epoch", profiles.epoch),
                ("trust_papers", trust.papers as u64),
                ("trust_venues", trust.venues as u64),
                ("trust_claims", trust.claims as u64),
                ("trust_nodes", trust.nodes as u64),
                ("trust_queries", 6),
                ("trust_incremental_refreshes", trust.incremental_refreshes),
                ("trust_full_rebuilds", trust.full_rebuilds),
                ("trust_nodes_repropagated", trust.nodes_repropagated),
                ("trust_epoch", trust.epoch),
                ("trust_generation", trust.generation),
            ]
        });
        for (name, value) in expected {
            assert!(
                text.contains(&format!("covidkg_{name} {value}\n")),
                "{name} {value}: {text}"
            );
        }
        // …and the mutations above made each store's numbers non-zero and
        // pairwise distinct, so a row reading its neighbour's field (say
        // inserts for tombstones) cannot pass.
        for store in ["ann_", "kg_", "trust_"] {
            let mut values: Vec<u64> = expected
                .iter()
                .filter(|(name, _)| name.starts_with(store) && !name.ends_with("_queries"))
                .map(|(_, value)| *value)
                .collect();
            values.sort_unstable();
            assert!(
                values[0] > 0 && values.windows(2).all(|w| w[0] != w[1]),
                "{store}: {values:?}"
            );
        }
        assert!(text.contains("covidkg_serve_requests_kg 3\n"));
        assert!(text.contains("covidkg_serve_requests_trust 6\n"));
        // The page is these series, in this order, and nothing else.
        let names = text
            .lines()
            .filter_map(|l| l.strip_prefix("covidkg_")?.split(' ').next());
        assert_eq!(
            names.collect::<Vec<_>>(),
            EVERY_SERIES.split(' ').collect::<Vec<_>>(),
            "{text}"
        );
        // Every line is `name value`.
        for l in text.lines() {
            assert_eq!(l.split(' ').count(), 2, "{l}");
            assert!(l.starts_with("covidkg_"), "{l}");
        }
        // Without a routing layer the replication series are absent
        // entirely, and the wire and serve sections write no engine series.
        let text = page(&server, &m.snapshot(), &serve, None);
        assert!(!text.contains("repl_"), "{text}");
        let mut page = Exposition::default();
        m.snapshot().expose(&mut page);
        serve.expose(&mut page);
        let text = page.finish();
        assert!(!text.contains("ann_"), "{text}");
        assert!(!text.contains("covidkg_kg_"), "{text}");
        assert!(!text.contains("covidkg_trust_"), "{text}");
    }
}
