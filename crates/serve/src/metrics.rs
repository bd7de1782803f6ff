//! Serving metrics: per-class request counters, cache hit/miss,
//! admission-control outcomes, queue depth and a latency histogram with
//! percentile snapshots; and the `/metrics` page's one writer.
//!
//! Counters and histogram buckets are lock-free atomics, so the request
//! hot path never blocks on the metrics layer. [`Histogram`] serves every
//! bucketed count: these latencies and the wire's ready events per
//! `epoll_wait`.
//!
//! Each layer writes its own snapshot to the page through [`Exposition`],
//! in page order: the wire counters (`covidkg-net`), this layer's
//! [`ServeStats::expose`], a routed front end's replication series
//! (`covidkg-net`), then [`ServeStats::expose_engines`].

use crate::cache::CacheStats;
use covidkg_core::CovidKg;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// The traffic class a request is accounted against: the three §2.1
/// lexical engines, the two dense modes, the §4 knowledge-graph engine
/// and the trust/bias interrogation engine. One request counter per
/// class, and one circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// §2.1.2 all-fields engine.
    AllFields,
    /// §2.1.3 tables engine.
    Tables,
    /// §2.1.1 scoped title/abstract/caption engine.
    Scoped,
    /// §4 knowledge-graph traversal / meta-profile / node lookups.
    Kg,
    /// Trust scoring / bias interrogation.
    Trust,
    /// Pure ANN-neighbor retrieval.
    Semantic,
    /// Reciprocal-rank fusion of ANN + lexical candidates.
    Hybrid,
}

impl Class {
    /// Every class, in declaration order: `ALL[c.index()] == c`.
    pub const ALL: [Class; 7] = [
        Class::AllFields,
        Class::Tables,
        Class::Scoped,
        Class::Kg,
        Class::Trust,
        Class::Semantic,
        Class::Hybrid,
    ];
    /// The length of per-class arrays.
    pub(crate) const COUNT: usize = Class::ALL.len();

    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            Class::AllFields => "all-fields",
            Class::Tables => "tables",
            Class::Scoped => "scoped",
            Class::Kg => "kg",
            Class::Trust => "trust",
            Class::Semantic => "semantic",
            Class::Hybrid => "hybrid",
        }
    }
}

/// A histogram over given upper bounds, in any unit: a sample counts in
/// the first bucket whose bound is at least the sample, and past the last
/// bound in an overflow bucket. Recording is one relaxed `fetch_add`; the
/// sum, where a series needs one, is the caller's own counter.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One counter per bound, then the overflow bucket.
    counts: Vec<AtomicU64>,
}

impl Histogram {
    /// A histogram over `bounds`, which must ascend.
    pub fn new(bounds: Vec<u64>) -> Histogram {
        Histogram {
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            bounds,
        }
    }

    /// Log-scaled latency buckets in nanoseconds: bounds grow by 25% from
    /// 1 µs, so the whole 1 µs – 30 s range fits in ~80 buckets with
    /// bounded relative error on reported percentiles.
    pub fn latency() -> Histogram {
        let mut bounds_ns = Vec::new();
        let mut b = 1_000f64; // 1 µs
        while b < 30e9 {
            bounds_ns.push(b as u64);
            b *= 1.25;
        }
        Histogram::new(bounds_ns)
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one latency in nanoseconds (a [`Histogram::latency`]).
    pub fn record_duration(&self, latency: Duration) {
        self.record(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// The count in bucket `i` (one past the last bound is the overflow).
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts[i].load(Ordering::Relaxed)
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) via linear interpolation inside the
    /// bucket where the cumulative count crosses, or `None` when empty.
    ///
    /// Reporting the bucket's *upper bound* overestimates by up to a full
    /// bucket width (25% for latencies); assuming samples spread uniformly
    /// across the crossed bucket halves the worst case and is exact when
    /// they do. The overflow bucket has no upper bound, so a quantile
    /// landing there reports the last bound (its lower edge).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let last = self.bounds.last().copied().unwrap_or(0);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let in_bucket = c.load(Ordering::Relaxed);
            if seen + in_bucket >= target {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let Some(&upper) = self.bounds.get(i) else {
                    return Some(last);
                };
                // target > seen and in_bucket >= target - seen >= 1 here.
                let frac = (target - seen) as f64 / in_bucket as f64;
                return Some((lower as f64 + frac * (upper - lower) as f64) as u64);
            }
            seen += in_bucket;
        }
        // Unreachable when total > 0, but stay finite regardless.
        Some(last)
    }
}

impl Default for Histogram {
    /// The latency layout, [`Histogram::latency`].
    fn default() -> Histogram {
        Histogram::latency()
    }
}

/// The text metrics page (`GET /metrics`) in the Prometheus exposition
/// style: one `covidkg_<name> <value>` line per series, in the order
/// written. The only code that knows the page's format.
#[derive(Debug, Default)]
pub struct Exposition {
    page: String,
}

impl Exposition {
    /// One series, `covidkg_<name> <value>`.
    pub fn series(&mut self, name: &str, value: impl fmt::Display) {
        let _ = writeln!(self.page, "covidkg_{name} {value}");
    }

    /// One labelled series, `covidkg_<name>{<label>="<value>"} <value>`.
    /// Label values can be operator-chosen (replica names): anything that
    /// would break the strict `name value` line shape is squashed to `-`.
    pub fn labelled(
        &mut self,
        name: &str,
        label: &str,
        label_value: impl fmt::Display,
        value: impl fmt::Display,
    ) {
        let squashed: String = label_value
            .to_string()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect();
        self.series(&format!("{name}{{{label}=\"{squashed}\"}}"), value);
    }

    /// A duration in seconds to the microsecond, `0.000000` when absent.
    pub fn seconds(&mut self, name: &str, value: Option<Duration>) {
        let secs = value.map(|d| d.as_secs_f64()).unwrap_or(0.0);
        self.series(name, format_args!("{secs:.6}"));
    }

    /// A histogram from its non-cumulative bucket `counts` (one per bound,
    /// then the overflow bucket) and its `sum`: cumulative
    /// `<name>_bucket{le="…"}` series ending at `le="+Inf"`, then
    /// `<name>_count` and `<name>_sum`.
    pub fn histogram(&mut self, name: &str, bounds: &[u64], counts: &[u64], sum: u64) {
        let mut cumulative = 0;
        for (i, count) in counts.iter().enumerate() {
            cumulative += count;
            let le = bounds.get(i).map_or("+Inf".to_string(), u64::to_string);
            self.series(&format!("{name}_bucket{{le=\"{le}\"}}"), cumulative);
        }
        self.series(&format!("{name}_count"), cumulative);
        self.series(&format!("{name}_sum"), sum);
    }

    /// The page written so far.
    pub fn finish(self) -> String {
        self.page
    }
}

/// Live metric registry owned by the server.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [AtomicU64; Class::COUNT],
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    completed: AtomicU64,
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    degraded: AtomicU64,
    stale_served: AtomicU64,
    breaker_opens: AtomicU64,
    kg_traversal_hops: AtomicU64,
    kg_nodes_visited: AtomicU64,
    queue_depth: AtomicUsize,
    max_queue_depth: AtomicUsize,
    /// Hot-path latencies go to a lock-free histogram.
    latency: Histogram,
}

impl Metrics {
    pub(crate) fn record_request(&self, class: Class) {
        self.requests[class.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_completed(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record_duration(latency);
    }

    pub(crate) fn record_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_stale_served(&self) {
        self.stale_served.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_breaker_open(&self) {
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulate one KG traversal's work counters (`covidkg_kg_*`).
    pub(crate) fn record_kg_traversal(&self, hops: u64, visited: u64) {
        self.kg_traversal_hops.fetch_add(hops, Ordering::Relaxed);
        self.kg_nodes_visited.fetch_add(visited, Ordering::Relaxed);
    }

    /// The queue's length after a push or a pop, taken under its lock.
    pub(crate) fn record_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time snapshot for reporting.
    pub fn snapshot(&self) -> ServeStats {
        let requests = |class: Class| self.requests[class.index()].load(Ordering::Relaxed);
        ServeStats {
            requests_all_fields: requests(Class::AllFields),
            requests_tables: requests(Class::Tables),
            requests_scoped: requests(Class::Scoped),
            requests_kg: requests(Class::Kg),
            requests_trust: requests(Class::Trust),
            requests_semantic: requests(Class::Semantic),
            requests_hybrid: requests(Class::Hybrid),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            kg_traversal_hops: self.kg_traversal_hops.load(Ordering::Relaxed),
            kg_nodes_visited: self.kg_nodes_visited.load(Ordering::Relaxed),
            io_retries: 0,
            cache: CacheStats::default(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            p50: self.latency.quantile(0.50).map(Duration::from_nanos),
            p95: self.latency.quantile(0.95).map(Duration::from_nanos),
            p99: self.latency.quantile(0.99).map(Duration::from_nanos),
        }
    }
}

/// Point-in-time serving statistics (the `ServeStats` of the design
/// note): request mix, cache effectiveness, backpressure outcomes and
/// the latency tail.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests routed to the all-fields engine.
    pub requests_all_fields: u64,
    /// Requests routed to the tables engine.
    pub requests_tables: u64,
    /// Requests routed to the scoped engine.
    pub requests_scoped: u64,
    /// Requests routed to the KG query / profile engine.
    pub requests_kg: u64,
    /// Requests routed to the trust / bias interrogation engine.
    pub requests_trust: u64,
    /// Requests routed to the semantic (pure-ANN) mode.
    pub requests_semantic: u64,
    /// Requests routed to the hybrid lexical+dense mode.
    pub requests_hybrid: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Requests that had to run a search.
    pub cache_misses: u64,
    /// Jobs rejected because the queue was full.
    pub overloaded: u64,
    /// Jobs dequeued past `default_deadline` and not run.
    pub deadline_exceeded: u64,
    /// Requests that completed a search.
    pub completed: u64,
    /// Panics caught in a miss's compute, or that killed a worker.
    pub worker_panics: u64,
    /// Workers respawned after dying to a panic.
    pub worker_respawns: u64,
    /// Requests answered degraded (stale page or typed `Degraded` error)
    /// because the target engine's circuit breaker was open or its
    /// compute panicked mid-request.
    pub degraded: u64,
    /// Degraded requests that could be answered with a stale cached page.
    pub stale_served: u64,
    /// Times an engine circuit breaker tripped open.
    pub breaker_opens: u64,
    /// Frontier expansions performed by served KG traversals.
    pub kg_traversal_hops: u64,
    /// Nodes visited by served KG traversals.
    pub kg_nodes_visited: u64,
    /// Transient store-level I/O retries absorbed by ingest (0 unless
    /// a fault plan is attached to the backing collection).
    pub io_retries: u64,
    /// Result-cache occupancy and eviction counters.
    pub cache: CacheStats,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Highest queue depth observed.
    pub max_queue_depth: usize,
    /// Median latency of completed requests inside `Server::request`
    /// (queue wait not included).
    pub p50: Option<Duration>,
    /// 95th-percentile latency.
    pub p95: Option<Duration>,
    /// 99th-percentile latency.
    pub p99: Option<Duration>,
}

impl ServeStats {
    /// Total requests across all engines and dense modes.
    pub fn total_requests(&self) -> u64 {
        self.requests_all_fields
            + self.requests_tables
            + self.requests_scoped
            + self.requests_kg
            + self.requests_trust
            + self.requests_semantic
            + self.requests_hybrid
    }

    /// Cache hit rate over answered lookups (0 when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Write the serve section of the metrics page: the per-class request
    /// counts, cache and admission outcomes, survival counters, the queue
    /// and the latency percentiles.
    pub fn expose(&self, page: &mut Exposition) {
        page.series("serve_requests_all_fields", self.requests_all_fields);
        page.series("serve_requests_tables", self.requests_tables);
        page.series("serve_requests_scoped", self.requests_scoped);
        page.series("serve_requests_kg", self.requests_kg);
        page.series("serve_requests_trust", self.requests_trust);
        page.series("serve_requests_semantic", self.requests_semantic);
        page.series("serve_requests_hybrid", self.requests_hybrid);
        page.series("serve_cache_hits", self.cache_hits);
        page.series("serve_cache_misses", self.cache_misses);
        page.series("serve_overloaded", self.overloaded);
        page.series("serve_deadline_exceeded", self.deadline_exceeded);
        page.series("serve_completed", self.completed);
        page.series("serve_worker_panics", self.worker_panics);
        page.series("serve_worker_respawns", self.worker_respawns);
        page.series("serve_degraded", self.degraded);
        page.series("serve_stale_served", self.stale_served);
        page.series("serve_breaker_opens", self.breaker_opens);
        page.series("serve_io_retries", self.io_retries);
        page.series("serve_queue_depth", self.queue_depth);
        page.series("serve_max_queue_depth", self.max_queue_depth);
        page.seconds("serve_latency_p50_seconds", self.p50);
        page.seconds("serve_latency_p95_seconds", self.p95);
        page.seconds("serve_latency_p99_seconds", self.p99);
    }

    /// Write the engine section of the metrics page: the HNSW index behind
    /// `semantic`/`hybrid` (`ann_*`), the graph and the incrementally
    /// materialized profile store behind `/kg/*` (`kg_*`), and the trust
    /// store behind `/trust/*` and `/bias/report` (`trust_*`), read
    /// straight off `system`'s stores, with this snapshot's per-class
    /// query counts where the page has always had them.
    pub fn expose_engines(&self, system: &CovidKg, page: &mut Exposition) {
        let ann = system.ann();
        let a = ann.stats();
        page.series("ann_nodes", ann.len());
        page.series("ann_tombstones", ann.tombstones());
        page.series("ann_max_level", ann.max_level());
        page.series("ann_searches", a.searches);
        page.series("ann_distance_evals", a.distance_evals);
        page.series("ann_hops", a.hops);
        page.series("ann_candidates", a.candidates);
        page.series("ann_inserts", a.inserts);
        let p = system.profile_store().stats();
        page.series("kg_nodes", system.kg().len());
        page.series("kg_queries", self.requests_kg);
        page.series("kg_traversal_hops", self.kg_traversal_hops);
        page.series("kg_nodes_visited", self.kg_nodes_visited);
        page.series("kg_profiles", p.profiles);
        page.series("kg_profile_papers", p.papers);
        page.series("kg_profile_observations", p.observations);
        page.series("kg_profile_incremental_refreshes", p.incremental_refreshes);
        page.series("kg_profile_full_rebuilds", p.full_rebuilds);
        page.series("kg_profile_vaccines_rebuilt", p.vaccines_rebuilt);
        page.series("kg_profile_epoch", p.epoch);
        let t = system.trust_store().stats();
        page.series("trust_papers", t.papers);
        page.series("trust_venues", t.venues);
        page.series("trust_claims", t.claims);
        page.series("trust_nodes", t.nodes);
        page.series("trust_queries", self.requests_trust);
        page.series("trust_incremental_refreshes", t.incremental_refreshes);
        page.series("trust_full_rebuilds", t.full_rebuilds);
        page.series("trust_nodes_repropagated", t.nodes_repropagated);
        page.series("trust_epoch", t.epoch);
        page.series("trust_generation", t.generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_known_distribution() {
        let h = Histogram::latency();
        // 100 observations: 1..=100 ms.
        for ms in 1..=100u64 {
            h.record_duration(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        let p50 = Duration::from_nanos(h.quantile(0.50).unwrap());
        let p95 = Duration::from_nanos(h.quantile(0.95).unwrap());
        let p99 = Duration::from_nanos(h.quantile(0.99).unwrap());
        // Buckets grow by 25% and interpolation assumes a uniform spread
        // inside the crossed bucket, so each reported quantile lands
        // within half a bucket width (12.5%) of the exact value.
        for (got, exact_ms) in [(p50, 50u64), (p95, 95), (p99, 99)] {
            let exact = Duration::from_millis(exact_ms).as_nanos() as f64;
            let rel = (got.as_nanos() as f64 - exact).abs() / exact;
            assert!(rel <= 0.125, "rel err {rel:.4} for exact {exact_ms} ms ({got:?})");
        }
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn interpolated_quantiles_track_exact_sample_quantiles() {
        // Mixed-scale distribution: a fast mode, a slow mode, and a tail.
        let mut samples_us: Vec<u64> = Vec::new();
        samples_us.extend((1..=200u64).map(|i| 40 + i)); // 41..=240 µs
        samples_us.extend((1..=60u64).map(|i| 2_000 + 45 * i)); // 2.045..=4.7 ms
        samples_us.extend([30_000, 55_000, 90_000, 250_000]); // tail
        let h = Histogram::latency();
        for &us in &samples_us {
            h.record_duration(Duration::from_micros(us));
        }
        samples_us.sort_unstable();
        let n = samples_us.len();
        for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99] {
            // Exact quantile by the same nearest-rank convention the
            // histogram uses: the ceil(q·n)-th smallest sample.
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = Duration::from_micros(samples_us[rank - 1]).as_nanos() as f64;
            let got = h.quantile(q).unwrap() as f64;
            let rel = (got - exact).abs() / exact;
            assert!(
                rel <= 0.125,
                "q={q}: histogram {got} vs exact {exact} (rel err {rel:.4})"
            );
        }
    }

    #[test]
    fn histogram_is_empty_safe_and_monotone_in_q() {
        let h = Histogram::latency();
        assert_eq!(h.quantile(0.5), None);
        h.record_duration(Duration::from_micros(10));
        h.record_duration(Duration::from_millis(10));
        assert!(h.quantile(0.0).unwrap() <= h.quantile(1.0).unwrap());
    }

    #[test]
    fn exposition_writes_series_labels_seconds_and_cumulative_buckets() {
        let h = Histogram::new(vec![1, 4]);
        for sample in [0, 1, 3, 9, 9] {
            h.record(sample);
        }
        let counts: Vec<u64> = (0..3).map(|i| h.bucket(i)).collect();
        assert_eq!(counts, [2, 1, 2]);
        let mut page = Exposition::default();
        page.series("a", 7);
        page.labelled("b", "replica", "east 1/x", 3);
        page.seconds("c_seconds", Some(Duration::from_nanos(1_234_567)));
        page.seconds("d_seconds", None);
        page.histogram("e", &[1, 4], &counts, 22);
        assert_eq!(
            page.finish(),
            "covidkg_a 7\n\
             covidkg_b{replica=\"east-1-x\"} 3\n\
             covidkg_c_seconds 0.001235\n\
             covidkg_d_seconds 0.000000\n\
             covidkg_e_bucket{le=\"1\"} 2\n\
             covidkg_e_bucket{le=\"4\"} 3\n\
             covidkg_e_bucket{le=\"+Inf\"} 5\n\
             covidkg_e_count 5\n\
             covidkg_e_sum 22\n"
        );
    }

    #[test]
    fn snapshot_reflects_recorded_events() {
        let m = Metrics::default();
        m.record_request(Class::AllFields);
        m.record_request(Class::AllFields);
        m.record_request(Class::Tables);
        m.record_request(Class::Semantic);
        m.record_request(Class::Hybrid);
        m.record_request(Class::Hybrid);
        m.record_hit();
        m.record_miss();
        m.record_overloaded();
        m.record_deadline_exceeded();
        m.record_queue_depth(1);
        m.record_queue_depth(2);
        m.record_queue_depth(1);
        m.record_completed(Duration::from_millis(3));
        m.record_request(Class::Kg);
        m.record_request(Class::Trust);
        m.record_kg_traversal(12, 5);
        m.record_kg_traversal(3, 2);
        for (index, class) in Class::ALL.iter().enumerate() {
            assert_eq!(class.index(), index, "{}", class.label());
        }
        let s = m.snapshot();
        assert_eq!(s.requests_all_fields, 2);
        assert_eq!(s.requests_tables, 1);
        assert_eq!(s.requests_scoped, 0);
        assert_eq!(s.requests_kg, 1);
        assert_eq!(s.requests_trust, 1);
        assert_eq!(s.requests_semantic, 1);
        assert_eq!(s.requests_hybrid, 2);
        assert_eq!(s.total_requests(), 8);
        assert_eq!(s.kg_traversal_hops, 15);
        assert_eq!(s.kg_nodes_visited, 7);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(s.overloaded, 1);
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.max_queue_depth, 2);
        assert_eq!(s.completed, 1);
        assert!(s.p50.is_some());
    }
}
