//! Serving metrics: per-class request counters, cache hit/miss,
//! admission-control outcomes, queue depth and a latency histogram with
//! percentile snapshots.
//!
//! Counters are lock-free atomics so the request hot path never blocks
//! on the metrics layer; only the histogram takes a (short) mutex, and
//! only after a request already completed.

use crate::cache::CacheStats;
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

/// Log-scaled latency histogram: buckets grow by 25% from 1 µs, so the
/// whole 1 µs – 30 s range fits in ~80 buckets with bounded relative
/// error on reported percentiles.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: Vec<AtomicU64>,
    bounds_ns: Vec<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        let mut bounds_ns = Vec::new();
        let mut b = 1_000f64; // 1 µs
        while b < 30e9 {
            bounds_ns.push(b as u64);
            b *= 1.25;
        }
        bounds_ns.push(u64::MAX);
        LatencyHistogram {
            counts: (0..bounds_ns.len()).map(|_| AtomicU64::new(0)).collect(),
            bounds_ns,
        }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        let idx = self.bounds_ns.partition_point(|&b| b < ns);
        self.counts[idx.min(self.counts.len() - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) via linear interpolation inside the
    /// bucket where the cumulative count crosses, or `None` when empty.
    ///
    /// Reporting the bucket's *upper bound* overestimates by up to a full
    /// bucket width (25%); assuming observations spread uniformly across
    /// the crossed bucket halves the worst case and is exact when they do.
    /// The overflow bucket has no finite upper bound, so a quantile
    /// landing there reports the last finite bound (its lower edge).
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let in_bucket = c.load(Ordering::Relaxed);
            if seen + in_bucket >= target {
                let lower = if i == 0 { 0 } else { self.bounds_ns[i - 1] };
                let upper = self.bounds_ns[i];
                if upper == u64::MAX {
                    return Some(Duration::from_nanos(lower));
                }
                // target > seen and in_bucket >= target - seen >= 1 here.
                let frac = (target - seen) as f64 / in_bucket as f64;
                let ns = lower as f64 + frac * (upper - lower) as f64;
                return Some(Duration::from_nanos(ns as u64));
            }
            seen += in_bucket;
        }
        // Unreachable when total > 0, but stay finite regardless.
        Some(Duration::from_nanos(self.bounds_ns[self.bounds_ns.len() - 2]))
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
    latency: LatencyHistogram,
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
        self.latency.record(latency);
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
            p50: self.latency.quantile(0.50),
            p95: self.latency.quantile(0.95),
            p99: self.latency.quantile(0.99),
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

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        fn dur(d: Option<Duration>) -> String {
            match d {
                None => "-".into(),
                Some(d) if d.as_secs_f64() >= 1.0 => format!("{:.2} s", d.as_secs_f64()),
                Some(d) if d.as_micros() >= 1000 => format!("{:.2} ms", d.as_secs_f64() * 1e3),
                Some(d) => format!("{} µs", d.as_micros()),
            }
        }
        let mut out = String::new();
        out.push_str("serving stats\n");
        out.push_str(&format!(
            "  requests     {} (all-fields {}, tables {}, scoped {}, kg {}, trust {}, semantic {}, hybrid {})\n",
            self.total_requests(),
            self.requests_all_fields,
            self.requests_tables,
            self.requests_scoped,
            self.requests_kg,
            self.requests_trust,
            self.requests_semantic,
            self.requests_hybrid,
        ));
        out.push_str(&format!(
            "  cache        {} hits / {} misses ({:.1}% hit rate)\n",
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0,
        ));
        out.push_str(&format!(
            "  admission    {} overloaded, {} deadline-exceeded\n",
            self.overloaded, self.deadline_exceeded,
        ));
        out.push_str(&format!(
            "  queue        depth {} now, {} peak\n",
            self.queue_depth, self.max_queue_depth,
        ));
        out.push_str(&format!(
            "  latency      p50 {}  p95 {}  p99 {}  ({} completed)\n",
            dur(self.p50),
            dur(self.p95),
            dur(self.p99),
            self.completed,
        ));
        out.push_str(&format!(
            "  survival     {} panics, {} respawns, {} breaker-opens, {} degraded ({} stale-served), {} io-retries\n",
            self.worker_panics,
            self.worker_respawns,
            self.breaker_opens,
            self.degraded,
            self.stale_served,
            self.io_retries,
        ));
        out.push_str(&format!(
            "  cache bound  {} resident ({} B), evicted {} lru / {} ttl / {} bytes\n",
            self.cache.resident,
            self.cache.resident_bytes,
            self.cache.evicted_lru,
            self.cache.evicted_ttl,
            self.cache.evicted_bytes,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_known_distribution() {
        let h = LatencyHistogram::default();
        // 100 observations: 1..=100 ms.
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
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
        let h = LatencyHistogram::default();
        for &us in &samples_us {
            h.record(Duration::from_micros(us));
        }
        samples_us.sort_unstable();
        let n = samples_us.len();
        for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99] {
            // Exact quantile by the same nearest-rank convention the
            // histogram uses: the ceil(q·n)-th smallest sample.
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = Duration::from_micros(samples_us[rank - 1]).as_nanos() as f64;
            let got = h.quantile(q).unwrap().as_nanos() as f64;
            let rel = (got - exact).abs() / exact;
            assert!(
                rel <= 0.125,
                "q={q}: histogram {got} vs exact {exact} (rel err {rel:.4})"
            );
        }
    }

    #[test]
    fn histogram_is_empty_safe_and_monotone_in_q() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        h.record(Duration::from_micros(10));
        h.record(Duration::from_millis(10));
        assert!(h.quantile(0.0).unwrap() <= h.quantile(1.0).unwrap());
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
        assert!(s.render().contains("hit rate"));
    }
}
