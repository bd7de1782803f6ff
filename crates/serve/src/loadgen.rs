//! Load generator: a closed-loop driver for a [`Server`].
//!
//! Closed-loop means each client issues its next request only after the
//! previous one resolved — throughput self-regulates to the server's
//! capacity instead of piling up unbounded, and `Overloaded` rejections
//! are retried after a short backoff (bounded, so a stuck server cannot
//! hang the run). Every n-th answer is spot-checked against an uncached
//! direct search, which is what the chaos gauntlet and the stress tests
//! drive it for. (Throughput and open-loop latency are measured over
//! the wire by `benchmark/`, not here.)

use crate::server::{ServeError, Server};
use covidkg_corpus::query_workload;
use covidkg_search::SearchMode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Queries each client issues.
    pub queries_per_client: usize,
    /// Spot-check every n-th successful response against an uncached
    /// direct search (0 disables verification).
    pub verify_every: usize,
    /// Backoff between retries after an `Overloaded` rejection.
    pub backoff: Duration,
    /// Retries before an overloaded request is abandoned.
    pub max_retries: usize,
}

impl Default for LoadGenConfig {
    fn default() -> LoadGenConfig {
        LoadGenConfig {
            clients: 8,
            queries_per_client: 50,
            verify_every: 8,
            backoff: Duration::from_micros(200),
            max_retries: 10_000,
        }
    }
}

/// Aggregated outcome of a load-generator run.
#[derive(Debug, Clone, Default)]
pub struct LoadGenReport {
    /// Requests that returned a page.
    pub ok: u64,
    /// Of `ok`, answered from the cache.
    pub cached: u64,
    /// `Overloaded` rejections observed (including retried ones).
    pub overloaded: u64,
    /// Requests that hit their deadline.
    pub deadline_exceeded: u64,
    /// Requests answered degraded with a stale cached page (counted in
    /// `ok` too; excluded from spot checks, which compare against the
    /// *current* ground truth).
    pub stale_served: u64,
    /// Requests that failed with the typed `Degraded` error (engine
    /// unhealthy, nothing cached to stand in).
    pub degraded: u64,
    /// Requests abandoned after `max_retries` rejections.
    pub abandoned: u64,
    /// Responses spot-checked against a direct search.
    pub verified: u64,
    /// Spot checks that disagreed with the direct search (must be 0).
    pub mismatches: u64,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
}

impl LoadGenReport {
    /// Completed requests per second over the run.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ok as f64 / secs
        }
    }

    /// Human-readable one-paragraph summary.
    pub fn render(&self) -> String {
        format!(
            "loadgen: {} ok ({} cached, {} stale), {} overloaded, {} deadline-exceeded, \
             {} degraded, {} abandoned, {}/{} spot checks ok, {:.2} req/s over {:.2} s\n",
            self.ok,
            self.cached,
            self.stale_served,
            self.overloaded,
            self.deadline_exceeded,
            self.degraded,
            self.abandoned,
            self.verified - self.mismatches,
            self.verified,
            self.throughput(),
            self.wall.as_secs_f64(),
        )
    }
}

/// The search mode a client uses for query `i` of its stream: mostly the
/// all-fields engine, every 4th query the tables engine, every 7th the
/// scoped engine — so all three engines see traffic.
fn mode_for(i: usize, query: String) -> SearchMode {
    if i % 7 == 3 {
        SearchMode::TitleAbstractCaption {
            title: query,
            abstract_q: String::new(),
            caption: String::new(),
        }
    } else if i % 4 == 1 {
        SearchMode::Tables(query)
    } else {
        SearchMode::AllFields(query)
    }
}

/// Run the closed loop and aggregate per-client tallies.
pub fn run(server: &Server, config: &LoadGenConfig) -> LoadGenReport {
    let ok = AtomicU64::new(0);
    let cached = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let deadline_exceeded = AtomicU64::new(0);
    let stale_served = AtomicU64::new(0);
    let degraded = AtomicU64::new(0);
    let abandoned = AtomicU64::new(0);
    let verified = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..config.clients {
            #[allow(clippy::type_complexity)]
            let (ok, cached, overloaded, deadline_exceeded, stale_served, degraded, abandoned, verified, mismatches) = (
                &ok,
                &cached,
                &overloaded,
                &deadline_exceeded,
                &stale_served,
                &degraded,
                &abandoned,
                &verified,
                &mismatches,
            );
            scope.spawn(move || {
                let queries = query_workload(config.queries_per_client, client as u64);
                for (i, query) in queries.into_iter().enumerate() {
                    let mode = mode_for(i, query);
                    let page = i % 2; // exercise pagination in the key
                    let mut attempts = 0;
                    loop {
                        match server.search(&mode, page) {
                            Ok(resp) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                if resp.cached {
                                    cached.fetch_add(1, Ordering::Relaxed);
                                }
                                if resp.stale {
                                    stale_served.fetch_add(1, Ordering::Relaxed);
                                }
                                // Stale (degraded) pages may legitimately
                                // predate the current ground truth.
                                if !resp.stale
                                    && config.verify_every != 0
                                    && i % config.verify_every == 0
                                {
                                    verified.fetch_add(1, Ordering::Relaxed);
                                    let direct = server.search_direct(&mode, page);
                                    let same_ids = direct.total == resp.page.total
                                        && direct
                                            .results
                                            .iter()
                                            .zip(&resp.page.results)
                                            .all(|(a, b)| a.id == b.id);
                                    if !same_ids {
                                        mismatches.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                break;
                            }
                            Err(ServeError::Overloaded) => {
                                overloaded.fetch_add(1, Ordering::Relaxed);
                                attempts += 1;
                                if attempts > config.max_retries {
                                    abandoned.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                std::thread::sleep(config.backoff);
                            }
                            Err(ServeError::DeadlineExceeded) => {
                                deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(ServeError::Degraded) => {
                                degraded.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(ServeError::Closed) => {
                                abandoned.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
            });
        }
    });

    LoadGenReport {
        ok: ok.into_inner(),
        cached: cached.into_inner(),
        overloaded: overloaded.into_inner(),
        deadline_exceeded: deadline_exceeded.into_inner(),
        stale_served: stale_served.into_inner(),
        degraded: degraded.into_inner(),
        abandoned: abandoned.into_inner(),
        verified: verified.into_inner(),
        mismatches: mismatches.into_inner(),
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_math() {
        let r = LoadGenReport {
            ok: 100,
            cached: 40,
            wall: Duration::from_secs(2),
            ..LoadGenReport::default()
        };
        assert!((r.throughput() - 50.0).abs() < 1e-9);
        assert!(r.render().contains("100 ok (40 cached, 0 stale)"));
        let empty = LoadGenReport::default();
        assert_eq!(empty.throughput(), 0.0);
    }

    #[test]
    fn mode_rotation_covers_all_engines() {
        let modes: Vec<SearchMode> = (0..28).map(|i| mode_for(i, "q".into())).collect();
        assert!(modes.iter().any(|m| matches!(m, SearchMode::AllFields(_))));
        assert!(modes.iter().any(|m| matches!(m, SearchMode::Tables(_))));
        assert!(modes
            .iter()
            .any(|m| matches!(m, SearchMode::TitleAbstractCaption { .. })));
    }
}
