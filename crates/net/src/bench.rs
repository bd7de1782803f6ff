//! The held-connection sweep: what `benchmark/` cannot see. That
//! benchmark drives a handful of busy connections; this module holds
//! thousands of *idle* keep-alive sockets open against a running
//! [`crate::HttpServer`] while a fixed open-loop load runs beside them,
//! so the cost of a standing connection population shows up as goodput
//! and tail latency (`covidkg bench net`).

use crate::client::HttpClient;
use covidkg_corpus::query_workload;
use covidkg_serve::Histogram;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Percent-encode a query for use inside `?q=`.
pub fn encode_query(q: &str) -> String {
    let mut out = String::with_capacity(q.len());
    for b in q.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Request target for workload item `i`: scoped every 7th, tables
/// every 4th, the rest all-fields, with pagination exercised via
/// `i % 2`.
pub fn target_for(i: usize, query: &str) -> String {
    let q = encode_query(query);
    let page = i % 2;
    if i % 7 == 3 {
        format!("/search/scoped?title={q}&page={page}")
    } else if i % 4 == 1 {
        format!("/search/tables?q={q}&page={page}")
    } else {
        format!("/search/all-fields?q={q}&page={page}")
    }
}

/// Offered rate of the load that runs beside the held connections.
/// One constant, well under a single core's cached-page capacity, so
/// rows at different populations (and from different hosts) compare.
const HELD_RATE: f64 = 1000.0;
/// Length of one phase: 2000 scheduled arrivals, so p99 has twenty
/// samples beyond it; shorter than the server's idle timeout, so the
/// held sockets are not reaped mid-phase.
const HELD_DURATION: Duration = Duration::from_secs(2);
/// Connections the open-loop arrivals are striped over.
const DISPATCHERS: usize = 8;
/// Client-side connect/read/write timeout.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Shared tallies for one phase.
#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    ok: AtomicU64,
    cache_hits: AtomicU64,
    io_errors: AtomicU64,
    statuses: Mutex<BTreeMap<u16, u64>>,
    latency: Histogram,
}

impl Tally {
    fn record(&self, status: u16, cached: bool, latency: Duration) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        if status == 200 {
            self.ok.fetch_add(1, Ordering::Relaxed);
            if cached {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        *self
            .statuses
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(status)
            .or_insert(0) += 1;
        self.latency.record_duration(latency);
    }

    fn io_error(&self) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.io_errors.fetch_add(1, Ordering::Relaxed);
    }

    fn into_report(self, held_connections: u64, wall: Duration) -> NetBenchReport {
        NetBenchReport {
            held_connections,
            sent: self.sent.into_inner(),
            ok: self.ok.into_inner(),
            cache_hits: self.cache_hits.into_inner(),
            io_errors: self.io_errors.into_inner(),
            statuses: self.statuses.into_inner().unwrap_or_else(|e| e.into_inner()),
            wall,
            p50: self.latency.quantile(0.50).map(Duration::from_nanos),
            p99: self.latency.quantile(0.99).map(Duration::from_nanos),
        }
    }
}

/// Results of one held-connection phase.
#[derive(Debug, Clone)]
pub struct NetBenchReport {
    /// Idle keep-alive connections still open when the phase ended.
    pub held_connections: u64,
    /// Requests sent (including ones that failed at the socket level).
    pub sent: u64,
    /// 200 responses.
    pub ok: u64,
    /// 200 responses served from the result cache (`X-Cache: hit`).
    pub cache_hits: u64,
    /// Requests that died to connect/read/write errors.
    pub io_errors: u64,
    /// Response counts by HTTP status.
    pub statuses: BTreeMap<u16, u64>,
    /// Wall-clock for the phase.
    pub wall: Duration,
    /// Median latency, measured from each request's scheduled arrival.
    pub p50: Option<Duration>,
    /// 99th-percentile latency, same clock.
    pub p99: Option<Duration>,
}

impl NetBenchReport {
    /// Completed-OK requests per second.
    pub fn goodput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ok as f64 / secs
        }
    }

    /// One-line summary.
    pub fn render(&self) -> String {
        let us = |d: Option<Duration>| d.map_or(-1.0, |d| d.as_secs_f64() * 1e6);
        let statuses = self
            .statuses
            .iter()
            .map(|(s, c)| format!("{s}:{c}"))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "holding {} idle conns at {HELD_RATE:.0} req/s: {} sent, {} ok ({} cached), \
             {} io-errors, statuses [{statuses}], p50 {:.0} µs p99 {:.0} µs, {:.1} ok/s over {:.2} s",
            self.held_connections,
            self.sent,
            self.ok,
            self.cache_hits,
            self.io_errors,
            us(self.p50),
            us(self.p99),
            self.goodput(),
            self.wall.as_secs_f64(),
        )
    }

    /// The phase as one row of `BENCH_net.json`.
    pub fn to_json(&self) -> covidkg_json::Value {
        covidkg_json::obj! {
            "row" => "held",
            "held_connections" => self.held_connections as i64,
            "offered_rate" => HELD_RATE,
            "sent" => self.sent as i64,
            "ok" => self.ok as i64,
            "cache_hits" => self.cache_hits as i64,
            "io_errors" => self.io_errors as i64,
            "wall_secs" => self.wall.as_secs_f64(),
            "goodput_rps" => self.goodput(),
            "p50_us" => self.p50.map_or(-1.0, |d| d.as_micros() as f64),
            "p99_us" => self.p99.map_or(-1.0, |d| d.as_micros() as f64),
        }
    }
}

/// [`HELD_RATE`] req/s offered for [`HELD_DURATION`], arrivals striped
/// over [`DISPATCHERS`] connections. Latency is measured from each
/// arrival's scheduled instant, so queueing delay a slow server induces
/// shows up in the percentiles instead of being silently omitted.
fn open_loop(addr: SocketAddr, tally: &Tally) {
    let arrivals = (HELD_RATE * HELD_DURATION.as_secs_f64()).ceil() as u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for d in 0..DISPATCHERS {
            scope.spawn(move || {
                let mut conn = HttpClient::connect(addr, TIMEOUT).ok();
                let queries = query_workload((arrivals as usize).div_ceil(DISPATCHERS), d as u64);
                for (j, i) in (d as u64..arrivals).step_by(DISPATCHERS).enumerate() {
                    let scheduled = start + Duration::from_secs_f64(i as f64 / HELD_RATE);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let target = target_for(i as usize, &queries[j % queries.len()]);
                    if conn.is_none() {
                        conn = HttpClient::connect(addr, TIMEOUT).ok();
                    }
                    let Some(c) = conn.as_mut() else {
                        tally.io_error();
                        continue;
                    };
                    match c.get(&target) {
                        Ok(resp) => tally.record(
                            resp.status,
                            resp.header("x-cache") == Some("hit"),
                            scheduled.elapsed(),
                        ),
                        Err(_) => {
                            tally.io_error();
                            conn = None;
                        }
                    }
                }
            });
        }
    });
}

/// Hold `held` *idle* keep-alive connections open for the whole phase
/// while the open-loop load runs beside them. Under the reactor a held
/// socket costs one fd plus ~1 KiB of state, so goodput and tail
/// latency should hold flat as `held` scales into the thousands.
pub fn run_held_connections(addr: SocketAddr, held: usize) -> NetBenchReport {
    let mut idle = Vec::with_capacity(held);
    for _ in 0..held {
        match HttpClient::connect(addr, TIMEOUT) {
            Ok(conn) => idle.push(conn),
            Err(_) => break,
        }
    }
    let tally = Tally::default();
    let start = Instant::now();
    open_loop(addr, &tally);
    let wall = start.elapsed();
    // Count only sockets still open at phase end, so the row reports
    // the population that was actually sustained, not the one asked for.
    let survivors = idle.iter_mut().map(|conn| still_open(conn) as u64).sum();
    tally.into_report(survivors, wall)
}

/// Whether an idle keep-alive connection is still open, without
/// sending a request: a non-blocking read on a healthy idle socket
/// returns `WouldBlock`; a reaped one yields EOF or an error.
fn still_open(conn: &mut HttpClient) -> bool {
    let stream = conn.stream();
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let open = match std::io::Read::read(stream, &mut probe) {
        Ok(0) => false,
        Ok(_) => true, // stray bytes: unexpected on an idle socket, but open
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
        Err(_) => false,
    };
    let _ = stream.set_nonblocking(false);
    open
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn still_open_distinguishes_live_from_closed_sockets() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut conn = HttpClient::connect(addr, Duration::from_secs(1)).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        assert!(still_open(&mut conn), "freshly accepted socket is open");
        drop(server_side);
        // Loopback FIN delivery is immediate, but give it a moment.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!still_open(&mut conn), "probe must see the server's close");
    }

    #[test]
    fn query_encoding_is_url_safe() {
        assert_eq!(encode_query("mask mandates"), "mask+mandates");
        assert_eq!(encode_query("covid-19"), "covid-19");
        assert_eq!(encode_query("R0>1 & \"spread\""), "R0%3E1+%26+%22spread%22");
    }

    #[test]
    fn target_rotation_covers_all_three_engines() {
        let targets: Vec<String> = (0..8).map(|i| target_for(i, "x")).collect();
        assert!(targets.iter().any(|t| t.starts_with("/search/scoped?")));
        assert!(targets.iter().any(|t| t.starts_with("/search/tables?")));
        assert!(targets.iter().any(|t| t.starts_with("/search/all-fields?")));
        assert!(targets.iter().any(|t| t.ends_with("page=0")));
        assert!(targets.iter().any(|t| t.ends_with("page=1")));
    }

    #[test]
    fn report_renders_and_serializes() {
        let tally = Tally::default();
        tally.record(200, true, Duration::from_millis(2));
        tally.record(200, false, Duration::from_millis(4));
        tally.record(503, false, Duration::from_millis(1));
        tally.io_error();
        let report = tally.into_report(64, Duration::from_secs(1));
        assert_eq!(report.sent, 4);
        assert_eq!(report.ok, 2);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.io_errors, 1);
        assert_eq!(report.statuses.get(&503), Some(&1));
        assert!((report.goodput() - 2.0).abs() < 1e-9);
        let line = report.render();
        assert!(line.contains("503:1"), "{line}");
        let json = report.to_json().to_json();
        assert!(json.contains("\"held_connections\":64"), "{json}");
        assert!(json.contains("\"ok\":2"), "{json}");
    }
}
