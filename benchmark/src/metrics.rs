//! From phase results and the trace to named metrics.

use crate::estimators::{median, percentile, quiet_floor};
use crate::ops::Workload;
use crate::phases::{PhaseResult, Sample};
use crate::reference::NOMINAL_PASS_S;
use crate::stack::SetupTimes;
use crate::trace::TraceResult;
use covidkg_net::WireStats;
use covidkg_serve::ServeStats;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// One term of the class-weighted latency.
#[derive(Debug, Clone)]
pub struct LatencyPart {
    /// `<group>/<hit|miss>`.
    pub class: String,
    /// Observed share of the phase's requests.
    pub share: f64,
    /// Median over blocks of the block's median at nominal speed,
    /// milliseconds.
    pub median_ms: f64,
}

/// `times[b]` as the calibration host would give them when quiet:
/// each divided by how much slower than nominal the reference pass
/// after block `b` ran, to the workload's `speed_exponent`.
pub fn at_nominal_speed(times: &[f64], reference_times: &[f64], exponent: f64) -> Vec<f64> {
    times
        .iter()
        .zip(reference_times)
        .map(|(t, r)| t * (NOMINAL_PASS_S / r).powf(exponent))
        .collect()
}

/// Class-weighted latency in seconds: over (latency group, cache
/// outcome), the observed share of requests times that sub-class's
/// median over blocks of the block's median at nominal speed. A
/// pooled median over a bimodal mix sits on the boundary between the
/// modes and jumps with the hit ratio; this sum moves in proportion
/// when one class, or the hit ratio, moves.
pub fn weighted_latency(
    samples: &[Sample],
    reference_times: &[f64],
    exponent: f64,
    workload: Workload,
) -> (f64, Vec<LatencyPart>) {
    let blocks = reference_times.len();
    let mut total = 0.0;
    let mut parts = Vec::new();
    for (g, name) in workload.groups().iter().enumerate() {
        for hit in [false, true] {
            let mut per_block = vec![Vec::new(); blocks];
            let mut n = 0usize;
            for s in samples
                .iter()
                .filter(|s| s.group as usize == g && s.hit == hit)
            {
                per_block[s.block as usize].push(s.latency);
                n += 1;
            }
            if n == 0 {
                continue;
            }
            let share = n as f64 / samples.len() as f64;
            let (medians, references): (Vec<f64>, Vec<f64>) = per_block
                .iter()
                .zip(reference_times)
                .filter(|(b, _)| !b.is_empty())
                .map(|(b, r)| (median(b), *r))
                .unzip();
            let typical = median(&at_nominal_speed(&medians, &references, exponent));
            total += share * typical;
            parts.push(LatencyPart {
                class: format!("{name}/{}", if hit { "hit" } else { "miss" }),
                share,
                median_ms: typical * 1e3,
            });
        }
    }
    (total, parts)
}

/// A steal tick of `/proc/stat`, seconds (`USER_HZ` is 100 on Linux).
const STEAL_TICK_S: f64 = 0.01;
/// With fewer undisturbed blocks than this, every block counts.
const UNDISTURBED_AT_LEAST: usize = 16;

/// Ticks so far for which the hypervisor ran something else while a
/// vCPU had work, over all vCPUs: the eighth number of `/proc/stat`'s
/// first line; 0 where the guest is not told.
pub fn steal_ticks() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Ops per second at the median of the closed loop's block times, each
/// taken at nominal speed. A block during which (or during whose pass)
/// the hypervisor took a vCPU away timed the hypervisor: such blocks
/// are left out while enough others remain.
pub fn throughput(closed: &PhaseResult, block_ops: usize, exponent: f64) -> f64 {
    let times = at_nominal_speed(&closed.block_times, &closed.reference_times, exponent);
    let undisturbed: Vec<f64> = times
        .iter()
        .zip(&closed.steal_ticks)
        .filter(|(_, ticks)| **ticks == 0.0)
        .map(|(t, _)| *t)
        .collect();
    let kept = if undisturbed.len() >= UNDISTURBED_AT_LEAST {
        &undisturbed
    } else {
        &times
    };
    block_ops as f64 / median(kept)
}

/// Share of the closed loop's vCPU time the hypervisor took away.
fn steal_share(closed: &PhaseResult) -> f64 {
    let vcpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stolen: f64 = closed.steal_ticks.iter().sum::<f64>() * STEAL_TICK_S;
    let wall: f64 = closed
        .block_times
        .iter()
        .chain(&closed.reference_times)
        .sum();
    stolen / (wall * vcpus as f64)
}

pub fn end_to_end(
    setups: &[SetupTimes],
    closed: &PhaseResult,
    block_ops: usize,
    exponent: f64,
) -> Vec<Metric> {
    // The minimum of set-ups spaced across the run: a slow host phase
    // outlasts one build, so back-to-back repeats would share it. Wall
    // time: reference passes around a two-second build did not track
    // it (CALIBRATION.md).
    let setup_s = setups
        .iter()
        .map(|s| s.total_s)
        .fold(f64::INFINITY, f64::min);
    vec![
        metric("setup_s", "s", setup_s, setups.len()),
        metric(
            "throughput_rps",
            "1/s",
            throughput(closed, block_ops, exponent),
            closed.block_times.len(),
        ),
    ]
}

/// The program's own counters over the wire phases, summed over the
/// stacks that served them.
#[derive(Default)]
pub struct Counters {
    pub bytes_out: u64,
    pub epoll_wakeups: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub rejected: u64,
    pub rss_after_setup_mb: f64,
}

impl Counters {
    /// Add what one stack counted between two snapshots.
    pub fn add(&mut self, before: &(WireStats, ServeStats), after: &(WireStats, ServeStats)) {
        let evictions =
            |s: &ServeStats| s.cache.evicted_lru + s.cache.evicted_ttl + s.cache.evicted_bytes;
        self.bytes_out += after.0.bytes_out - before.0.bytes_out;
        self.epoll_wakeups += after.0.epoll_wakeups - before.0.epoll_wakeups;
        self.cache_hits += after.1.cache_hits - before.1.cache_hits;
        self.cache_misses += after.1.cache_misses - before.1.cache_misses;
        self.evictions += evictions(&after.1) - evictions(&before.1);
        self.rejected += (after.1.overloaded + after.1.deadline_exceeded)
            - (before.1.overloaded + before.1.deadline_exceeded);
    }
}

/// Resident set size of this process, MiB (0 when /proc is unreadable).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

const US: f64 = 1e6;
const MS: f64 = 1e3;

/// Timing metrics of the trace: `(name, unit, seconds-to-unit factor)`.
const TRACE_TIMINGS: [(&str, &str, f64); 29] = [
    ("net.parse_us", "us", US),
    ("net.handle_self_us", "us", US),
    ("net.write_us", "us", US),
    ("net.transport_us", "us", US),
    ("serve.hit_us", "us", US),
    ("serve.miss_overhead_us", "us", US),
    ("search.all_fields_us", "us", US),
    ("search.scoped_us", "us", US),
    ("search.tables_us", "us", US),
    ("search.semantic_us", "us", US),
    ("search.hybrid_us", "us", US),
    ("search.rank_us", "us", US),
    ("search.render_us", "us", US),
    ("ann.search_us", "us", US),
    ("kg.execute_us", "us", US),
    ("kg.profile_us", "us", US),
    ("kg.node_us", "us", US),
    ("trust.rerank_overhead_us", "us", US),
    ("trust.node_us", "us", US),
    ("trust.source_us", "us", US),
    ("trust.bias_report_ms", "ms", MS),
    ("json.serialize_us", "us", US),
    ("core.ingest_prepare_ms", "ms", MS),
    ("core.ingest_commit_ms", "ms", MS),
    ("core.persist_ms", "ms", MS),
    ("core.refresh_derived_ms", "ms", MS),
    ("kg.refresh_ms", "ms", MS),
    ("trust.refresh_ms", "ms", MS),
    ("core.ingest_visible_ms", "ms", MS),
];

/// Exact counts of the trace, reported as means per op.
const TRACE_COUNTS: [(&str, &str); 9] = [
    ("net.allocs_per_op", "count"),
    ("serve.allocs_per_hit", "count"),
    ("search.allocs_per_query", "count"),
    ("ann.distance_evals_per_query", "count"),
    ("ann.hops_per_query", "count"),
    ("kg.visited_per_query", "count"),
    ("kg.hops_per_query", "count"),
    ("kg.paths_per_query", "count"),
    ("json.body_bytes", "bytes"),
];

pub fn per_layer(
    setup: &SetupTimes,
    closed: &PhaseResult,
    open: &PhaseResult,
    block_ops: usize,
    weighted_latency_s: f64,
    counters: &Counters,
    traced: &TraceResult,
) -> Vec<Metric> {
    let t = &traced.trace;
    let open_ms: Vec<f64> = open.samples.iter().map(|s| s.latency).collect();
    let closed_ms: Vec<f64> = closed.samples.iter().map(|s| s.latency).collect();
    let mut out = Vec::new();
    for (name, unit, factor) in TRACE_TIMINGS {
        out.push(metric(name, unit, t.quiet(name) * factor, t.samples(name)));
    }
    for (name, unit) in TRACE_COUNTS {
        out.push(metric(name, unit, t.mean(name), t.samples(name)));
    }

    let ops = (closed.tally.attempted + open.tally.attempted).max(1) as f64;
    let lookups = (counters.cache_hits + counters.cache_misses) as f64;
    let drift = median(&closed.block_times) / quiet_floor(&closed.block_times);
    let passes: Vec<f64> = closed
        .reference_times
        .iter()
        .chain(&open.reference_times)
        .copied()
        .collect();
    let open_percentile = |name, p| metric(name, "ms", percentile(&open_ms, p) * MS, open_ms.len());
    out.extend([
        metric("setup.build_from_s", "s", setup.build_from_s, 1),
        metric("setup.server_start_ms", "ms", setup.server_start_ms, 1),
        metric("setup.warmup_ms", "ms", setup.warmup_ms, 1),
        metric(
            "client.weighted_latency_p50_ms",
            "ms",
            weighted_latency_s * MS,
            open.samples.len(),
        ),
        open_percentile("client.latency_p50_ms", 50.0),
        open_percentile("client.latency_p90_ms", 90.0),
        open_percentile("client.latency_p99_ms", 99.0),
        metric(
            "client.closed_latency_p50_ms",
            "ms",
            percentile(&closed_ms, 50.0) * MS,
            closed_ms.len(),
        ),
        metric(
            "client.closed_latency_p99_ms",
            "ms",
            percentile(&closed_ms, 99.0) * MS,
            closed_ms.len(),
        ),
        metric(
            "client.late_ms_p99",
            "ms",
            percentile(&open.late, 99.0) * MS,
            open.late.len(),
        ),
        metric(
            "client.backlog_max",
            "count",
            open.backlog_max as f64,
            open.late.len(),
        ),
        metric(
            "net.bytes_out_per_op",
            "bytes",
            counters.bytes_out as f64 / ops,
            ops as usize,
        ),
        metric(
            "net.epoll_wakeups_per_op",
            "count",
            counters.epoll_wakeups as f64 / ops,
            ops as usize,
        ),
        metric(
            "serve.cache_hit_ratio",
            "ratio",
            counters.cache_hits as f64 / lookups.max(1.0),
            lookups as usize,
        ),
        metric(
            "serve.cache_evictions_per_kop",
            "count",
            counters.evictions as f64 / ops * 1e3,
            ops as usize,
        ),
        metric(
            "serve.rejected_per_kop",
            "count",
            counters.rejected as f64 / ops * 1e3,
            ops as usize,
        ),
        metric(
            "search.render_cache_hit_ratio",
            "ratio",
            traced.render_cache_hit_ratio,
            t.samples("search.render_us"),
        ),
        metric(
            "host.rss_after_setup_mb",
            "mb",
            counters.rss_after_setup_mb,
            1,
        ),
        metric(
            "client.raw_throughput_rps",
            "1/s",
            block_ops as f64 / median(&closed.block_times),
            closed.block_times.len(),
        ),
        metric(
            "host.speed_index",
            "ratio",
            median(&passes) / NOMINAL_PASS_S,
            passes.len(),
        ),
        metric("host.block_drift", "ratio", drift, closed.block_times.len()),
        metric(
            "host.steal_share",
            "ratio",
            steal_share(closed),
            closed.steal_ticks.len(),
        ),
        metric(
            "host.trace_overhead_ratio",
            "ratio",
            traced.overhead_ratio,
            1,
        ),
        metric(
            "host.trace_self_sum_ratio",
            "ratio",
            traced.self_sum_ratio,
            1,
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(times: &[f64], steal: &[f64]) -> PhaseResult {
        PhaseResult {
            block_times: times.to_vec(),
            reference_times: vec![NOMINAL_PASS_S; times.len()],
            steal_ticks: steal.to_vec(),
            ..PhaseResult::default()
        }
    }

    #[test]
    fn throughput_leaves_out_blocks_with_steal_while_enough_remain() {
        // 20 clean blocks of 0.1 s, 30 interrupted ones of 0.3 s.
        let mut times = vec![0.1; 20];
        times.extend(vec![0.3; 30]);
        let mut steal = vec![0.0; 20];
        steal.extend(vec![7.0; 30]);
        assert_eq!(throughput(&closed(&times, &steal), 10, 1.0), 100.0);
        // Too few clean blocks: every block counts.
        let steal: Vec<f64> = (0..50).map(|i| if i < 15 { 0.0 } else { 7.0 }).collect();
        let all = throughput(&closed(&times, &steal), 10, 1.0);
        assert!((all - 10.0 / 0.3).abs() < 1e-9, "{all}");
    }
}
