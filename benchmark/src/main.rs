//! The repo's benchmark: one workload per invocation, driven over
//! loopback TCP against the program's default serving stack, with every
//! reply checked. README.md beside the manifest says what is measured
//! and why; BENCHMARK.json at the repo root is the contract.

mod calibrate;
mod estimators;
mod frozen;
mod metrics;
mod ops;
mod phases;
mod reference;
mod stack;
mod trace;

use covidkg_json::{obj, Value};
use frozen::{CLIENTS_PER_CPU, SLICES};
use metrics::{Counters, LatencyPart, Metric};
use ops::{digest, Inputs, Workload};
use phases::{OpenLoop, PhaseResult, Tally};
use reference::Reference;
use stack::SetupTimes;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// `mixed-ingest`, open loop: one ingest per this many blocks (about
/// 450 ms at nominal speed).
const INGEST_EVERY: usize = 8;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the phases measure: each slice ends with the block in
    /// which its share of this runs out, or when its frozen blocks do.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<String>,
}

const USAGE: &str =
    "usage: covidkg-benchmark --workload <search-cold|graph-cold|wire-hot|mixed-ingest> --seed <n>
           [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]
       covidkg-benchmark --calibrate [--out <file.md>]";

enum Command {
    Run(Args),
    Calibrate { out: Option<String> },
}

fn parse_args() -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let (mut trace, mut smoke, mut calibrate) = (false, false, false);
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("`{name}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|_| "`--seed` takes a whole number")?,
                )
            }
            // How long the phases measure; the frozen block counts are
            // what a quiet calibration host gets through in that time.
            "--seconds" => {
                let s = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|_| "`--seconds` takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("`--seconds` must be above 0 and at most 60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            "--calibrate" => calibrate = true,
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if calibrate {
        return Ok(Command::Calibrate { out });
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed: seed.ok_or("`--seed` is required")?,
        seconds: seconds.unwrap_or(frozen::RUN_SECONDS),
        trace,
        smoke,
        out,
    }))
}

fn main() {
    let code = match parse_args() {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            2
        }
        Ok(Command::Calibrate { out }) => calibrate::run(out.as_deref()),
        Ok(Command::Run(args)) => match run(&args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                // No result line: the run did not measure anything.
                eprintln!("benchmark failed: {e}");
                3
            }
        },
    };
    std::process::exit(code);
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkouts have none.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if head.is_empty() => "unknown".into(),
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn tally_json(t: &Tally) -> Value {
    obj! {
        "attempted" => t.attempted as i64,
        "failed" => t.failed as i64,
        "non_200" => t.non_200 as i64,
        "io_errors" => t.io_errors as i64,
        "generation_regressions" => t.generation_regressions as i64,
        "mismatches" => t.mismatches as i64,
        "not_visible" => t.not_visible as i64,
        "overdue" => t.overdue as i64,
        "cache_hits" => t.hits as i64,
        "cache_misses" => t.misses as i64,
        "cache_stale" => t.stale as i64,
        "bodies_verified" => t.verified as i64,
        "notes" => Value::Array(t.notes.iter().map(|n| Value::str(n.clone())).collect()),
    }
}

fn setup_json(s: &SetupTimes) -> Value {
    obj! {
        "total_s" => s.total_s,
        "build_from_s" => s.build_from_s,
        "server_start_ms" => s.server_start_ms,
        "warmup_ms" => s.warmup_ms,
        "steal_ticks" => s.steal_ticks,
    }
}

/// One run. `Ok(correct)` once a result line was printed.
fn run(args: &Args) -> Result<bool, String> {
    let f = frozen::frozen(args.workload);
    // The open loop feeds per-layer metrics only (README "Why latency
    // is not gated"), so it runs in traced runs, at full length, and
    // the closed loop at a share of its own there.
    let closed_blocks = if args.smoke {
        frozen::SMOKE_BLOCKS
    } else if args.trace {
        let share = f.closed_blocks as f64 * frozen::TRACE_CLOSED_SHARE / SLICES as f64;
        (share.round() as usize).max(2) * SLICES
    } else {
        f.closed_blocks
    };
    let open_blocks = match (args.trace, args.smoke) {
        (false, _) => 0,
        (true, true) => frozen::SMOKE_BLOCKS,
        (true, false) => f.open_blocks,
    };
    let corpus = if args.smoke {
        frozen::SMOKE_CORPUS
    } else {
        frozen::CORPUS
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = CLIENTS_PER_CPU * nproc.min(2);
    let open_ingests = if open_blocks == 0 {
        0
    } else {
        open_blocks.div_ceil(INGEST_EVERY) + SLICES
    };

    let started = Instant::now();
    let stamp = |what: &str| eprintln!("[{:7.2}s] {what}", started.elapsed().as_secs_f64());
    // The phases walk the op list once, slice after slice, so a target
    // comes round again only after every other target of its slot.
    let open_op_blocks =
        (open_blocks * f.open_block_ops).div_ceil(ops::reads_per_block(args.workload, f.rounds));
    let inputs = Inputs::generate(
        args.workload,
        args.seed,
        corpus,
        closed_blocks + open_op_blocks + SLICES,
        f.rounds,
        open_ingests,
    );
    let ops_digest = digest(inputs.dump().as_bytes());
    let reference = Reference::new();
    stamp("inputs generated");

    // Three full set-ups spaced across the run. The first two stacks
    // each serve half the slices (in a traced run, closed and open
    // alternating); the third serves the traced replay, if any.
    let mut setups = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let (mut closed, mut open) = (PhaseResult::default(), PhaseResult::default());
    let mut counters = Counters::default();
    let (mut next_block, mut next_ingest) = (0, 0);
    // Each slice measures for its share of `--seconds`: a host slower
    // than the calibration host runs fewer of the same blocks.
    let closed_share = if open_blocks == 0 {
        1.0
    } else {
        frozen::TRACE_CLOSED_SHARE
    };
    let closed_slice = Duration::from_secs_f64(args.seconds * closed_share / SLICES as f64);
    let open_slice = Duration::from_secs_f64(args.seconds * (1.0 - closed_share) / SLICES as f64);
    for half in 0..2 {
        let (stack, times) = stack::set_up(&inputs)?;
        setups.push(times);
        stamp("set-up done");
        if half == 0 {
            counters.rss_after_setup_mb = metrics::rss_mb();
        }
        let before = (stack.http.wire_stats(), stack.server.stats());
        for _ in 0..SLICES / 2 {
            let blocks = next_block..next_block + closed_blocks / SLICES;
            let slice = phases::closed_loop(
                &stack,
                &inputs,
                &reference,
                clients,
                blocks,
                closed.blocks_done,
                Instant::now() + closed_slice,
            )?;
            // On from where the slice stopped: a target must not come
            // round again before the rest of its cycle has.
            next_block += slice.blocks_done;
            closed.extend(slice);
            if open_blocks == 0 {
                continue;
            }
            let plan = OpenLoop {
                first_op: next_block * inputs.block_ops,
                first_block: open.blocks_done,
                rate: f.open_rate,
                speed_exponent: f.speed_exponent,
                blocks: open_blocks / SLICES,
                block_ops: f.open_block_ops,
                ingests: &inputs.open_ingests[next_ingest.min(inputs.open_ingests.len())..],
                ingest_every: INGEST_EVERY,
            };
            let slice = phases::open_loop(
                &stack,
                &inputs,
                &reference,
                clients,
                &plan,
                Instant::now() + open_slice,
            )?;
            next_block = slice.next_op.div_ceil(inputs.block_ops);
            next_ingest += slice.tally.ingests as usize;
            open.extend(slice);
        }
        counters.add(&before, &(stack.http.wire_stats(), stack.server.stats()));
        stamp("slices done");
        stack.shut_down();
    }

    let (stack, times) = stack::set_up(&inputs)?;
    setups.push(times);
    let traced = if args.trace {
        Some(trace::replay(&stack, &inputs)?)
    } else {
        None
    };
    stack.shut_down();
    stamp("measured");

    let mut tally = Tally::default();
    tally.absorb(&closed.tally);
    tally.absorb(&open.tally);
    if let Some(t) = &traced {
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        // A trace whose attributed parts do not add up to the whole
        // attributes nothing.
        if (t.self_sum_ratio - 1.0).abs() > trace::SELF_SUM_TOLERANCE {
            violations.push(format!(
                "traced self times sum to {:.3} of parse + handle + write, outside 1 +/- {}",
                t.self_sum_ratio,
                trace::SELF_SUM_TOLERANCE
            ));
        }
    }

    // The workload must be the one described.
    let hit_ratio = tally.hit_ratio();
    match args.workload {
        Workload::WireHot if hit_ratio < 0.99 => violations.push(format!(
            "wire-hot cache-hit ratio {hit_ratio:.4} is below 0.99"
        )),
        Workload::SearchCold | Workload::GraphCold if hit_ratio > 0.01 => violations.push(format!(
            "{} cache-hit ratio {hit_ratio:.4} is above 0.01",
            args.workload.name()
        )),
        _ => {}
    }
    if tally.verified == 0 {
        violations.push("no reply was compared with in-process serialisation".into());
    }
    if args.workload == Workload::MixedIngest
        && (closed.ingest_visible.is_empty() || (open_blocks > 0 && open.ingest_visible.is_empty()))
    {
        violations.push("no ingested publication was read back".into());
    }

    let e2e = metrics::end_to_end(&setups, &closed, inputs.block_ops, f.speed_exponent);
    let (latency, parts) = metrics::weighted_latency(
        &open.samples,
        &open.reference_times,
        f.speed_exponent,
        args.workload,
    );
    let reported: Vec<Metric> = match &traced {
        None => e2e.clone(),
        Some(t) => metrics::per_layer(
            &setups[0],
            &closed,
            &open,
            inputs.block_ops,
            latency,
            &counters,
            t,
        ),
    };
    for m in &reported {
        if !m.value.is_finite() {
            violations.push(format!(
                "{} has no finite value ({} samples)",
                m.name, m.samples
            ));
        }
    }
    let correct = tally.failed == 0 && violations.is_empty();

    for m in &reported {
        println!(
            "{:<34} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for v in violations.iter().chain(&tally.notes) {
        println!("VIOLATION: {v}");
    }

    let (serve_config, net_config) = stack::config_strings();
    let metric_list = |ms: &[Metric]| {
        Value::Array(
            ms.iter()
                .map(|m| obj! { "name" => m.name, "value" => m.value, "unit" => m.unit, "samples" => m.samples })
                .collect(),
        )
    };
    let latency_parts = |parts: &[LatencyPart]| {
        Value::Array(
            parts
                .iter()
                .map(|p| obj! { "class" => p.class.as_str(), "share" => p.share, "median_ms" => p.median_ms })
                .collect(),
        )
    };
    let result = obj! {
        "benchmark" => "covidkg",
        "workload" => args.workload.name(),
        "seed" => Value::int(args.seed as i64),
        "scale" => if args.smoke { "smoke" } else { "full" },
        "trace" => args.trace,
        "commit" => commit(),
        "seconds" => args.seconds,
        "nproc" => nproc,
        "clients" => clients,
        "corpus" => corpus,
        "serve_config" => serve_config,
        "net_config" => net_config,
        "open_rate_rps" => f.open_rate,
        "speed_exponent" => f.speed_exponent,
        "closed_blocks" => closed_blocks,
        "open_blocks" => open_blocks,
        "block_ops" => inputs.block_ops,
        "open_block_ops" => f.open_block_ops,
        "distinct_targets" => inputs.distinct_targets,
        "ops_digest" => format!("{ops_digest:016x}"),
        "reference_nominal_ms" => reference::NOMINAL_PASS_S * 1e3,
        "correct" => correct,
        "attempted" => tally.attempted as i64,
        "failed" => tally.failed as i64,
        "violations" => Value::Array(violations.iter().map(|v| Value::str(v.clone())).collect()),
        "metrics" => metric_list(&reported),
        "end_to_end_of_this_run" => metric_list(&e2e),
        "latency_parts" => latency_parts(&parts),
        "setups" => Value::Array(setups.iter().map(setup_json).collect()),
        "closed" => phase_json(&closed),
        "open" => phase_json(&open),
        "tally" => tally_json(&tally),
        // A benchmark measures; it claims nothing.
        "claim" => Value::Null,
    };
    write_result(args, &result, traced.as_ref())?;

    let line = obj! {
        "correct" => correct,
        "attempted" => tally.attempted as i64,
        "failed" => tally.failed as i64,
        "metrics" => Value::Object(
            reported
                .iter()
                .map(|m| (m.name.to_string(), obj! { "value" => m.value, "unit" => m.unit }))
                .collect(),
        ),
    };
    println!("{}", line.to_json());
    Ok(correct)
}

fn phase_json(p: &PhaseResult) -> Value {
    use estimators::{median, percentile, quiet_floor};
    let ingest_ms: Vec<f64> = p.ingest_visible.iter().map(|s| s * 1e3).collect();
    obj! {
        "elapsed_s" => p.elapsed,
        "blocks" => p.blocks_done,
        "samples" => p.samples.len(),
        "block_ms_quiet_floor" => quiet_floor(&p.block_times) * 1e3,
        "block_ms_median" => median(&p.block_times) * 1e3,
        "block_ms" => Value::Array(p.block_times.iter().map(|t| Value::float((t * 1e5).round() / 100.0)).collect()),
        "reference_ms" => Value::Array(p.reference_times.iter().map(|t| Value::float((t * 1e6).round() / 1000.0)).collect()),
        "steal_ticks" => Value::Array(p.steal_ticks.iter().map(|t| Value::float(*t)).collect()),
        "late_ms_p99" => percentile(&p.late, 99.0) * 1e3,
        "backlog_max" => p.backlog_max as i64,
        "ingests_visible" => ingest_ms.len(),
        "ingest_visible_ms_median" => median(&ingest_ms),
        "tally" => tally_json(&p.tally),
    }
}

/// Results go to `--out`, else under the benchmark's own target
/// directory; never over a committed file.
fn write_result(
    args: &Args,
    result: &Value,
    traced: Option<&trace::TraceResult>,
) -> Result<(), String> {
    let path = match &args.out {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir = std::path::Path::new("benchmark");
            if !dir.is_dir() {
                return Ok(());
            }
            let dir = dir.join("target").join("results");
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            dir.join(format!(
                "{}-seed{}-{}{}.json",
                args.workload.name(),
                args.seed,
                if args.trace { "trace" } else { "e2e" },
                if args.smoke { "-smoke" } else { "" }
            ))
        }
    };
    std::fs::write(&path, result.to_json_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    if let Some(t) = traced {
        let spans = path.with_extension("spans.tsv");
        std::fs::write(&spans, t.trace.spans_tsv())
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
    }
    Ok(())
}
