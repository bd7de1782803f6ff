//! Chaos harness: one deterministic end-to-end survival run.
//!
//! Five phases, all driven by a single seed so a failure replays
//! exactly:
//!
//! 1. **Crash gauntlet** — [`covidkg_store::run_gauntlet`] simulates a
//!    crash at every WAL frame boundary (plus mid-frame cuts and a
//!    flipped byte per frame) and asserts prefix-consistent recovery.
//! 2. **Faulty ingest** — a durable [`CovidKg`] ingests batches while a
//!    seeded [`FaultPlan`] injects fail/short-write/delay faults into
//!    its WAL and snapshot I/O, until at least `fault_target` faults
//!    have fired. The system is then reopened from disk and every
//!    *acknowledged* publication must be present: retried transients
//!    never ack a lost write.
//! 3. **Panic-injected serving** — a [`Server`] runs the closed-loop
//!    load generator while a deterministic schedule panics every n-th
//!    query and two whole workers are crashed outright. Every request
//!    must resolve (fresh, stale-degraded or typed `Degraded` — never a
//!    hang), the pool must respawn to full strength, and spot checks
//!    must agree with direct search. The server's own counters print as
//!    the serve section of the `/metrics` page, `covidkg_serve_*` lines.
//! 4. **Replication gauntlet** — [`covidkg_repl::run_repl_gauntlet`]
//!    kills and restarts a replica mid-stream, truncates its WAL at
//!    every frame boundary (plus seeded mid-frame cuts and byte flips),
//!    corrupts the wire through a faulty proxy, and demands
//!    byte-identical convergence (content checksums) every time.
//! 5. **Failover gauntlet** — [`covidkg_repl::run_failover_gauntlet`]
//!    kills the *primary* — at a frame boundary, mid-frame, and during
//!    a snapshot bootstrap — and asserts exactly one survivor is
//!    promoted (deterministic election, fencing-epoch bump), a revived
//!    ex-primary is fenced out (its stale frames rejected, no
//!    split-brain), a cascaded chain survives mid-chain promotion, and
//!    every survivor converges to byte-identical content checksums.
//!
//! The CLI front-end is `covidkg chaos` (see `main.rs`); the survival
//! report renders PASS/FAIL per invariant.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_corpus::CorpusGenerator;
use covidkg_repl::{
    run_failover_gauntlet, run_repl_gauntlet, FailoverConfig, FailoverReport, ReplGauntletConfig,
    ReplGauntletReport,
};
use covidkg_serve::loadgen::{self, LoadGenConfig, LoadGenReport};
use covidkg_serve::{Exposition, InjectedFaults, ServeConfig, ServeStats, Server};
use covidkg_store::{
    run_gauntlet, FaultConfig, FaultPlan, FaultStats, Flusher, FlusherStats, GauntletConfig,
    GauntletReport, RetryPolicy,
};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parameters of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the corpus, the models and the fault schedule.
    pub seed: u64,
    /// Publications in the initially built system.
    pub corpus: usize,
    /// Training-row cap (keeps the build phase fast).
    pub max_training_rows: usize,
    /// Publications per faulty-ingest batch.
    pub batch_size: usize,
    /// Upper bound on ingest batches (safety rail).
    pub max_batches: usize,
    /// Keep ingesting under faults until this many have been injected.
    pub fault_target: u64,
    /// Serving worker threads.
    pub workers: usize,
    /// Load-generator client threads.
    pub clients: usize,
    /// Queries per load-generator client.
    pub requests: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xC0BD,
            corpus: 36,
            max_training_rows: 400,
            batch_size: 6,
            max_batches: 64,
            fault_target: 100,
            workers: 4,
            clients: 6,
            requests: 30,
        }
    }
}

/// Outcome of a chaos run — the survival report.
#[derive(Debug)]
pub struct ChaosReport {
    /// Phase 1: crash-at-every-point recovery.
    pub gauntlet: GauntletReport,
    /// Phase 2: what the fault plan injected.
    pub faults: FaultStats,
    /// Ingest batches acknowledged (`Ok`) under faults.
    pub acked_batches: usize,
    /// Ingest batches rejected after retries were exhausted (their
    /// writes are unacknowledged, so they carry no durability promise).
    pub rejected_batches: usize,
    /// Publications acknowledged under faults.
    pub acked: usize,
    /// Of `acked`, found intact after closing and reopening from disk.
    pub verified: usize,
    /// Store-level retries absorbed by bounded backoff.
    pub io_retries: u64,
    /// The background flusher's counters: its sync/compaction ticks ran
    /// *during* the fault storm, so its skips are injected compaction
    /// faults absorbed without losing acknowledged writes.
    pub flusher: FlusherStats,
    /// Attempts before the mid-storm `create_hash_index` backfill (an
    /// [`covidkg_store::FaultOp::IndexRebuild`] point) succeeded.
    pub index_rebuild_attempts: usize,
    /// Phase 3: the closed-loop load-generator tallies.
    pub serve: LoadGenReport,
    /// Phase 3: the server's own counters (panics, respawns, breaker).
    pub serve_stats: ServeStats,
    /// Phase 4: replication kill/cut/corrupt convergence.
    pub repl: ReplGauntletReport,
    /// Phase 5: kill-the-primary failover (fenced promotion).
    pub failover: FailoverReport,
    /// Worker threads alive at the end of phase 3.
    pub workers_alive: usize,
    /// Worker threads the pool was configured with.
    pub workers_configured: usize,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Every violated invariant (empty = survived).
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.gauntlet)?;
        writeln!(
            f,
            "faulty ingest: {} faults injected ({} fails, {} short writes, {} delays) \
             over {} decisions",
            self.faults.injected(),
            self.faults.fails,
            self.faults.short_writes,
            self.faults.delays,
            self.faults.decisions,
        )?;
        writeln!(
            f,
            "  {} batches acked, {} rejected; {} acked writes, {} verified after reopen; \
             {} retries absorbed",
            self.acked_batches, self.rejected_batches, self.acked, self.verified, self.io_retries,
        )?;
        writeln!(
            f,
            "  flusher under fire: {} syncs, {} compactions, {} faulted ticks skipped; \
             index backfill landed after {} attempt(s)",
            self.flusher.syncs,
            self.flusher.snapshots,
            self.flusher.transient_skips,
            self.index_rebuild_attempts,
        )?;
        write!(f, "panic-injected serving: {}", self.serve.render())?;
        let mut page = Exposition::default();
        self.serve_stats.expose(&mut page);
        write!(f, "{}", page.finish())?;
        writeln!(
            f,
            "  {} of {} workers alive at shutdown",
            self.workers_alive, self.workers_configured
        )?;
        writeln!(f, "{}", self.repl)?;
        writeln!(f, "{}", self.failover)?;
        writeln!(f, "chaos wall clock: {:.2} s", self.wall.as_secs_f64())?;
        if self.passed() {
            write!(f, "SURVIVED: all chaos invariants held")
        } else {
            writeln!(f, "FAILED: {} invariants violated:", self.failures.len())?;
            for failure in &self.failures {
                writeln!(f, "  - {failure}")?;
            }
            Ok(())
        }
    }
}

/// Run the three chaos phases and aggregate the survival report.
pub fn run(config: &ChaosConfig) -> Result<ChaosReport, String> {
    let start = Instant::now();
    let mut failures = Vec::new();

    // Phase 1 — crash-at-every-point recovery gauntlet.
    let gauntlet = run_gauntlet(&GauntletConfig {
        tag: format!("chaos-{:x}", config.seed),
        ..GauntletConfig::default()
    })
    .map_err(|e| format!("gauntlet setup failed: {e}"))?;
    if !gauntlet.passed() {
        failures.push(format!(
            "crash gauntlet: {} crash points broke prefix-consistent recovery",
            gauntlet.failures.len()
        ));
    }

    // Phase 2 — ingest under an armed fault plan, then verify every
    // acknowledged write survives a cold reopen.
    let data_dir: PathBuf = std::env::temp_dir().join(format!(
        "covidkg-chaos-{:x}-{}",
        config.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    let ingest = faulty_ingest(config, &data_dir, &mut failures);
    let _ = std::fs::remove_dir_all(&data_dir);
    let storm = ingest?;

    // Phase 3 — panic-injected serving over the recovered system.
    let (serve, serve_stats, workers_alive) = panic_serving(config, storm.system, &mut failures);

    // Phase 4 — replication: kill/restart, cut-at-every-boundary, wire
    // corruption; every scenario must converge byte-identically.
    let repl = run_repl_gauntlet(&ReplGauntletConfig {
        seed: config.seed,
        docs: (config.corpus / 2).clamp(8, 18),
        kill_rounds: 2,
        tag: format!("chaos-{:x}", config.seed),
        ..ReplGauntletConfig::default()
    })
    .map_err(|e| format!("replication gauntlet setup failed: {e}"))?;
    if !repl.converged() {
        failures.push(format!(
            "replication gauntlet: {} scenarios failed to converge",
            repl.failures.len()
        ));
    }

    // Phase 5 — failover: kill the *primary* at the nasty moments,
    // demand exactly-one fenced promotion and checksum convergence.
    let failover = run_failover_gauntlet(&FailoverConfig {
        seed: config.seed,
        docs: (config.corpus / 2).clamp(8, 18),
        tag: format!("chaos-{:x}", config.seed),
    })
    .map_err(|e| format!("failover gauntlet setup failed: {e}"))?;
    if !failover.converged() {
        failures.push(format!(
            "failover gauntlet: {} invariants broke",
            failover.failures.len()
        ));
    }

    Ok(ChaosReport {
        gauntlet,
        faults: storm.faults,
        acked_batches: storm.acked_batches,
        rejected_batches: storm.rejected_batches,
        acked: storm.acked,
        verified: storm.verified,
        io_retries: storm.io_retries,
        flusher: storm.flusher,
        index_rebuild_attempts: storm.index_rebuild_attempts,
        serve,
        serve_stats,
        repl,
        failover,
        workers_alive,
        workers_configured: config.workers.max(1),
        wall: start.elapsed(),
        failures,
    })
}

/// Everything phase 2 measured, plus the recovered system phase 3
/// serves.
struct FaultStorm {
    faults: FaultStats,
    acked_batches: usize,
    rejected_batches: usize,
    acked: usize,
    verified: usize,
    io_retries: u64,
    flusher: FlusherStats,
    index_rebuild_attempts: usize,
    system: CovidKg,
}

/// Phase 2 body. Returns the recovered system so phase 3 serves the
/// exact state that survived the fault storm.
fn faulty_ingest(
    config: &ChaosConfig,
    data_dir: &Path,
    failures: &mut Vec<String>,
) -> Result<FaultStorm, String> {
    let kg_config = CovidKgConfig {
        corpus_size: config.corpus,
        seed: config.seed,
        max_training_rows: config.max_training_rows,
        data_dir: Some(data_dir.display().to_string()),
        ..CovidKgConfig::default()
    };
    let mut system =
        CovidKg::build(kg_config.clone()).map_err(|e| format!("chaos build failed: {e}"))?;

    // Arm the plan only now: the build must be clean so every later
    // divergence is attributable to injected faults.
    let plan = FaultPlan::new(FaultConfig {
        seed: config.seed,
        fail: 0.25,
        short_write: 0.10,
        delay: 0.10,
        // Never inject ENOSPC here: disk-full is a *permanent* fault and
        // the gauntlet's invariants assume every injected fault is
        // survivable via retry/repair.
        disk_full: 0.0,
        delay_for: Duration::from_micros(100),
        max_faults: 0,
    });
    system.publications().set_fault_plan(Some(plan.clone()));
    system.publications().set_retry_policy(RetryPolicy::default());

    // The durability daemon runs *through* the storm on a tight
    // interval, so its group commits and snapshot compactions hit the
    // armed [`covidkg_store::FaultOp::Compaction`] points while the
    // ingest loop is mutating the collection.
    let flusher = Flusher::start(
        std::sync::Arc::clone(system.publications()),
        Duration::from_millis(3),
        2,
    );

    let fresh: Vec<_> = CorpusGenerator::with_size(
        config.corpus + config.batch_size * config.max_batches,
        config.seed,
    )
    .generate()
    .into_iter()
    .skip(config.corpus)
    .collect();

    let mut acked_ids: Vec<String> = Vec::new();
    let mut acked_batches = 0usize;
    let mut rejected_batches = 0usize;
    // Mid-storm index backfill: `create_hash_index` is an
    // [`covidkg_store::FaultOp::IndexRebuild`] point, attempted each
    // batch until it lands (a transient rejection promises nothing).
    let mut index_rebuild_attempts = 0usize;
    let mut index_built = false;
    let mut try_backfill = |system: &CovidKg| -> Result<bool, String> {
        index_rebuild_attempts += 1;
        match system.publications().create_hash_index("venue") {
            Ok(_) => Ok(true),
            Err(e) if e.is_transient() => Ok(false),
            Err(e) => Err(format!("permanent index-rebuild fault: {e}")),
        }
    };
    for batch in fresh.chunks(config.batch_size.max(1)) {
        match system.ingest(batch) {
            Ok(_) => {
                acked_batches += 1;
                acked_ids.extend(batch.iter().map(|p| p.id.clone()));
            }
            // A rejected batch made no durability promise; the next
            // batch has fresh ids, so the storm just moves on.
            Err(e) if e.is_transient() => rejected_batches += 1,
            Err(e) => return Err(format!("permanent error under injected faults: {e}")),
        }
        if !index_built {
            index_built = try_backfill(&system)?;
        }
        // Tested after the batch, not before: on a loaded host the 3 ms
        // flusher alone can spend the whole fault budget before the
        // first batch, and a storm with no batch and no backfill
        // attempt has tested neither.
        if plan.stats().injected() >= config.fault_target {
            break;
        }
    }
    // The storm can end before the backfill landed; the plan is still
    // armed, so keep asking until it does.
    for _ in 0..64 {
        if index_built {
            break;
        }
        index_built = try_backfill(&system)?;
    }
    if !index_built {
        failures.push(format!(
            "index backfill never survived the storm ({index_rebuild_attempts} attempts)"
        ));
    }
    let faults = plan.stats();
    let io_retries = system.publications().io_retries();
    if faults.injected() < config.fault_target {
        failures.push(format!(
            "fault storm too small: {} injected < target {} (raise max_batches)",
            faults.injected(),
            config.fault_target
        ));
    }

    // The daemon must come down cleanly *before* the cold reopen: a
    // permanent error inside it would be a survived-by-accident lie.
    let flusher_stats = match flusher.stop() {
        Ok(stats) => stats,
        Err(e) => {
            failures.push(format!("flusher died under injected faults: {e}"));
            FlusherStats::default()
        }
    };

    // Cold recovery: drop the faulted system, reopen from disk with the
    // plan gone, and demand every acknowledged publication back.
    drop(system);
    let system = CovidKg::reopen(kg_config).map_err(|e| format!("chaos reopen failed: {e}"))?;
    let verified = acked_ids
        .iter()
        .filter(|id| system.publications().get(id).is_some())
        .count();
    if verified != acked_ids.len() {
        failures.push(format!(
            "lost acknowledged writes: only {verified} of {} survived recovery",
            acked_ids.len()
        ));
    }
    Ok(FaultStorm {
        faults,
        acked_batches,
        rejected_batches,
        acked: acked_ids.len(),
        verified,
        io_retries,
        flusher: flusher_stats,
        index_rebuild_attempts,
        system,
    })
}

/// Phase 3 body: serve under injected query panics + worker crashes.
fn panic_serving(
    config: &ChaosConfig,
    system: CovidKg,
    failures: &mut Vec<String>,
) -> (LoadGenReport, ServeStats, usize) {
    let workers = config.workers.max(1);
    let server = Server::start(
        system,
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    );
    // Deterministic schedule: every 17th query panics mid-search, every
    // 13th is delayed — and two whole workers are crashed outright.
    server.set_injected_faults(Some(InjectedFaults {
        panic_every: 17,
        delay_every: 13,
        delay: Duration::from_micros(300),
    }));
    for _ in 0..2 {
        let _ = server.inject_worker_panic();
    }

    let serve = loadgen::run(
        &server,
        &LoadGenConfig {
            clients: config.clients.max(1),
            queries_per_client: config.requests.max(1),
            ..LoadGenConfig::default()
        },
    );
    if serve.abandoned > 0 {
        failures.push(format!("{} requests abandoned (hung or closed)", serve.abandoned));
    }
    if serve.mismatches > 0 {
        failures.push(format!(
            "{} fresh responses disagreed with direct search",
            serve.mismatches
        ));
    }

    // Heal and prove the pool recovered: full worker strength and a
    // clean query after the storm.
    server.set_injected_faults(None);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.worker_count() < workers && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let workers_alive = server.worker_count();
    if workers_alive < workers {
        failures.push(format!(
            "worker pool shrank: {workers_alive} of {workers} alive after the storm"
        ));
    }
    let healthy = server
        .search(&covidkg_search::SearchMode::AllFields("vaccine".into()), 0)
        .is_ok();
    if !healthy {
        failures.push("post-storm health-check query failed".into());
    }
    let stats = server.stats();
    if stats.worker_respawns < 2 {
        failures.push(format!(
            "expected ≥2 worker respawns after injected crashes, saw {}",
            stats.worker_respawns
        ));
    }
    server.shutdown();
    (serve, stats, workers_alive)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down storm end to end: deterministic seed, every
    /// invariant checked, report renders as SURVIVED.
    #[test]
    fn small_chaos_run_survives() {
        let report = run(&ChaosConfig {
            corpus: 14,
            max_training_rows: 150,
            batch_size: 4,
            max_batches: 24,
            fault_target: 30,
            workers: 2,
            clients: 3,
            requests: 8,
            ..ChaosConfig::default()
        })
        .expect("chaos run completes");
        assert!(report.passed(), "{report}");
        assert!(report.faults.injected() >= 30);
        assert_eq!(report.verified, report.acked);
        assert!(report.gauntlet.passed());
        assert!(report.flusher.syncs > 0, "flusher must have ticked mid-storm");
        assert!(report.index_rebuild_attempts >= 1);
        assert!(report.repl.converged(), "{}", report.repl);
        assert!(report.repl.kills >= 2);
        assert!(report.failover.converged(), "{}", report.failover);
        assert!(report.failover.kills >= 4, "every failover scenario kills the primary");
        assert_eq!(
            report.failover.promotions, report.failover.kills,
            "exactly one promotion per primary kill"
        );
        assert!(report.failover.fenced_sessions >= 1, "revival was fenced");
        assert!(report.failover.stale_rejects >= 1, "stale frames were rejected");
        let rendered = report.to_string();
        assert!(rendered.contains("SURVIVED"), "{rendered}");
        assert!(rendered.contains("faults injected"));
        assert!(rendered.contains("failover gauntlet"), "{rendered}");
    }
}
