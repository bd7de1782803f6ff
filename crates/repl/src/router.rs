//! Lag-aware read routing across replica servers.
//!
//! Round-robin over the replicas whose publications lag is within
//! `max_lag`, with the primary as optional fallback. Read-your-writes:
//! a client that just wrote at sequence `s` passes `min_seq = s`; the
//! router only picks targets whose applied sequence has reached `s`,
//! waiting up to a deadline when none has (the primary, when present,
//! satisfies any `min_seq` instantly — it *is* the write path).

use covidkg_serve::Server;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Routing availability of one replica. Only [`TargetHealth::Ready`]
/// targets receive reads: a replica mid-promotion is tearing down its
/// puller and taking WAL ownership (reads would race the handoff), and
/// a fenced one is connected to a deposed primary whose stream is
/// frozen. Flipping health is how a controlled failover keeps reads
/// flowing — the router falls back to the remaining pool (or primary)
/// instead of 500ing on a target in transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetHealth {
    /// In the rotation.
    Ready,
    /// Being promoted to primary; out of the read rotation until the
    /// handoff completes.
    Promoting,
    /// Fenced off (stale-epoch upstream); out of the rotation.
    Fenced,
}

impl TargetHealth {
    fn from_u8(v: u8) -> TargetHealth {
        match v {
            1 => TargetHealth::Promoting,
            2 => TargetHealth::Fenced,
            _ => TargetHealth::Ready,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            TargetHealth::Ready => 0,
            TargetHealth::Promoting => 1,
            TargetHealth::Fenced => 2,
        }
    }
}

/// One routable replica.
pub struct ReplicaTarget {
    /// Replica name (response header label).
    pub name: String,
    /// Its local query server.
    pub server: Arc<Server>,
    /// Its applied publications sequence (shared with the puller).
    pub applied: Arc<AtomicU64>,
    /// Routing availability (see [`TargetHealth`]); shared so a
    /// failover controller can flip it while the router runs.
    pub health: Arc<AtomicU8>,
}

impl ReplicaTarget {
    /// A target whose `applied` gauge follows a serving replica's
    /// puller: a small mirror thread copies the puller's *visible*
    /// sequence (what the replica's derived views reflect, not merely
    /// what its store applied) every few milliseconds and exits once
    /// either side (target or puller) is dropped.
    pub fn tracking(
        name: impl Into<String>,
        server: Arc<Server>,
        state: &Arc<crate::replica::PullerState>,
    ) -> ReplicaTarget {
        let applied = Arc::new(AtomicU64::new(state.visible.load(Ordering::Acquire)));
        let weak_state = Arc::downgrade(state);
        let weak_gauge = Arc::downgrade(&applied);
        std::thread::Builder::new()
            .name("covidkg-repl-gauge".into())
            .spawn(move || loop {
                let (Some(state), Some(gauge)) = (weak_state.upgrade(), weak_gauge.upgrade())
                else {
                    return;
                };
                gauge.store(state.visible.load(Ordering::Acquire), Ordering::Release);
                drop((state, gauge));
                std::thread::sleep(Duration::from_millis(5));
            })
            .expect("spawn gauge mirror thread");
        ReplicaTarget {
            name: name.into(),
            server,
            applied,
            health: Arc::new(AtomicU8::new(TargetHealth::Ready.as_u8())),
        }
    }

    /// Current routing availability.
    pub fn health(&self) -> TargetHealth {
        TargetHealth::from_u8(self.health.load(Ordering::Acquire))
    }

    /// Flip routing availability (e.g. `Promoting` at the start of a
    /// controlled failover, back to `Ready` once the handoff is done).
    pub fn set_health(&self, health: TargetHealth) {
        self.health.store(health.as_u8(), Ordering::Release);
    }
}

/// What the router picked for one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteInfo {
    /// Name of the serving node (`"primary"` for the fallback).
    pub replica: String,
    /// Sequence lag behind the primary watermark at pick time.
    pub lag: u64,
    /// Applied sequence at pick time.
    pub applied: u64,
    /// True when the primary served the read.
    pub primary: bool,
}

/// Routing failure.
#[derive(Debug)]
pub enum RouteError {
    /// No target reached `min_seq` before the deadline (read-your-
    /// writes unsatisfiable) — HTTP 503 territory.
    NotCaughtUp {
        /// The sequence the client demanded.
        wanted: u64,
        /// The best applied sequence any target offered.
        best: u64,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NotCaughtUp { wanted, best } => write!(
                f,
                "no replica caught up to sequence {wanted} (best applied: {best})"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// Lag-aware round-robin read router.
pub struct ReadRouter {
    /// Primary fallback (always caught up); `None` for a pure replica
    /// pool, where read-your-writes can actually fail with 503.
    primary: Option<Arc<Server>>,
    replicas: Vec<ReplicaTarget>,
    /// Source of the primary's current publications watermark.
    watermark: Arc<dyn Fn() -> u64 + Send + Sync>,
    /// Replicas lagging more than this many sequences are excluded.
    max_lag: u64,
    rr: AtomicUsize,
}

impl ReadRouter {
    /// Build a router. `watermark` supplies the primary's current
    /// durable publications sequence (the lag reference clock).
    pub fn new(
        primary: Option<Arc<Server>>,
        replicas: Vec<ReplicaTarget>,
        watermark: Arc<dyn Fn() -> u64 + Send + Sync>,
        max_lag: u64,
    ) -> ReadRouter {
        ReadRouter {
            primary,
            replicas,
            watermark,
            max_lag,
            rr: AtomicUsize::new(0),
        }
    }

    /// Point-in-time `(name, applied, lag)` for every replica — the
    /// per-replica series `/metrics` exposes.
    pub fn targets(&self) -> Vec<(String, u64, u64)> {
        let mark = self.watermark();
        self.replicas
            .iter()
            .map(|t| {
                let applied = t.applied.load(Ordering::Acquire);
                (t.name.clone(), applied, mark.saturating_sub(applied))
            })
            .collect()
    }

    /// The primary's current publications watermark (the sequence token
    /// clients use for read-your-writes).
    pub fn watermark(&self) -> u64 {
        (self.watermark)()
    }

    /// Pick an eligible replica (round-robin among those within
    /// `max_lag` and at or past `min_seq`), if any.
    fn pick_replica(&self, min_seq: u64) -> Option<(usize, RouteInfo)> {
        if self.replicas.is_empty() {
            return None;
        }
        let mark = self.watermark();
        let n = self.replicas.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        for i in 0..n {
            let idx = (start + i) % n;
            let t = &self.replicas[idx];
            if t.health() != TargetHealth::Ready {
                continue;
            }
            let applied = t.applied.load(Ordering::Acquire);
            let lag = mark.saturating_sub(applied);
            if lag <= self.max_lag && applied >= min_seq {
                return Some((
                    idx,
                    RouteInfo {
                        replica: t.name.clone(),
                        lag,
                        applied,
                        primary: false,
                    },
                ));
            }
        }
        None
    }

    /// Best applied sequence across the pool (for 503 diagnostics).
    fn best_applied(&self) -> u64 {
        self.replicas
            .iter()
            .map(|t| t.applied.load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    /// Route one read. `min_seq = 0` means no read-your-writes
    /// requirement; a nonzero `min_seq` waits up to `deadline` for a
    /// target that has applied it (instantly satisfied by the primary
    /// fallback when configured).
    pub fn route(&self, min_seq: u64, deadline: Duration) -> Result<(Arc<Server>, RouteInfo), RouteError> {
        let start = Instant::now();
        loop {
            if let Some((idx, info)) = self.pick_replica(min_seq) {
                return Ok((Arc::clone(&self.replicas[idx].server), info));
            }
            if let Some(primary) = &self.primary {
                return Ok((
                    Arc::clone(primary),
                    RouteInfo {
                        replica: "primary".into(),
                        lag: 0,
                        applied: self.watermark(),
                        primary: true,
                    },
                ));
            }
            if start.elapsed() >= deadline {
                return Err(RouteError::NotCaughtUp {
                    wanted: min_seq,
                    best: self.best_applied(),
                });
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routing logic against real servers is covered by the crate's
    /// integration tests; here the pool-exhaustion paths.
    #[test]
    fn empty_pool_without_primary_reports_not_caught_up() {
        let router = ReadRouter::new(None, Vec::new(), Arc::new(|| 10), 2);
        let err = match router.route(5, Duration::from_millis(10)) {
            Ok(_) => panic!("route must fail with an empty pool"),
            Err(e) => e,
        };
        let RouteError::NotCaughtUp { wanted, best } = err;
        assert_eq!((wanted, best), (5, 0));
    }

    #[test]
    fn reads_never_fail_while_targets_cycle_through_a_controlled_failover() {
        use covidkg_core::{CovidKg, CovidKgConfig};
        use covidkg_serve::ServeConfig;

        let system = CovidKg::build(CovidKgConfig {
            corpus_size: 8,
            max_training_rows: 50,
            ..CovidKgConfig::default()
        })
        .unwrap();
        let server = Arc::new(covidkg_serve::Server::start(system, ServeConfig::default()));
        let target = |name: &str| ReplicaTarget {
            name: name.into(),
            server: Arc::clone(&server),
            applied: Arc::new(AtomicU64::new(10)),
            health: Arc::new(AtomicU8::new(TargetHealth::Ready.as_u8())),
        };
        let (r1, r2) = (target("r1"), target("r2"));
        let (h1, h2) = (Arc::clone(&r1.health), Arc::clone(&r2.health));
        let router = ReadRouter::new(
            Some(Arc::clone(&server)),
            vec![r1, r2],
            Arc::new(|| 10),
            2,
        );
        let set = |h: &Arc<AtomicU8>, v: TargetHealth| h.store(v.as_u8(), Ordering::Release);
        let deadline = Duration::from_millis(50);

        // A controlled failover walks r1 through Promoting and r2
        // through Fenced; every route along the way must succeed and
        // never land on a target that is out of the rotation.
        let phases: [(TargetHealth, TargetHealth, &[&str]); 4] = [
            (TargetHealth::Ready, TargetHealth::Ready, &["r1", "r2"]),
            (TargetHealth::Promoting, TargetHealth::Ready, &["r2"]),
            (TargetHealth::Promoting, TargetHealth::Fenced, &["primary"]),
            (TargetHealth::Ready, TargetHealth::Ready, &["r1", "r2"]),
        ];
        for (st1, st2, allowed) in phases {
            set(&h1, st1);
            set(&h2, st2);
            for _ in 0..20 {
                let (_, info) = router
                    .route(0, deadline)
                    .expect("reads must not fail mid-failover");
                assert!(
                    allowed.contains(&info.replica.as_str()),
                    "picked {} while healths were {st1:?}/{st2:?}",
                    info.replica
                );
            }
        }
        server.shutdown();
    }

    #[test]
    fn read_your_writes_waits_out_the_deadline_without_targets() {
        let router = ReadRouter::new(None, Vec::new(), Arc::new(|| 0), 0);
        let t0 = Instant::now();
        assert!(matches!(
            router.route(1, Duration::from_millis(20)),
            Err(RouteError::NotCaughtUp { .. })
        ));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }
}
