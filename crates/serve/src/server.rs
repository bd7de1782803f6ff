//! The serving frontend: a bounded request queue drained by a worker
//! thread pool, fronted by the generation-keyed result cache.
//!
//! Request lifecycle:
//!
//! 1. [`Server::search`] computes the canonical cache key and probes the
//!    cache — a hit (entry generation == current generation) returns
//!    immediately without touching the queue.
//! 2. On a miss, the target engine's circuit breaker is consulted: an
//!    open breaker short-circuits to the degradation ladder below. Else
//!    the request is `try_send`-enqueued; a full queue rejects with
//!    [`ServeError::Overloaded`] (admission control: the caller gets a
//!    typed backpressure signal instead of unbounded queueing).
//! 3. A worker dequeues the job, drops it with `DeadlineExceeded` if the
//!    deadline already passed, else runs `CovidKg::search` under the
//!    system read lock, capturing the data generation *under that same
//!    lock*, caches the page tagged with it, and replies.
//! 4. The caller waits on its private reply channel at most until its
//!    deadline; a timeout reports [`ServeError::DeadlineExceeded`]
//!    (the worker's late reply lands in the buffered channel and is
//!    dropped with it).
//!
//! # Panic isolation and the degradation ladder
//!
//! A panicking query must cost exactly one request, never the server:
//!
//! * every search job runs under `catch_unwind`, so a panic mid-search
//!   is caught, counted, fed to the engine's circuit breaker, and the
//!   waiting caller still gets a reply (stale page or typed error) —
//!   the worker thread survives;
//! * a panic that does escape the catch (e.g. an injected worker crash)
//!   trips a sentinel that **respawns a replacement worker**, so the
//!   pool never shrinks;
//! * every lock acquisition recovers from poisoning instead of
//!   `unwrap`ing, so stats, shutdown and later requests keep working
//!   after any panic anywhere;
//! * per-engine **adaptive** circuit breakers track outcomes over a
//!   sliding `breaker_window` and open once the error rate reaches
//!   `breaker_error_rate` with at least `breaker_min_samples` outcomes
//!   resident, short-circuiting requests for `breaker_cooldown`, after
//!   which one probe request is let through (half-open). While open, requests are served **degraded**: a
//!   cached page of *any* generation marked [`ServeResponse::stale`],
//!   or the typed [`ServeError::Degraded`] when none exists — never a
//!   hang, never a panic.
//!
//! Stale-freedom argument (healthy path): [`Server::ingest`] commits the
//! in-memory graph mutation under the write lock and stores the new
//! generation into the atomic mirror *before* releasing it. A search
//! result was computed under a read lock at generation `g` and cached
//! tagged `g`; any later lookup compares that tag against the mirror,
//! which an intervening ingest has already advanced — so the stale page
//! can never be returned silently. The store/classify prepare phase runs
//! under a *read* lock (reads keep flowing during the expensive part of
//! an ingest); pages computed while it runs may observe some of the new
//! documents early, but they are tagged `g` and the commit's generation
//! bump invalidates them wholesale. Degraded mode is the deliberate
//! exception: it may serve an old-generation page, but always labeled
//! `stale: true`.

use crate::cache::{CachedValue, QueryCache};
use crate::metrics::{DenseKind, EngineKind, Metrics, ServeStats};
use covidkg_core::{CovidKg, QueryPlan};
use covidkg_corpus::Publication;
use covidkg_search::{cache_key_and_query, dense_cache_key, DenseMode, SearchMode, SearchPage};
use covidkg_store::StoreError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poison-recovering `Mutex` lock (satellite of the fault-injection
/// work: a dead worker must never wedge shutdown, stats or the queue).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Poison-recovering `RwLock` read guard.
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Poison-recovering `RwLock` write guard.
fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with `Overloaded`.
    pub queue_capacity: usize,
    /// Total cached result pages.
    pub cache_capacity: usize,
    /// Cache shards (locks) the capacity is spread over.
    pub cache_shards: usize,
    /// Cached pages older than this never hit (None = no TTL).
    pub cache_ttl: Option<Duration>,
    /// Approximate total-bytes budget for cached pages (None = none).
    pub cache_max_bytes: Option<usize>,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline: Duration,
    /// Sliding window over which an engine's error rate is measured for
    /// circuit breaking.
    pub breaker_window: Duration,
    /// Error rate (failures / outcomes in the window) at or above which
    /// the breaker opens.
    pub breaker_error_rate: f64,
    /// Minimum outcomes resident in the window before the error rate is
    /// considered meaningful — below this the breaker never opens.
    pub breaker_min_samples: u32,
    /// How long a tripped breaker short-circuits before allowing a
    /// half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 512,
            cache_shards: 8,
            cache_ttl: Some(Duration::from_secs(120)),
            cache_max_bytes: Some(8 << 20),
            default_deadline: Duration::from_secs(5),
            breaker_window: Duration::from_secs(1),
            breaker_error_rate: 0.5,
            breaker_min_samples: 5,
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

/// Typed serving failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue was full — back off and retry.
    Overloaded,
    /// The request missed its deadline (either queued too long or the
    /// caller stopped waiting).
    DeadlineExceeded,
    /// The target engine is unhealthy (circuit breaker open or the
    /// worker crashed on this request) and no cached page — not even a
    /// stale one — could stand in.
    Degraded,
    /// The server has shut down.
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "server overloaded: request queue full"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Degraded => write!(f, "engine degraded and no cached page available"),
            ServeError::Closed => write!(f, "server closed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served search result.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The result page.
    pub page: SearchPage,
    /// Whether the page came from the cache.
    pub cached: bool,
    /// Degraded-mode answer: the page may predate the current data
    /// generation (served from cache while the engine is unhealthy).
    pub stale: bool,
    /// Data generation the page was computed at.
    pub generation: u64,
    /// End-to-end latency observed by the server.
    pub latency: Duration,
}

/// A served KG response: the pre-serialized JSON body (the canonical
/// wire form — `GET /kg/query` and `GET /kg/profile/{vaccine}` send
/// these bytes verbatim, so wire output is byte-identical to
/// in-process serialization).
///
/// Unlike search traffic there is deliberately no `stale` flag: profile
/// documents are epoch-stamped and must never be served from an older
/// generation, so degraded mode fails typed instead of serving stale.
#[derive(Debug, Clone)]
pub struct KgResponse {
    /// Serialized JSON body.
    pub body: String,
    /// Whether the body came from the cache.
    pub cached: bool,
    /// Data generation the body was computed at.
    pub generation: u64,
    /// End-to-end latency observed by the server.
    pub latency: Duration,
}

/// Deterministic worker-side fault schedule for chaos runs: every
/// `panic_every`-th search job panics mid-query, every `delay_every`-th
/// sleeps for `delay` first (0 disables either). Jobs are numbered by a
/// global sequence, so a fixed schedule yields a fixed fault pattern.
#[derive(Debug, Clone, Default)]
pub struct InjectedFaults {
    /// Panic on jobs where `seq % panic_every == panic_every - 1`.
    pub panic_every: u64,
    /// Delay jobs where `seq % delay_every == delay_every - 1`.
    pub delay_every: u64,
    /// Length of the injected delay.
    pub delay: Duration,
}

struct SearchJob {
    mode: SearchMode,
    page: usize,
    key: String,
    engine: EngineKind,
    deadline: Instant,
    submitted: Instant,
    reply: SyncSender<Result<ServeResponse, ServeError>>,
}

/// The KG operations served through the worker queue.
enum KgOp {
    /// Multi-hop ranked-path traversal.
    Query(Box<QueryPlan>),
    /// Traversal re-ranked by provenance trust (`trust=1` knob).
    QueryTrusted(Box<QueryPlan>),
    /// One vaccine's materialized meta-profile document.
    Profile(String),
}

struct KgJob {
    op: KgOp,
    key: String,
    deadline: Instant,
    submitted: Instant,
    reply: SyncSender<Result<Option<KgResponse>, ServeError>>,
}

/// The trust operations served through the worker queue (the fourth
/// wire traffic class).
enum TrustOp {
    /// One KG node's trust document.
    Node(usize),
    /// One source venue's credibility document.
    Source(String),
    /// The full trust-weighted bias interrogation report.
    Bias,
}

struct TrustJob {
    op: TrustOp,
    key: String,
    deadline: Instant,
    submitted: Instant,
    reply: SyncSender<Result<Option<KgResponse>, ServeError>>,
}

enum Job {
    Search(Box<SearchJob>),
    Kg(Box<KgJob>),
    Trust(Box<TrustJob>),
    /// Chaos hook: makes the dequeuing worker panic *outside* the
    /// per-job `catch_unwind`, exercising the respawn sentinel.
    CrashWorker,
}

/// Breaker tuning, copied out of [`ServeConfig`].
#[derive(Debug, Clone, Copy)]
struct BreakerSettings {
    window: Duration,
    error_rate: f64,
    min_samples: u32,
    cooldown: Duration,
}

impl From<&ServeConfig> for BreakerSettings {
    fn from(c: &ServeConfig) -> BreakerSettings {
        BreakerSettings {
            window: c.breaker_window,
            error_rate: c.breaker_error_rate.clamp(0.0, 1.0),
            min_samples: c.breaker_min_samples.max(1),
            cooldown: c.breaker_cooldown,
        }
    }
}

#[derive(Debug, Default)]
struct BreakerState {
    /// `(when, failed)` outcomes inside the sliding window, oldest first.
    outcomes: VecDeque<(Instant, bool)>,
    /// While `Some`, requests short-circuit until the instant passes —
    /// and stays set through half-open, so only the single admitted
    /// probe reaches the engine while its outcome is pending.
    open_until: Option<Instant>,
    /// When the in-flight half-open probe was admitted; the probe's
    /// outcome decides between close and re-open. A probe whose outcome
    /// is never recorded (e.g. its job was dropped on a queue deadline)
    /// expires after one cooldown, releasing the slot for a new probe.
    probe_started: Option<Instant>,
}

/// Per-engine adaptive circuit breaker: outcomes are kept in a sliding
/// time window and the breaker opens when, with at least `min_samples`
/// outcomes resident, the error rate reaches `error_rate`. A burst of
/// failures trips it as soon as the sample floor is met; a steady
/// trickle of errors below the rate never does. After `cooldown` it
/// half-opens: one probe is allowed through, and a probe success clears
/// the window and fully closes the breaker while a probe failure
/// re-opens it for another cooldown.
#[derive(Debug, Default)]
struct Breaker {
    state: Mutex<BreakerState>,
}

impl Breaker {
    /// True when a request may proceed. Once the cooldown has elapsed
    /// the breaker half-opens: exactly one caller is admitted as the
    /// probe while everyone else keeps short-circuiting until that
    /// probe's own outcome is recorded (or it expires unreported).
    fn allow(&self, cfg: &BreakerSettings) -> bool {
        self.allow_at(Instant::now(), cfg)
    }

    fn allow_at(&self, now: Instant, cfg: &BreakerSettings) -> bool {
        let mut state = lock(&self.state);
        let Some(until) = state.open_until else {
            return true;
        };
        if now < until {
            return false;
        }
        // Half-open: `open_until` stays set so the engine sees one
        // probe, not a thundering herd, and a concurrent request's
        // outcome can't masquerade as the probe's.
        match state.probe_started {
            Some(started) if now.duration_since(started) < cfg.cooldown => false,
            _ => {
                state.probe_started = Some(now);
                true
            }
        }
    }

    /// Record a failed request; returns true when this failure newly
    /// opened (or re-opened, for a failed probe) the breaker.
    fn record_failure(&self, cfg: &BreakerSettings) -> bool {
        self.record_failure_at(Instant::now(), cfg)
    }

    fn record_failure_at(&self, now: Instant, cfg: &BreakerSettings) -> bool {
        let mut state = lock(&self.state);
        state.outcomes.push_back((now, true));
        prune(&mut state.outcomes, now, cfg.window);
        if state.probe_started.take().is_some() {
            // The half-open probe failed: straight back to open.
            state.open_until = Some(now + cfg.cooldown);
            return true;
        }
        let samples = state.outcomes.len();
        let errors = state.outcomes.iter().filter(|(_, failed)| *failed).count();
        if samples >= cfg.min_samples as usize
            && errors as f64 >= cfg.error_rate * samples as f64
        {
            let newly = state.open_until.is_none();
            state.open_until = Some(now + cfg.cooldown);
            newly
        } else {
            false
        }
    }

    fn record_success(&self, cfg: &BreakerSettings) {
        self.record_success_at(Instant::now(), cfg)
    }

    fn record_success_at(&self, now: Instant, cfg: &BreakerSettings) {
        let mut state = lock(&self.state);
        if state.probe_started.take().is_some() {
            // Probe succeeded: the engine recovered; past outcomes no
            // longer describe it.
            state.outcomes.clear();
            state.open_until = None;
        }
        state.outcomes.push_back((now, false));
        prune(&mut state.outcomes, now, cfg.window);
    }
}

/// Drop outcomes older than `window` (and bound the deque so a huge
/// window can't grow it without limit).
fn prune(outcomes: &mut VecDeque<(Instant, bool)>, now: Instant, window: Duration) {
    while let Some((when, _)) = outcomes.front() {
        if now.duration_since(*when) > window || outcomes.len() > 4096 {
            outcomes.pop_front();
        } else {
            break;
        }
    }
}

struct Inner {
    system: RwLock<CovidKg>,
    /// Serializes ingests with each other (never with readers): the
    /// prepare phase runs under a *read* lock so searches keep flowing,
    /// and this gate keeps a second ingest from interleaving its
    /// prepare/commit phases with ours.
    ingest_gate: Mutex<()>,
    /// Mirror of `CovidKg::generation`, readable without the system lock.
    generation: AtomicU64,
    cache: QueryCache,
    metrics: Metrics,
    breakers: [Breaker; 5],
    breaker_cfg: BreakerSettings,
    /// Worker-side fault schedule (chaos testing); None in production.
    faults: RwLock<Option<InjectedFaults>>,
    /// Global search-job sequence driving the fault schedule.
    job_seq: AtomicU64,
    /// Live worker handles; the respawn sentinel pushes replacements
    /// here so shutdown can join every worker that ever ran.
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn breaker(&self, engine: EngineKind) -> &Breaker {
        &self.breakers[engine.index()]
    }

    fn record_engine_failure(&self, engine: EngineKind) {
        if self.breaker(engine).record_failure(&self.breaker_cfg) {
            self.metrics.record_breaker_open();
        }
    }
}

/// Respawns a replacement worker when its thread dies to a panic that
/// escaped the per-job catch (armed only while unwinding).
struct RespawnSentinel {
    inner: Arc<Inner>,
    rx: Arc<Mutex<Receiver<Job>>>,
}

impl Drop for RespawnSentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.inner.metrics.record_panic();
            self.inner.metrics.record_respawn();
            spawn_worker(Arc::clone(&self.inner), Arc::clone(&self.rx));
        }
    }
}

fn spawn_worker(inner: Arc<Inner>, rx: Arc<Mutex<Receiver<Job>>>) {
    let handle_registry = Arc::clone(&inner);
    let handle = std::thread::spawn(move || {
        let sentinel = RespawnSentinel {
            inner: Arc::clone(&inner),
            rx: Arc::clone(&rx),
        };
        loop {
            // Hold the receiver lock only for the dequeue itself.
            let job = match lock(&sentinel.rx).recv() {
                Ok(job) => job,
                Err(_) => return, // queue sender dropped: shutdown
            };
            sentinel.inner.metrics.dequeued();
            match job {
                Job::CrashWorker => panic!("injected worker crash"),
                Job::Search(job) => run_isolated(&sentinel.inner, *job),
                Job::Kg(job) => run_kg_isolated(&sentinel.inner, *job),
                Job::Trust(job) => run_trust_isolated(&sentinel.inner, *job),
            }
        }
    });
    lock(&handle_registry.worker_handles).push(handle);
}

/// Concurrent query-serving frontend over one [`CovidKg`] system.
pub struct Server {
    inner: Arc<Inner>,
    /// `None` once shut down; dropping the last sender disconnects the
    /// workers' shared receiver, which ends their loops.
    queue: Mutex<Option<SyncSender<Job>>>,
    /// Keeps the queue connected even with zero workers, so a full
    /// queue reports `Overloaded` (Full) rather than `Closed`
    /// (Disconnected).
    _queue_rx: Arc<Mutex<Receiver<Job>>>,
    default_deadline: Duration,
}

impl Server {
    /// Start a server (spawns `config.workers` worker threads).
    pub fn start(system: CovidKg, config: ServeConfig) -> Server {
        let generation = system.generation();
        let inner = Arc::new(Inner {
            system: RwLock::new(system),
            ingest_gate: Mutex::new(()),
            generation: AtomicU64::new(generation),
            cache: QueryCache::with_limits(
                config.cache_capacity,
                config.cache_shards,
                config.cache_ttl,
                config.cache_max_bytes,
            ),
            metrics: Metrics::default(),
            breakers: Default::default(),
            breaker_cfg: BreakerSettings::from(&config),
            faults: RwLock::new(None),
            job_seq: AtomicU64::new(0),
            worker_handles: Mutex::new(Vec::new()),
        });
        let (tx, rx) = sync_channel::<Job>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..config.workers {
            spawn_worker(Arc::clone(&inner), Arc::clone(&rx));
        }
        Server {
            inner,
            queue: Mutex::new(Some(tx)),
            _queue_rx: rx,
            default_deadline: config.default_deadline,
        }
    }

    /// Serve a search with the configured default deadline.
    pub fn search(&self, mode: &SearchMode, page: usize) -> Result<ServeResponse, ServeError> {
        self.search_with_deadline(mode, page, self.default_deadline)
    }

    /// Serve a search, waiting at most `deadline` for the result.
    pub fn search_with_deadline(
        &self,
        mode: &SearchMode,
        page: usize,
        deadline: Duration,
    ) -> Result<ServeResponse, ServeError> {
        let submitted = Instant::now();
        let engine = engine_kind(mode);
        self.inner.metrics.record_request(engine);
        let (key, query) = cache_key_and_query(mode, page);

        // Cache sits in front of the queue: hits cost two mutex hops and
        // never consume queue capacity or a worker.
        let generation = self.inner.generation.load(Ordering::Acquire);
        if let Some(cached) = self
            .inner
            .cache
            .get(&key, generation)
            .and_then(CachedValue::into_page)
        {
            self.inner.metrics.record_hit();
            let latency = submitted.elapsed();
            self.inner.metrics.record_completed(latency);
            return Ok(ServeResponse {
                page: echoing(cached, &query),
                cached: true,
                stale: false,
                generation,
                latency,
            });
        }
        self.inner.metrics.record_miss();

        // Unhealthy engine: don't waste queue capacity on it — serve
        // degraded from whatever the cache still holds.
        if !self.inner.breaker(engine).allow(&self.inner.breaker_cfg) {
            return degraded_response(&self.inner, &key, &query, submitted);
        }

        // Buffered reply slot so a worker finishing after we time out
        // never blocks on a reader that left.
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job::Search(Box::new(SearchJob {
            mode: mode.clone(),
            page,
            key,
            engine,
            deadline: submitted + deadline,
            submitted,
            reply: reply_tx,
        }));
        let sender = match &*lock(&self.queue) {
            Some(tx) => tx.clone(),
            None => return Err(ServeError::Closed),
        };
        // Count the enqueue before the send: a worker may dequeue (and
        // decrement the depth) the instant the job lands, so counting
        // afterwards could drive the gauge below zero.
        self.inner.metrics.enqueued();
        match sender.try_send(job) {
            Ok(()) => self.inner.metrics.record_admitted_depth(),
            Err(TrySendError::Full(_)) => {
                self.inner.metrics.dequeued();
                self.inner.metrics.record_overloaded();
                return Err(ServeError::Overloaded);
            }
            Err(TrySendError::Disconnected(_)) => {
                self.inner.metrics.dequeued();
                return Err(ServeError::Closed);
            }
        }
        match reply_rx.recv_timeout(deadline) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                self.inner.metrics.record_deadline_exceeded();
                Err(ServeError::DeadlineExceeded)
            }
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
        }
    }

    /// Ingest new publications, invalidating the result cache: the data
    /// generation advances before the exclusive lock is released, so
    /// every previously cached page stops matching on its generation tag.
    ///
    /// Reads proceed during the expensive phases: document storage and
    /// table classification run under a shared lock
    /// ([`CovidKg::ingest_prepare`]), persistence under a shared lock
    /// ([`CovidKg::persist_now`]); only the in-memory graph-fusion
    /// commit takes the write lock. The `ingest_gate` serializes whole
    /// ingests so two callers can't interleave their phases.
    pub fn ingest(&self, pubs: &[Publication]) -> Result<usize, StoreError> {
        let _gate = lock(&self.inner.ingest_gate);
        let prepared = read_lock(&self.inner.system).ingest_prepare(pubs)?;
        let added = {
            let mut system = write_lock(&self.inner.system);
            let added = system.ingest_commit(prepared)?;
            self.inner
                .generation
                .store(system.generation(), Ordering::Release);
            added
        };
        read_lock(&self.inner.system).persist_now()?;
        Ok(added)
    }

    /// Uncached, unqueued search straight against the system — the
    /// ground truth the load generator verifies served responses with.
    pub fn search_direct(&self, mode: &SearchMode, page: usize) -> SearchPage {
        read_lock(&self.inner.system).search(mode, page)
    }

    /// Serve a dense (semantic or hybrid) search.
    ///
    /// Cache-fronted like [`Server::search_with_deadline`], but computed
    /// inline under the shared system lock instead of through the worker
    /// queue: an ANN query touches a logarithmic fraction of the corpus
    /// (sub-millisecond at our sizes, like the `/kg/node` lookups), so
    /// queue admission and circuit breaking would cost more than the
    /// search. The page and generation are read under one lock so a
    /// concurrent ingest commit can't tear them apart.
    pub fn search_dense(&self, mode: &DenseMode, page: usize) -> Result<ServeResponse, ServeError> {
        let submitted = Instant::now();
        let kind = match mode {
            DenseMode::Semantic(_) => DenseKind::Semantic,
            DenseMode::Hybrid(_) => DenseKind::Hybrid,
        };
        self.inner.metrics.record_dense_request(kind);
        let key = dense_cache_key(mode, page);
        let generation = self.inner.generation.load(Ordering::Acquire);
        if let Some(cached) = self
            .inner
            .cache
            .get(&key, generation)
            .and_then(CachedValue::into_page)
        {
            self.inner.metrics.record_hit();
            let latency = submitted.elapsed();
            self.inner.metrics.record_completed(latency);
            return Ok(ServeResponse {
                page: echoing(cached, mode.query()),
                cached: true,
                stale: false,
                generation,
                latency,
            });
        }
        self.inner.metrics.record_miss();
        let (result, generation) = {
            let system = read_lock(&self.inner.system);
            (system.search_dense(mode, page), system.generation())
        };
        self.inner.cache.insert(key, generation, result.clone());
        let latency = submitted.elapsed();
        self.inner.metrics.record_completed(latency);
        Ok(ServeResponse {
            page: result,
            cached: false,
            stale: false,
            generation,
            latency,
        })
    }

    /// Serve a KG traversal: cache-fronted and queue-admitted like the
    /// search engines (a deep traversal is real work, so it gets
    /// admission control and the `kg` circuit breaker), but never
    /// served stale — when the breaker is open or a worker crashes the
    /// caller gets the typed [`ServeError::Degraded`] instead of an
    /// old-generation body.
    pub fn kg_query(&self, plan: &QueryPlan) -> Result<KgResponse, ServeError> {
        let key = plan.cache_key();
        self.kg_request(KgOp::Query(Box::new(plan.clone())), key)
            .map(|resp| resp.expect("a traversal always yields a body"))
    }

    /// Serve one vaccine's materialized meta-profile document.
    /// `Ok(None)` = unknown vaccine (the wire layer's 404).
    pub fn kg_profile(&self, vaccine: &str) -> Result<Option<KgResponse>, ServeError> {
        let key = format!("kgp|{}:{vaccine}", vaccine.len());
        self.kg_request(KgOp::Profile(vaccine.to_string()), key)
    }

    /// Serve a KG traversal re-ranked by provenance trust (the
    /// `trust=1` knob on `/kg/query`). Cached under a distinct key so
    /// the default (untrusted) ranking is never cross-contaminated.
    pub fn kg_query_trusted(&self, plan: &QueryPlan) -> Result<KgResponse, ServeError> {
        let key = format!("{}|trust", plan.cache_key());
        self.kg_request(KgOp::QueryTrusted(Box::new(plan.clone())), key)
            .map(|resp| resp.expect("a traversal always yields a body"))
    }

    /// Serve one KG node's trust document (the fourth traffic class).
    /// `Ok(None)` = out-of-range id (the wire layer's 404). Like KG
    /// bodies, trust documents are epoch-stamped and never served
    /// stale: degraded mode fails typed.
    pub fn trust_node(&self, id: usize) -> Result<Option<KgResponse>, ServeError> {
        let key = format!("tn|{id}");
        self.trust_request(TrustOp::Node(id), key)
    }

    /// Serve one source venue's credibility document.
    /// `Ok(None)` = unknown venue.
    pub fn trust_source(&self, venue: &str) -> Result<Option<KgResponse>, ServeError> {
        let key = format!("ts|{}:{venue}", venue.len());
        self.trust_request(TrustOp::Source(venue.to_string()), key)
    }

    /// Serve the trust-weighted bias interrogation report. The body is
    /// memoized inside the system keyed on (trust epoch, generation),
    /// and cache-fronted here like every other trust body.
    pub fn bias_report(&self) -> Result<KgResponse, ServeError> {
        self.trust_request(TrustOp::Bias, "bias|".to_string())
            .map(|resp| resp.expect("the bias report always yields a body"))
    }

    /// Common trust request path: cache probe → breaker → queue →
    /// worker, mirroring [`Server::kg_request`] but accounted against
    /// the dedicated `trust` engine/breaker. Freshness over
    /// availability: an open breaker yields [`ServeError::Degraded`],
    /// never a stale body.
    fn trust_request(
        &self,
        op: TrustOp,
        key: String,
    ) -> Result<Option<KgResponse>, ServeError> {
        let submitted = Instant::now();
        self.inner.metrics.record_request(EngineKind::Trust);
        let generation = self.inner.generation.load(Ordering::Acquire);
        if let Some(body) = self
            .inner
            .cache
            .get(&key, generation)
            .and_then(CachedValue::into_body)
        {
            self.inner.metrics.record_hit();
            let latency = submitted.elapsed();
            self.inner.metrics.record_completed(latency);
            return Ok(Some(KgResponse {
                body,
                cached: true,
                generation,
                latency,
            }));
        }
        self.inner.metrics.record_miss();
        if !self
            .inner
            .breaker(EngineKind::Trust)
            .allow(&self.inner.breaker_cfg)
        {
            self.inner.metrics.record_degraded();
            return Err(ServeError::Degraded);
        }
        let deadline = self.default_deadline;
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job::Trust(Box::new(TrustJob {
            op,
            key,
            deadline: submitted + deadline,
            submitted,
            reply: reply_tx,
        }));
        let sender = match &*lock(&self.queue) {
            Some(tx) => tx.clone(),
            None => return Err(ServeError::Closed),
        };
        self.inner.metrics.enqueued();
        match sender.try_send(job) {
            Ok(()) => self.inner.metrics.record_admitted_depth(),
            Err(TrySendError::Full(_)) => {
                self.inner.metrics.dequeued();
                self.inner.metrics.record_overloaded();
                return Err(ServeError::Overloaded);
            }
            Err(TrySendError::Disconnected(_)) => {
                self.inner.metrics.dequeued();
                return Err(ServeError::Closed);
            }
        }
        match reply_rx.recv_timeout(deadline) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                self.inner.metrics.record_deadline_exceeded();
                Err(ServeError::DeadlineExceeded)
            }
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
        }
    }

    /// Serve one KG node document. `Ok(None)` = out-of-range id.
    ///
    /// Cache-fronted like [`Server::search_dense`] but computed inline
    /// under the shared system lock instead of through the worker
    /// queue: a node lookup is O(1), so queue admission would cost
    /// more than the work itself.
    pub fn kg_node(&self, id: usize) -> Result<Option<KgResponse>, ServeError> {
        let submitted = Instant::now();
        self.inner.metrics.record_request(EngineKind::Kg);
        let key = format!("kgn|{id}");
        let generation = self.inner.generation.load(Ordering::Acquire);
        if let Some(body) = self
            .inner
            .cache
            .get(&key, generation)
            .and_then(CachedValue::into_body)
        {
            self.inner.metrics.record_hit();
            let latency = submitted.elapsed();
            self.inner.metrics.record_completed(latency);
            return Ok(Some(KgResponse {
                body,
                cached: true,
                generation,
                latency,
            }));
        }
        self.inner.metrics.record_miss();
        let (body, generation) = {
            let system = read_lock(&self.inner.system);
            (
                system.kg_node(id).map(|doc| doc.to_json()),
                system.generation(),
            )
        };
        let Some(body) = body else {
            return Ok(None);
        };
        self.inner.cache.insert(key, generation, body.clone());
        let latency = submitted.elapsed();
        self.inner.metrics.record_completed(latency);
        Ok(Some(KgResponse {
            body,
            cached: false,
            generation,
            latency,
        }))
    }

    /// Common KG request path: cache probe → breaker → queue → worker.
    fn kg_request(
        &self,
        op: KgOp,
        key: String,
    ) -> Result<Option<KgResponse>, ServeError> {
        let submitted = Instant::now();
        self.inner.metrics.record_request(EngineKind::Kg);
        let generation = self.inner.generation.load(Ordering::Acquire);
        if let Some(body) = self
            .inner
            .cache
            .get(&key, generation)
            .and_then(CachedValue::into_body)
        {
            self.inner.metrics.record_hit();
            let latency = submitted.elapsed();
            self.inner.metrics.record_completed(latency);
            return Ok(Some(KgResponse {
                body,
                cached: true,
                generation,
                latency,
            }));
        }
        self.inner.metrics.record_miss();
        // Freshness over availability: no stale fallback for KG bodies.
        if !self
            .inner
            .breaker(EngineKind::Kg)
            .allow(&self.inner.breaker_cfg)
        {
            self.inner.metrics.record_degraded();
            return Err(ServeError::Degraded);
        }
        let deadline = self.default_deadline;
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job::Kg(Box::new(KgJob {
            op,
            key,
            deadline: submitted + deadline,
            submitted,
            reply: reply_tx,
        }));
        let sender = match &*lock(&self.queue) {
            Some(tx) => tx.clone(),
            None => return Err(ServeError::Closed),
        };
        self.inner.metrics.enqueued();
        match sender.try_send(job) {
            Ok(()) => self.inner.metrics.record_admitted_depth(),
            Err(TrySendError::Full(_)) => {
                self.inner.metrics.dequeued();
                self.inner.metrics.record_overloaded();
                return Err(ServeError::Overloaded);
            }
            Err(TrySendError::Disconnected(_)) => {
                self.inner.metrics.dequeued();
                return Err(ServeError::Closed);
            }
        }
        match reply_rx.recv_timeout(deadline) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                self.inner.metrics.record_deadline_exceeded();
                Err(ServeError::DeadlineExceeded)
            }
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
        }
    }

    /// Current data generation.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// Run `f` with shared read access to the underlying system — used
    /// by the network front-end for routes (KG node lookups, system
    /// stats) that need data the search scheduler doesn't expose.
    pub fn with_system<R>(&self, f: impl FnOnce(&CovidKg) -> R) -> R {
        f(&read_lock(&self.inner.system))
    }

    /// Run `f` with exclusive access to the underlying system, then
    /// republish the generation mirror — used by the replication layer
    /// to refresh derived state after frames were applied beneath the
    /// system. Takes the ingest gate so it can't interleave with an
    /// in-flight ingest's phases.
    pub fn with_system_mut<R>(&self, f: impl FnOnce(&mut CovidKg) -> R) -> R {
        let _gate = lock(&self.inner.ingest_gate);
        let mut system = write_lock(&self.inner.system);
        let out = f(&mut system);
        self.inner
            .generation
            .store(system.generation(), Ordering::Release);
        out
    }

    /// Point-in-time serving statistics (including cache occupancy /
    /// eviction counters and store-level transient-retry totals).
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.inner.metrics.snapshot();
        stats.cache = self.inner.cache.stats();
        stats.io_retries = read_lock(&self.inner.system).publications().io_retries();
        stats
    }

    /// Cached result pages currently resident.
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Install (or clear) a deterministic worker-side fault schedule.
    pub fn set_injected_faults(&self, faults: Option<InjectedFaults>) {
        *write_lock(&self.inner.faults) = faults;
    }

    /// Chaos hook: enqueue a job that makes one worker panic *outside*
    /// its per-job `catch_unwind`, killing the thread and exercising the
    /// respawn path. Blocks until queue space is available.
    pub fn inject_worker_panic(&self) -> Result<(), ServeError> {
        let sender = match &*lock(&self.queue) {
            Some(tx) => tx.clone(),
            None => return Err(ServeError::Closed),
        };
        // The worker decrements the depth gauge for every dequeue, so
        // the crash job must increment it like any other.
        self.inner.metrics.enqueued();
        match sender.send(Job::CrashWorker) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.inner.metrics.dequeued();
                Err(ServeError::Closed)
            }
        }
    }

    /// Live worker threads (respawns keep this at the configured size).
    pub fn worker_count(&self) -> usize {
        lock(&self.inner.worker_handles)
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// Stop accepting work and join the workers. Already-queued jobs are
    /// drained first; subsequent `search` calls return
    /// [`ServeError::Closed`]. Idempotent.
    pub fn shutdown(&self) {
        drop(lock(&self.queue).take());
        // Workers may still respawn replacements while dying (the
        // replacement sees the disconnected queue and exits); loop until
        // the registry stays empty.
        loop {
            let handle = lock(&self.inner.worker_handles).pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => return,
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answer a request in degraded mode: a cached page of any generation,
/// marked stale, or the typed [`ServeError::Degraded`].
fn degraded_response(
    inner: &Inner,
    key: &str,
    query: &str,
    submitted: Instant,
) -> Result<ServeResponse, ServeError> {
    inner.metrics.record_degraded();
    match inner
        .cache
        .get_stale(key)
        .and_then(|(v, g)| v.into_page().map(|p| (p, g)))
    {
        Some((page, generation)) => {
            inner.metrics.record_stale_served();
            let latency = submitted.elapsed();
            inner.metrics.record_completed(latency);
            Ok(ServeResponse {
                page: echoing(page, query),
                cached: true,
                stale: true,
                generation,
                latency,
            })
        }
        None => Err(ServeError::Degraded),
    }
}

/// A cached page as the answer to a request for `query`. The cache keys a
/// search by its stems, so requests that spell a query differently
/// ("immunity", "immunization") share a page — every byte of it but the
/// `query` it echoes, which is the text of whichever request filled the
/// entry until it is stamped with this request's own.
fn echoing(mut page: SearchPage, query: &str) -> SearchPage {
    if page.query != query {
        page.query = query.to_string();
    }
    page
}

/// Run one search job with panic isolation: a panicking query is caught,
/// counted, fed to the engine's breaker, and answered degraded — the
/// worker thread (and every other queued request) survives.
fn run_isolated(inner: &Inner, job: SearchJob) {
    let outcome = catch_unwind(AssertUnwindSafe(|| run_job(inner, &job)));
    if outcome.is_err() {
        inner.metrics.record_panic();
        inner.record_engine_failure(job.engine);
        let (_, query) = cache_key_and_query(&job.mode, job.page);
        let _ = job
            .reply
            .try_send(degraded_response(inner, &job.key, &query, job.submitted));
    }
}

fn run_job(inner: &Inner, job: &SearchJob) {
    if Instant::now() >= job.deadline {
        // Expired while queued: don't waste a search on it.
        inner.metrics.record_deadline_exceeded();
        let _ = job.reply.try_send(Err(ServeError::DeadlineExceeded));
        return;
    }
    // Chaos schedule: deterministic panics/delays keyed by job sequence.
    let seq = inner.job_seq.fetch_add(1, Ordering::Relaxed);
    if let Some(faults) = read_lock(&inner.faults).clone() {
        if faults.delay_every > 0 && seq % faults.delay_every == faults.delay_every - 1 {
            std::thread::sleep(faults.delay);
        }
        if faults.panic_every > 0 && seq % faults.panic_every == faults.panic_every - 1 {
            panic!("injected query panic (seq {seq})");
        }
    }
    let (page, generation) = {
        let system = read_lock(&inner.system);
        // Generation read under the same read lock the search runs
        // under: the pair is consistent even against concurrent ingests.
        (system.search(&job.mode, job.page), system.generation())
    };
    inner.breaker(job.engine).record_success(&inner.breaker_cfg);
    inner.cache.insert(job.key.clone(), generation, page.clone());
    let latency = job.submitted.elapsed();
    inner.metrics.record_completed(latency);
    let _ = job.reply.try_send(Ok(ServeResponse {
        page,
        cached: false,
        stale: false,
        generation,
        latency,
    }));
}

/// Run one KG job with the same panic isolation as search jobs. A
/// panicking traversal feeds the `kg` breaker and answers with the
/// typed [`ServeError::Degraded`] — never a stale body (freshness over
/// availability for the KG traffic class).
fn run_kg_isolated(inner: &Inner, job: KgJob) {
    let reply = job.reply.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_kg_job(inner, job)));
    if outcome.is_err() {
        inner.metrics.record_panic();
        inner.record_engine_failure(EngineKind::Kg);
        inner.metrics.record_degraded();
        let _ = reply.try_send(Err(ServeError::Degraded));
    }
}

fn run_kg_job(inner: &Inner, job: KgJob) {
    if Instant::now() >= job.deadline {
        inner.metrics.record_deadline_exceeded();
        let _ = job.reply.try_send(Err(ServeError::DeadlineExceeded));
        return;
    }
    // KG jobs share the chaos fault schedule: they run on the same
    // workers, so they must survive the same injected failures.
    let seq = inner.job_seq.fetch_add(1, Ordering::Relaxed);
    if let Some(faults) = read_lock(&inner.faults).clone() {
        if faults.delay_every > 0 && seq % faults.delay_every == faults.delay_every - 1 {
            std::thread::sleep(faults.delay);
        }
        if faults.panic_every > 0 && seq % faults.panic_every == faults.panic_every - 1 {
            panic!("injected kg panic (seq {seq})");
        }
    }
    let (body, generation) = {
        let system = read_lock(&inner.system);
        let body = match &job.op {
            KgOp::Query(plan) => {
                let result = system.kg_query(plan);
                inner
                    .metrics
                    .record_kg_traversal(result.hops, result.visited);
                Some(result.to_json().to_json())
            }
            KgOp::QueryTrusted(plan) => Some(system.kg_query_trusted(plan).to_json()),
            KgOp::Profile(vaccine) => system.kg_profile(vaccine).map(|doc| doc.to_json()),
        };
        (body, system.generation())
    };
    inner
        .breaker(EngineKind::Kg)
        .record_success(&inner.breaker_cfg);
    let latency = job.submitted.elapsed();
    inner.metrics.record_completed(latency);
    let response = body.map(|body| {
        inner.cache.insert(job.key, generation, body.clone());
        KgResponse {
            body,
            cached: false,
            generation,
            latency,
        }
    });
    let _ = job.reply.try_send(Ok(response));
}

/// Run one trust job with the same panic isolation as KG jobs: a panic
/// feeds the `trust` breaker and answers with the typed
/// [`ServeError::Degraded`] — never a stale body.
fn run_trust_isolated(inner: &Inner, job: TrustJob) {
    let reply = job.reply.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_trust_job(inner, job)));
    if outcome.is_err() {
        inner.metrics.record_panic();
        inner.record_engine_failure(EngineKind::Trust);
        inner.metrics.record_degraded();
        let _ = reply.try_send(Err(ServeError::Degraded));
    }
}

fn run_trust_job(inner: &Inner, job: TrustJob) {
    if Instant::now() >= job.deadline {
        inner.metrics.record_deadline_exceeded();
        let _ = job.reply.try_send(Err(ServeError::DeadlineExceeded));
        return;
    }
    // Trust jobs share the chaos fault schedule with every other class
    // on these workers.
    let seq = inner.job_seq.fetch_add(1, Ordering::Relaxed);
    if let Some(faults) = read_lock(&inner.faults).clone() {
        if faults.delay_every > 0 && seq % faults.delay_every == faults.delay_every - 1 {
            std::thread::sleep(faults.delay);
        }
        if faults.panic_every > 0 && seq % faults.panic_every == faults.panic_every - 1 {
            panic!("injected trust panic (seq {seq})");
        }
    }
    let (body, generation) = {
        let system = read_lock(&inner.system);
        let body = match &job.op {
            TrustOp::Node(id) => system.trust_node(*id).map(|doc| doc.to_json()),
            TrustOp::Source(venue) => system.trust_source(venue).map(|doc| doc.to_json()),
            TrustOp::Bias => Some(system.bias_document().to_json()),
        };
        (body, system.generation())
    };
    inner
        .breaker(EngineKind::Trust)
        .record_success(&inner.breaker_cfg);
    let latency = job.submitted.elapsed();
    inner.metrics.record_completed(latency);
    let response = body.map(|body| {
        inner.cache.insert(job.key, generation, body.clone());
        KgResponse {
            body,
            cached: false,
            generation,
            latency,
        }
    });
    let _ = job.reply.try_send(Ok(response));
}

fn engine_kind(mode: &SearchMode) -> EngineKind {
    match mode {
        SearchMode::AllFields(_) => EngineKind::AllFields,
        SearchMode::Tables(_) => EngineKind::Tables,
        SearchMode::TitleAbstractCaption { .. } => EngineKind::Scoped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerSettings {
        BreakerSettings {
            window: Duration::from_secs(1),
            error_rate: 0.5,
            min_samples: 4,
            cooldown: Duration::from_millis(100),
        }
    }

    /// All transitions are driven through the `_at` variants with an
    /// explicit clock so the tests are deterministic.
    #[test]
    fn bursty_errors_open_the_breaker_once() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        // Three failures in a burst: below the sample floor, still closed.
        for i in 0..3u64 {
            let newly = b.record_failure_at(t0 + Duration::from_millis(i), &cfg);
            assert!(!newly, "failure {i} must not open below min_samples");
            assert!(b.allow_at(t0 + Duration::from_millis(i), &cfg));
        }
        // Fourth failure meets the floor at 100% error rate: opens.
        assert!(b.record_failure_at(t0 + Duration::from_millis(3), &cfg));
        assert!(!b.allow_at(t0 + Duration::from_millis(4), &cfg), "open blocks");
        // Further failures while open are not "newly opened".
        assert!(!b.record_failure_at(t0 + Duration::from_millis(5), &cfg));
    }

    #[test]
    fn steady_errors_below_the_rate_never_open() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        // Alternate ok/err well past the sample floor: rate stays at
        // ~1/2 of outcomes but never *exceeds* it with the successes
        // interleaved first — use 1 err per 3 ok so the rate is 0.25.
        for i in 0..40u64 {
            let now = t0 + Duration::from_millis(i * 10);
            if i % 4 == 0 {
                assert!(!b.record_failure_at(now, &cfg), "steady trickle at 25%");
            } else {
                b.record_success_at(now, &cfg);
            }
            assert!(b.allow_at(now, &cfg), "breaker must stay closed");
        }
    }

    #[test]
    fn error_rate_is_windowed_old_failures_age_out() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        // Three failures now; then, after the window has slid past
        // them, a fourth failure meets the floor only if the old ones
        // still counted — they don't, so it stays closed.
        for i in 0..3u64 {
            b.record_failure_at(t0 + Duration::from_millis(i), &cfg);
        }
        let later = t0 + Duration::from_secs(2);
        assert!(
            !b.record_failure_at(later, &cfg),
            "aged-out failures must not contribute to the rate"
        );
        assert!(b.allow_at(later, &cfg));
    }

    #[test]
    fn half_open_probe_success_closes_and_clears() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        for i in 0..4u64 {
            b.record_failure_at(t0 + Duration::from_millis(i), &cfg);
        }
        assert!(!b.allow_at(t0 + Duration::from_millis(10), &cfg), "open");
        // Cooldown elapses: exactly the next allow becomes the probe.
        let probe_at = t0 + Duration::from_millis(110);
        assert!(b.allow_at(probe_at, &cfg), "half-open lets the probe through");
        b.record_success_at(probe_at, &cfg);
        // Fully closed, and the window was cleared: a single follow-up
        // failure is below the sample floor again.
        assert!(b.allow_at(probe_at + Duration::from_millis(1), &cfg));
        assert!(!b.record_failure_at(probe_at + Duration::from_millis(2), &cfg));
        assert!(b.allow_at(probe_at + Duration::from_millis(3), &cfg));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        for i in 0..4u64 {
            b.record_failure_at(t0 + Duration::from_millis(i), &cfg);
        }
        let probe_at = t0 + Duration::from_millis(110);
        assert!(b.allow_at(probe_at, &cfg));
        assert!(
            b.record_failure_at(probe_at, &cfg),
            "failed probe re-opens (and counts as an open)"
        );
        assert!(!b.allow_at(probe_at + Duration::from_millis(10), &cfg), "open again");
        // And the *second* cooldown ends with another probe chance.
        assert!(b.allow_at(probe_at + Duration::from_millis(210), &cfg));
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        for i in 0..4u64 {
            b.record_failure_at(t0 + Duration::from_millis(i), &cfg);
        }
        let probe_at = t0 + Duration::from_millis(110);
        assert!(b.allow_at(probe_at, &cfg), "first caller becomes the probe");
        // While the probe is in flight every other request keeps
        // short-circuiting — the engine gets one probe, not a burst.
        assert!(!b.allow_at(probe_at, &cfg), "concurrent caller blocked");
        assert!(!b.allow_at(probe_at + Duration::from_millis(50), &cfg));
        // Only the probe's own outcome closes the breaker.
        b.record_success_at(probe_at + Duration::from_millis(60), &cfg);
        assert!(b.allow_at(probe_at + Duration::from_millis(61), &cfg));
    }

    #[test]
    fn lost_probe_expires_and_frees_the_slot() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        for i in 0..4u64 {
            b.record_failure_at(t0 + Duration::from_millis(i), &cfg);
        }
        let probe_at = t0 + Duration::from_millis(110);
        assert!(b.allow_at(probe_at, &cfg));
        // The probe's outcome is never recorded (e.g. its job was
        // dropped on a queue deadline). The breaker must not wedge:
        // after one cooldown the slot is released to a fresh probe.
        assert!(!b.allow_at(probe_at + Duration::from_millis(50), &cfg));
        assert!(
            b.allow_at(probe_at + Duration::from_millis(210), &cfg),
            "expired probe releases the slot"
        );
        // And again: exactly one at a time.
        assert!(!b.allow_at(probe_at + Duration::from_millis(211), &cfg));
    }
}
