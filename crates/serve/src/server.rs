//! The serving frontend: one worker pool draining one bounded job queue,
//! and the one request path, fronted by the generation-keyed result
//! cache.
//!
//! The queue ([`Server::submit`]) is where admission happens. The wire
//! front end answers a cache hit itself, through [`Server::probe`], and
//! hands the queue the rest as jobs; a full queue rejects at once with
//! [`ServeError::Overloaded`] (the caller gets a typed backpressure
//! signal instead of unbounded queueing), and a job dequeued after
//! `default_deadline` is handed [`ServeError::DeadlineExceeded`] instead
//! of running. A hit never meets either. The worker that dequeues a job
//! runs it to the end — a miss included — so a miss crosses one queue
//! and is held by one thread.
//!
//! Every traffic class takes the same path — [`Server::request`] on the
//! calling thread, or its two halves on two threads (the wire front end
//! probes on its reactor and computes a miss on a worker) — and differs
//! only in its row of the op table ([`crate::op`]):
//!
//! 1. [`Server::probe`] computes the op's canonical cache key and probes
//!    the cache — a hit (entry generation == current generation) is
//!    counted against its class and returned at once. A miss counts
//!    nothing yet: it comes back as a [`Miss`] carrying the key, so
//!    nothing is keyed twice.
//! 2. [`Server::compute_miss`] probes once more under that key (a
//!    duplicate computed meanwhile is a hit), then counts the miss and
//!    consults its class's circuit breaker: an open breaker
//!    short-circuits to the degradation ladder below.
//! 3. Otherwise the op runs under `catch_unwind` and the fault schedule,
//!    under the system read lock, capturing the data generation *under
//!    that same lock*; the outcome is fed to the breaker, and the value
//!    is cached tagged with that generation and returned. An op that
//!    resolves to nothing (unknown id) is not cached but completes like
//!    any other.
//!
//! # Panic isolation and the degradation ladder
//!
//! A panicking query must cost exactly one request, never the server:
//!
//! * every miss runs under `catch_unwind`, so a panic mid-compute
//!   is caught, counted, fed to the class's circuit breaker, and the
//!   caller still gets a reply (stale page or typed error) — the thread
//!   survives;
//! * a panic that escapes a job (e.g. an injected worker crash) trips a
//!   sentinel that **respawns a replacement worker**, so the pool never
//!   shrinks;
//! * every lock acquisition recovers from poisoning instead of
//!   `unwrap`ing, so stats, shutdown and later requests keep working
//!   after any panic anywhere;
//! * per-class **adaptive** circuit breakers track outcomes over a
//!   sliding `breaker_window` and open once the error rate reaches
//!   `breaker_error_rate` with at least `breaker_min_samples` outcomes
//!   resident, short-circuiting requests for `breaker_cooldown`, after
//!   which one probe request is let through (half-open). While open,
//!   requests are answered **degraded**: a may-serve-stale op gets a
//!   cached page of *any* generation marked [`ServeResponse::stale`];
//!   a never-stale op, or one with nothing cached, gets the typed
//!   [`ServeError::Degraded`] — never a hang, never a panic.
//!
//! Stale-freedom argument (healthy path): [`Server::ingest`] commits the
//! in-memory graph mutation under the write lock and stores the new
//! generation into the atomic mirror *before* releasing it. A value was
//! computed under a read lock at generation `g` and cached tagged `g`;
//! any later lookup compares that tag against the mirror, which an
//! intervening ingest has already advanced — so the stale value can
//! never be returned silently. The store/classify prepare phase runs
//! under a *read* lock (reads keep flowing during the expensive part of
//! an ingest); pages computed while it runs may observe some of the new
//! documents early, but they are tagged `g` and the commit's generation
//! bump invalidates them wholesale. Degraded mode is the deliberate
//! exception: it may serve an old-generation page, but always labeled
//! `stale: true`.

use crate::cache::{Entry, QueryCache};
use crate::metrics::{Class, Metrics, ServeStats};
use crate::op::{Miss, Op, Reply, Staleness};
use covidkg_core::{CovidKg, QueryPlan};
use covidkg_corpus::Publication;
use covidkg_search::{DenseMode, SearchMode, SearchPage};
use covidkg_store::StoreError;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
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

/// Shards (locks) the result cache's capacity is spread over.
const CACHE_SHARDS: usize = 8;

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the job queue: the wire front end's only
    /// pool. With 0 no job ever runs (for deterministic overload tests).
    pub workers: usize,
    /// Jobs that may wait in the queue; one more is rejected with
    /// `Overloaded`.
    pub queue_capacity: usize,
    /// Total cached result pages.
    pub cache_capacity: usize,
    /// Cached pages older than this never hit (None = no TTL).
    pub cache_ttl: Option<Duration>,
    /// Approximate total-bytes budget for cached pages (None = none).
    pub cache_max_bytes: Option<usize>,
    /// A job still queued this long after it was submitted is handed
    /// `DeadlineExceeded` instead of running.
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
    /// The job waited in the queue past `default_deadline`.
    DeadlineExceeded,
    /// The target engine is unhealthy (circuit breaker open or the
    /// compute panicked on this request) and no cached page — not even
    /// a stale one — could stand in.
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
    /// The result page, shared with the cache entry it came from — or,
    /// when that entry was computed for another spelling of the query,
    /// a copy echoing this request's own.
    pub page: Arc<SearchPage>,
    /// Whether the page came from the cache.
    pub cached: bool,
    /// Degraded-mode answer: the page may predate the current data
    /// generation (served from cache while the engine is unhealthy).
    pub stale: bool,
    /// Data generation the page was computed at.
    pub generation: u64,
    /// Time inside `Server::request`: the probe, and for a miss the
    /// compute (a wire miss's wait in the queue between the two is not
    /// counted).
    pub latency: Duration,
}

impl From<Reply> for ServeResponse {
    fn from(reply: Reply) -> ServeResponse {
        let page = reply.entry.page().expect("search ops cache pages");
        let page = match reply.query {
            None => Arc::clone(page),
            Some(query) => Arc::new(SearchPage {
                query,
                ..SearchPage::clone(page)
            }),
        };
        ServeResponse {
            page,
            cached: reply.cached,
            stale: reply.stale,
            generation: reply.generation,
            latency: reply.latency,
        }
    }
}

/// A served KG or trust response: the pre-serialized JSON body (the
/// canonical wire form — `GET /kg/query`, `GET /trust/node/{id}` and the
/// rest send these bytes verbatim, so wire output is byte-identical to
/// in-process serialization).
///
/// Unlike search traffic there is deliberately no `stale` flag: these
/// documents are epoch-stamped and must never be served from an older
/// generation, so degraded mode fails typed instead of serving stale.
#[derive(Debug, Clone)]
pub struct KgResponse {
    /// Serialized JSON body (`body.as_str()`, `body.as_bytes()`), shared
    /// with the cache entry.
    pub body: Arc<Entry>,
    /// Whether the body came from the cache.
    pub cached: bool,
    /// Data generation the body was computed at.
    pub generation: u64,
    /// Time inside `Server::request`: the probe, and for a miss the
    /// compute (a wire miss's wait in the queue between the two is not
    /// counted).
    pub latency: Duration,
}

impl From<Reply> for KgResponse {
    fn from(reply: Reply) -> KgResponse {
        KgResponse {
            body: reply.entry,
            cached: reply.cached,
            generation: reply.generation,
            latency: reply.latency,
        }
    }
}

/// Deterministic fault schedule for chaos runs: every `panic_every`-th
/// miss panics mid-compute, every `delay_every`-th sleeps for `delay`
/// first (0 disables either). Misses of every class are numbered by one
/// global sequence, so a fixed schedule yields a fixed fault pattern.
#[derive(Debug, Clone, Default)]
pub struct InjectedFaults {
    /// Panic on misses where `seq % panic_every == panic_every - 1`.
    pub panic_every: u64,
    /// Delay misses where `seq % delay_every == delay_every - 1`.
    pub delay_every: u64,
    /// Length of the injected delay.
    pub delay: Duration,
}

/// A unit of work for the pool: run with `Ok(())`, or handed the
/// `DeadlineExceeded` it earned by waiting too long to be dequeued.
type Job = Box<dyn FnOnce(Result<(), ServeError>) + Send>;

/// The one queue: jobs with the instant they were submitted.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<(Instant, Job)>,
    /// Set by shutdown: no job is admitted, and workers exit once the
    /// jobs already queued have run.
    closed: bool,
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
    /// is never recorded expires after one cooldown, releasing the slot
    /// for a new probe.
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
    fn allow(&self, now: Instant, cfg: &ServeConfig) -> bool {
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
            Some(started) if now.duration_since(started) < cfg.breaker_cooldown => false,
            _ => {
                state.probe_started = Some(now);
                true
            }
        }
    }

    /// Record a failed request; returns true when this failure newly
    /// opened (or re-opened, for a failed probe) the breaker.
    fn record_failure(&self, now: Instant, cfg: &ServeConfig) -> bool {
        let mut state = lock(&self.state);
        state.outcomes.push_back((now, true));
        prune(&mut state.outcomes, now, cfg.breaker_window);
        if state.probe_started.take().is_some() {
            // The half-open probe failed: straight back to open.
            state.open_until = Some(now + cfg.breaker_cooldown);
            return true;
        }
        let samples = state.outcomes.len();
        let errors = state.outcomes.iter().filter(|(_, failed)| *failed).count();
        if samples >= cfg.breaker_min_samples.max(1) as usize
            && errors as f64 >= cfg.breaker_error_rate.clamp(0.0, 1.0) * samples as f64
        {
            let newly = state.open_until.is_none();
            state.open_until = Some(now + cfg.breaker_cooldown);
            newly
        } else {
            false
        }
    }

    fn record_success(&self, now: Instant, cfg: &ServeConfig) {
        let mut state = lock(&self.state);
        if state.probe_started.take().is_some() {
            // Probe succeeded: the engine recovered; past outcomes no
            // longer describe it.
            state.outcomes.clear();
            state.open_until = None;
        }
        state.outcomes.push_back((now, false));
        prune(&mut state.outcomes, now, cfg.breaker_window);
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
    /// One circuit breaker per class.
    breakers: [Breaker; Class::ALL.len()],
    /// What the server was started with: pool size, queue bound,
    /// deadline, breaker tuning.
    config: ServeConfig,
    /// Fault schedule (chaos testing); None in production.
    faults: RwLock<Option<InjectedFaults>>,
    /// Global miss sequence (every class) driving the fault schedule.
    fault_seq: AtomicU64,
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or the queue closes.
    ready: Condvar,
    /// Live worker handles; the respawn sentinel pushes replacements
    /// here so shutdown can join every worker that ever ran.
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Worker threads spawned and not yet out of their loop.
    live: AtomicUsize,
    /// Injected crashes queued or unwinding: workers about to be
    /// replaced, so not counted by [`Server::worker_count`].
    crashes: AtomicUsize,
}

impl Inner {
    /// Block until a job is queued and take it, or `None` once the
    /// queue is closed and drained.
    fn next_job(&self) -> Option<(Instant, Job)> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                self.metrics.record_queue_depth(queue.jobs.len());
                return Some(job);
            }
            if queue.closed {
                return None;
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// The entry cached under `key` at the current generation, counted as
    /// a hit of `class` and answered: what a hit counts wherever it is
    /// found.
    fn hit(&self, class: Class, key: &str, echo: Option<&str>, started: Instant) -> Option<Reply> {
        let generation = self.generation.load(Ordering::Acquire);
        let entry = self.cache.get(key, generation)?;
        self.metrics.record_request(class);
        self.metrics.record_hit();
        Some(self.complete(entry, echo, true, false, generation, started))
    }

    /// Record a completed request and wrap the entry as its reply —
    /// the one place fresh, cached and stale replies are made: a page
    /// computed for another spelling is answered echoing `echo`, this
    /// request's own.
    fn complete(
        &self,
        entry: Arc<Entry>,
        echo: Option<&str>,
        cached: bool,
        stale: bool,
        generation: u64,
        started: Instant,
    ) -> Reply {
        let latency = started.elapsed();
        self.metrics.record_completed(latency);
        let computed_for = entry.page().map(|page| page.query.as_str());
        Reply {
            query: echo
                .filter(|q| Some(*q) != computed_for)
                .map(str::to_string),
            entry,
            cached,
            stale,
            generation,
            latency,
        }
    }

    /// Compute a miss of `op` behind its class's breaker, and cache the
    /// value under `key`. An open breaker, or a panic mid-compute
    /// (caught, counted and fed to the breaker), answers degraded.
    /// `None` (unknown node id, vaccine or venue) is not cached, but it
    /// is an answer: the request completed.
    fn compute(
        &self,
        op: &Op<'_>,
        key: String,
        echo: Option<&str>,
        started: Instant,
    ) -> Result<Option<Reply>, ServeError> {
        let class = op.class();
        let breaker = &self.breakers[class.index()];
        // Unhealthy class: don't spend the engines on it.
        if !breaker.allow(Instant::now(), &self.config) {
            return self.degraded(&key, op.staleness(), echo, started);
        }
        let computed = catch_unwind(AssertUnwindSafe(|| {
            // Chaos schedule: deterministic panics/delays keyed by sequence.
            let seq = self.fault_seq.fetch_add(1, Ordering::Relaxed);
            if let Some(faults) = read_lock(&self.faults).clone() {
                if faults.delay_every > 0 && seq % faults.delay_every == faults.delay_every - 1 {
                    std::thread::sleep(faults.delay);
                }
                if faults.panic_every > 0 && seq % faults.panic_every == faults.panic_every - 1 {
                    panic!("injected {} panic (seq {seq})", class.label());
                }
            }
            let system = read_lock(&self.system);
            // Generation read under the same read lock the op runs
            // under: the pair is consistent even against concurrent
            // ingest commits.
            (op.compute(&system, &self.metrics), system.generation())
        }));
        let Ok((entry, generation)) = computed else {
            self.metrics.record_panic();
            if breaker.record_failure(Instant::now(), &self.config) {
                self.metrics.record_breaker_open();
            }
            return self.degraded(&key, op.staleness(), echo, started);
        };
        breaker.record_success(Instant::now(), &self.config);
        let Some(entry) = entry else {
            self.metrics.record_completed(started.elapsed());
            return Ok(None);
        };
        self.cache.insert(key, generation, Arc::clone(&entry));
        Ok(Some(
            self.complete(entry, echo, false, false, generation, started),
        ))
    }

    /// Answer a request whose class is unhealthy: for a may-serve-stale
    /// op a cached page of any generation, marked stale; otherwise the
    /// typed [`ServeError::Degraded`].
    fn degraded(
        &self,
        key: &str,
        staleness: Staleness,
        echo: Option<&str>,
        started: Instant,
    ) -> Result<Option<Reply>, ServeError> {
        self.metrics.record_degraded();
        if staleness == Staleness::NeverStale {
            return Err(ServeError::Degraded);
        }
        let (entry, generation) = self.cache.get_stale(key).ok_or(ServeError::Degraded)?;
        self.metrics.record_stale_served();
        Ok(Some(
            self.complete(entry, echo, true, true, generation, started),
        ))
    }
}

/// Respawns a replacement worker when its thread dies to a panic that
/// escaped a job (armed only while unwinding).
struct RespawnSentinel(Arc<Inner>);

impl Drop for RespawnSentinel {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::AcqRel);
        if std::thread::panicking() {
            self.0.metrics.record_panic();
            self.0.metrics.record_respawn();
            spawn_worker(Arc::clone(&self.0));
            let _ = self
                .0
                .crashes
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1));
        }
    }
}

fn spawn_worker(inner: Arc<Inner>) {
    let registry = Arc::clone(&inner);
    inner.live.fetch_add(1, Ordering::AcqRel);
    let handle = std::thread::Builder::new()
        .name("covidkg-serve-worker".into())
        .spawn(move || {
            let sentinel = RespawnSentinel(inner);
            let inner = &*sentinel.0;
            while let Some((submitted, job)) = inner.next_job() {
                let admitted = if submitted.elapsed() >= inner.config.default_deadline {
                    // Expired while queued: don't waste the engines on it.
                    inner.metrics.record_deadline_exceeded();
                    Err(ServeError::DeadlineExceeded)
                } else {
                    Ok(())
                };
                job(admitted);
            }
        })
        .expect("spawn serve worker");
    lock(&registry.worker_handles).push(handle);
}

/// Concurrent query-serving frontend over one [`CovidKg`] system.
pub struct Server {
    inner: Arc<Inner>,
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
                CACHE_SHARDS,
                config.cache_ttl,
                config.cache_max_bytes,
            ),
            metrics: Metrics::default(),
            breakers: Default::default(),
            faults: RwLock::new(None),
            fault_seq: AtomicU64::new(0),
            queue: Mutex::new(Queue::default()),
            ready: Condvar::new(),
            worker_handles: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            crashes: AtomicUsize::new(0),
            config,
        });
        for _ in 0..inner.config.workers {
            spawn_worker(Arc::clone(&inner));
        }
        Server { inner }
    }

    /// Queue `job` for the pool: [`ServeError::Overloaded`] at once when
    /// `queue_capacity` jobs are already waiting, [`ServeError::Closed`]
    /// after shutdown. The worker that dequeues it calls it with `Ok(())`,
    /// or with `Err(DeadlineExceeded)` when it waited `default_deadline`
    /// or longer.
    pub fn submit(
        &self,
        job: impl FnOnce(Result<(), ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        let inner = &*self.inner;
        let mut queue = lock(&inner.queue);
        if queue.closed {
            return Err(ServeError::Closed);
        }
        if queue.jobs.len() >= inner.config.queue_capacity.max(1) {
            drop(queue);
            inner.metrics.record_overloaded();
            return Err(ServeError::Overloaded);
        }
        queue.jobs.push_back((Instant::now(), Box::new(job)));
        inner.metrics.record_queue_depth(queue.jobs.len());
        drop(queue);
        inner.ready.notify_one();
        Ok(())
    }

    /// The one request path, run on the calling thread: [`Server::probe`]
    /// the cache, then [`Server::compute_miss`] what it did not hold.
    /// `Ok(None)` = the op resolved to nothing (unknown node id, vaccine or
    /// venue; the wire layer's 404).
    pub fn request(&self, op: &Op<'_>) -> Result<Option<Reply>, ServeError> {
        match self.probe(op) {
            Ok(hit) => Ok(Some(hit)),
            Err(miss) => self.compute_miss(op, miss),
        }
    }

    /// The first half of [`Server::request`]: key `op` and look it up. A
    /// hit is counted (request, hit, completion) and answered. A miss
    /// counts nothing and comes back as the ticket
    /// [`Server::compute_miss`] takes, on this thread or carried with the
    /// op to another. Takes no lock but a cache shard's, so it never waits
    /// on an engine or an ingest.
    pub fn probe(&self, op: &Op<'_>) -> Result<Reply, Miss> {
        let started = Instant::now();
        let (key, echo) = op.key_and_echo();
        match self.inner.hit(op.class(), &key, echo.as_deref(), started) {
            Some(reply) => Ok(reply),
            None => Err(Miss {
                key,
                echo: echo.map(Cow::into_owned),
                probed: started.elapsed(),
            }),
        }
    }

    /// The second half of [`Server::request`]: answer `op`, whose `miss`
    /// [`Server::probe`] handed back. A duplicate computed while this one
    /// waited is the hit it now is; otherwise the miss is counted and
    /// computed behind the class's breaker.
    pub fn compute_miss(&self, op: &Op<'_>, miss: Miss) -> Result<Option<Reply>, ServeError> {
        // The probe's time counts; a wait between the two halves does not.
        let started = Instant::now()
            .checked_sub(miss.probed)
            .unwrap_or_else(Instant::now);
        let Miss { key, echo, .. } = miss;
        let echo = echo.as_deref();
        let inner = &*self.inner;
        let class = op.class();
        if let Some(hit) = inner.hit(class, &key, echo, started) {
            return Ok(Some(hit));
        }
        inner.metrics.record_request(class);
        inner.metrics.record_miss();
        if lock(&inner.queue).closed {
            return Err(ServeError::Closed);
        }
        inner.compute(op, key, echo, started)
    }

    /// [`Server::request`] for an op that always resolves to a value.
    fn always<R: From<Reply>>(&self, op: Op<'_>) -> Result<R, ServeError> {
        let reply = self.request(&op)?;
        Ok(reply
            .expect("searches, traversals and the bias report always yield a value")
            .into())
    }

    /// [`Server::request`] for an op that may resolve to nothing.
    fn lookup(&self, op: Op<'_>) -> Result<Option<KgResponse>, ServeError> {
        Ok(self.request(&op)?.map(KgResponse::from))
    }

    /// Serve a lexical search behind its engine's breaker.
    pub fn search(&self, mode: &SearchMode, page: usize) -> Result<ServeResponse, ServeError> {
        self.always(Op::Search(Cow::Borrowed(mode), page, false))
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

    /// Uncached, unguarded search straight against the system — the
    /// ground truth the load generator verifies served responses with.
    pub fn search_direct(&self, mode: &SearchMode, page: usize) -> SearchPage {
        read_lock(&self.inner.system).search(mode, page)
    }

    /// Serve a dense (semantic or hybrid) search behind its mode's
    /// breaker. Never served stale: degraded mode fails typed.
    pub fn search_dense(&self, mode: &DenseMode, page: usize) -> Result<ServeResponse, ServeError> {
        self.always(Op::Dense(Cow::Borrowed(mode), page, false))
    }

    /// Serve a KG traversal behind the `kg` breaker, never served stale:
    /// an open breaker or a panicked compute yields the typed
    /// [`ServeError::Degraded`] instead of an old-generation body.
    pub fn kg_query(&self, plan: &QueryPlan) -> Result<KgResponse, ServeError> {
        self.always(Op::KgQuery(Cow::Borrowed(plan), false))
    }

    /// Serve a KG traversal re-ranked by provenance trust (the
    /// `trust=1` knob on `/kg/query`). Cached under a distinct key so
    /// the default (untrusted) ranking is never cross-contaminated.
    pub fn kg_query_trusted(&self, plan: &QueryPlan) -> Result<KgResponse, ServeError> {
        self.always(Op::KgQuery(Cow::Borrowed(plan), true))
    }

    /// Serve one vaccine's materialized meta-profile document.
    /// `Ok(None)` = unknown vaccine (the wire layer's 404).
    pub fn kg_profile(&self, vaccine: &str) -> Result<Option<KgResponse>, ServeError> {
        self.lookup(Op::KgProfile(Cow::Borrowed(vaccine)))
    }

    /// Serve one KG node document behind the `kg` breaker.
    /// `Ok(None)` = out-of-range id.
    pub fn kg_node(&self, id: usize) -> Result<Option<KgResponse>, ServeError> {
        self.lookup(Op::KgNode(id))
    }

    /// Serve one KG node's trust document. `Ok(None)` = out-of-range id
    /// (the wire layer's 404). Like KG bodies, trust documents are
    /// epoch-stamped and never served stale: degraded mode fails typed.
    pub fn trust_node(&self, id: usize) -> Result<Option<KgResponse>, ServeError> {
        self.lookup(Op::TrustNode(id))
    }

    /// Serve one source venue's credibility document.
    /// `Ok(None)` = unknown venue.
    pub fn trust_source(&self, venue: &str) -> Result<Option<KgResponse>, ServeError> {
        self.lookup(Op::TrustSource(Cow::Borrowed(venue)))
    }

    /// Serve the trust-weighted bias interrogation report. The body is
    /// memoized inside the system keyed on (trust epoch, generation),
    /// and cache-fronted here like every other trust body.
    pub fn bias_report(&self) -> Result<KgResponse, ServeError> {
        self.always(Op::BiasReport)
    }

    /// Current data generation.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// Run `f` with shared read access to the underlying system — used
    /// by the network front-end for what the scheduler doesn't expose
    /// (system stats, the `/metrics` series, trust weights).
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

    /// Install (or clear) a deterministic fault schedule.
    pub fn set_injected_faults(&self, faults: Option<InjectedFaults>) {
        *write_lock(&self.inner.faults) = faults;
    }

    /// Chaos hook: queue a job that panics, killing the worker that runs
    /// it and exercising the respawn path. Fails like [`Server::submit`].
    /// Until the replacement is running, [`Server::worker_count`] counts
    /// the worker it will kill as gone.
    pub fn inject_worker_panic(&self) -> Result<(), ServeError> {
        let crashes = &self.inner.crashes;
        crashes.fetch_add(1, Ordering::AcqRel);
        let queued = self.submit(|_| panic!("injected worker crash"));
        if queued.is_err() {
            crashes.fetch_sub(1, Ordering::AcqRel);
        }
        queued
    }

    /// Live workers able to take a job (respawns keep this at the
    /// configured size): an injected crash not yet replaced counts as a
    /// worker gone, from the moment it is queued.
    pub fn worker_count(&self) -> usize {
        let live = self.inner.live.load(Ordering::Acquire);
        live.saturating_sub(self.inner.crashes.load(Ordering::Acquire))
    }

    /// Stop admitting jobs and join the workers. Already-queued jobs run
    /// first; subsequent requests that miss the cache return
    /// [`ServeError::Closed`]. Idempotent. A worker never joins itself:
    /// when a job drops the last handle to the server, the shutdown it
    /// runs leaves that worker to exit on its own once the queue drains.
    pub fn shutdown(&self) {
        lock(&self.inner.queue).closed = true;
        self.inner.ready.notify_all();
        // Workers may still respawn replacements while dying (the
        // replacement sees the closed queue and exits); loop until the
        // registry stays empty.
        let me = std::thread::current().id();
        loop {
            let handle = lock(&self.inner.worker_handles).pop();
            match handle {
                Some(h) if h.thread().id() == me => {}
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServeConfig {
        ServeConfig {
            breaker_window: Duration::from_secs(1),
            breaker_error_rate: 0.5,
            breaker_min_samples: 4,
            breaker_cooldown: Duration::from_millis(100),
            ..ServeConfig::default()
        }
    }

    /// All transitions are driven with an explicit clock so the tests
    /// are deterministic.
    #[test]
    fn bursty_errors_open_the_breaker_once() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        // Three failures in a burst: below the sample floor, still closed.
        for i in 0..3u64 {
            let newly = b.record_failure(t0 + Duration::from_millis(i), &cfg);
            assert!(!newly, "failure {i} must not open below min_samples");
            assert!(b.allow(t0 + Duration::from_millis(i), &cfg));
        }
        // Fourth failure meets the floor at 100% error rate: opens.
        assert!(b.record_failure(t0 + Duration::from_millis(3), &cfg));
        assert!(!b.allow(t0 + Duration::from_millis(4), &cfg), "open blocks");
        // Further failures while open are not "newly opened".
        assert!(!b.record_failure(t0 + Duration::from_millis(5), &cfg));
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
                assert!(!b.record_failure(now, &cfg), "steady trickle at 25%");
            } else {
                b.record_success(now, &cfg);
            }
            assert!(b.allow(now, &cfg), "breaker must stay closed");
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
            b.record_failure(t0 + Duration::from_millis(i), &cfg);
        }
        let later = t0 + Duration::from_secs(2);
        assert!(
            !b.record_failure(later, &cfg),
            "aged-out failures must not contribute to the rate"
        );
        assert!(b.allow(later, &cfg));
    }

    #[test]
    fn half_open_probe_success_closes_and_clears() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        for i in 0..4u64 {
            b.record_failure(t0 + Duration::from_millis(i), &cfg);
        }
        assert!(!b.allow(t0 + Duration::from_millis(10), &cfg), "open");
        // Cooldown elapses: exactly the next allow becomes the probe.
        let probe_at = t0 + Duration::from_millis(110);
        assert!(b.allow(probe_at, &cfg), "half-open lets the probe through");
        b.record_success(probe_at, &cfg);
        // Fully closed, and the window was cleared: a single follow-up
        // failure is below the sample floor again.
        assert!(b.allow(probe_at + Duration::from_millis(1), &cfg));
        assert!(!b.record_failure(probe_at + Duration::from_millis(2), &cfg));
        assert!(b.allow(probe_at + Duration::from_millis(3), &cfg));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        for i in 0..4u64 {
            b.record_failure(t0 + Duration::from_millis(i), &cfg);
        }
        let probe_at = t0 + Duration::from_millis(110);
        assert!(b.allow(probe_at, &cfg));
        assert!(
            b.record_failure(probe_at, &cfg),
            "failed probe re-opens (and counts as an open)"
        );
        assert!(
            !b.allow(probe_at + Duration::from_millis(10), &cfg),
            "open again"
        );
        // And the *second* cooldown ends with another probe chance.
        assert!(b.allow(probe_at + Duration::from_millis(210), &cfg));
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        for i in 0..4u64 {
            b.record_failure(t0 + Duration::from_millis(i), &cfg);
        }
        let probe_at = t0 + Duration::from_millis(110);
        assert!(b.allow(probe_at, &cfg), "first caller becomes the probe");
        // While the probe is in flight every other request keeps
        // short-circuiting — the engine gets one probe, not a burst.
        assert!(!b.allow(probe_at, &cfg), "concurrent caller blocked");
        assert!(!b.allow(probe_at + Duration::from_millis(50), &cfg));
        // Only the probe's own outcome closes the breaker.
        b.record_success(probe_at + Duration::from_millis(60), &cfg);
        assert!(b.allow(probe_at + Duration::from_millis(61), &cfg));
    }

    #[test]
    fn lost_probe_expires_and_frees_the_slot() {
        let b = Breaker::default();
        let cfg = cfg();
        let t0 = Instant::now();
        for i in 0..4u64 {
            b.record_failure(t0 + Duration::from_millis(i), &cfg);
        }
        let probe_at = t0 + Duration::from_millis(110);
        assert!(b.allow(probe_at, &cfg));
        // The probe's outcome is never recorded (e.g. its job was
        // dropped on a queue deadline). The breaker must not wedge:
        // after one cooldown the slot is released to a fresh probe.
        assert!(!b.allow(probe_at + Duration::from_millis(50), &cfg));
        assert!(
            b.allow(probe_at + Duration::from_millis(210), &cfg),
            "expired probe releases the slot"
        );
        // And again: exactly one at a time.
        assert!(!b.allow(probe_at + Duration::from_millis(211), &cfg));
    }
}
