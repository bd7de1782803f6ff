//! The serving frontend: a bounded request queue drained by a worker
//! thread pool, fronted by the generation-keyed result cache.
//!
//! Every traffic class takes the same path — [`Server::request`] — and
//! differs only in its row of the op table ([`crate::op`]):
//!
//! 1. The request is counted against its class, its canonical cache key
//!    computed, and the cache probed — a hit (entry generation == current
//!    generation) returns immediately without touching the queue.
//! 2. On a miss an *inline* op is computed right there under the shared
//!    system lock. A *queued* op consults its class's circuit breaker:
//!    an open breaker short-circuits to the degradation ladder below.
//!    Else the request is `try_send`-enqueued; a full queue rejects with
//!    [`ServeError::Overloaded`] (admission control: the caller gets a
//!    typed backpressure signal instead of unbounded queueing).
//! 3. A worker dequeues the job, drops it with `DeadlineExceeded` if the
//!    deadline already passed, else computes the op under the system read
//!    lock, capturing the data generation *under that same lock*, caches
//!    the value tagged with it, and replies. An op that resolves to
//!    nothing (unknown id) is not cached but completes like any other.
//! 4. The caller waits on its private reply channel at most until its
//!    deadline; a timeout reports [`ServeError::DeadlineExceeded`]
//!    (the worker's late reply lands in the buffered channel and is
//!    dropped with it).
//!
//! # Panic isolation and the degradation ladder
//!
//! A panicking query must cost exactly one request, never the server:
//!
//! * every job runs under `catch_unwind`, so a panic mid-compute is
//!   caught, counted, fed to the class's circuit breaker, and the
//!   waiting caller still gets a reply (stale page or typed error) —
//!   the worker thread survives;
//! * a panic that does escape the catch (e.g. an injected worker crash)
//!   trips a sentinel that **respawns a replacement worker**, so the
//!   pool never shrinks;
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
use crate::op::{Admission, Op, Reply, Staleness};
use covidkg_core::{CovidKg, QueryPlan};
use covidkg_corpus::Publication;
use covidkg_search::{DenseMode, SearchMode, SearchPage};
use covidkg_store::StoreError;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// End-to-end latency observed by the server.
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

/// A typed page on its way to the wire without a cache entry of this
/// server's behind it (a replica's answer): serialized here, once.
impl From<ServeResponse> for Reply {
    fn from(resp: ServeResponse) -> Reply {
        Reply {
            entry: Arc::new(Entry::from(resp.page)),
            query: None,
            cached: resp.cached,
            stale: resp.stale,
            generation: resp.generation,
            latency: resp.latency,
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
    /// End-to-end latency observed by the server.
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

/// Deterministic worker-side fault schedule for chaos runs: every
/// `panic_every`-th job panics mid-compute, every `delay_every`-th
/// sleeps for `delay` first (0 disables either). Jobs of every class are
/// numbered by one global sequence, so a fixed schedule yields a fixed
/// fault pattern.
#[derive(Debug, Clone, Default)]
pub struct InjectedFaults {
    /// Panic on jobs where `seq % panic_every == panic_every - 1`.
    pub panic_every: u64,
    /// Delay jobs where `seq % delay_every == delay_every - 1`.
    pub delay_every: u64,
    /// Length of the injected delay.
    pub delay: Duration,
}

/// A queued request: the op, owned, and everything the worker needs to
/// answer it — degraded included — without going back to the caller.
struct QueuedRequest {
    op: Op<'static>,
    key: String,
    /// The query text a stale page echoes (searches only).
    echo: Option<String>,
    deadline: Instant,
    submitted: Instant,
    reply: SyncSender<Result<Option<Reply>, ServeError>>,
}

enum Job {
    Request(Box<QueuedRequest>),
    /// Chaos hook: makes the dequeuing worker panic *outside* the
    /// per-job `catch_unwind`, exercising the respawn sentinel.
    CrashWorker,
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
    /// One slot per class; inline ops never consult theirs.
    breakers: [Breaker; Class::COUNT],
    /// What the server was started with: breaker tuning, default deadline.
    config: ServeConfig,
    /// Worker-side fault schedule (chaos testing); None in production.
    faults: RwLock<Option<InjectedFaults>>,
    /// Global job sequence (every class) driving the fault schedule.
    job_seq: AtomicU64,
    /// Live worker handles; the respawn sentinel pushes replacements
    /// here so shutdown can join every worker that ever ran.
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn breaker(&self, class: Class) -> &Breaker {
        &self.breakers[class.index()]
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
        submitted: Instant,
    ) -> Reply {
        let latency = submitted.elapsed();
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

    /// Compute `op` under the shared system lock and cache the value
    /// under `key`. `None` (unknown node id, vaccine or venue) is not
    /// cached, but it is an answer: the request completed.
    fn compute(
        &self,
        op: &Op<'_>,
        key: String,
        echo: Option<&str>,
        submitted: Instant,
    ) -> Option<Reply> {
        let (entry, generation) = {
            let system = read_lock(&self.system);
            // Generation read under the same read lock the op runs
            // under: the pair is consistent even against concurrent
            // ingest commits.
            (op.compute(&system, &self.metrics), system.generation())
        };
        match entry {
            Some(entry) => {
                self.cache.insert(key, generation, Arc::clone(&entry));
                Some(self.complete(entry, echo, false, false, generation, submitted))
            }
            None => {
                self.metrics.record_completed(submitted.elapsed());
                None
            }
        }
    }

    /// Answer a request whose class is unhealthy: for a may-serve-stale
    /// op a cached page of any generation, marked stale; otherwise the
    /// typed [`ServeError::Degraded`].
    fn degraded(
        &self,
        key: &str,
        staleness: Staleness,
        echo: Option<&str>,
        submitted: Instant,
    ) -> Result<Option<Reply>, ServeError> {
        self.metrics.record_degraded();
        if staleness == Staleness::NeverStale {
            return Err(ServeError::Degraded);
        }
        let (entry, generation) = self.cache.get_stale(key).ok_or(ServeError::Degraded)?;
        self.metrics.record_stale_served();
        Ok(Some(
            self.complete(entry, echo, true, true, generation, submitted),
        ))
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
                Job::Request(job) => run_isolated(&sentinel.inner, &job),
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
            faults: RwLock::new(None),
            job_seq: AtomicU64::new(0),
            worker_handles: Mutex::new(Vec::new()),
            config,
        });
        let (tx, rx) = sync_channel::<Job>(inner.config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..inner.config.workers {
            spawn_worker(Arc::clone(&inner), Arc::clone(&rx));
        }
        Server {
            inner,
            queue: Mutex::new(Some(tx)),
            _queue_rx: rx,
        }
    }

    /// The one request path: count, probe the cache, then — by the op's
    /// row in the table — compute inline or check the breaker, enqueue
    /// and wait at most `deadline` (`None` = the configured default).
    /// `Ok(None)` = the op resolved to nothing (unknown node id, vaccine
    /// or venue; the wire layer's 404).
    pub fn request(
        &self,
        op: &Op<'_>,
        deadline: Option<Duration>,
    ) -> Result<Option<Reply>, ServeError> {
        let submitted = Instant::now();
        let inner = &*self.inner;
        let class = op.class();
        inner.metrics.record_request(class);
        let (key, echo) = op.key_and_echo();

        // Cache sits in front of the queue: hits cost two mutex hops and
        // never consume queue capacity or a worker.
        let generation = inner.generation.load(Ordering::Acquire);
        if let Some(entry) = inner.cache.get(&key, generation) {
            inner.metrics.record_hit();
            return Ok(Some(inner.complete(
                entry,
                echo.as_deref(),
                true,
                false,
                generation,
                submitted,
            )));
        }
        inner.metrics.record_miss();
        if op.admission() == Admission::Inline {
            return Ok(inner.compute(op, key, echo.as_deref(), submitted));
        }

        // Unhealthy class: don't waste queue capacity on it.
        if !inner.breaker(class).allow(Instant::now(), &inner.config) {
            return inner.degraded(&key, op.staleness(), echo.as_deref(), submitted);
        }

        let deadline = deadline.unwrap_or(inner.config.default_deadline);
        // Buffered reply slot so a worker finishing after we time out
        // never blocks on a reader that left.
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job::Request(Box::new(QueuedRequest {
            op: op.clone().into_owned(),
            key,
            echo: echo.map(Cow::into_owned),
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
        inner.metrics.enqueued();
        match sender.try_send(job) {
            Ok(()) => inner.metrics.record_admitted_depth(),
            Err(TrySendError::Full(_)) => {
                inner.metrics.dequeued();
                inner.metrics.record_overloaded();
                return Err(ServeError::Overloaded);
            }
            Err(TrySendError::Disconnected(_)) => {
                inner.metrics.dequeued();
                return Err(ServeError::Closed);
            }
        }
        match reply_rx.recv_timeout(deadline) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                inner.metrics.record_deadline_exceeded();
                Err(ServeError::DeadlineExceeded)
            }
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
        }
    }

    /// [`Server::request`] for an op that always resolves to a value.
    fn always<R: From<Reply>>(
        &self,
        op: Op<'_>,
        deadline: Option<Duration>,
    ) -> Result<R, ServeError> {
        let reply = self.request(&op, deadline)?;
        Ok(reply
            .expect("searches, traversals and the bias report always yield a value")
            .into())
    }

    /// [`Server::request`] for an op that may resolve to nothing.
    fn lookup(&self, op: Op<'_>) -> Result<Option<KgResponse>, ServeError> {
        Ok(self.request(&op, None)?.map(KgResponse::from))
    }

    /// Serve a lexical search with the configured default deadline.
    pub fn search(&self, mode: &SearchMode, page: usize) -> Result<ServeResponse, ServeError> {
        self.always(Op::Search(Cow::Borrowed(mode), page, false), None)
    }

    /// Serve a lexical search, waiting at most `deadline` for the result.
    pub fn search_with_deadline(
        &self,
        mode: &SearchMode,
        page: usize,
        deadline: Duration,
    ) -> Result<ServeResponse, ServeError> {
        self.always(Op::Search(Cow::Borrowed(mode), page, false), Some(deadline))
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

    /// Serve a dense (semantic or hybrid) search: cache-fronted, computed
    /// inline (an ANN query is sub-millisecond at our sizes, so queue
    /// admission and circuit breaking would cost more than the search).
    pub fn search_dense(&self, mode: &DenseMode, page: usize) -> Result<ServeResponse, ServeError> {
        self.always(Op::Dense(Cow::Borrowed(mode), page, false), None)
    }

    /// Serve a KG traversal: queue-admitted like the lexical engines (a
    /// deep traversal is real work) behind the `kg` breaker, but never
    /// served stale — an open breaker or a crashed worker yields the
    /// typed [`ServeError::Degraded`] instead of an old-generation body.
    pub fn kg_query(&self, plan: &QueryPlan) -> Result<KgResponse, ServeError> {
        self.always(Op::KgQuery(Cow::Borrowed(plan), false), None)
    }

    /// Serve a KG traversal re-ranked by provenance trust (the
    /// `trust=1` knob on `/kg/query`). Cached under a distinct key so
    /// the default (untrusted) ranking is never cross-contaminated.
    pub fn kg_query_trusted(&self, plan: &QueryPlan) -> Result<KgResponse, ServeError> {
        self.always(Op::KgQuery(Cow::Borrowed(plan), true), None)
    }

    /// Serve one vaccine's materialized meta-profile document.
    /// `Ok(None)` = unknown vaccine (the wire layer's 404).
    pub fn kg_profile(&self, vaccine: &str) -> Result<Option<KgResponse>, ServeError> {
        self.lookup(Op::KgProfile(Cow::Borrowed(vaccine)))
    }

    /// Serve one KG node document, computed inline (the lookup is O(1)).
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
        self.always(Op::BiasReport, None)
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
    /// drained first; subsequent requests that miss the cache return
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

/// Run one job with panic isolation: a panicking compute is caught,
/// counted, fed to the class's breaker, and answered degraded — the
/// worker thread (and every other queued request) survives.
fn run_isolated(inner: &Inner, job: &QueuedRequest) {
    let class = job.op.class();
    let result =
        catch_unwind(AssertUnwindSafe(|| run_job(inner, job, class))).unwrap_or_else(|_| {
            inner.metrics.record_panic();
            if inner
                .breaker(class)
                .record_failure(Instant::now(), &inner.config)
            {
                inner.metrics.record_breaker_open();
            }
            inner.degraded(
                &job.key,
                job.op.staleness(),
                job.echo.as_deref(),
                job.submitted,
            )
        });
    // The one send into a one-slot buffer: never blocks, and a caller
    // that stopped waiting just drops the late reply with its receiver.
    let _ = job.reply.send(result);
}

fn run_job(inner: &Inner, job: &QueuedRequest, class: Class) -> Result<Option<Reply>, ServeError> {
    if Instant::now() >= job.deadline {
        // Expired while queued: don't waste the engines on it.
        inner.metrics.record_deadline_exceeded();
        return Err(ServeError::DeadlineExceeded);
    }
    // Chaos schedule: deterministic panics/delays keyed by job sequence.
    let seq = inner.job_seq.fetch_add(1, Ordering::Relaxed);
    if let Some(faults) = read_lock(&inner.faults).clone() {
        if faults.delay_every > 0 && seq % faults.delay_every == faults.delay_every - 1 {
            std::thread::sleep(faults.delay);
        }
        if faults.panic_every > 0 && seq % faults.panic_every == faults.panic_every - 1 {
            panic!("injected {} panic (seq {seq})", class.label());
        }
    }
    let reply = inner.compute(&job.op, job.key.clone(), job.echo.as_deref(), job.submitted);
    inner
        .breaker(class)
        .record_success(Instant::now(), &inner.config);
    Ok(reply)
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
