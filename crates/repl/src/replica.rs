//! Replica side: per-collection pull loops and the full replica node.
//!
//! A [`ReplicaPuller`] owns one TCP session per collection: it asks the
//! primary for everything past its own durable watermark, applies
//! frames through the store's recovery-tolerant path (replay is
//! bit-identical to crash recovery), acks what it applied, and
//! reconnects with bounded backoff when the link drops. Torn local WAL
//! tails are repaired by `Collection::open` exactly as after a crash.
//!
//! A [`ReplicaNode`] assembles a *serving* replica: one shared
//! [`Database`] whose collections the pullers feed, a
//! [`covidkg_core::CovidKg`] reopened over those same live collections
//! once the initial sync converges, a [`covidkg_serve::Server`] on top,
//! and a refresh thread that rebuilds derived state (KG document,
//! profiles, generation) whenever applied frames advance, then
//! publishes how far the derived views reach
//! ([`PullerState::visible`]).

use crate::failover::Epoch;
use crate::primary::{docs_checksum, ReplConfig, ReplListener};
use crate::protocol::{pump, BatchFrame, Decoder, Message};
use crate::ReplError;
use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_json::{parse, Value};
use covidkg_serve::{ServeConfig, Server};
use covidkg_store::wal::crc32;
use covidkg_store::{Collection, CollectionConfig, Database, RetryPolicy, WalRecord};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a single connect attempt may block.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Read-timeout tick inside a session.
const TICK: Duration = Duration::from_millis(50);

/// A healthy primary heartbeats every few hundred milliseconds, so a
/// session that decodes *no* message for this long is wedged — a
/// half-open TCP connection, or a corrupted length prefix that left the
/// decoder waiting on a frame that will never complete. Drop it and
/// reconnect; the durable watermark makes the retry safe.
const SESSION_STALL: Duration = Duration::from_secs(5);

/// Live state of one puller, shared with routers and metrics.
#[derive(Debug, Default)]
pub struct PullerState {
    /// Highest contiguously applied (durable) sequence on the replica.
    pub applied: AtomicU64,
    /// Highest applied sequence the node's derived views (KG, profiles,
    /// trust, dense index) reflect: a serving replica's refresh thread
    /// publishes the `applied` it read before its last successful
    /// refresh. Reads that need sequence `s` routed here wait for this,
    /// not for `applied`, to reach `s`.
    pub visible: AtomicU64,
    /// Last watermark the primary reported for this collection.
    pub primary_watermark: AtomicU64,
    /// Completed sessions beyond the first (reconnects).
    pub reconnects: AtomicU64,
    /// Snapshot bootstraps installed.
    pub checkpoints: AtomicU64,
    /// Sessions aborted because the sender's fencing epoch was older
    /// than ours — a deposed ex-primary tried to ship stale frames.
    pub fenced_rejects: AtomicU64,
    /// Set once the replica has caught up with the primary's watermark
    /// at least once (sticky).
    pub synced: AtomicBool,
}

impl PullerState {
    /// Current lag in sequence numbers (0 when caught up).
    pub fn lag(&self) -> u64 {
        self.primary_watermark
            .load(Ordering::Acquire)
            .saturating_sub(self.applied.load(Ordering::Acquire))
    }
}

/// One collection's pull loop. Dropping stops it.
#[derive(Debug)]
pub struct ReplicaPuller {
    collection: String,
    stop: Arc<AtomicBool>,
    state: Arc<PullerState>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicaPuller {
    /// Start pulling `collection` from `primary` into `coll`. `epoch`
    /// is the node's shared fencing-epoch handle: the puller stamps it
    /// on its Hello, adopts any newer epoch the stream carries, and
    /// refuses frames stamped older (a fenced ex-primary).
    pub fn start(
        coll: Arc<Collection>,
        collection: impl Into<String>,
        primary: SocketAddr,
        replica_name: impl Into<String>,
        policy: RetryPolicy,
        epoch: Epoch,
    ) -> ReplicaPuller {
        let collection = collection.into();
        let replica_name = replica_name.into();
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(PullerState::default());
        state
            .applied
            .store(coll.repl_watermark(), Ordering::Release);
        let thread_stop = Arc::clone(&stop);
        let thread_state = Arc::clone(&state);
        let thread_collection = collection.clone();
        let handle = std::thread::Builder::new()
            .name(format!("covidkg-repl-pull-{collection}"))
            .spawn(move || {
                run_puller(
                    coll,
                    &thread_collection,
                    primary,
                    &replica_name,
                    &policy,
                    &thread_stop,
                    &thread_state,
                    &epoch,
                );
            })
            .expect("spawn puller thread");
        ReplicaPuller {
            collection,
            stop,
            state,
            handle: Some(handle),
        }
    }

    /// The collection this puller feeds.
    pub fn collection(&self) -> &str {
        &self.collection
    }

    /// Shared live state (applied sequence, lag, reconnect counters).
    pub fn state(&self) -> Arc<PullerState> {
        Arc::clone(&self.state)
    }

    /// Signal the pull loop to stop and join it. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicaPuller {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sleep `policy.backoff(attempt)` in small slices so a stop signal is
/// noticed promptly; saturates the attempt counter at `max_retries`.
fn backoff_sleep(policy: &RetryPolicy, attempt: &mut u32, stop: &AtomicBool) {
    let total = policy.backoff(*attempt).max(Duration::from_millis(1));
    *attempt = attempt.saturating_add(1).min(policy.max_retries.max(1));
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(5).min(total));
    }
}

#[allow(clippy::too_many_arguments)]
fn run_puller(
    coll: Arc<Collection>,
    collection: &str,
    primary: SocketAddr,
    replica_name: &str,
    policy: &RetryPolicy,
    stop: &AtomicBool,
    state: &PullerState,
    epoch: &Epoch,
) {
    let mut attempt = 0u32;
    let mut sessions = 0u64;
    while !stop.load(Ordering::Acquire) {
        let stream = match TcpStream::connect_timeout(&primary, CONNECT_TIMEOUT) {
            Ok(s) => s,
            Err(_) => {
                backoff_sleep(policy, &mut attempt, stop);
                continue;
            }
        };
        if sessions > 0 {
            state.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        sessions += 1;
        // A session that made progress resets the backoff clock.
        if run_session(stream, &coll, collection, replica_name, stop, state, epoch).is_ok() {
            attempt = 0;
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        backoff_sleep(policy, &mut attempt, stop);
    }
}

/// A partially received checkpoint.
struct CheckpointBuf {
    seq: u64,
    expect: u64,
    docs: Vec<Value>,
}

/// One replication session. `Ok(())` means the session made progress
/// (or ended cleanly); `Err` means it died before achieving anything,
/// which keeps the reconnect backoff growing.
#[allow(clippy::too_many_arguments)]
fn run_session(
    mut stream: TcpStream,
    coll: &Collection,
    collection: &str,
    replica_name: &str,
    stop: &AtomicBool,
    state: &PullerState,
    epoch: &Epoch,
) -> Result<(), ReplError> {
    let _ = stream.set_read_timeout(Some(TICK));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let durable = coll.repl_watermark();
    state.applied.store(durable, Ordering::Release);
    Message::Hello {
        replica: replica_name.to_string(),
        collection: collection.to_string(),
        from_seq: durable + 1,
        epoch: epoch.get(),
    }
    .write_to(&mut stream)?;

    // Reject anything stamped with an epoch older than ours (a fenced
    // ex-primary replaying stale frames); adopt anything newer (a
    // promotion upstream we hadn't heard about yet).
    let check_epoch = |msg_epoch: u64, what: &str| -> Result<(), ReplError> {
        let ours = epoch.get();
        if msg_epoch < ours {
            state.fenced_rejects.fetch_add(1, Ordering::Relaxed);
            return Err(ReplError::Protocol(format!(
                "stale {what}: epoch {msg_epoch} < ours {ours}"
            )));
        }
        epoch.observe(msg_epoch);
        Ok(())
    };

    let mut decoder = Decoder::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut checkpoint: Option<CheckpointBuf> = None;
    let mut meta_seen = false;
    let mut progressed = false;
    let mut last_message = Instant::now();
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let msgs = match pump(&mut stream, &mut decoder, &mut scratch) {
            Ok(Some(msgs)) => msgs,
            Ok(None) => return if progressed { Ok(()) } else { Err(ReplError::closed()) },
            Err(e) => return Err(ReplError::Protocol(e.0)),
        };
        if msgs.is_empty() {
            if last_message.elapsed() >= SESSION_STALL {
                return Err(ReplError::Protocol("session stalled (no messages)".into()));
            }
        } else {
            last_message = Instant::now();
        }
        let mut advanced = false;
        for msg in msgs {
            match msg {
                Message::Meta {
                    watermark,
                    epoch: msg_epoch,
                    ..
                } => {
                    check_epoch(msg_epoch, "meta")?;
                    meta_seen = true;
                    bump_max(&state.primary_watermark, watermark);
                }
                Message::Heartbeat {
                    watermark,
                    epoch: msg_epoch,
                } => {
                    check_epoch(msg_epoch, "heartbeat")?;
                    meta_seen = true;
                    bump_max(&state.primary_watermark, watermark);
                }
                Message::CheckpointBegin { seq, docs } => {
                    // Checkpoint messages carry no epoch of their own:
                    // they are only trustworthy after this session's
                    // epoch was validated by a Meta/Heartbeat. Without
                    // this gate a fenced ex-primary (or forged peer)
                    // could skip Meta and overwrite the whole
                    // collection via a snapshot.
                    if !meta_seen {
                        state.fenced_rejects.fetch_add(1, Ordering::Relaxed);
                        return Err(ReplError::Protocol(
                            "checkpoint before epoch-checked meta".into(),
                        ));
                    }
                    checkpoint = Some(CheckpointBuf {
                        seq,
                        expect: docs,
                        docs: Vec::with_capacity(docs.min(65_536) as usize),
                    });
                }
                Message::CheckpointDoc(doc) => match &mut checkpoint {
                    Some(buf) => buf.docs.push(doc),
                    None => return Err(ReplError::Protocol("checkpoint doc before begin".into())),
                },
                Message::CheckpointEnd { checksum } => {
                    let Some(buf) = checkpoint.take() else {
                        return Err(ReplError::Protocol("checkpoint end before begin".into()));
                    };
                    if buf.docs.len() as u64 != buf.expect {
                        return Err(ReplError::Protocol(format!(
                            "checkpoint truncated: {}/{} docs",
                            buf.docs.len(),
                            buf.expect
                        )));
                    }
                    if docs_checksum(buf.docs.iter()) != checksum {
                        // Corrupt transfer: drop the session and re-sync.
                        return Err(ReplError::Protocol("checkpoint checksum mismatch".into()));
                    }
                    coll.install_checkpoint(buf.seq, buf.docs)?;
                    state.checkpoints.fetch_add(1, Ordering::Relaxed);
                    bump_max(&state.applied, buf.seq);
                    advanced = true;
                    progressed = true;
                }
                Message::Frame {
                    epoch: msg_epoch,
                    seq,
                    crc,
                    record,
                } => {
                    check_epoch(msg_epoch, "frame")?;
                    if apply_frame(coll, state, seq, crc, &record)? {
                        advanced = true;
                        progressed = true;
                    }
                }
                Message::FrameBatch {
                    epoch: msg_epoch,
                    frames,
                } => {
                    check_epoch(msg_epoch, "frame batch")?;
                    for BatchFrame { seq, crc, record } in frames {
                        if apply_frame(coll, state, seq, crc, &record)? {
                            advanced = true;
                            progressed = true;
                        }
                    }
                }
                Message::Error(text) => return Err(ReplError::Protocol(text)),
                // Replica never expects handshake messages here.
                _ => {}
            }
        }
        if meta_seen
            && state.applied.load(Ordering::Acquire)
                >= state.primary_watermark.load(Ordering::Acquire)
        {
            state.synced.store(true, Ordering::Release);
        }
        if advanced {
            Message::Ack {
                applied: state.applied.load(Ordering::Acquire),
            }
            .write_to(&mut stream)?;
            let _ = stream.flush();
        }
    }
}

/// Each puller's applied sequence, in order.
fn applied_of(states: &[Arc<PullerState>]) -> Vec<u64> {
    states.iter().map(|s| s.applied.load(Ordering::Acquire)).collect()
}

/// Publish `applied` (read by [`applied_of`] before the views were
/// derived) as each puller's visible sequence.
fn publish_visible(states: &[Arc<PullerState>], applied: &[u64]) {
    for (state, &seq) in states.iter().zip(applied) {
        state.visible.store(seq, Ordering::Release);
    }
}

fn bump_max(cell: &AtomicU64, value: u64) {
    cell.fetch_max(value, Ordering::AcqRel);
}

/// Verify and apply one shipped WAL record; returns whether the store
/// advanced. A CRC/parse failure or apply gap aborts the session — the
/// reconnect re-requests from the durable watermark, which repairs it.
fn apply_frame(
    coll: &Collection,
    state: &PullerState,
    seq: u64,
    crc: u32,
    record: &[u8],
) -> Result<bool, ReplError> {
    if crc32(record) != crc {
        // A flipped wire bit: never let it near the WAL.
        return Err(ReplError::Protocol(format!(
            "frame {seq} failed its crc check"
        )));
    }
    let text = std::str::from_utf8(record)
        .map_err(|_| ReplError::Protocol("frame is not UTF-8".into()))?;
    let value = parse(text).map_err(|e| ReplError::Protocol(format!("frame is not JSON: {e:?}")))?;
    let rec = WalRecord::from_value(&value)?;
    let applied = coll.apply_replicated(seq, &rec)?;
    bump_max(&state.applied, coll.repl_watermark());
    Ok(applied)
}

/// Ask the primary which collections it serves.
pub fn list_collections(primary: SocketAddr) -> Result<Vec<String>, ReplError> {
    let mut stream = TcpStream::connect_timeout(&primary, CONNECT_TIMEOUT)?;
    let _ = stream.set_read_timeout(Some(TICK));
    Message::ListCollections.write_to(&mut stream)?;
    let mut decoder = Decoder::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match pump(&mut stream, &mut decoder, &mut scratch) {
            Ok(Some(msgs)) => {
                for msg in msgs {
                    match msg {
                        Message::Collections(names) => return Ok(names),
                        Message::Error(text) => return Err(ReplError::Protocol(text)),
                        _ => {}
                    }
                }
            }
            Ok(None) => return Err(ReplError::closed()),
            Err(e) => return Err(ReplError::Protocol(e.0)),
        }
    }
    Err(ReplError::Timeout("collection list".into()))
}

/// Fetch a collection's shape (shard count, text fields) from the
/// primary, without consuming its stream.
pub fn fetch_meta(
    primary: SocketAddr,
    collection: &str,
    replica_name: &str,
) -> Result<(usize, Vec<String>), ReplError> {
    let mut stream = TcpStream::connect_timeout(&primary, CONNECT_TIMEOUT)?;
    let _ = stream.set_read_timeout(Some(TICK));
    Message::Hello {
        replica: format!("{replica_name}:meta"),
        collection: collection.to_string(),
        // The meta reply comes first regardless of the sequence asked;
        // a far-future sequence keeps the stream quiet afterwards.
        // (Sequences ride JSON as i64, so i64::MAX is the wire's top.)
        from_seq: i64::MAX as u64,
        // A probe never asserts leadership: epoch 0 can't fence anyone.
        epoch: 0,
    }
    .write_to(&mut stream)?;
    let mut decoder = Decoder::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match pump(&mut stream, &mut decoder, &mut scratch) {
            Ok(Some(msgs)) => {
                for msg in msgs {
                    match msg {
                        Message::Meta {
                            shards,
                            text_fields,
                            ..
                        } => return Ok((shards, text_fields)),
                        Message::Error(text) => return Err(ReplError::Protocol(text)),
                        _ => {}
                    }
                }
            }
            Ok(None) => return Err(ReplError::closed()),
            Err(e) => return Err(ReplError::Protocol(e.0)),
        }
    }
    Err(ReplError::Timeout(format!("meta for {collection:?}")))
}

/// Configuration for a full serving replica node.
#[derive(Debug, Clone)]
pub struct ReplicaNodeConfig {
    /// Primary's replication listener address.
    pub primary: SocketAddr,
    /// This replica's name (metrics label on the primary).
    pub name: String,
    /// Local data directory for the replicated collections.
    pub data_dir: String,
    /// Serving configuration for the local query server.
    pub serve: ServeConfig,
    /// Reconnect backoff policy.
    pub reconnect: RetryPolicy,
    /// How often the refresh thread checks for applied progress.
    pub refresh_interval: Duration,
    /// How long to wait for the initial sync before giving up.
    pub sync_timeout: Duration,
}

impl ReplicaNodeConfig {
    /// Defaults for `primary`, naming the replica `name`.
    pub fn new(primary: SocketAddr, name: impl Into<String>, data_dir: impl Into<String>) -> Self {
        ReplicaNodeConfig {
            primary,
            name: name.into(),
            data_dir: data_dir.into(),
            serve: ServeConfig::default(),
            reconnect: RetryPolicy {
                max_retries: 8,
                base: Duration::from_millis(10),
                max_backoff: Duration::from_millis(500),
            },
            refresh_interval: Duration::from_millis(100),
            sync_timeout: Duration::from_secs(30),
        }
    }
}

/// A serving replica: replicated collections + a local query server
/// that refreshes derived state as frames apply.
pub struct ReplicaNode {
    name: String,
    data_dir: String,
    server: Arc<Server>,
    collections: BTreeMap<String, Arc<Collection>>,
    pullers: Vec<ReplicaPuller>,
    epoch: Epoch,
    refresh_stop: Arc<AtomicBool>,
    refresh_handle: Option<JoinHandle<()>>,
}

impl ReplicaNode {
    /// Bootstrap a replica node: discover the primary's collections,
    /// mirror their shapes, stream them to convergence, then assemble
    /// the serving stack over the same live collections.
    pub fn start(config: ReplicaNodeConfig) -> Result<ReplicaNode, ReplError> {
        // Discovery, with bounded retries while the primary comes up.
        let deadline = Instant::now() + config.sync_timeout;
        let names = loop {
            match list_collections(config.primary) {
                Ok(names) if !names.is_empty() => break names,
                Ok(_) | Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Ok(_) => return Err(ReplError::Timeout("empty collection list".into())),
                Err(e) => return Err(e),
            }
        };
        let db = Database::open(&config.data_dir)?;
        // Rejoin at the leadership generation we last witnessed — a
        // replica restarted after a failover must not trust a fenced
        // ex-primary just because its own epoch reset to zero.
        let epoch = Epoch::load(&config.data_dir)?;
        let mut collections = BTreeMap::new();
        for name in &names {
            let (shards, text_fields) = fetch_meta(config.primary, name, &config.name)?;
            let coll = db.get_or_create(
                CollectionConfig::new(name.clone())
                    .with_shards(shards)
                    .with_text_fields(text_fields),
            )?;
            collections.insert(name.clone(), coll);
        }
        let pullers: Vec<ReplicaPuller> = collections
            .iter()
            .map(|(name, coll)| {
                ReplicaPuller::start(
                    Arc::clone(coll),
                    name.clone(),
                    config.primary,
                    config.name.clone(),
                    config.reconnect,
                    epoch.clone(),
                )
            })
            .collect();
        // Initial sync barrier: the serving stack needs the replicated
        // models and KG document before it can assemble.
        while !pullers.iter().all(|p| p.state().synced.load(Ordering::Acquire)) {
            if Instant::now() >= deadline {
                return Err(ReplError::Timeout("initial sync".into()));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // What the views derived by the reopen below reflect at least.
        let watch: Vec<Arc<PullerState>> = pullers.iter().map(ReplicaPuller::state).collect();
        let seen = applied_of(&watch);
        // The system's own config rode along in the replicated kg
        // collection; adopt it with our local data dir.
        let saved = collections
            .get("kg")
            .and_then(|kg| kg.get("config"))
            .map(|doc| CovidKgConfig::from_json(doc.get("config").unwrap_or(&Value::Null)))
            .ok_or_else(|| ReplError::Protocol("replicated kg has no config document".into()))?;
        let system_config = CovidKgConfig {
            data_dir: Some(config.data_dir.clone()),
            ..saved
        };
        let system = CovidKg::reopen_with(db, system_config)?;
        let server = Arc::new(Server::start(system, config.serve.clone()));
        publish_visible(&watch, &seen);

        // Refresh thread: when applied frames advance, rebuild derived
        // state (KG doc, profiles) and bump the generation so caches
        // re-key; then publish the applied sequences read before the
        // refresh as visible — what the refreshed views reflect at least.
        let refresh_stop = Arc::new(AtomicBool::new(false));
        let refresh_server = Arc::clone(&server);
        let thread_stop = Arc::clone(&refresh_stop);
        let interval = config.refresh_interval;
        let refresh_handle = std::thread::Builder::new()
            .name("covidkg-repl-refresh".into())
            .spawn(move || {
                let mut last = seen;
                while !thread_stop.load(Ordering::Acquire) {
                    // `shutdown` unparks: a long interval does not hold
                    // it up.
                    std::thread::park_timeout(interval);
                    if thread_stop.load(Ordering::Acquire) {
                        return;
                    }
                    let now = applied_of(&watch);
                    if now != last && refresh_server.with_system_mut(CovidKg::refresh_derived).is_ok() {
                        publish_visible(&watch, &now);
                        last = now;
                    }
                }
            })
            .expect("spawn refresh thread");

        Ok(ReplicaNode {
            name: config.name,
            data_dir: config.data_dir,
            server,
            collections,
            pullers,
            epoch,
            refresh_stop,
            refresh_handle: Some(refresh_handle),
        })
    }

    /// This replica's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The local query server over the replicated data.
    pub fn server(&self) -> Arc<Server> {
        Arc::clone(&self.server)
    }

    /// Live state of the publications puller (the read-routing token).
    pub fn publications_state(&self) -> Arc<PullerState> {
        self.pullers
            .iter()
            .find(|p| p.collection() == "publications")
            .map(|p| p.state())
            .unwrap_or_default()
    }

    /// Highest applied publications sequence.
    pub fn applied(&self) -> u64 {
        self.publications_state().applied.load(Ordering::Acquire)
    }

    /// Current publications lag behind the primary's last report.
    pub fn lag(&self) -> u64 {
        self.publications_state().lag()
    }

    /// Content checksum of a replicated collection (convergence check).
    pub fn checksum(&self, collection: &str) -> Option<u64> {
        self.collections.get(collection).map(|c| c.content_checksum())
    }

    /// Names of the replicated collections.
    pub fn collections(&self) -> Vec<String> {
        self.collections.keys().cloned().collect()
    }

    /// The node's shared fencing-epoch handle.
    pub fn epoch_handle(&self) -> Epoch {
        self.epoch.clone()
    }

    /// The highest leadership generation this node has witnessed.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Total fenced-session rejections across this node's pullers.
    pub fn fenced_rejects(&self) -> u64 {
        self.pullers
            .iter()
            .map(|p| p.state().fenced_rejects.load(Ordering::Relaxed))
            .sum()
    }

    /// Promote this replica to primary after the old primary died:
    /// stop pulling, bump and **persist** the fencing epoch, and start
    /// a replication listener over the same live collections. The
    /// collections already went through the store's torn-tail-repairing
    /// open path, so WAL ownership transfers without any copy — new
    /// writes append past the last applied frame, and every message the
    /// new listener ships is stamped with the bumped epoch, fencing the
    /// old primary out if it revives.
    ///
    /// Call only after [`elect`](crate::failover::elect) picked this
    /// node — promotion itself does not re-check the vote.
    pub fn promote(&mut self, mut config: ReplConfig) -> Result<ReplListener, ReplError> {
        for p in &mut self.pullers {
            p.shutdown();
        }
        self.pullers.clear();
        self.epoch.bump();
        self.epoch.persist(&self.data_dir)?;
        config.epoch = self.epoch.clone();
        let sources = self
            .collections
            .iter()
            .map(|(n, c)| (n.clone(), Arc::clone(c)))
            .collect();
        ReplListener::start(sources, config).map_err(ReplError::Io)
    }

    /// Start re-shipping this replica's collections downstream while it
    /// keeps pulling from its own upstream (cascading replication). The
    /// relay listener shares this node's epoch handle, so a promotion
    /// learned from upstream is immediately stamped on every frame
    /// shipped downstream — epoch checks propagate through the chain.
    pub fn relay(&self, mut config: ReplConfig) -> std::io::Result<ReplListener> {
        config.epoch = self.epoch.clone();
        let sources = self
            .collections
            .iter()
            .map(|(n, c)| (n.clone(), Arc::clone(c)))
            .collect();
        ReplListener::start(sources, config)
    }

    /// Stop pulling and serving. Idempotent.
    pub fn shutdown(&mut self) {
        self.refresh_stop.store(true, Ordering::Release);
        if let Some(h) = self.refresh_handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        for p in &mut self.pullers {
            p.shutdown();
        }
        self.server.shutdown();
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}
