//! Primary-side replication listener: accepts replica sessions and
//! streams WAL frames, bootstrapping stragglers from a checkpoint.
//!
//! Connection supervision copies the covidkg-net idioms: bounded
//! session count with honest immediate rejection, a short read timeout
//! so shutdown and acks are noticed between sends, a panic-safe slot
//! guard, and a draining shutdown that joins every session thread.

use crate::failover::Epoch;
use crate::metrics::{ReplMetrics, ReplStats};
use crate::protocol::{batch, frame, pump, Decoder, Message};
use covidkg_json::Value;
use covidkg_store::shard::route_hash;
use covidkg_store::wal::WalTail;
use covidkg_store::{Collection, StoreError};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Replication listener tuning knobs.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// Address to bind (port 0 for an OS-assigned port).
    pub addr: SocketAddr,
    /// Maximum simultaneously open replication sessions.
    pub max_sessions: usize,
    /// Socket-level bound on blocking writes.
    pub write_timeout: Duration,
    /// Idle heartbeat interval (keeps replica lag clocks honest).
    pub heartbeat_interval: Duration,
    /// Fencing epoch this listener stamps on every shipped message. A
    /// *shared* handle: a promoted replica passes the epoch it already
    /// holds, and a cascading relay's listener stays live-linked to the
    /// epoch its puller learns from upstream.
    pub epoch: Epoch,
    /// Coalesce runs of ≥ 2 tailed frames into compressed
    /// [`Message::FrameBatch`]es (bounded by [`MAX_BATCH_FRAMES`] /
    /// [`MAX_BATCH_BYTES`]). Off ships every frame standalone.
    pub batch_frames: bool,
}

impl Default for ReplConfig {
    fn default() -> ReplConfig {
        ReplConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            max_sessions: 16,
            write_timeout: Duration::from_secs(5),
            heartbeat_interval: Duration::from_millis(500),
            epoch: Epoch::default(),
            batch_frames: true,
        }
    }
}

/// Most frames one batch may carry.
pub const MAX_BATCH_FRAMES: usize = 128;
/// Most uncompressed entry bytes one batch may carry.
pub const MAX_BATCH_BYTES: usize = 256 * 1024;

/// Read-timeout tick (same rationale as covidkg-net's).
const TICK: Duration = Duration::from_millis(50);

/// The primary's content checksum over an explicit document set — the
/// same fold as [`Collection::content_checksum`], so a replica that
/// installs exactly these documents reproduces it bit for bit.
pub fn docs_checksum<'a>(docs: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut sum = 0u64;
    let mut count = 0u64;
    for doc in docs {
        let id = doc.get("_id").and_then(Value::as_str).unwrap_or_default();
        sum = sum.wrapping_add(route_hash(&format!("{id}\u{1}{}", doc.to_json())));
        count += 1;
    }
    sum ^ count
}

struct Shared {
    sources: BTreeMap<String, Arc<Collection>>,
    config: ReplConfig,
    metrics: Arc<ReplMetrics>,
    shutting_down: AtomicBool,
    active: AtomicU64,
    /// Highest epoch a peer's Hello revealed that was *newer* than ours
    /// at the time (0 = never fenced): somewhere a promotion happened
    /// that we missed, so we must stop shipping (split-brain guard).
    /// The fence lifts once the shared epoch handle catches up — a
    /// cascading relay adopts the new epoch through its own puller and
    /// resumes; a true deposed primary's handle never advances, so it
    /// stays fenced until re-promoted.
    fenced_at: AtomicU64,
    /// (replica, collection) pairs already served once — a second
    /// session from the same pair is a reconnect.
    seen: Mutex<HashSet<(String, String)>>,
}

impl Shared {
    /// Fenced = a peer revealed a newer leadership generation and our
    /// shared epoch handle has not yet reached it. Re-checked against
    /// the live handle every time, so a relay that later adopts the
    /// newer epoch from its upstream un-fences without a restart.
    fn is_fenced(&self) -> bool {
        let at = self.fenced_at.load(Ordering::Acquire);
        at != 0 && self.config.epoch.get() < at
    }
}

/// A running replication listener. Dropping it (or calling
/// [`ReplListener::shutdown`]) drains and joins every session thread.
pub struct ReplListener {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
}

impl ReplListener {
    /// Bind `config.addr` and start serving the given collections.
    pub fn start(
        sources: Vec<(String, Arc<Collection>)>,
        config: ReplConfig,
    ) -> std::io::Result<ReplListener> {
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ReplMetrics::default());
        metrics.observe_epoch(config.epoch.get());
        let shared = Arc::new(Shared {
            sources: sources.into_iter().collect(),
            config,
            metrics,
            shutting_down: AtomicBool::new(false),
            active: AtomicU64::new(0),
            fenced_at: AtomicU64::new(0),
            seen: Mutex::new(HashSet::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("covidkg-repl-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn repl accept thread");
        Ok(ReplListener {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (with the OS-assigned port when 0 was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared metrics handle (lives on after shutdown).
    pub fn metrics(&self) -> Arc<ReplMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Point-in-time replication counters.
    pub fn stats(&self) -> ReplStats {
        self.shared.metrics.snapshot()
    }

    /// The fencing epoch this listener stamps on shipped messages.
    pub fn epoch(&self) -> u64 {
        self.shared.config.epoch.get()
    }

    /// True while a session has revealed a newer epoch elsewhere than
    /// this listener's own: shipping is stopped. A deposed ex-primary
    /// stays fenced (its epoch never catches up); a cascading relay
    /// un-fences once its shared epoch handle adopts the newer
    /// generation from upstream.
    pub fn is_fenced(&self) -> bool {
        self.shared.is_fenced()
    }

    /// Durable watermark of the publications collection (the read-
    /// routing sequence token), 0 when no such collection is served.
    pub fn watermark(&self) -> u64 {
        self.shared
            .sources
            .get("publications")
            .map(|c| c.repl_watermark())
            .unwrap_or(0)
    }

    /// Stop accepting, close live sessions, join every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Releases a session's slot on every exit path, including panics.
struct SlotGuard(Arc<Shared>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let session_threads: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.active.load(Ordering::Acquire) >= shared.config.max_sessions as u64 {
            let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
            let mut s = stream;
            let _ = Message::Error("session limit reached".into()).write_to(&mut s);
            let _ = s.shutdown(Shutdown::Both);
            continue;
        }
        shared.active.fetch_add(1, Ordering::AcqRel);
        let session_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("covidkg-repl-session".into())
            .spawn(move || {
                let _slot = SlotGuard(Arc::clone(&session_shared));
                serve_session(stream, &session_shared);
            })
            .expect("spawn repl session thread");
        let mut threads = session_threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        threads.push(handle);
        threads.retain(|h| !h.is_finished());
    }
    let threads = std::mem::take(
        &mut *session_threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    for h in threads {
        let _ = h.join();
    }
}

fn serve_session(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(TICK));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut decoder = Decoder::new();
    let mut scratch = [0u8; 64 * 1024];
    // Handshake: wait for ListCollections or Hello.
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let msgs = match pump(&mut stream, &mut decoder, &mut scratch) {
            Ok(Some(msgs)) => msgs,
            Ok(None) | Err(_) => return,
        };
        for msg in msgs {
            match msg {
                Message::ListCollections => {
                    let names = shared.sources.keys().cloned().collect();
                    if Message::Collections(names).write_to(&mut stream).is_err() {
                        return;
                    }
                }
                Message::Hello {
                    replica,
                    collection,
                    from_seq,
                    epoch,
                } => {
                    let ours = shared.config.epoch.get();
                    if epoch > ours {
                        // The replica has witnessed a newer leadership
                        // generation: a promotion happened without us.
                        // We are the deposed primary — fence ourselves
                        // and refuse, rather than shipping stale frames.
                        shared.fenced_at.fetch_max(epoch, Ordering::AcqRel);
                        shared.metrics.fenced_session();
                        let _ = Message::Error(format!(
                            "fenced: peer epoch {epoch} > primary epoch {ours}"
                        ))
                        .write_to(&mut stream);
                        return;
                    }
                    if shared.is_fenced() {
                        shared.metrics.fenced_session();
                        let _ = Message::Error("fenced: primary was deposed".into())
                            .write_to(&mut stream);
                        return;
                    }
                    stream_collection(
                        &mut stream,
                        shared,
                        &mut decoder,
                        &replica,
                        &collection,
                        from_seq,
                    );
                    return;
                }
                // Anything else before Hello is a protocol violation.
                _ => {
                    let _ = Message::Error("expected hello".into()).write_to(&mut stream);
                    return;
                }
            }
        }
    }
}

/// Send `msg`, recording shipped bytes. `None` when the peer is
/// unusable (session should end); `Some(wire_bytes)` otherwise.
fn send(stream: &mut TcpStream, shared: &Shared, msg: &Message) -> Option<usize> {
    match msg.write_to(stream) {
        Ok(n) => {
            shared.metrics.shipped(n);
            Some(n)
        }
        Err(_) => None,
    }
}

/// Ship a full checkpoint; returns the sequence the checkpoint is
/// consistent with (the replica resumes at `seq + 1`), or `None` when
/// the peer went away.
fn send_checkpoint(
    stream: &mut TcpStream,
    shared: &Shared,
    coll: &Collection,
) -> Result<Option<u64>, StoreError> {
    let (seq, docs) = coll.checkpoint()?;
    let begin = Message::CheckpointBegin {
        seq,
        docs: docs.len() as u64,
    };
    if send(stream, shared, &begin).is_none() {
        return Ok(None);
    }
    let checksum = docs_checksum(docs.iter());
    for doc in docs {
        if send(stream, shared, &Message::CheckpointDoc(doc)).is_none() {
            return Ok(None);
        }
    }
    if send(stream, shared, &Message::CheckpointEnd { checksum }).is_none() {
        return Ok(None);
    }
    shared.metrics.snapshot_bootstrap();
    Ok(Some(seq))
}

fn stream_collection(
    stream: &mut TcpStream,
    shared: &Shared,
    decoder: &mut Decoder,
    replica: &str,
    collection: &str,
    from_seq: u64,
) {
    let Some(coll) = shared.sources.get(collection) else {
        let _ = Message::Error(format!("no such collection {collection:?}")).write_to(stream);
        return;
    };
    {
        let mut seen = shared
            .seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !seen.insert((replica.to_string(), collection.to_string())) {
            shared.metrics.reconnect();
        }
    }
    let meta = Message::Meta {
        shards: coll.config().shards,
        text_fields: coll.config().text_fields.clone(),
        watermark: coll.repl_watermark(),
        epoch: shared.config.epoch.get(),
    };
    if send(stream, shared, &meta).is_none() {
        return;
    }

    let mut next = from_seq.max(1);
    // A persist must not compact away what is still to ship.
    let hold = coll.hold_wal(next);
    let mut scratch = [0u8; 64 * 1024];
    let mut last_sent = Instant::now();
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        // Drain acks (and notice peer departure) — pump blocks at most
        // one TICK, which also paces the tail polling below.
        let msgs = match pump(stream, decoder, &mut scratch) {
            Ok(Some(msgs)) => msgs,
            Ok(None) | Err(_) => return,
        };
        for msg in msgs {
            match msg {
                Message::Ack { applied } if collection == "publications" => {
                    shared.metrics.acked(replica, applied);
                }
                Message::Ack { .. } => {}
                Message::Error(_) => return,
                _ => {}
            }
        }

        // A promotion elsewhere fences this whole listener mid-stream:
        // stop shipping instantly rather than racing the new primary.
        if shared.is_fenced() {
            let _ = Message::Error("fenced: primary was deposed".into()).write_to(stream);
            return;
        }

        // Ship everything new past `next`. The epoch is re-read per
        // iteration: a cascading relay's epoch can advance mid-session
        // when its upstream is promoted.
        let epoch = shared.config.epoch.get();
        match coll.tail_from(next) {
            Ok(WalTail::Records(records)) => {
                let shipped_any = !records.is_empty();
                if !ship_records(stream, shared, epoch, records, &mut next) {
                    return;
                }
                if shipped_any {
                    last_sent = Instant::now();
                }
            }
            // The WAL was compacted past `next` (a snapshot ran while
            // we streamed): re-bootstrap the replica from a checkpoint.
            Ok(WalTail::SnapshotNeeded { .. }) => match send_checkpoint(stream, shared, coll) {
                Ok(Some(seq)) => {
                    next = seq + 1;
                    last_sent = Instant::now();
                }
                Ok(None) => return,
                Err(e) if e.is_transient() => {}
                Err(_) => {
                    let _ = Message::Error("checkpoint failed".into()).write_to(stream);
                    return;
                }
            },
            Err(e) if e.is_transient() => {}
            Err(_) => {
                let _ = Message::Error("tail read failed".into()).write_to(stream);
                return;
            }
        }
        hold.store(next, Ordering::Release);

        if last_sent.elapsed() >= shared.config.heartbeat_interval {
            let hb = Message::Heartbeat {
                watermark: coll.repl_watermark(),
                epoch,
            };
            if send(stream, shared, &hb).is_none() {
                return;
            }
            last_sent = Instant::now();
        }
        let _ = stream.flush();
    }
}

/// Ship a tailed run of records, coalescing runs of small frames into
/// compressed batches when enabled. Returns false when the peer died.
fn ship_records(
    stream: &mut TcpStream,
    shared: &Shared,
    epoch: u64,
    records: Vec<(u64, covidkg_store::WalRecord)>,
    next: &mut u64,
) -> bool {
    let mut pending: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut pending_bytes = 0usize;

    let flush = |stream: &mut TcpStream,
                 pending: &mut Vec<(u64, Vec<u8>)>,
                 pending_bytes: &mut usize,
                 next: &mut u64|
     -> bool {
        if pending.is_empty() {
            return true;
        }
        let last_seq = pending.last().expect("non-empty").0;
        let count = pending.len();
        if count == 1 || !shared.config.batch_frames {
            // A lone frame (or batching off): the standalone message is
            // cheaper than a batch header + compressor warm-up.
            for (seq, record) in pending.drain(..) {
                let msg = frame(epoch, seq, record);
                if send(stream, shared, &msg).is_none() {
                    return false;
                }
                shared.metrics.frame_shipped();
            }
        } else {
            // Entry bytes as the batch encoder lays them out (16-byte
            // header per record) — the compression baseline.
            let uncompressed = *pending_bytes + 16 * count;
            let msg = batch(epoch, std::mem::take(pending));
            let Some(wire) = send(stream, shared, &msg) else {
                return false;
            };
            shared.metrics.batch_shipped(count, uncompressed, wire);
        }
        *pending_bytes = 0;
        *next = last_seq + 1;
        true
    };

    for (seq, record) in records {
        let bytes = record.to_value().to_json().into_bytes();
        let full =
            pending.len() >= MAX_BATCH_FRAMES || pending_bytes + bytes.len() > MAX_BATCH_BYTES;
        if full && !flush(stream, &mut pending, &mut pending_bytes, next) {
            return false;
        }
        pending_bytes += bytes.len();
        pending.push((seq, bytes));
    }
    flush(stream, &mut pending, &mut pending_bytes, next)
}
