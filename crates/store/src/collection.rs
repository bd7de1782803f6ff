//! A sharded collection of JSON documents.
//!
//! Routing: `shard = fnv1a(_id) % n_shards` (stable across runs).
//! Aggregation pushes a leading `$match` down into the shard scan —
//! exact-`_id` filters route to one shard, `$text` filters consult the
//! inverted index, everything else runs a predicate scan that never
//! materializes non-matching documents (the paper's `$match`-first
//! rationale, §2.1).

use crate::error::StoreError;
use crate::fault::{with_backoff, Fault, FaultOp, FaultPlan, RetryPolicy};
use crate::filter::Filter;
use crate::index::{HashIndex, IndexReader, TextIndex};
use crate::pipeline::Pipeline;
use crate::shard::{route_hash, Shard};
use crate::stats::{CollectionStats, ShardStats};
use crate::wal::{self, WalRecord, WalTail, WalWriter};
use covidkg_json::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, RwLock};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Configuration for a collection.
#[derive(Debug, Clone)]
pub struct CollectionConfig {
    /// Collection name (also the persistence file stem).
    pub name: String,
    /// Number of hash shards (≥ 1).
    pub shards: usize,
    /// Dot paths covered by the stemmed text index and used by `$text`.
    pub text_fields: Vec<String>,
}

impl CollectionConfig {
    /// A config with the given name, 4 shards and no text index.
    pub fn new(name: impl Into<String>) -> Self {
        CollectionConfig {
            name: name.into(),
            shards: 4,
            text_fields: Vec::new(),
        }
    }

    /// Set the shard count.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Enable the text index over the given paths.
    pub fn with_text_fields<S: Into<String>>(mut self, fields: impl IntoIterator<Item = S>) -> Self {
        self.text_fields = fields.into_iter().map(Into::into).collect();
        self
    }
}

/// Poison-recovering `Mutex` lock: a panic elsewhere must not cascade
/// into the storage path (the protected state is a WAL writer whose own
/// torn-tail repair handles interrupted appends).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Poison-recovering `RwLock` read guard.
fn read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Poison-recovering `RwLock` write guard.
fn write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Bounded best-k buffer under `(score desc, _id asc)` — sorted insertion
/// with eviction of the worst entry, identical to full sort + truncate.
/// Ids stay borrowed until the `k` survivors are known.
struct TopBuffer<'a> {
    k: usize,
    entries: Vec<(f64, &'a str)>,
}

impl<'a> TopBuffer<'a> {
    fn new(k: usize) -> Self {
        TopBuffer {
            k,
            entries: Vec::with_capacity(k.min(64).saturating_add(1)),
        }
    }

    /// The ranking total order: higher score first (`f64::total_cmp`;
    /// scores are finite and non-negative, so this agrees with the
    /// `$sort`-stage comparison on `Value::float` scores), then ascending
    /// id. Ids are unique, so distinct documents never compare equal.
    fn cmp(sa: f64, ia: &str, sb: f64, ib: &str) -> std::cmp::Ordering {
        sb.total_cmp(&sa).then_with(|| ia.cmp(ib))
    }

    fn push(&mut self, score: f64, id: &'a str) {
        if self.k == 0 {
            return;
        }
        let pos = self.entries.partition_point(|&(s, eid)| {
            Self::cmp(s, eid, score, id) == std::cmp::Ordering::Less
        });
        if pos < self.k {
            self.entries.insert(pos, (score, id));
            if self.entries.len() > self.k {
                self.entries.pop();
            }
        }
    }

    /// The survivors from rank `from` on, best first, their ids copied
    /// out.
    fn into_owned(self, from: usize) -> Vec<(f64, String)> {
        let kept = self.entries.get(from..).unwrap_or_default();
        kept.iter().map(|&(s, id)| (s, id.to_string())).collect()
    }
}

/// Every shard of a collection under its read lock (see
/// [`Collection::read_docs`]).
pub struct DocsReader<'c> {
    shards: Vec<std::sync::RwLockReadGuard<'c, BTreeMap<String, Value>>>,
}

impl DocsReader<'_> {
    /// A document by id, read in place.
    pub fn get(&self, id: &str) -> Option<&Value> {
        self.shards[shard_index(id, self.shards.len())].get(id)
    }

    /// Visit every document in ascending id order: one merge over the
    /// shards, each already ordered by id.
    fn for_each_ascending<'s>(&'s self, mut f: impl FnMut(&'s str, &'s Value)) {
        let mut cursors: Vec<_> = self.shards.iter().map(|s| s.iter().peekable()).collect();
        loop {
            let mut next: Option<(usize, &str)> = None;
            for (i, cursor) in cursors.iter_mut().enumerate() {
                if let Some(&(id, _)) = cursor.peek() {
                    if next.is_none_or(|(_, best)| id.as_str() < best) {
                        next = Some((i, id));
                    }
                }
            }
            let Some((i, _)) = next else { return };
            let (id, doc) = cursors[i].next().expect("peeked");
            f(id, doc);
        }
    }
}

/// The shard a document id routes to.
fn shard_index(id: &str, shards: usize) -> usize {
    (route_hash(id) % shards as u64) as usize
}

/// A sharded document collection.
pub struct Collection {
    config: CollectionConfig,
    shards: Vec<Shard>,
    text_index: Option<TextIndex>,
    hash_indexes: RwLock<Vec<Arc<HashIndex>>>,
    wal: Option<Mutex<WalWriter>>,
    snapshot_path: Option<PathBuf>,
    next_id: AtomicU64,
    faults: RwLock<Option<Arc<FaultPlan>>>,
    retry: RwLock<RetryPolicy>,
    retries: AtomicU64,
    /// The mutation epoch. Written only under the `mutation_log` lock,
    /// so an epoch and its log entry appear together; read without it by
    /// [`Collection::mutation_epoch`].
    mutations: AtomicU64,
    /// Recent `(epoch, doc id)` writes, bounded to [`MUTATION_LOG_CAP`]
    /// entries so [`Collection::touched_since`] can name exactly which
    /// documents changed across an epoch window.
    mutation_log: Mutex<VecDeque<(u64, String)>>,
    /// Replication sequence for in-memory collections (durable ones
    /// track it in the WAL writer; see [`Collection::repl_watermark`]).
    mem_seq: AtomicU64,
    /// What each replication session has yet to ship (see
    /// [`Collection::hold_wal`]).
    wal_holds: Mutex<Vec<Weak<AtomicU64>>>,
}

/// A session's hold defers compaction only while the log is smaller
/// than this (bytes); past it a session still behind gets a checkpoint.
const WAL_HOLD_CAP: u64 = 16 << 20;

/// How many recent writes [`Collection::touched_since`] can account
/// for; older windows fall back to "everything may have changed". An
/// ingested publication logs one (its insert, enrichment included), so
/// one window covers 512 of them.
const MUTATION_LOG_CAP: usize = 512;

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection")
            .field("name", &self.config.name)
            .field("shards", &self.config.shards)
            .field("docs", &self.len())
            .finish()
    }
}

impl Collection {
    /// Create an in-memory collection.
    pub fn new(config: CollectionConfig) -> Self {
        let shards = (0..config.shards).map(|_| Shard::new()).collect();
        let text_index = if config.text_fields.is_empty() {
            None
        } else {
            Some(TextIndex::new(config.text_fields.clone()))
        };
        Collection {
            config,
            shards,
            text_index,
            hash_indexes: RwLock::new(Vec::new()),
            wal: None,
            snapshot_path: None,
            next_id: AtomicU64::new(1),
            faults: RwLock::new(None),
            retry: RwLock::new(RetryPolicy::default()),
            retries: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            mutation_log: Mutex::new(VecDeque::new()),
            mem_seq: AtomicU64::new(0),
            wal_holds: Mutex::new(Vec::new()),
        }
    }

    /// Create a persistent collection in `dir`, recovering any existing
    /// snapshot + WAL for this collection name.
    pub fn open(config: CollectionConfig, dir: &std::path::Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(format!("{}.snapshot", config.name));
        let wal_path = dir.join(format!("{}.wal", config.name));
        let mut coll = Collection::new(config);

        for doc in wal::read_snapshot(&snapshot_path)? {
            coll.apply_insert(doc, false)?;
        }
        let (records, _truncated) = wal::read_wal(&wal_path)?;
        for record in records {
            match record {
                WalRecord::Insert(doc) => {
                    // Re-inserting an id that the snapshot already holds
                    // cannot happen (snapshot resets the WAL), but stay
                    // tolerant during recovery.
                    let _ = coll.apply_insert(doc, false);
                }
                WalRecord::Update { id, doc } => {
                    let _ = coll.apply_replace(&id, doc, false);
                }
                WalRecord::Delete { id } => {
                    let _ = coll.apply_delete(&id, false);
                }
            }
        }
        coll.wal = Some(Mutex::new(WalWriter::open(&wal_path)?));
        coll.snapshot_path = Some(snapshot_path);
        Ok(coll)
    }

    /// The collection's configuration.
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Total document count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Shard::is_empty)
    }

    fn shard_for(&self, id: &str) -> &Shard {
        &self.shards[shard_index(id, self.shards.len())]
    }

    fn fresh_id(&self) -> String {
        loop {
            let n = self.next_id.fetch_add(1, Ordering::Relaxed);
            let id = format!("{}-{n:08x}", self.config.name);
            if self.get(&id).is_none() {
                return id;
            }
        }
    }

    /// Attach (or detach) a fault plan. Every subsequent WAL append,
    /// sync, reset and snapshot write consults it; injected faults
    /// surface as [`StoreError::Transient`] and go through the
    /// collection's retry policy like real transient I/O errors.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        if let Some(wal) = &self.wal {
            lock(wal).set_fault_plan(plan.clone());
        }
        *write(&self.faults) = plan;
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        read(&self.faults).clone()
    }

    /// Replace the retry policy used for transient WAL/snapshot faults.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *write(&self.retry) = policy;
    }

    /// Transient-fault retries performed so far (across all I/O paths).
    pub fn io_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    fn retry_policy(&self) -> RetryPolicy {
        *read(&self.retry)
    }

    fn count_retry(&self, _e: &StoreError) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Consult the attached fault plan for a non-write operation `op`
    /// (index rebuilds and the like), retrying injected transient
    /// failures under the collection's policy. Short writes make no
    /// sense for a decision point and degrade to outright failure.
    fn consult_fault(&self, op: FaultOp) -> Result<(), StoreError> {
        let Some(plan) = self.fault_plan() else {
            return Ok(());
        };
        let policy = self.retry_policy();
        with_backoff(&policy, |e| self.count_retry(e), || match plan.decide(op) {
            Some(Fault::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(Fault::DiskFull) => Err(FaultPlan::disk_full_error(op)),
            Some(Fault::Fail | Fault::ShortWrite(_)) => Err(FaultPlan::error(op)),
            None => Ok(()),
        })
    }

    fn log(&self, record: &WalRecord) -> Result<(), StoreError> {
        if let Some(wal) = &self.wal {
            let policy = self.retry_policy();
            with_backoff(&policy, |e| self.count_retry(e), || {
                lock(wal).append(record)
            })?;
        }
        Ok(())
    }

    /// Insert a document; a missing `_id` gets a generated one. Returns
    /// the id. Fails on duplicate ids.
    pub fn insert(&self, doc: Value) -> Result<String, StoreError> {
        self.apply_insert(doc, true)
    }

    fn apply_insert(&self, mut doc: Value, log: bool) -> Result<String, StoreError> {
        if doc.as_object().is_none() {
            return Err(StoreError::BadQuery("documents must be objects".into()));
        }
        let id = match doc.get("_id").and_then(Value::as_str) {
            Some(id) => id.to_string(),
            None => {
                let id = self.fresh_id();
                // Keep _id first for readability of dumps.
                let mut with_id = Value::Object(vec![("_id".into(), Value::str(id.clone()))]);
                if let Some(members) = doc.as_object_mut() {
                    for (k, v) in members.drain(..) {
                        with_id.as_object_mut().unwrap().push((k, v));
                    }
                }
                doc = with_id;
                id
            }
        };
        if log {
            self.log(&WalRecord::Insert(doc.clone()))?;
        }
        if !self.shard_for(&id).put_new(&id, doc.clone()) {
            return Err(StoreError::DuplicateId(id));
        }
        if let Some(ti) = &self.text_index {
            ti.add(&id, &doc);
        }
        for idx in read(&self.hash_indexes).iter() {
            idx.add(&id, &doc);
        }
        self.log_mutation(Some(&id));
        Ok(id)
    }

    /// Insert many documents; stops at the first error.
    pub fn insert_many(&self, docs: impl IntoIterator<Item = Value>) -> Result<Vec<String>, StoreError> {
        docs.into_iter().map(|d| self.insert(d)).collect()
    }

    /// Insert a batch using up to `threads` workers pulling from a
    /// shared work queue: the calling thread is one of them, and no more
    /// workers run than there are documents, so a one-document batch
    /// spawns no thread at all. Returns the number inserted; an error
    /// stops the worker that hit it, and the batch returns the first
    /// error observed.
    pub fn insert_parallel(&self, docs: Vec<Value>, threads: usize) -> Result<usize, StoreError> {
        let total = docs.len();
        let workers = threads.clamp(1, total.max(1));
        let queue = Mutex::new(docs.into_iter());
        let first_err: Mutex<Option<StoreError>> = Mutex::new(None);
        let work = || loop {
            let Some(doc) = lock(&queue).next() else {
                return;
            };
            if let Err(e) = self.insert(doc) {
                let mut slot = lock(&first_err);
                if slot.is_none() {
                    *slot = Some(e);
                }
                return;
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        match first_err.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// Fetch a document by id.
    pub fn get(&self, id: &str) -> Option<Value> {
        self.shard_for(id).get(id)
    }

    /// Run `f` against a document under its shard's read lock, without
    /// cloning it. Reading many documents, take [`Collection::read_docs`]
    /// once instead.
    pub fn with_doc<T>(&self, id: &str, f: impl FnOnce(&Value) -> T) -> Option<T> {
        self.shard_for(id).with_doc(id, f)
    }

    /// Replace a document wholesale (the `_id` in `doc` is overwritten).
    /// The WAL record and the mutation-log entry are always written; the
    /// text index is rebuilt for the document only when a text field's
    /// value changed, a hash index only when its key did.
    pub fn replace(&self, id: &str, doc: Value) -> Result<(), StoreError> {
        self.apply_replace(id, doc, true)
    }

    fn apply_replace(&self, id: &str, mut doc: Value, log: bool) -> Result<(), StoreError> {
        if doc.as_object().is_none() {
            return Err(StoreError::BadQuery("documents must be objects".into()));
        }
        doc.insert("_id", Value::str(id));
        let shard = self.shard_for(id);
        let Some(old) = shard.get(id) else {
            return Err(StoreError::NotFound(id.to_string()));
        };
        if log {
            self.log(&WalRecord::Update {
                id: id.to_string(),
                doc: doc.clone(),
            })?;
        }
        // Re-index only what the write changed: a text entry when some
        // text field's value differs (equal values have the same string
        // leaves in the same order), a hash entry when its key does.
        if let Some(ti) = &self.text_index {
            if ti.fields().iter().any(|f| old.path(f) != doc.path(f)) {
                ti.remove(id, &old);
                ti.add(id, &doc);
            }
        }
        for idx in read(&self.hash_indexes).iter() {
            if idx.key_of(&old) != idx.key_of(&doc) {
                idx.remove(id, &old);
                idx.add(id, &doc);
            }
        }
        shard.put(id, doc);
        self.log_mutation(Some(id));
        Ok(())
    }

    /// Apply an in-place mutation, re-indexing what it changed.
    pub fn update(&self, id: &str, f: impl FnOnce(&mut Value)) -> Result<(), StoreError> {
        let Some(mut doc) = self.get(id) else {
            return Err(StoreError::NotFound(id.to_string()));
        };
        f(&mut doc);
        self.apply_replace(id, doc, true)
    }

    /// Delete a document.
    pub fn delete(&self, id: &str) -> Result<Value, StoreError> {
        self.apply_delete(id, true)
    }

    fn apply_delete(&self, id: &str, log: bool) -> Result<Value, StoreError> {
        if log {
            self.log(&WalRecord::Delete { id: id.to_string() })?;
        }
        let Some(old) = self.shard_for(id).remove(id) else {
            return Err(StoreError::NotFound(id.to_string()));
        };
        if let Some(ti) = &self.text_index {
            ti.remove(id, &old);
        }
        for idx in read(&self.hash_indexes).iter() {
            idx.remove(id, &old);
        }
        self.log_mutation(Some(id));
        Ok(old)
    }

    /// Monotonic counter of writes: every insert, replace, update and
    /// delete — local, recovered or replicated — bumps it by one, and a
    /// wholesale [`Collection::install_checkpoint`] by one more. The
    /// cursor every derived view and the render cache keep.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutations.load(Ordering::Acquire)
    }

    /// Count one write: the next epoch and its `(epoch, id)` entry are
    /// published under the one log lock, after the document itself
    /// changed, so whoever sees the entry sees the write. `None` bumps
    /// the epoch with no entry — a window [`Collection::touched_since`]
    /// can never cover.
    fn log_mutation(&self, id: Option<&str>) {
        let mut log = lock(&self.mutation_log);
        let epoch = self.mutations.load(Ordering::Relaxed) + 1;
        if let Some(id) = id {
            if log.len() >= MUTATION_LOG_CAP {
                log.pop_front();
            }
            log.push_back((epoch, id.to_string()));
        }
        self.mutations.store(epoch, Ordering::Release);
    }

    /// Document ids written since epoch `since` (exclusive), sorted and
    /// deduplicated. Returns `None` when the bounded mutation log no
    /// longer covers the whole window — the caller must then assume every
    /// document may have changed. `Some(vec![])` means provably nothing
    /// changed. Ids written while this call runs may be included; that
    /// over-approximation is always safe for invalidation.
    pub fn touched_since(&self, since: u64) -> Option<Vec<String>> {
        let log = lock(&self.mutation_log);
        let current = self.mutation_epoch();
        if current <= since {
            return Some(Vec::new());
        }
        let needed = (current - since) as usize;
        let mut ids: Vec<String> = log
            .iter()
            .filter(|(e, _)| *e > since)
            .map(|(_, id)| id.clone())
            .collect();
        // Every write in (since, current] pushed exactly one entry; a
        // shortfall means the log dropped part of the window.
        if ids.len() < needed {
            return None;
        }
        ids.sort();
        ids.dedup();
        Some(ids)
    }

    /// Create (and backfill) a hash index over `path`. The backfill is
    /// an index-rebuild point: an attached fault plan can fail or delay
    /// it ([`FaultOp::IndexRebuild`]), with transient failures retried
    /// under the collection's policy before surfacing.
    pub fn create_hash_index(&self, path: impl Into<String>) -> Result<Arc<HashIndex>, StoreError> {
        self.consult_fault(FaultOp::IndexRebuild)?;
        let idx = Arc::new(HashIndex::new(path));
        for shard in &self.shards {
            shard.for_each(|id, doc| idx.add(id, doc));
        }
        write(&self.hash_indexes).push(Arc::clone(&idx));
        Ok(idx)
    }

    /// The text index, if configured.
    pub fn text_index(&self) -> Option<&TextIndex> {
        self.text_index.as_ref()
    }

    /// Find documents matching a filter (cloned out of the shards).
    pub fn find(&self, filter: &Filter) -> Vec<Value> {
        // Exact-id fast path: route to a single shard.
        if let Some(id) = filter.exact_id() {
            return self
                .get(id)
                .into_iter()
                .filter(|d| filter.matches(d))
                .collect();
        }
        // Index pruning: resolve the filter to a candidate superset
        // (intersecting AND branches, unioning OR branches), then verify
        // each candidate against the full predicate.
        if let Some(ti) = &self.text_index {
            let index = ti.read();
            if let Some(ids) = filter.index_candidates(&index) {
                return ids
                    .iter()
                    .filter_map(|id| self.get(id))
                    .filter(|d| filter.matches(d))
                    .collect();
            }
        }
        self.scan_shards(|_, doc| filter.matches(doc).then(|| doc.clone()))
    }

    /// Count documents matching a filter without materializing them.
    pub fn count(&self, filter: &Filter) -> usize {
        self.scan_shards(|_, d| filter.matches(d).then_some(()))
            .len()
    }

    /// Every shard's documents under one read guard each, for reading
    /// many documents in place — a search's candidates, a page's renders
    /// — with one lock per shard rather than one per document. Until the
    /// reader is dropped this thread must not write to the collection.
    pub fn read_docs(&self) -> DocsReader<'_> {
        DocsReader {
            shards: self.shards.iter().map(Shard::read).collect(),
        }
    }

    /// Score the documents matching `filter` and return the total match
    /// count plus the `(score, _id)` ranked `ranks` (0 the best) by
    /// `(score desc, _id asc)`: a page asks for its own ranks, and only
    /// its ids are copied out.
    ///
    /// With `index` (the collection's text index, read-locked by the
    /// caller so its scorer can borrow postings from the same state) the
    /// matching set comes from the postings: `$text` conjuncts resolve to
    /// ascending candidate ids and only [`Filter::residual`] is evaluated
    /// on a candidate's document. Without it, or when the index cannot
    /// bound the filter, every document is visited, merged across the
    /// shards in id order.
    ///
    /// Either way `score` sees the matching documents in ascending id
    /// order (so a scorer can walk postings with cursors), each read in
    /// place under its shard's one read guard and never cloned, and one
    /// buffer of the best `ranks.end` keeps borrowed ids until the
    /// survivors are known. It all runs on the calling thread: a read
    /// already owns one serve worker, and sharding spreads storage, not
    /// one request's CPU. The result is identical to scoring every match
    /// and fully sorting.
    pub fn scored_top_k(
        &self,
        filter: &Filter,
        ranks: std::ops::Range<usize>,
        index: Option<&IndexReader<'_>>,
        mut score: impl FnMut(&str, &Value) -> f64,
    ) -> (usize, Vec<(f64, String)>) {
        let candidates = index.and_then(|index| filter.index_candidates(index));
        let mut residual = Vec::new();
        match (index, &candidates) {
            (Some(index), Some(_)) => filter.residual(index, &mut residual),
            _ => residual.push(filter),
        }
        let docs = self.read_docs();
        let mut matched = 0usize;
        // No more can match than the shards hold: a page past them keeps
        // nothing, however far past, and only counts.
        let held: usize = docs.shards.iter().map(|s| s.len()).sum();
        let mut best = TopBuffer::new(if ranks.start < held { ranks.end.min(held) } else { 0 });
        let mut visit = |id, doc: &Value| {
            if residual.iter().all(|f| f.matches(doc)) {
                matched += 1;
                best.push(score(id, doc), id);
            }
        };
        match &candidates {
            Some(ids) => {
                for &id in ids {
                    if let Some(doc) = docs.get(id) {
                        visit(id, doc);
                    }
                }
            }
            None => docs.for_each_ascending(visit),
        }
        (matched, best.into_owned(ranks.start))
    }

    /// Scan every shard in order with `f`, keeping what it returns.
    fn scan_shards<T>(&self, f: impl Fn(&str, &Value) -> Option<T>) -> Vec<T> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.scan(|id, doc| f(id, doc)));
        }
        out
    }

    /// Run an aggregation pipeline. A leading `$match` is pushed into the
    /// scan; the rest of the stages run on the matched stream.
    pub fn aggregate(&self, pipeline: &Pipeline) -> Vec<Value> {
        match pipeline.leading_match() {
            Some(filter) => {
                let matched = self.find(filter);
                pipeline.run_from(matched, 1)
            }
            None => {
                let mut all = Vec::with_capacity(self.len());
                for shard in &self.shards {
                    all.extend(shard.scan(|_, d| Some(d.clone())));
                }
                pipeline.run(all)
            }
        }
    }

    /// Every document id, in [`Collection::scan_all`]'s order: shard by
    /// shard, ascending within each. Clones no document.
    pub fn ids(&self) -> Vec<String> {
        self.scan_shards(|id, _| Some(id.to_string()))
    }

    /// Every document (cloned). Prefer [`Collection::aggregate`] for
    /// anything selective.
    pub fn scan_all(&self) -> Vec<Value> {
        let mut all = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.extend(shard.scan(|_, d| Some(d.clone())));
        }
        all
    }

    /// Write a snapshot and truncate the WAL, returning the documents
    /// written. No-op for in-memory collections.
    ///
    /// The WAL lock is held across capture, write and reset: writers
    /// log under that lock before touching shards, so the snapshot and
    /// the truncated (sequence-preserving) log agree on exactly which
    /// records the snapshot absorbed — the invariant replication's
    /// checkpoint bootstrap depends on. While a session's hold names a
    /// logged record, the log is synced and kept instead (0 written).
    pub fn snapshot(&self) -> Result<usize, StoreError> {
        let (Some(path), Some(wal)) = (&self.snapshot_path, &self.wal) else {
            return Ok(0);
        };
        let policy = self.retry_policy();
        let plan = self.fault_plan();
        let mut w = lock(wal);
        let logged = w.base_seq() + 1..=w.watermark();
        let unshipped = |h: Arc<AtomicU64>| logged.contains(&h.load(Ordering::Acquire));
        let mut holds = lock(&self.wal_holds);
        holds.retain(|h| h.strong_count() > 0);
        if w.len_bytes() < WAL_HOLD_CAP && holds.iter().filter_map(Weak::upgrade).any(unshipped) {
            return with_backoff(&policy, |e| self.count_retry(e), || w.sync()).map(|()| 0);
        }
        drop(holds);
        let docs = self.scan_all();
        let n = with_backoff(&policy, |e| self.count_retry(e), || {
            wal::write_snapshot_with(path, docs.iter(), plan.as_deref())
        })?;
        with_backoff(&policy, |e| self.count_retry(e), || w.reset())?;
        Ok(n)
    }

    /// Hold the WAL records from `next_seq` on for a replication session
    /// (it stores each next sequence it has yet to ship): a snapshot
    /// keeps the log while a live hold names a logged record.
    pub fn hold_wal(&self, next_seq: u64) -> Arc<AtomicU64> {
        let hold = Arc::new(AtomicU64::new(next_seq));
        lock(&self.wal_holds).push(Arc::downgrade(&hold));
        hold
    }

    /// The durable replication watermark: the global sequence of the
    /// last record committed to the WAL (monotonic across snapshots).
    /// In-memory collections track an applied sequence only when fed by
    /// [`Collection::apply_replicated`].
    pub fn repl_watermark(&self) -> u64 {
        match &self.wal {
            Some(wal) => lock(wal).watermark(),
            None => self.mem_seq.load(Ordering::Acquire),
        }
    }

    /// The committed WAL records from `from_seq` onward (with their
    /// sequence numbers), or [`WalTail::SnapshotNeeded`] when that
    /// sequence was compacted away and the follower must bootstrap from
    /// a checkpoint.
    pub fn tail_from(&self, from_seq: u64) -> Result<WalTail, StoreError> {
        match &self.wal {
            Some(wal) => lock(wal).tail_from(from_seq),
            None => Err(StoreError::BadQuery(
                "replication requires a durable collection".into(),
            )),
        }
    }

    /// Capture a consistent `(watermark, documents)` checkpoint for
    /// bootstrapping a replica. The state is reconstructed from the
    /// durable artifacts (snapshot file + committed WAL frames) under
    /// the WAL lock, so the document set is exactly the replay of
    /// sequences `1 ..= watermark` — immune to writers that have logged
    /// but not yet applied to their shard.
    pub fn checkpoint(&self) -> Result<(u64, Vec<Value>), StoreError> {
        let Some(wal) = &self.wal else {
            return Ok((self.mem_seq.load(Ordering::Acquire), self.scan_all()));
        };
        let w = lock(wal);
        let watermark = w.watermark();
        let mut by_id: BTreeMap<String, Value> = BTreeMap::new();
        if let Some(path) = &self.snapshot_path {
            for doc in wal::read_snapshot(path)? {
                if let Some(id) = doc.get("_id").and_then(Value::as_str) {
                    by_id.insert(id.to_string(), doc);
                }
            }
        }
        if let WalTail::Records(records) = w.tail_from(w.base_seq() + 1)? {
            for (_, record) in records {
                match record {
                    WalRecord::Insert(doc) | WalRecord::Update { doc, .. } => {
                        if let Some(id) = doc.get("_id").and_then(Value::as_str) {
                            by_id.insert(id.to_string(), doc.clone());
                        }
                    }
                    WalRecord::Delete { id } => {
                        by_id.remove(&id);
                    }
                }
            }
        }
        Ok((watermark, by_id.into_values().collect()))
    }

    /// Replace the entire collection state with a primary checkpoint
    /// and adopt its watermark. Clears shards and indexes, re-applies
    /// `docs`, persists a local snapshot and resets the WAL to `seq` —
    /// an index-rebuild point under [`FaultOp::IndexRebuild`]. The
    /// caller must ensure no concurrent local writers (on a replica the
    /// single pull loop is the only writer); concurrent readers may
    /// observe a partially-installed state for the duration.
    pub fn install_checkpoint(&self, seq: u64, docs: Vec<Value>) -> Result<(), StoreError> {
        self.consult_fault(FaultOp::IndexRebuild)?;
        for shard in &self.shards {
            shard.clear();
        }
        if let Some(ti) = &self.text_index {
            ti.clear();
        }
        for idx in read(&self.hash_indexes).iter() {
            idx.clear();
        }
        for doc in docs {
            self.apply_insert(doc, false)?;
        }
        let policy = self.retry_policy();
        if let Some(path) = &self.snapshot_path {
            let plan = self.fault_plan();
            let snapshot_docs = self.scan_all();
            with_backoff(&policy, |e| self.count_retry(e), || {
                wal::write_snapshot_with(path, snapshot_docs.iter(), plan.as_deref())
            })?;
        }
        if let Some(wal) = &self.wal {
            with_backoff(&policy, |e| self.count_retry(e), || {
                lock(wal).reset_to_seq(seq)
            })?;
        } else {
            self.mem_seq.store(seq, Ordering::Release);
        }
        // Wholesale replacement: the documents that vanished have no log
        // entry, so neither does this bump — `touched_since` reports the
        // window as uncovered and every consumer starts over.
        self.log_mutation(None);
        Ok(())
    }

    /// Apply one replicated record at global sequence `seq`, logging it
    /// to the local WAL (so replica recovery is bit-identical to crash
    /// recovery) before applying it tolerantly, exactly as replay does.
    /// Returns `Ok(false)` for an already-applied sequence (duplicate
    /// delivery after a reconnect) and `Err(Corrupt)` on a gap, which
    /// the follower must treat as "re-sync from the primary".
    pub fn apply_replicated(&self, seq: u64, record: &WalRecord) -> Result<bool, StoreError> {
        let current = self.repl_watermark();
        if seq <= current {
            return Ok(false);
        }
        if seq != current + 1 {
            return Err(StoreError::Corrupt(format!(
                "replication gap: applied through {current}, received {seq}"
            )));
        }
        if let Some(wal) = &self.wal {
            let policy = self.retry_policy();
            let assigned = with_backoff(&policy, |e| self.count_retry(e), || {
                lock(wal).append(record)
            })?;
            debug_assert_eq!(assigned, seq);
        } else {
            self.mem_seq.store(seq, Ordering::Release);
        }
        match record {
            WalRecord::Insert(doc) => {
                let _ = self.apply_insert(doc.clone(), false);
            }
            WalRecord::Update { id, doc } => {
                let _ = self.apply_replace(id, doc.clone(), false);
            }
            WalRecord::Delete { id } => {
                let _ = self.apply_delete(id, false);
            }
        }
        Ok(true)
    }

    /// Order-independent checksum over the full collection contents
    /// (`_id` + canonical JSON of every document), used to prove a
    /// replica converged to a state byte-identical to the primary's.
    /// Independent of shard count and insertion order.
    pub fn content_checksum(&self) -> u64 {
        let mut sum = 0u64;
        let mut count = 0u64;
        for shard in &self.shards {
            for h in shard.scan(|id, doc| {
                Some(route_hash(&format!("{id}\u{1}{}", doc.to_json())))
            }) {
                sum = sum.wrapping_add(h);
                count += 1;
            }
        }
        sum ^ count
    }

    /// Flush and fsync the WAL.
    pub fn sync(&self) -> Result<(), StoreError> {
        if let Some(wal) = &self.wal {
            let policy = self.retry_policy();
            with_backoff(&policy, |e| self.count_retry(e), || lock(wal).sync())?;
        }
        Ok(())
    }

    /// Per-shard and aggregate statistics.
    pub fn stats(&self) -> CollectionStats {
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStats {
                shard: i,
                docs: s.len(),
                bytes: s.approx_bytes(),
            })
            .collect();
        CollectionStats {
            name: self.config.name.clone(),
            docs: shards.iter().map(|s| s.docs).sum(),
            bytes: shards.iter().map(|s| s.bytes).sum(),
            indexed_terms: self.text_index.as_ref().map_or(0, TextIndex::term_count),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_json::obj;

    fn coll() -> Collection {
        Collection::new(
            CollectionConfig::new("pubs")
                .with_shards(4)
                .with_text_fields(["title"]),
        )
    }

    #[test]
    fn insert_get_replace_delete_cycle() {
        let c = coll();
        let id = c.insert(obj! { "title" => "Masks work" }).unwrap();
        assert!(id.starts_with("pubs-"));
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.get(&id).unwrap().path("title").unwrap().as_str(),
            Some("Masks work")
        );
        c.replace(&id, obj! { "title" => "Masks really work" }).unwrap();
        assert_eq!(
            c.get(&id).unwrap().path("title").unwrap().as_str(),
            Some("Masks really work")
        );
        c.delete(&id).unwrap();
        assert!(c.get(&id).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn explicit_ids_and_duplicates() {
        let c = coll();
        c.insert(obj! { "_id" => "x", "n" => 1 }).unwrap();
        let err = c.insert(obj! { "_id" => "x", "n" => 2 }).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateId(_)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn non_object_documents_rejected() {
        let c = coll();
        assert!(matches!(
            c.insert(Value::int(3)),
            Err(StoreError::BadQuery(_))
        ));
    }

    #[test]
    fn update_reindexes_text() {
        let c = coll();
        let id = c.insert(obj! { "title" => "ventilators" }).unwrap();
        c.update(&id, |d| d.insert("title", "vaccines")).unwrap();
        let found = c.find(&Filter::text("vaccine", vec!["title".into()]));
        assert_eq!(found.len(), 1);
        let none = c.find(&Filter::text("ventilator", vec!["title".into()]));
        assert!(none.is_empty());
    }

    #[test]
    fn find_uses_exact_id_route() {
        let c = coll();
        for i in 0..20 {
            c.insert(obj! { "_id" => format!("p{i}"), "n" => i }).unwrap();
        }
        let f = Filter::parse(&obj! { "_id" => "p7" }, &[]).unwrap();
        let hits = c.find(&f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get("n").unwrap().as_i64(), Some(7));
    }

    #[test]
    fn text_search_via_index() {
        let c = coll();
        c.insert(obj! { "_id" => "a", "title" => "Mask mandates reduce spread" })
            .unwrap();
        c.insert(obj! { "_id" => "b", "title" => "Vaccine efficacy study" })
            .unwrap();
        let f = Filter::parse(
            &obj! { "$text" => obj!{ "$search" => "masks" } },
            &["title".to_string()],
        )
        .unwrap();
        let hits = c.find(&f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get("_id").unwrap().as_str(), Some("a"));
    }

    #[test]
    fn aggregate_pushes_down_leading_match() {
        let c = coll();
        for i in 0..50 {
            c.insert(obj! { "_id" => format!("p{i}"), "year" => 2018 + (i % 5) })
                .unwrap();
        }
        let p = Pipeline::new()
            .match_spec(&obj! { "year" => 2020 }, &[])
            .unwrap()
            .count("n");
        let out = c.aggregate(&p);
        assert_eq!(out[0].get("n").unwrap().as_i64(), Some(10));
    }

    #[test]
    fn hash_index_backfills() {
        let c = coll();
        for i in 0..10 {
            c.insert(obj! { "_id" => format!("p{i}"), "year" => 2020 + (i % 2) })
                .unwrap();
        }
        let idx = c.create_hash_index("year").unwrap();
        assert_eq!(idx.lookup(&Value::int(2021)).len(), 5);
        // New inserts maintain the index.
        c.insert(obj! { "_id" => "new", "year" => 2021 }).unwrap();
        assert_eq!(idx.lookup(&Value::int(2021)).len(), 6);
        // Deletes too.
        c.delete("new").unwrap();
        assert_eq!(idx.lookup(&Value::int(2021)).len(), 5);
    }

    #[test]
    fn parallel_ingest_lands_every_document() {
        let c = coll();
        let docs: Vec<Value> = (0..500)
            .map(|i| obj! { "_id" => format!("p{i}"), "n" => i })
            .collect();
        let n = c.insert_parallel(docs, 8).unwrap();
        assert_eq!(n, 500);
        assert_eq!(c.len(), 500);
        // Shards are reasonably balanced.
        let stats = c.stats();
        for s in &stats.shards {
            assert!(s.docs > 50, "unbalanced: {:?}", stats.shards);
        }
    }

    #[test]
    fn find_and_count_agree_with_scan_all_and_keep_order() {
        // An unindexed filter scans every shard; the result must equal
        // (including order) filtering the whole collection.
        let c = coll();
        for i in 0..900 {
            c.insert(obj! { "_id" => format!("p{i:04}"), "n" => i % 7 }).unwrap();
        }
        let f = Filter::parse(&obj! { "n" => 3 }, &[]).unwrap();
        let par = c.find(&f);
        let seq: Vec<Value> = c
            .scan_all()
            .into_iter()
            .filter(|d| f.matches(d))
            .collect();
        assert_eq!(par.len(), seq.len());
        assert_eq!(par, seq);
        assert_eq!(c.count(&f), seq.len());
    }

    #[test]
    fn stats_shapes() {
        let c = coll();
        c.insert(obj! { "title" => "some text here" }).unwrap();
        let s = c.stats();
        assert_eq!(s.docs, 1);
        assert!(s.bytes > 0);
        assert_eq!(s.shards.len(), 4);
        assert!(s.indexed_terms > 0);
    }

    #[test]
    fn missing_docs_error() {
        let c = coll();
        assert!(matches!(c.delete("nope"), Err(StoreError::NotFound(_))));
        assert!(matches!(
            c.replace("nope", obj! {}),
            Err(StoreError::NotFound(_))
        ));
        assert!(matches!(
            c.update("nope", |_| {}),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn persistence_recovers_snapshot_and_wal() {
        let dir = std::env::temp_dir().join(format!("covidkg-coll-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CollectionConfig::new("pubs").with_text_fields(["title"]);
        {
            let c = Collection::open(cfg.clone(), &dir).unwrap();
            c.insert(obj! { "_id" => "a", "title" => "first" }).unwrap();
            c.insert(obj! { "_id" => "b", "title" => "second" }).unwrap();
            c.snapshot().unwrap();
            // Post-snapshot mutations only live in the WAL.
            c.insert(obj! { "_id" => "c", "title" => "third" }).unwrap();
            c.replace("a", obj! { "title" => "first-edited" }).unwrap();
            c.delete("b").unwrap();
            c.sync().unwrap();
        }
        let c = Collection::open(cfg, &dir).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.get("a").unwrap().path("title").unwrap().as_str(),
            Some("first-edited")
        );
        assert!(c.get("b").is_none());
        assert!(c.get("c").is_some());
        // Text index is rebuilt on recovery.
        assert_eq!(c.find(&Filter::text("third", vec!["title".into()])).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reference for `scored_top_k`: score every match, fully sort by
    /// `(score desc, _id asc)`, truncate.
    fn naive_top_k(
        c: &Collection,
        filter: &Filter,
        k: usize,
        score: impl Fn(&str, &Value) -> f64,
    ) -> (usize, Vec<(f64, String)>) {
        let mut scored: Vec<(f64, String)> = c
            .find(filter)
            .into_iter()
            .map(|d| {
                let id = d.get("_id").unwrap().as_str().unwrap().to_string();
                (score(&id, &d), id)
            })
            .collect();
        let total = scored.len();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        scored.truncate(k);
        (total, scored)
    }

    #[test]
    fn scored_top_k_matches_full_sort_with_ties() {
        let c = coll();
        for i in 0..50 {
            // Score collides in groups of 5, exercising the id tie-break.
            c.insert(obj! { "_id" => format!("d{i:02}"), "title" => "mask study", "g" => i / 5 })
                .unwrap();
        }
        c.insert(obj! { "_id" => "zz", "title" => "unrelated" }).unwrap();
        let filter = Filter::text("mask", vec!["title".into()]);
        let score = |_: &str, d: &Value| d.path("g").unwrap().as_f64().unwrap();
        for k in [0, 1, 7, 50, 200] {
            let index = c.text_index().map(TextIndex::read);
            let (total, got) = c.scored_top_k(&filter, 0..k, index.as_ref(), score);
            let (naive_total, naive) = naive_top_k(&c, &filter, k, score);
            assert_eq!(total, naive_total);
            assert_eq!(got, naive, "k = {k}");
            // A page of ranks is that slice of the full sort.
            let from = k / 2;
            let (_, page) = c.scored_top_k(&filter, from..k, index.as_ref(), score);
            assert_eq!(page, naive.get(from..).unwrap_or_default(), "ranks {from}..{k}");
        }
        let index = c.text_index().map(TextIndex::read);
        let (_, past) = c.scored_top_k(&filter, 60..70, index.as_ref(), score);
        assert!(past.is_empty(), "ranks past the matches are empty");
        // Rank ranges that saturate: all of it, or only its far end.
        let (total, all) = c.scored_top_k(&filter, 0..usize::MAX, index.as_ref(), score);
        assert_eq!((total, all), naive_top_k(&c, &filter, usize::MAX, score));
        let far = usize::MAX - 9..usize::MAX;
        assert_eq!(c.scored_top_k(&filter, far, index.as_ref(), score), (50, vec![]));
    }

    #[test]
    fn scored_top_k_without_boundable_filter_scans() {
        let c = coll();
        for i in 0..20 {
            c.insert(obj! { "_id" => format!("d{i:02}"), "title" => "t", "n" => i }).unwrap();
        }
        let filter = Filter::Gte("n".into(), Value::int(15));
        let score = |_: &str, d: &Value| d.path("n").unwrap().as_f64().unwrap();
        let index = c.text_index().map(TextIndex::read);
        let (total, top) = c.scored_top_k(&filter, 0..3, index.as_ref(), score);
        assert_eq!(c.scored_top_k(&filter, 0..3, None, score), (total, top.clone()));
        // The scan hands out documents in ascending id order, as the
        // candidate path does: a postings scorer's cursors rely on it.
        let mut seen = Vec::new();
        c.scored_top_k(&Filter::True, 0..1, None, |id, _| {
            seen.push(id.to_string());
            0.0
        });
        assert_eq!(seen.len(), 20);
        assert!(seen.is_sorted(), "{seen:?}");
        assert_eq!(total, 5);
        let ns: Vec<f64> = top.iter().map(|(s, _)| *s).collect();
        assert_eq!(ns, [19.0, 18.0, 17.0]);
    }

    #[test]
    fn scored_top_k_merges_four_shards_into_the_full_sort() {
        // 1024 candidates spread over 4 shards, visited in one ascending
        // pass: the bounded buffer must equal scoring every match.
        let c = Collection::new(
            CollectionConfig::new("pubs")
                .with_shards(4)
                .with_text_fields(["title"]),
        );
        for i in 0..1024_i64 {
            c.insert(obj! { "_id" => format!("d{i:05}"), "title" => "mask study", "n" => i })
                .unwrap();
        }
        let filter = Filter::text("mask", vec!["title".into()]);
        let score = |_: &str, d: &Value| d.path("n").unwrap().as_f64().unwrap();
        let (expect_total, expect_top) = naive_top_k(&c, &filter, 5, score);
        for q in 0..25 {
            let index = c.text_index().map(TextIndex::read);
            let (total, got) = c.scored_top_k(&filter, 0..5, index.as_ref(), score);
            assert_eq!(total, expect_total, "query {q}");
            assert_eq!(got, expect_top, "query {q}");
        }
        assert_eq!(expect_total, 1024);
        assert!(c.stats().shards.iter().all(|s| s.docs > 0), "every shard holds candidates");
    }

    #[test]
    fn mutation_epoch_counts_every_write() {
        let c = coll();
        let e0 = c.mutation_epoch();
        let id = c.insert(obj! { "title" => "a" }).unwrap();
        assert_eq!(c.mutation_epoch(), e0 + 1, "inserts count");
        c.replace(&id, obj! { "title" => "b" }).unwrap();
        assert_eq!(c.mutation_epoch(), e0 + 2);
        c.update(&id, |d| d.insert("title", Value::str("c"))).unwrap();
        assert_eq!(c.mutation_epoch(), e0 + 3);
        c.delete(&id).unwrap();
        assert_eq!(c.mutation_epoch(), e0 + 4);
        // A rejected write changed nothing and counts for nothing.
        assert!(c.delete(&id).is_err());
        c.insert(obj! { "_id" => "x" }).unwrap();
        assert!(c.insert(obj! { "_id" => "x" }).is_err());
        assert_eq!(c.mutation_epoch(), e0 + 5);
    }

    #[test]
    fn disk_full_is_permanent_and_never_retried() {
        use crate::fault::{FaultConfig, FaultPlan};
        let dir = std::env::temp_dir().join(format!("covidkg-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Collection::open(CollectionConfig::new("pubs"), &dir).unwrap();
        c.insert(obj! { "_id" => "keep", "title" => "resident" }).unwrap();
        c.sync().unwrap();
        // Every durable operation now hits a simulated full disk.
        c.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            fail: 0.0,
            short_write: 0.0,
            delay: 0.0,
            disk_full: 1.0,
            ..FaultConfig::default()
        })));
        let retries_before = c.io_retries();
        let err = c.insert(obj! { "_id" => "new" }).unwrap_err();
        assert!(!err.is_transient(), "ENOSPC must be permanent: {err:?}");
        assert!(
            matches!(&err, StoreError::Io(e) if e.kind() == std::io::ErrorKind::StorageFull),
            "{err:?}"
        );
        assert_eq!(
            c.io_retries(),
            retries_before,
            "a full disk must not be retried"
        );
        assert!(matches!(
            c.snapshot(),
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::StorageFull
        ));
        // The store stays fully readable: the rejected write never
        // reached memory and resident documents are untouched.
        assert_eq!(c.len(), 1);
        assert!(c.get("keep").is_some());
        assert!(c.get("new").is_none());
        // Space freed (plan detached): writes work again.
        c.set_fault_plan(None);
        c.insert(obj! { "_id" => "new" }).unwrap();
        assert_eq!(c.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn touched_since_names_exact_documents() {
        let c = coll();
        let a = c.insert(obj! { "title" => "a" }).unwrap();
        let b = c.insert(obj! { "title" => "b" }).unwrap();
        let e0 = c.mutation_epoch();
        assert_eq!(c.touched_since(e0), Some(vec![]), "nothing changed yet");
        c.replace(&a, obj! { "title" => "a2" }).unwrap();
        c.replace(&b, obj! { "title" => "b2" }).unwrap();
        c.replace(&a, obj! { "title" => "a3" }).unwrap();
        let mut touched = c.touched_since(e0).expect("window covered");
        touched.sort();
        let mut expected = vec![a.clone(), b.clone()];
        expected.sort();
        assert_eq!(touched, expected, "deduplicated touched ids");
        // A narrower window sees only the later mutations.
        assert_eq!(c.touched_since(e0 + 2), Some(vec![a.clone()]));
        // Deletes count too.
        let e1 = c.mutation_epoch();
        c.delete(&b).unwrap();
        assert_eq!(c.touched_since(e1), Some(vec![b.clone()]));
        // So do inserts, with or without a caller-chosen id.
        let e2 = c.mutation_epoch();
        let fresh = c.insert(obj! { "title" => "c" }).unwrap();
        c.insert(obj! { "_id" => "named", "title" => "d" }).unwrap();
        let mut expected = vec![fresh, "named".to_string()];
        expected.sort();
        assert_eq!(c.touched_since(e2), Some(expected));
        // Delete-then-reinsert of one id: two writes, one touched id.
        let e3 = c.mutation_epoch();
        c.delete("named").unwrap();
        c.insert(obj! { "_id" => "named", "title" => "e" }).unwrap();
        assert_eq!(c.mutation_epoch(), e3 + 2);
        assert_eq!(c.touched_since(e3), Some(vec!["named".to_string()]));
        // Replicated frames are logged exactly like local writes.
        let e4 = c.mutation_epoch();
        let seq = c.repl_watermark();
        let frame = WalRecord::Insert(obj! { "_id" => "shipped", "title" => "f" });
        assert!(c.apply_replicated(seq + 1, &frame).unwrap());
        let frame = WalRecord::Delete { id: a.clone() };
        assert!(c.apply_replicated(seq + 2, &frame).unwrap());
        assert_eq!(c.mutation_epoch(), e4 + 2);
        let mut expected = vec![a.clone(), "shipped".to_string()];
        expected.sort();
        assert_eq!(c.touched_since(e4), Some(expected));
        // A checkpoint install replaces everything: documents vanish
        // with no entry, so no earlier window is answerable.
        let e5 = c.mutation_epoch();
        c.install_checkpoint(seq + 2, vec![obj! { "_id" => "only" }]).unwrap();
        assert!(c.mutation_epoch() > e5);
        assert_eq!(c.touched_since(e5), None);
        assert_eq!(c.touched_since(e0), None);
        assert_eq!(c.touched_since(c.mutation_epoch()), Some(vec![]));
    }

    #[test]
    fn replication_surface_round_trips() {
        let dir = std::env::temp_dir().join(format!("covidkg-repl-coll-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CollectionConfig::new("pubs").with_text_fields(["title"]);
        let primary = Collection::open(cfg.clone(), &dir.join("p")).unwrap();
        primary.insert(obj! { "_id" => "a", "title" => "first" }).unwrap();
        primary.insert(obj! { "_id" => "b", "title" => "second" }).unwrap();
        primary.snapshot().unwrap();
        primary.replace("a", obj! { "title" => "edited" }).unwrap();
        primary.delete("b").unwrap();
        assert_eq!(primary.repl_watermark(), 4);

        // A replica starting from scratch needs the checkpoint first…
        assert_eq!(
            primary.tail_from(1).unwrap(),
            WalTail::SnapshotNeeded { base_seq: 2 }
        );
        let (seq, docs) = primary.checkpoint().unwrap();
        assert_eq!(seq, 4);
        let replica = Collection::open(cfg.clone(), &dir.join("r")).unwrap();
        replica.install_checkpoint(seq, docs).unwrap();
        assert_eq!(replica.repl_watermark(), 4);
        assert_eq!(replica.content_checksum(), primary.content_checksum());

        // …then streams the live tail.
        primary.insert(obj! { "_id" => "c", "title" => "third" }).unwrap();
        let WalTail::Records(tail) = primary.tail_from(replica.repl_watermark() + 1).unwrap()
        else {
            panic!("expected records");
        };
        for (s, record) in &tail {
            assert!(replica.apply_replicated(*s, record).unwrap());
        }
        assert_eq!(replica.repl_watermark(), 5);
        assert_eq!(replica.content_checksum(), primary.content_checksum());
        // Duplicate delivery is a no-op, a gap is corruption.
        let rec = WalRecord::Insert(obj! { "_id" => "d" });
        assert!(!replica.apply_replicated(5, &tail[0].1).unwrap());
        assert!(matches!(
            replica.apply_replicated(9, &rec),
            Err(StoreError::Corrupt(_))
        ));
        // Replica recovery replays its own WAL to the same state.
        drop(replica);
        let replica = Collection::open(cfg, &dir.join("r")).unwrap();
        assert_eq!(replica.repl_watermark(), 5);
        assert_eq!(replica.content_checksum(), primary.content_checksum());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_held_log_is_kept_until_its_session_fetches_it() {
        let dir = std::env::temp_dir().join(format!("covidkg-hold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CollectionConfig::new("pubs");
        let c = Collection::open(cfg.clone(), &dir).unwrap();
        c.insert(obj! { "_id" => "a" }).unwrap();
        c.snapshot().unwrap();
        // A session that has fetched everything holds nothing back.
        let hold = c.hold_wal(2);
        c.insert(obj! { "_id" => "b" }).unwrap();
        c.insert(obj! { "_id" => "c" }).unwrap();
        assert_eq!(c.snapshot().unwrap(), 0, "records 2..=3 are unfetched");
        let WalTail::Records(tail) = c.tail_from(2).unwrap() else {
            panic!("the held records were compacted away");
        };
        assert_eq!(tail.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [2, 3]);
        // The kept log recovers the same documents.
        let reopened = Collection::open(cfg.clone(), &dir).unwrap();
        assert_eq!(reopened.content_checksum(), c.content_checksum());
        assert_eq!(reopened.repl_watermark(), 3);
        drop(reopened);
        // Fetched, the same snapshot compacts.
        hold.store(4, Ordering::Release);
        assert_eq!(c.snapshot().unwrap(), 3);
        assert!(matches!(c.tail_from(2).unwrap(), WalTail::SnapshotNeeded { base_seq: 3 }));
        drop(hold);
        // A hold on a compacted record, or a dropped one, defers nothing.
        let stale = c.hold_wal(1);
        c.insert(obj! { "_id" => "d" }).unwrap();
        assert_eq!(c.snapshot().unwrap(), 4);
        let behind = c.hold_wal(5);
        c.insert(obj! { "_id" => "e" }).unwrap();
        drop((stale, behind));
        assert_eq!(c.snapshot().unwrap(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hold_defers_compaction_only_below_the_cap() {
        let dir = std::env::temp_dir().join(format!("covidkg-hold-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Collection::open(CollectionConfig::new("pubs").with_shards(1), &dir).unwrap();
        let _hold = c.hold_wal(1);
        let pad = "x".repeat(64 << 10);
        let logged = || lock(c.wal.as_ref().unwrap()).len_bytes();
        let mut n = 0;
        while logged() + (2 * pad.len() as u64) < WAL_HOLD_CAP {
            c.insert(obj! { "_id" => format!("p{n}"), "pad" => pad.as_str() }).unwrap();
            n += 1;
        }
        assert_eq!(c.snapshot().unwrap(), 0, "{n} records are under the cap");
        c.insert(obj! { "_id" => "one", "pad" => pad.as_str() }).unwrap();
        c.insert(obj! { "_id" => "two", "pad" => pad.as_str() }).unwrap();
        assert!(logged() >= WAL_HOLD_CAP);
        assert_eq!(c.snapshot().unwrap(), n + 2);
        assert!(matches!(c.tail_from(1).unwrap(), WalTail::SnapshotNeeded { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_is_consistent_with_watermark() {
        // In-memory collections expose an applied watermark only via
        // replication; durable checkpoints rebuild from disk artifacts.
        let dir = std::env::temp_dir().join(format!("covidkg-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Collection::open(CollectionConfig::new("pubs"), &dir).unwrap();
        for i in 0..5 {
            c.insert(obj! { "_id" => format!("p{i}"), "n" => i }).unwrap();
        }
        c.snapshot().unwrap();
        c.delete("p0").unwrap();
        let (seq, docs) = c.checkpoint().unwrap();
        assert_eq!(seq, 6);
        assert_eq!(docs.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn touched_since_overflow_returns_none() {
        let c = coll();
        let id = c.insert(obj! { "title" => "x" }).unwrap();
        let e0 = c.mutation_epoch();
        // The boundary: exactly MUTATION_LOG_CAP writes are covered…
        for i in 0..MUTATION_LOG_CAP {
            c.replace(&id, obj! { "title" => format!("v{i}") }).unwrap();
        }
        assert_eq!(c.touched_since(e0), Some(vec![id.clone()]));
        // …and one more is not.
        c.replace(&id, obj! { "title" => "one more" }).unwrap();
        assert_eq!(
            c.touched_since(e0),
            None,
            "log no longer covers the window"
        );
        assert_eq!(c.touched_since(e0 + 1), Some(vec![id.clone()]));
        // But a recent window is still answerable.
        let recent = c.mutation_epoch() - 3;
        assert_eq!(c.touched_since(recent), Some(vec![id]));
    }

    #[test]
    fn touched_since_is_never_spuriously_uncovered_under_concurrent_writers() {
        // Four writers log from their own threads (as `insert_parallel`
        // does) while a reader polls: with fewer than MUTATION_LOG_CAP
        // writes in total the window is always covered, so `None` could
        // only come from an epoch published apart from its entry.
        const WRITERS: usize = 4;
        let per_writer = MUTATION_LOG_CAP / WRITERS - 1;
        let c = coll();
        let e0 = c.mutation_epoch();
        let start = std::sync::Barrier::new(WRITERS + 1);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (c, start) = (&c, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..per_writer / 2 {
                            let id = c.insert(obj! { "_id" => format!("w{w}-{i}") }).unwrap();
                            c.replace(&id, obj! { "title" => "again" }).unwrap();
                        }
                    })
                })
                .collect();
            start.wait();
            while !writers.iter().all(|w| w.is_finished()) {
                let touched = c.touched_since(e0).expect("window is covered");
                assert!(touched.len() as u64 <= c.mutation_epoch() - e0);
            }
        });
        let writes = (WRITERS * (per_writer / 2) * 2) as u64;
        assert_eq!(c.mutation_epoch(), e0 + writes);
        assert_eq!(c.touched_since(e0).unwrap().len() as u64, writes / 2);
    }
}
