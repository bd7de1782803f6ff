//! Sharded LRU cache for served results with generation-based
//! invalidation, TTL expiry and a total-bytes budget.
//!
//! Keys are the canonical per-op strings of the op table ([`crate::op`]):
//! `(engine, normalized query, page)` from [`covidkg_search::cache_key`]
//! for search traffic, `kgq|`/`kgp|`/`kgn|`/`tn|`/`ts|`/`bias|` for KG and
//! trust traffic, each with a `|trust` suffix for its `trust=1` re-rank.
//! Values are shared [`Entry`]s — the bytes that are sent, serialized
//! once by the thread that computed them, with the typed page beside
//! them for search traffic — tagged with the data generation that
//! produced them. A lookup is a refcount bump, and only hits when
//! the entry's generation equals the caller's *current* generation, so a
//! page cached before an ingest can never be served after it *as fresh*.
//! Generation-stale entries stay resident (they are the preferred
//! eviction victims) because degraded mode can still serve them, marked
//! stale, when the backend is unhealthy.
//!
//! Bounding is three-fold: entry count (LRU eviction), entry age (TTL
//! expiry, lazily on lookup and eagerly when choosing eviction victims)
//! and resident bytes (body plus typed page; oldest entries go first
//! when the budget is exceeded). Every eviction increments a typed
//! counter surfaced through [`CacheStats`].
//!
//! Sharding (key-hash → shard, each with its own mutex) keeps concurrent
//! clients from serializing on one lock; shard mutexes recover from
//! poisoning (a panicking worker must not wedge the cache), and per-shard
//! LRU order is tracked with a monotone use-counter.
//!
//! For degraded mode, [`QueryCache::get_stale`] returns an entry
//! *ignoring* generation and TTL — the server marks such responses stale
//! rather than failing outright when its backend is unhealthy.

use covidkg_search::result::FieldSnippet;
use covidkg_search::{SearchPage, SearchResult};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the cache holds and every reply shares: the serialized body as
/// it is sent and, for the search classes, the typed page it was
/// serialized from. Immutable once built; requests that share a cache
/// key share every byte of the body but the echoed `query`, whose place
/// is recorded so each reply can carry its own spelling.
#[derive(Debug)]
pub struct Entry {
    body: Box<str>,
    /// For the search classes: the typed page, and where its echoed
    /// `query` string literal lies in `body`. The KG and trust bodies
    /// echo nothing.
    page: Option<(Arc<SearchPage>, Range<usize>)>,
}

impl Entry {
    /// The serialized body, as computed: for a page, with the computing
    /// request's own query.
    pub fn as_str(&self) -> &str {
        &self.body
    }

    /// [`Entry::as_str`] as bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.body.as_bytes()
    }

    /// The typed page, when this is search traffic.
    pub fn page(&self) -> Option<&Arc<SearchPage>> {
        self.page.as_ref().map(|(page, _)| page)
    }

    /// `query` as the string literal [`Entry::slices`] takes.
    pub fn literal(query: &str) -> Box<str> {
        SearchPage::query_literal(query)
    }

    /// The body as it is sent, in order, unused slices empty: all of it
    /// or — for a reply echoing another spelling than the entry was
    /// computed for — `{"query":`, that spelling's `literal` and
    /// everything after the entry's own. A body that echoes nothing
    /// ignores `literal`.
    pub fn slices<'a>(&'a self, literal: Option<&'a str>) -> [&'a [u8]; 3] {
        match (literal, &self.page) {
            (Some(literal), Some((_, echo))) => [
                self.body[..echo.start].as_bytes(),
                literal.as_bytes(),
                self.body[echo.end..].as_bytes(),
            ],
            _ => [self.as_bytes(), &[], &[]],
        }
    }

    /// Resident footprint in bytes: the body, and the typed page with
    /// every snippet, collapsed ones included.
    fn resident_bytes(&self) -> usize {
        fn snippets(list: &Vec<FieldSnippet>) -> usize {
            let own = |s: &FieldSnippet| {
                s.field.capacity()
                    + s.snippet.text.capacity()
                    + s.snippet.highlights.capacity() * size_of::<(usize, usize)>()
            };
            list.capacity() * size_of::<FieldSnippet>() + list.iter().map(own).sum::<usize>()
        }
        let result = |r: &SearchResult| {
            r.id.capacity() + r.title.capacity() + snippets(&r.snippets) + snippets(&r.collapsed)
        };
        let page = |p: &Arc<SearchPage>| {
            2 * size_of::<usize>() // the Arc's counts
                + size_of::<SearchPage>()
                + p.query.capacity()
                + p.results.capacity() * size_of::<SearchResult>()
                + p.results.iter().map(result).sum::<usize>()
        };
        2 * size_of::<usize>()
            + size_of::<Entry>()
            + self.body.len()
            + self.page().map_or(0, page)
    }
}

/// A pre-serialized JSON body (the KG and trust classes, whose wire form
/// is the canonical one).
impl From<String> for Entry {
    fn from(body: String) -> Entry {
        Entry {
            body: body.into_boxed_str(),
            page: None,
        }
    }
}

/// A search page, serialized here — the one time it ever is.
impl From<Arc<SearchPage>> for Entry {
    fn from(page: Arc<SearchPage>) -> Entry {
        let (body, echo) = page.to_body();
        Entry {
            body: body.into_boxed_str(),
            page: Some((page, echo)),
        }
    }
}

#[derive(Debug)]
struct Slot {
    entry: Arc<Entry>,
    generation: u64,
    last_used: u64,
    inserted: Instant,
    bytes: usize,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, Slot>,
    tick: u64,
    bytes: usize,
}

/// Poison-recovering shard lock: a panic elsewhere (e.g. a worker dying
/// mid-request) must not poison the cache for every later request.
fn lock(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Typed eviction / occupancy counters for the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident (any generation).
    pub resident: usize,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// Evictions forced by the entry-count (LRU) bound.
    pub evicted_lru: u64,
    /// Evictions of entries that outlived the TTL.
    pub evicted_ttl: u64,
    /// Evictions forced by the total-bytes budget.
    pub evicted_bytes: u64,
}

/// Sharded, generation-aware LRU cache with TTL and byte bounds.
#[derive(Debug)]
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    per_shard_bytes: Option<usize>,
    ttl: Option<Duration>,
    evicted_lru: AtomicU64,
    evicted_ttl: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl QueryCache {
    /// Cache holding at most `capacity` entries across `shards` shards
    /// (both floored at 1; per-shard capacity is the ceiling division so
    /// total capacity is at least `capacity`), with no TTL or byte bound.
    pub fn new(capacity: usize, shards: usize) -> QueryCache {
        QueryCache::with_limits(capacity, shards, None, None)
    }

    /// [`QueryCache::new`] plus an optional TTL (entries older than this
    /// never hit and are evicted first) and an optional total-bytes
    /// budget (split evenly across shards).
    pub fn with_limits(
        capacity: usize,
        shards: usize,
        ttl: Option<Duration>,
        max_bytes: Option<usize>,
    ) -> QueryCache {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        QueryCache {
            per_shard_capacity: capacity.div_ceil(shards),
            per_shard_bytes: max_bytes.map(|b| b.div_ceil(shards).max(1)),
            ttl,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            evicted_lru: AtomicU64::new(0),
            evicted_ttl: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn expired(&self, slot: &Slot) -> bool {
        self.ttl.is_some_and(|ttl| slot.inserted.elapsed() > ttl)
    }

    fn remove_slot(shard: &mut Shard, key: &str) -> Option<Slot> {
        let slot = shard.map.remove(key)?;
        shard.bytes = shard.bytes.saturating_sub(slot.bytes);
        Some(slot)
    }

    /// The entry cached under `key` at exactly `current_generation`, or
    /// `None`. TTL expiry removes the entry; a generation mismatch
    /// merely misses — the stale entry stays resident (preferred eviction
    /// victim) so degraded mode can still serve it via
    /// [`QueryCache::get_stale`].
    pub fn get(&self, key: &str, current_generation: u64) -> Option<Arc<Entry>> {
        let mut shard = lock(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(slot) if slot.generation == current_generation => {
                if self.expired(slot) {
                    Self::remove_slot(&mut shard, key);
                    self.evicted_ttl.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                slot.last_used = tick;
                Some(Arc::clone(&slot.entry))
            }
            Some(_) | None => None,
        }
    }

    /// Degraded-mode lookup: the entry cached under `key` at *any*
    /// generation, ignoring TTL, with the generation it was computed at.
    /// The entry is left resident — when the backend recovers, a fresh
    /// one will overwrite it.
    pub fn get_stale(&self, key: &str) -> Option<(Arc<Entry>, u64)> {
        let shard = lock(self.shard(key));
        shard
            .map
            .get(key)
            .map(|slot| (Arc::clone(&slot.entry), slot.generation))
    }

    /// Evict one victim from `shard`: expired entries first, then
    /// generation-stale ones, then the least recently used. `reason`
    /// counts the eviction when the victim was still live.
    fn evict_one(&self, shard: &mut Shard, generation: u64, reason: &AtomicU64) -> bool {
        let victim = shard
            .map
            .iter()
            .min_by_key(|(_, e)| (!self.expired(e), e.generation == generation, e.last_used))
            .map(|(k, _)| k.clone());
        let Some(victim) = victim else {
            return false;
        };
        let expired = shard.map.get(&victim).is_some_and(|e| self.expired(e));
        Self::remove_slot(shard, &victim);
        if expired {
            self.evicted_ttl.fetch_add(1, Ordering::Relaxed);
        } else {
            reason.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Cache `entry` under `key` as of `generation`, evicting (stale →
    /// expired → LRU) until both the entry-count and byte bounds hold.
    pub fn insert(&self, key: String, generation: u64, entry: Arc<Entry>) {
        // The key, its place in the table (at the table's load factor a
        // bucket and most of another) and the entry.
        let bytes = key.capacity() + 2 * size_of::<(String, Slot)>() + entry.resident_bytes();
        let mut shard = lock(self.shard(&key));
        shard.tick += 1;
        let tick = shard.tick;
        Self::remove_slot(&mut shard, &key);
        while shard.map.len() >= self.per_shard_capacity {
            if !self.evict_one(&mut shard, generation, &self.evicted_lru) {
                break;
            }
        }
        if let Some(budget) = self.per_shard_bytes {
            while shard.bytes + bytes > budget && !shard.map.is_empty() {
                if !self.evict_one(&mut shard, generation, &self.evicted_bytes) {
                    break;
                }
            }
        }
        shard.bytes += bytes;
        shard.map.insert(
            key,
            Slot {
                entry,
                generation,
                last_used: tick,
                inserted: Instant::now(),
                bytes,
            },
        );
    }

    /// Entries currently resident (any generation).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).bytes).sum()
    }

    /// Point-in-time occupancy and eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            resident: self.len(),
            resident_bytes: self.resident_bytes(),
            evicted_lru: self.evicted_lru.load(Ordering::Relaxed),
            evicted_ttl: self.evicted_ttl.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn got(c: &QueryCache, key: &str, generation: u64) -> Option<Arc<SearchPage>> {
        c.get(key, generation)
            .and_then(|entry| entry.page().cloned())
    }

    fn page(query: &str, total: usize) -> Arc<Entry> {
        Arc::new(Entry::from(Arc::new(SearchPage {
            query: query.to_string(),
            page: 0,
            page_size: 10,
            total,
            results: Vec::new(),
        })))
    }

    #[test]
    fn hit_requires_matching_generation() {
        let c = QueryCache::new(8, 2);
        c.insert("k".into(), 1, page("q", 3));
        assert_eq!(got(&c, "k", 1).unwrap().total, 3);
        // Generation moved on (ingest): the stale page must not hit, but
        // it stays resident for degraded-mode stale serving.
        assert!(c.get("k", 2).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get_stale("k").unwrap().1, 1);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // Single shard, capacity 2, so order is fully observable.
        let c = QueryCache::new(2, 1);
        c.insert("a".into(), 1, page("a", 1));
        c.insert("b".into(), 1, page("b", 2));
        // Touch "a" so "b" becomes the LRU.
        assert!(got(&c, "a", 1).is_some());
        c.insert("c".into(), 1, page("c", 3));
        assert!(got(&c, "a", 1).is_some(), "recently used entry survives");
        assert!(c.get("b", 1).is_none(), "LRU entry was evicted");
        assert!(c.get("c", 1).is_some());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evicted_lru, 1);
    }

    #[test]
    fn stale_entries_are_preferred_eviction_victims() {
        let c = QueryCache::new(2, 1);
        c.insert("old".into(), 1, page("old", 1));
        c.insert("new".into(), 2, page("new", 2));
        // "old" is generation-1; at generation 2 it is stale and must be
        // evicted before the live "new" entry even though "new" is older
        // in LRU terms after we touch "old"'s slot indirectly.
        c.insert("extra".into(), 2, page("extra", 3));
        assert!(c.get("new", 2).is_some(), "live entry kept");
        assert!(c.get("extra", 2).is_some());
        assert!(c.get("old", 2).is_none());
    }

    #[test]
    fn reinserting_same_key_updates_without_eviction() {
        let c = QueryCache::new(2, 1);
        c.insert("a".into(), 1, page("a", 1));
        c.insert("b".into(), 1, page("b", 2));
        c.insert("a".into(), 1, page("a", 9));
        assert_eq!(c.len(), 2);
        assert_eq!(got(&c, "a", 1).unwrap().total, 9);
        assert!(c.get("b", 1).is_some());
        assert_eq!(c.stats().evicted_lru, 0);
    }

    #[test]
    fn shards_partition_the_keyspace() {
        let c = QueryCache::new(64, 8);
        for i in 0..64 {
            c.insert(format!("key-{i}"), 1, page("q", i));
        }
        assert!(c.len() >= 48, "hash spread should keep most entries");
        for i in 0..64 {
            if let Some(p) = got(&c, &format!("key-{i}"), 1) {
                assert_eq!(p.total, i);
            }
        }
    }

    #[test]
    fn ttl_expires_entries_on_lookup() {
        let c = QueryCache::with_limits(8, 1, Some(Duration::from_millis(15)), None);
        c.insert("k".into(), 1, page("q", 1));
        assert!(c.get("k", 1).is_some(), "fresh entry hits");
        std::thread::sleep(Duration::from_millis(25));
        assert!(c.get("k", 1).is_none(), "expired entry must not hit");
        assert_eq!(c.stats().evicted_ttl, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn byte_budget_evicts_oldest_pages() {
        // The budget fits three empty-results pages and a half.
        let one = QueryCache::new(1, 1);
        one.insert("k0".into(), 1, page("q", 0));
        let budget = one.resident_bytes() * 7 / 2;
        let c = QueryCache::with_limits(64, 1, None, Some(budget));
        for i in 0..6 {
            c.insert(format!("k{i}"), 1, page("q", i));
        }
        let stats = c.stats();
        assert!(
            stats.resident_bytes <= budget,
            "budget respected: {stats:?}"
        );
        assert!(stats.evicted_bytes >= 1, "{stats:?}");
        assert!(c.get("k5", 1).is_some(), "newest entry survives");
    }

    #[test]
    fn a_lookup_shares_the_entry_and_the_echo_range_brackets_the_query() {
        let c = QueryCache::new(8, 1);
        c.insert("k".into(), 1, page("say \"hi\"\\", 7));
        let (hit, stale) = (c.get("k", 1).unwrap(), c.get_stale("k").unwrap().0);
        assert!(Arc::ptr_eq(&hit, &stale), "a refcount bump, not a copy");
        let own = Entry::literal("say \"hi\"\\");
        assert_eq!(&*own, "\"say \\\"hi\\\"\\\\\"");
        let [before, literal, after] = hit.slices(Some(&own));
        assert_eq!(before, b"{\"query\":");
        assert_eq!(literal, own.as_bytes());
        assert!(after.starts_with(b",\"page\":0,"));
        assert_eq!([before, literal, after].concat(), hit.as_bytes());
        assert_eq!(hit.slices(None), [hit.as_bytes(), &[], &[]]);
        let plain = Entry::from("{}".to_string());
        assert_eq!(plain.slices(Some(&own)), [&b"{}"[..], &[], &[]]);
    }

    #[test]
    fn stale_lookup_ignores_generation_and_leaves_entry() {
        let c = QueryCache::new(8, 1);
        c.insert("k".into(), 1, page("q", 7));
        let (stale, generation) = c.get_stale("k").expect("stale page available");
        assert_eq!(stale.page().unwrap().total, 7);
        assert_eq!(generation, 1);
        // Still resident for the next degraded request…
        assert!(c.get_stale("k").is_some());
        // …and still invisible to a fresh-generation lookup.
        assert!(c.get("k", 2).is_none());
    }
}
