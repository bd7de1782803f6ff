//! Sharded LRU cache for served results with generation-based
//! invalidation, TTL expiry and a total-bytes budget.
//!
//! Keys are the canonical per-op strings of the op table ([`crate::op`]):
//! `(engine, normalized query, page)` from [`covidkg_search::cache_key`]
//! for search traffic, `kgq|`/`kgp|`/`kgn|`/`tn|`/`ts|`/`bias|` for KG and
//! trust traffic; values are [`CachedValue`]s — whole [`SearchPage`]s or
//! pre-serialized KG/trust response bodies — tagged
//! with the data generation that produced them. A lookup only hits when
//! the entry's generation equals the caller's *current* generation, so a
//! page cached before an ingest can never be served after it *as fresh*.
//! Generation-stale entries stay resident (they are the preferred
//! eviction victims) because degraded mode can still serve them, marked
//! stale, when the backend is unhealthy.
//!
//! Bounding is three-fold: entry count (LRU eviction), entry age (TTL
//! expiry, lazily on lookup and eagerly when choosing eviction victims)
//! and resident bytes (approximate page footprint; oldest entries go
//! first when the budget is exceeded). Every eviction increments a typed
//! counter surfaced through [`CacheStats`].
//!
//! Sharding (key-hash → shard, each with its own mutex) keeps concurrent
//! clients from serializing on one lock; shard mutexes recover from
//! poisoning (a panicking worker must not wedge the cache), and per-shard
//! LRU order is tracked with a monotone use-counter.
//!
//! For degraded mode, [`QueryCache::get_stale`] returns a page *ignoring*
//! generation and TTL — the server marks such responses stale rather than
//! failing outright when its backend is unhealthy.

use covidkg_search::SearchPage;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What the cache holds: a structured search page (the search traffic
/// classes) or a pre-serialized JSON body (the KG and trust traffic
/// classes, whose wire form is the canonical one).
#[derive(Debug, Clone)]
pub enum CachedValue {
    /// A whole search-result page.
    Page(SearchPage),
    /// A pre-serialized response body.
    Body(String),
}

impl CachedValue {
    /// The page, when this is search traffic.
    pub fn into_page(self) -> Option<SearchPage> {
        match self {
            CachedValue::Page(p) => Some(p),
            CachedValue::Body(_) => None,
        }
    }

    /// The serialized body, when this is KG or trust traffic.
    pub fn into_body(self) -> Option<String> {
        match self {
            CachedValue::Body(b) => Some(b),
            CachedValue::Page(_) => None,
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            CachedValue::Page(p) => approx_page_bytes(p),
            CachedValue::Body(b) => 64 + b.len(),
        }
    }
}

impl From<SearchPage> for CachedValue {
    fn from(p: SearchPage) -> CachedValue {
        CachedValue::Page(p)
    }
}

#[derive(Debug)]
struct Entry {
    value: CachedValue,
    generation: u64,
    last_used: u64,
    inserted: Instant,
    bytes: usize,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, Entry>,
    tick: u64,
    bytes: usize,
}

/// Poison-recovering shard lock: a panic elsewhere (e.g. a worker dying
/// mid-request) must not poison the cache for every later request.
fn lock(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Approximate resident footprint of a cached page, in bytes.
fn approx_page_bytes(page: &SearchPage) -> usize {
    let mut bytes = 128 + page.query.len();
    for r in &page.results {
        bytes += 96 + r.id.len() + r.title.len();
        for s in &r.snippets {
            bytes += 48 + s.field.len() + s.snippet.text.len() + 16 * s.snippet.highlights.len();
        }
    }
    bytes
}

/// Typed eviction / occupancy counters for the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident (any generation).
    pub resident: usize,
    /// Approximate bytes currently resident.
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
    /// Cache holding at most `capacity` pages across `shards` shards
    /// (both floored at 1; per-shard capacity is the ceiling division so
    /// total capacity is at least `capacity`), with no TTL or byte bound.
    pub fn new(capacity: usize, shards: usize) -> QueryCache {
        QueryCache::with_limits(capacity, shards, None, None)
    }

    /// [`QueryCache::new`] plus an optional TTL (entries older than this
    /// never hit and are evicted first) and an optional total-bytes
    /// budget (approximate; split evenly across shards).
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

    fn expired(&self, entry: &Entry) -> bool {
        self.ttl.is_some_and(|ttl| entry.inserted.elapsed() > ttl)
    }

    fn remove_entry(shard: &mut Shard, key: &str) -> Option<Entry> {
        let entry = shard.map.remove(key)?;
        shard.bytes = shard.bytes.saturating_sub(entry.bytes);
        Some(entry)
    }

    /// The value cached under `key` at exactly `current_generation`, or
    /// `None`. TTL expiry removes the entry; a generation mismatch
    /// merely misses — the stale value stays resident (preferred eviction
    /// victim) so degraded mode can still serve it via
    /// [`QueryCache::get_stale`].
    pub fn get(&self, key: &str, current_generation: u64) -> Option<CachedValue> {
        let mut shard = lock(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) if entry.generation == current_generation => {
                if self.expired(entry) {
                    Self::remove_entry(&mut shard, key);
                    self.evicted_ttl.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                entry.last_used = tick;
                Some(entry.value.clone())
            }
            Some(_) | None => None,
        }
    }

    /// Degraded-mode lookup: the value cached under `key` at *any*
    /// generation, ignoring TTL, with the generation it was computed at.
    /// The entry is left resident — when the backend recovers, a fresh
    /// value will overwrite it.
    pub fn get_stale(&self, key: &str) -> Option<(CachedValue, u64)> {
        let shard = lock(self.shard(key));
        shard
            .map
            .get(key)
            .map(|entry| (entry.value.clone(), entry.generation))
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
        Self::remove_entry(shard, &victim);
        if expired {
            self.evicted_ttl.fetch_add(1, Ordering::Relaxed);
        } else {
            reason.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Cache `value` under `key` as of `generation`, evicting (stale →
    /// expired → LRU) until both the entry-count and byte bounds hold.
    pub fn insert(&self, key: String, generation: u64, value: impl Into<CachedValue>) {
        let value = value.into();
        let bytes = value.approx_bytes();
        let mut shard = lock(self.shard(&key));
        shard.tick += 1;
        let tick = shard.tick;
        Self::remove_entry(&mut shard, &key);
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
            Entry {
                value,
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

    /// Approximate resident bytes across all shards.
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

    fn got(c: &QueryCache, key: &str, generation: u64) -> Option<SearchPage> {
        c.get(key, generation).and_then(CachedValue::into_page)
    }

    fn page(query: &str, total: usize) -> SearchPage {
        SearchPage {
            query: query.to_string(),
            page: 0,
            page_size: 10,
            total,
            results: Vec::new(),
        }
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
            if let Some(p) = c.get(&format!("key-{i}"), 1).and_then(CachedValue::into_page) {
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
        // Each empty-results page is ~128 bytes + query; budget fits ~3.
        let c = QueryCache::with_limits(64, 1, None, Some(450));
        for i in 0..6 {
            c.insert(format!("k{i}"), 1, page("q", i));
        }
        let stats = c.stats();
        assert!(
            stats.resident_bytes <= 450,
            "budget respected: {stats:?}"
        );
        assert!(stats.evicted_bytes >= 1, "{stats:?}");
        assert!(c.get("k5", 1).is_some(), "newest entry survives");
    }

    #[test]
    fn stale_lookup_ignores_generation_and_leaves_entry() {
        let c = QueryCache::new(8, 1);
        c.insert("k".into(), 1, page("q", 7));
        let (stale, generation) = c.get_stale("k").expect("stale page available");
        assert_eq!(stale.into_page().unwrap().total, 7);
        assert_eq!(generation, 1);
        // Still resident for the next degraded request…
        assert!(c.get_stale("k").is_some());
        // …and still invisible to a fresh-generation lookup.
        assert!(c.get("k", 2).is_none());
    }
}
