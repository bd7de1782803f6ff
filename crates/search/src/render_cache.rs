//! Render-level cache: memoized snippet/highlight construction.
//!
//! `covidkg-serve` already caches whole result *pages*, but any page miss
//! (new query, new page number, generation bump) rebuilds every result
//! from scratch — re-walking each document's fields for match spans and
//! snippet windows. This cache memoizes the per-document render instead,
//! keyed on `(canonical query, document id)` at the store's mutation
//! epoch: different pages, engines and paginations of overlapping result
//! sets share the rendered snippets, and [`RenderCache::sync`] drops the
//! renders of documents written since. Scores are *not* cached — they
//! depend on corpus-level IDF and are filled in fresh per search.
//!
//! A page costs two lock acquisitions at most: one probe for all of its
//! hits ([`RenderCache::get`]) and one insert for all of its misses
//! ([`RenderCache::put`]). Keys and values are built outside the lock
//! and shared (`Arc`), so neither call allocates a key to look up nor
//! copies a render under the lock.

use crate::result::FieldSnippet;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The memoized, score-free part of a [`crate::SearchResult`].
#[derive(Debug, Clone)]
pub struct CachedRender {
    /// Rendered title.
    pub title: String,
    /// Brief-view snippets.
    pub snippets: Vec<FieldSnippet>,
    /// Collapsed further matches.
    pub collapsed: Vec<FieldSnippet>,
}

/// Hit/miss/occupancy counters for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the render.
    pub misses: u64,
    /// Entries currently resident.
    pub resident: usize,
}

#[derive(Default)]
struct Inner {
    /// Epoch the resident entries are valid at. It only moves forward: a
    /// lookup or insert at an older epoch is a miss or a no-op, and one
    /// at a newer epoch the cache was not synced to drops everything.
    epoch: u64,
    /// Query key → document id → render.
    by_query: HashMap<Arc<str>, HashMap<Arc<str>, Arc<CachedRender>>>,
    /// Every resident `(query key, document id)`, oldest first, for FIFO
    /// eviction once `cap` is reached.
    order: VecDeque<(Arc<str>, Arc<str>)>,
}

impl Inner {
    /// Whether entries can be read or written at `epoch`, moving the
    /// cache forward (emptied) to a newer one.
    fn at(&mut self, epoch: u64) -> bool {
        if epoch > self.epoch {
            self.by_query.clear();
            self.order.clear();
            self.epoch = epoch;
        }
        epoch == self.epoch
    }

    fn remove(&mut self, query_key: &str, doc_id: &str) {
        if let Some(docs) = self.by_query.get_mut(query_key) {
            docs.remove(doc_id);
            if docs.is_empty() {
                self.by_query.remove(query_key);
            }
        }
    }
}

/// Bounded, epoch-invalidated memo of built result renders.
///
/// Eviction is FIFO over insertion order — renders are cheap enough to
/// rebuild that recency tracking isn't worth a per-hit write.
pub struct RenderCache {
    cap: usize,
    inner: Mutex<Inner>,
    /// `inner.epoch`, readable without the lock, so that a
    /// [`RenderCache::sync`] with nothing to do takes none. Stored
    /// (`Release`) under the lock after `inner.epoch` moves, loaded
    /// (`Acquire`) before it; a stale read only sends a sync to the lock.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for RenderCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("RenderCache")
            .field("cap", &self.cap)
            .field("resident", &s.resident)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl RenderCache {
    /// Cache bounded to `cap` entries (minimum 1).
    pub fn new(cap: usize) -> Self {
        RenderCache {
            cap: cap.max(1),
            inner: Mutex::new(Inner::default()),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up the renders of `doc_ids` under `query_key` at the store's
    /// `epoch`, all under one lock: one slot per id, in order, `None` for
    /// a miss. Every lookup at an epoch older than the cache's misses.
    pub fn get<'i>(
        &self,
        epoch: u64,
        query_key: &str,
        doc_ids: impl IntoIterator<Item = &'i str>,
    ) -> Vec<Option<Arc<CachedRender>>> {
        let doc_ids = doc_ids.into_iter();
        let mut out = Vec::with_capacity(doc_ids.size_hint().0);
        {
            let mut inner = self.lock();
            let docs = if inner.at(epoch) { inner.by_query.get(query_key) } else { None };
            out.extend(doc_ids.map(|id| docs.and_then(|docs| docs.get(id)).cloned()));
            self.epoch.store(inner.epoch, Ordering::Release);
        }
        let hits = out.iter().filter(|r| r.is_some()).count() as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(out.len() as u64 - hits, Ordering::Relaxed);
        out
    }

    /// Store renders built at the store's `epoch` under `query_key`, all
    /// under one lock. Renders built at an epoch older than the cache's
    /// are dropped: their documents may have changed since.
    pub fn put(
        &self,
        epoch: u64,
        query_key: Arc<str>,
        renders: Vec<(Arc<str>, Arc<CachedRender>)>,
    ) {
        let mut inner = self.lock();
        if inner.at(epoch) {
            for (doc_id, render) in renders {
                if inner.by_query.get(&query_key).is_some_and(|docs| docs.contains_key(&doc_id)) {
                    continue;
                }
                while inner.order.len() >= self.cap {
                    let Some((q, d)) = inner.order.pop_front() else { break };
                    inner.remove(&q, &d);
                }
                inner.order.push_back((Arc::clone(&query_key), Arc::clone(&doc_id)));
                inner
                    .by_query
                    .entry(Arc::clone(&query_key))
                    .or_default()
                    .insert(doc_id, render);
            }
        }
        self.epoch.store(inner.epoch, Ordering::Release);
    }

    /// Advance the cache to `epoch`, evicting only the documents the
    /// store proves were touched. `touched_since` receives the resident
    /// epoch and returns the ids mutated since it — or `None` when the
    /// store can't bound the set, in which case everything is dropped.
    /// Entries for unrelated documents survive the epoch bump. A sync to
    /// the cache's epoch or an older one does nothing, and takes no lock.
    pub fn sync(&self, epoch: u64, touched_since: impl FnOnce(u64) -> Option<Vec<String>>) {
        if self.epoch.load(Ordering::Acquire) >= epoch {
            return;
        }
        let mut inner = self.lock();
        if inner.epoch >= epoch {
            return;
        }
        match touched_since(inner.epoch) {
            Some(ids) => {
                let touched: HashSet<&str> = ids.iter().map(String::as_str).collect();
                inner.by_query.retain(|_, docs| {
                    docs.retain(|doc_id, _| !touched.contains(&**doc_id));
                    !docs.is_empty()
                });
                inner.order.retain(|(_, doc_id)| !touched.contains(&**doc_id));
            }
            None => {
                inner.by_query.clear();
                inner.order.clear();
            }
        }
        inner.epoch = epoch;
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Current counters.
    pub fn stats(&self) -> RenderCacheStats {
        let resident = self.lock().order.len();
        RenderCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            resident,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_text::Snippet;

    fn render(tag: &str) -> Arc<CachedRender> {
        Arc::new(CachedRender {
            title: format!("title {tag}"),
            snippets: vec![FieldSnippet {
                field: "title".into(),
                snippet: Snippet {
                    text: format!("snippet {tag}"),
                    highlights: vec![],
                    leading_ellipsis: false,
                    trailing_ellipsis: false,
                },
            }],
            collapsed: vec![],
        })
    }

    fn put(cache: &RenderCache, epoch: u64, doc: &str, query: &str) {
        cache.put(epoch, Arc::from(query), vec![(Arc::from(doc), render(doc))]);
    }

    fn get(cache: &RenderCache, epoch: u64, doc: &str, query: &str) -> Option<Arc<CachedRender>> {
        cache.get(epoch, query, [doc]).pop().expect("one slot per id")
    }

    #[test]
    fn hit_after_put_and_counters() {
        let cache = RenderCache::new(8);
        assert!(get(&cache, 1, "d1", "q").is_none());
        put(&cache, 1, "d1", "q");
        let hit = get(&cache, 1, "d1", "q").expect("cached");
        assert_eq!(hit.title, "title d1");
        assert_eq!(hit.snippets[0].snippet.text, "snippet d1");
        // Different query key is a different entry.
        assert!(get(&cache, 1, "d1", "other").is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.resident), (1, 2, 1));
    }

    #[test]
    fn a_page_is_probed_and_filled_in_one_call_each() {
        let cache = RenderCache::new(8);
        let page = ["d1", "d2", "d3"];
        assert!(cache.get(1, "q", page).iter().all(Option::is_none));
        cache.put(
            1,
            Arc::from("q"),
            vec![(Arc::from("d1"), render("d1")), (Arc::from("d3"), render("d3"))],
        );
        let slots = cache.get(1, "q", page);
        let titles: Vec<Option<&str>> =
            slots.iter().map(|r| r.as_ref().map(|r| r.title.as_str())).collect();
        assert_eq!(titles, [Some("title d1"), None, Some("title d3")]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.resident), (2, 4, 2));
    }

    #[test]
    fn epoch_change_invalidates_everything() {
        let cache = RenderCache::new(8);
        put(&cache, 1, "d1", "q");
        put(&cache, 1, "d2", "q");
        assert!(get(&cache, 1, "d2", "q").is_some());
        // The store mutated and nobody synced: epoch 2 lookups see an
        // empty cache.
        assert!(get(&cache, 2, "d1", "q").is_none());
        assert_eq!(cache.stats().resident, 0);
        // And the old epoch's entries never resurface.
        assert!(get(&cache, 1, "d1", "q").is_none());
    }

    /// A search that read the epoch before a write and the cache after
    /// the next search synced past it neither reads nor writes, and the
    /// renders the sync kept stay resident.
    #[test]
    fn older_epochs_miss_and_leave_newer_entries_resident() {
        let cache = RenderCache::new(8);
        put(&cache, 6, "d1", "q");
        put(&cache, 6, "d2", "q");
        assert!(get(&cache, 5, "d1", "q").is_none(), "a lookup at an older epoch misses");
        put(&cache, 5, "d3", "q");
        assert_eq!(cache.stats().resident, 2, "an insert at an older epoch is dropped");
        assert!(get(&cache, 6, "d1", "q").is_some());
        assert!(get(&cache, 6, "d2", "q").is_some());
        assert!(get(&cache, 6, "d3", "q").is_none());
        cache.sync(5, |_| panic!("a sync to an older epoch does nothing"));
        assert_eq!(cache.stats().resident, 2);
    }

    #[test]
    fn sync_evicts_only_touched_documents() {
        let cache = RenderCache::new(8);
        put(&cache, 1, "d1", "q");
        put(&cache, 1, "d2", "q");
        put(&cache, 1, "d2", "other");
        // The store reports only d2 changed between epochs 1 and 3.
        cache.sync(3, |since| {
            assert_eq!(since, 1);
            Some(vec!["d2".to_string()])
        });
        assert!(get(&cache, 3, "d1", "q").is_some(), "unrelated doc survives");
        assert!(get(&cache, 3, "d2", "q").is_none(), "touched doc evicted");
        assert!(get(&cache, 3, "d2", "other").is_none(), "all keys of it");
        assert_eq!(cache.stats().resident, 1);
    }

    #[test]
    fn sync_without_coverage_clears_everything() {
        let cache = RenderCache::new(8);
        put(&cache, 1, "d1", "q");
        cache.sync(9, |_| None);
        assert!(get(&cache, 9, "d1", "q").is_none());
        assert_eq!(cache.stats().resident, 0);
    }

    #[test]
    fn sync_same_epoch_is_a_no_op() {
        let cache = RenderCache::new(8);
        put(&cache, 4, "d1", "q");
        cache.sync(4, |_| panic!("touched_since must not be consulted"));
        assert!(get(&cache, 4, "d1", "q").is_some());
    }

    #[test]
    fn sync_keeps_eviction_order_consistent() {
        let cache = RenderCache::new(2);
        put(&cache, 1, "a", "q");
        put(&cache, 1, "b", "q");
        cache.sync(2, |_| Some(vec!["a".to_string()]));
        // "a" is gone; inserting two more must evict "b" first, not a
        // phantom slot left behind by the sync.
        put(&cache, 2, "c", "q");
        put(&cache, 2, "d", "q");
        assert!(get(&cache, 2, "b", "q").is_none());
        assert!(get(&cache, 2, "c", "q").is_some());
        assert!(get(&cache, 2, "d", "q").is_some());
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = RenderCache::new(2);
        put(&cache, 1, "a", "q");
        put(&cache, 1, "b", "other");
        put(&cache, 1, "c", "q");
        assert!(get(&cache, 1, "a", "q").is_none(), "oldest evicted");
        assert!(get(&cache, 1, "b", "other").is_some());
        assert!(get(&cache, 1, "c", "q").is_some());
        assert_eq!(cache.stats().resident, 2);
        // A second insert of a resident entry keeps the first.
        put(&cache, 1, "c", "q");
        assert_eq!(cache.stats().resident, 2);
        assert!(get(&cache, 1, "b", "other").is_some());
    }
}
