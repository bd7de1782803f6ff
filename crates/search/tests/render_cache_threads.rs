//! The render cache under concurrent searches and writes: readers sync
//! the cache to the store's epoch, probe a page under one lock and insert
//! what they built under another, while a writer keeps advancing the
//! epoch. No render of a touched document may be served once a sync has
//! passed the write that touched it, and every lookup is counted once,
//! as a hit or a miss.
//!
//! The store is a stand-in with `Collection`'s contract: a write bumps
//! the epoch after the document changed and logs `(epoch, id)` under the
//! same lock, and `touched_since` names every document written after an
//! epoch — or, now and then, cannot tell (`None`).

use covidkg_rand::{Rng, SeedableRng, SmallRng};
use covidkg_search::{CachedRender, RenderCache};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

const DOCS: usize = 12;

struct Store {
    /// Every write as `(epoch, doc)`, the epoch counting them.
    log: Mutex<Vec<(u64, usize)>>,
    epoch: AtomicU64,
}

impl Store {
    fn write(&self, doc: usize) {
        let mut log = self.log.lock().unwrap();
        let epoch = log.len() as u64 + 1;
        log.push((epoch, doc));
        self.epoch.store(epoch, Ordering::Release);
    }

    /// The epoch of the last write to `doc` at or before `epoch`: the
    /// version of it a render valid at `epoch` must show at least.
    fn version_at(&self, doc: usize, epoch: u64) -> u64 {
        let log = self.log.lock().unwrap();
        log.iter()
            .filter(|&&(e, d)| d == doc && e <= epoch)
            .map(|&(e, _)| e)
            .max()
            .unwrap_or(0)
    }

    fn touched_since(&self, since: u64, coverable: bool) -> Option<Vec<String>> {
        if !coverable {
            return None;
        }
        let log = self.log.lock().unwrap();
        Some(
            log.iter()
                .filter(|&&(e, _)| e > since)
                .map(|&(_, d)| name(d))
                .collect(),
        )
    }
}

fn name(doc: usize) -> String {
    format!("d{doc}")
}

/// A render that shows which version of its document it was built from.
fn render(doc: usize, version: u64) -> Arc<CachedRender> {
    Arc::new(CachedRender {
        title: format!("{doc}@{version}"),
        snippets: Vec::new(),
        collapsed: Vec::new(),
    })
}

fn parse(title: &str) -> (usize, u64) {
    let (doc, version) = title.split_once('@').unwrap();
    (doc.parse().unwrap(), version.parse().unwrap())
}

#[test]
fn no_touched_render_is_served_after_its_sync_and_every_lookup_counts_once() {
    let store = Store {
        log: Mutex::new(Vec::new()),
        epoch: AtomicU64::new(0),
    };
    // Small enough that pages evict each other too.
    let cache = RenderCache::new(20);
    let done = AtomicBool::new(false);
    // Writer and readers start together.
    let start = Barrier::new(4);
    let (store, cache, done, start) = (&store, &cache, &done, &start);
    let lookups: u64 = std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut rng = SmallRng::seed_from_u64(1);
            start.wait();
            // Bounded, so that a reader's failed assertion ends the test
            // rather than leaving the writer spinning.
            for _ in 0..50_000 {
                if done.load(Ordering::Acquire) {
                    break;
                }
                store.write(rng.gen_range(0..DOCS));
                std::thread::sleep(Duration::from_micros(20));
            }
        });
        let readers: Vec<_> = (0..3u64)
            .map(|r| {
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(100 + r);
                    let mut lookups = 0u64;
                    start.wait();
                    for _ in 0..1500 {
                        let epoch = store.epoch.load(Ordering::Acquire);
                        let coverable = rng.gen_bool(0.95);
                        cache.sync(epoch, |since| store.touched_since(since, coverable));
                        let key = ["q1", "q2"][rng.gen_range(0..2usize)];
                        let mut page: Vec<usize> = (0..4).map(|_| rng.gen_range(0..DOCS)).collect();
                        page.sort_unstable();
                        page.dedup();
                        let page_ids: Vec<String> = page.iter().map(|&d| name(d)).collect();
                        let slots = cache.get(epoch, key, page_ids.iter().map(String::as_str));
                        lookups += slots.len() as u64;
                        let mut built = Vec::new();
                        for (id, slot) in page_ids.iter().zip(slots) {
                            let doc: usize = id[1..].parse().unwrap();
                            match slot {
                                Some(hit) => {
                                    let (of, version) = parse(&hit.title);
                                    assert_eq!(of, doc, "a render of another document");
                                    let due = store.version_at(doc, epoch);
                                    assert!(
                                        version >= due,
                                        "{id} served at version {version} at epoch {epoch}, \
                                         after the write of version {due}"
                                    );
                                }
                                None => {
                                    // Read the document after the epoch, as a
                                    // search does: at least as new as it.
                                    let version = store.version_at(doc, u64::MAX);
                                    built.push((Arc::from(id.as_str()), render(doc, version)));
                                }
                            }
                        }
                        cache.put(epoch, Arc::from(key), built);
                    }
                    lookups
                })
            })
            .collect();
        let lookups = readers.into_iter().map(|r| r.join().unwrap()).sum();
        done.store(true, Ordering::Release);
        lookups
    });
    assert!(
        store.epoch.load(Ordering::Acquire) > 10,
        "the writer ran beside the readers"
    );
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, lookups, "{stats:?}");
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
    assert!(stats.resident <= 20);
}
