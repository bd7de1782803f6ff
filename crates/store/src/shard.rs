//! A single shard: an id → document map behind a `parking_lot` RwLock.
//!
//! COVIDKG's MongoDB cluster is sharded (§2 "scalable sharded MongoDB
//! storage"); [`crate::Collection`] hash-routes documents across a fixed
//! set of these shards so reads of different shards never contend.

use covidkg_json::Value;
use std::sync::{RwLock, RwLockReadGuard};
use std::collections::BTreeMap;

/// One shard of a collection.
#[derive(Debug, Default)]
pub struct Shard {
    /// `_id` → document. BTreeMap keeps scans deterministic (insertion
    /// order independence matters for reproducible experiment output).
    docs: RwLock<BTreeMap<String, Value>>,
}

impl Shard {
    /// Empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace; returns the previous document if any.
    pub fn put(&self, id: &str, doc: Value) -> Option<Value> {
        self.docs.write().unwrap().insert(id.to_string(), doc)
    }

    /// Insert only if absent; returns false when the id already exists.
    pub fn put_new(&self, id: &str, doc: Value) -> bool {
        let mut guard = self.docs.write().unwrap();
        if guard.contains_key(id) {
            return false;
        }
        guard.insert(id.to_string(), doc);
        true
    }

    /// Fetch a clone of a document.
    pub fn get(&self, id: &str) -> Option<Value> {
        self.docs.read().unwrap().get(id).cloned()
    }

    /// Run `f` against a document under the read lock, without cloning.
    pub fn with_doc<T>(&self, id: &str, f: impl FnOnce(&Value) -> T) -> Option<T> {
        self.docs.read().unwrap().get(id).map(f)
    }

    /// Every document under the read lock, for reading many in place.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Value>> {
        self.docs.read().unwrap()
    }

    /// Remove a document, returning it.
    pub fn remove(&self, id: &str) -> Option<Value> {
        self.docs.write().unwrap().remove(id)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.read().unwrap().len()
    }

    /// True when the shard holds nothing.
    pub fn is_empty(&self) -> bool {
        self.docs.read().unwrap().is_empty()
    }

    /// Approximate resident bytes (document payloads only).
    pub fn approx_bytes(&self) -> usize {
        self.docs
            .read().unwrap()
            .iter()
            .map(|(k, v)| k.len() + v.approx_size())
            .sum()
    }

    /// Run `f` over every document under the read lock, collecting its
    /// non-`None` outputs. Scans clone nothing unless `f` does.
    pub fn scan<T>(&self, mut f: impl FnMut(&str, &Value) -> Option<T>) -> Vec<T> {
        let guard = self.docs.read().unwrap();
        let mut out = Vec::new();
        for (id, doc) in guard.iter() {
            if let Some(t) = f(id, doc) {
                out.push(t);
            }
        }
        out
    }

    /// Visit every document (used by snapshotting and index rebuilds).
    pub fn for_each(&self, mut f: impl FnMut(&str, &Value)) {
        for (id, doc) in self.docs.read().unwrap().iter() {
            f(id, doc);
        }
    }

    /// Apply an in-place mutation to one document. Returns false when the
    /// document does not exist.
    pub fn update(&self, id: &str, f: impl FnOnce(&mut Value)) -> bool {
        let mut guard = self.docs.write().unwrap();
        match guard.get_mut(id) {
            Some(doc) => {
                f(doc);
                true
            }
            None => false,
        }
    }

    /// Drop all documents.
    pub fn clear(&self) {
        self.docs.write().unwrap().clear();
    }
}

/// Stable hash used for shard routing (FNV-1a over the id bytes). A fixed,
/// dependency-free hash keeps routing identical across runs and platforms,
/// which the WAL/snapshot format relies on.
pub fn route_hash(id: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in id.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_json::obj;

    #[test]
    fn put_get_remove_cycle() {
        let s = Shard::new();
        assert!(s.put_new("a", obj! { "x" => 1 }));
        assert!(!s.put_new("a", obj! { "x" => 2 }), "duplicate must be refused");
        assert_eq!(s.get("a").unwrap().path("x").unwrap().as_i64(), Some(1));
        let old = s.put("a", obj! { "x" => 3 });
        assert!(old.is_some());
        assert_eq!(s.get("a").unwrap().path("x").unwrap().as_i64(), Some(3));
        assert!(s.remove("a").is_some());
        assert!(s.get("a").is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn scan_filters_and_orders() {
        let s = Shard::new();
        for i in 0..5 {
            s.put(&format!("id{i}"), obj! { "n" => i });
        }
        let odd: Vec<i64> = s.scan(|_, d| {
            let n = d.path("n").unwrap().as_i64().unwrap();
            (n % 2 == 1).then_some(n)
        });
        assert_eq!(odd, [1, 3]);
    }

    #[test]
    fn update_in_place() {
        let s = Shard::new();
        s.put("a", obj! { "n" => 1 });
        assert!(s.update("a", |d| d.insert("n", 2)));
        assert_eq!(s.get("a").unwrap().path("n").unwrap().as_i64(), Some(2));
        assert!(!s.update("missing", |_| {}));
    }

    #[test]
    fn approx_bytes_tracks_content() {
        let s = Shard::new();
        let empty = s.approx_bytes();
        s.put("a", obj! { "text" => "some body text" });
        assert!(s.approx_bytes() > empty);
    }

    #[test]
    fn route_hash_is_stable_and_spread() {
        // Pinned values guard against accidental algorithm changes that
        // would break persisted shard routing.
        assert_eq!(route_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(route_hash("a"), route_hash("b"));
        // Rough spread check over 1000 ids and 8 shards.
        let mut counts = [0usize; 8];
        for i in 0..1000 {
            counts[(route_hash(&format!("doc{i}")) % 8) as usize] += 1;
        }
        for &c in &counts {
            assert!((60..=200).contains(&c), "unbalanced shard: {counts:?}");
        }
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let s = Arc::new(Shard::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    s.put(&format!("t{t}-{i}"), obj! { "t" => t, "i" => i });
                    let _ = s.len();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 1000);
    }
}
