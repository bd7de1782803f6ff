//! A database: a set of named collections, optionally persisted under one
//! directory (the analog of COVIDKG's MongoDB database holding the
//! publications, models and knowledge-graph collections).

use crate::collection::{Collection, CollectionConfig};
use crate::error::StoreError;
use crate::stats::DbStats;
use std::sync::RwLock;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// A named set of collections.
#[derive(Debug, Default)]
pub struct Database {
    dir: Option<PathBuf>,
    collections: RwLock<BTreeMap<String, Arc<Collection>>>,
}

impl Database {
    /// Purely in-memory database.
    pub fn in_memory() -> Self {
        Database::default()
    }

    /// Database persisting collections under `dir` (created on demand).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Database {
            dir: Some(dir),
            collections: RwLock::new(BTreeMap::new()),
        })
    }

    /// Create (or re-open, when persistent state exists) a collection.
    /// Fails if a collection with this name is already live.
    pub fn create_collection(&self, config: CollectionConfig) -> Result<Arc<Collection>, StoreError> {
        let name = config.name.clone();
        let coll = match &self.dir {
            Some(dir) => Collection::open(config, dir)?,
            None => Collection::new(config),
        };
        let coll = Arc::new(coll);
        let mut guard = self.collections.write().unwrap();
        if guard.contains_key(&name) {
            return Err(StoreError::BadQuery(format!(
                "collection {name:?} already exists"
            )));
        }
        guard.insert(name, Arc::clone(&coll));
        Ok(coll)
    }

    /// Look up a live collection by name, creating (or re-opening) it
    /// when absent — the idempotent variant of
    /// [`Database::create_collection`] used by replica bootstrap, where
    /// the same collection set may be requested on every reconnect.
    pub fn get_or_create(&self, config: CollectionConfig) -> Result<Arc<Collection>, StoreError> {
        if let Ok(coll) = self.collection(&config.name) {
            return Ok(coll);
        }
        match self.create_collection(config.clone()) {
            Ok(coll) => Ok(coll),
            // Lost a creation race: someone else registered it first.
            Err(StoreError::BadQuery(_)) => self.collection(&config.name),
            Err(e) => Err(e),
        }
    }

    /// Look up a live collection.
    pub fn collection(&self, name: &str) -> Result<Arc<Collection>, StoreError> {
        self.collections
            .read().unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NoSuchCollection(name.to_string()))
    }

    /// Names of live collections.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.read().unwrap().keys().cloned().collect()
    }

    /// Drop a collection from the database (persistent files are removed).
    pub fn drop_collection(&self, name: &str) -> Result<(), StoreError> {
        let removed = self.collections.write().unwrap().remove(name);
        if removed.is_none() {
            return Err(StoreError::NoSuchCollection(name.to_string()));
        }
        if let Some(dir) = &self.dir {
            for ext in ["snapshot", "wal", "seq"] {
                let p = dir.join(format!("{name}.{ext}"));
                if p.exists() {
                    std::fs::remove_file(p)?;
                }
            }
        }
        Ok(())
    }

    /// Snapshot every persistent collection.
    pub fn snapshot_all(&self) -> Result<usize, StoreError> {
        let mut total = 0;
        for coll in self.collections.read().unwrap().values() {
            total += coll.snapshot()?;
        }
        Ok(total)
    }

    /// Aggregate stats across collections.
    pub fn stats(&self) -> DbStats {
        DbStats {
            collections: self
                .collections
                .read().unwrap()
                .values()
                .map(|c| c.stats())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_json::obj;

    #[test]
    fn create_lookup_drop() {
        let db = Database::in_memory();
        db.create_collection(CollectionConfig::new("pubs")).unwrap();
        db.create_collection(CollectionConfig::new("kg")).unwrap();
        assert_eq!(db.collection_names(), ["kg", "pubs"]);
        assert!(db.collection("pubs").is_ok());
        assert!(db.collection("nope").is_err());
        assert!(db
            .create_collection(CollectionConfig::new("pubs"))
            .is_err());
        db.drop_collection("kg").unwrap();
        assert!(db.collection("kg").is_err());
    }

    #[test]
    fn stats_cover_all_collections() {
        let db = Database::in_memory();
        let pubs = db.create_collection(CollectionConfig::new("pubs")).unwrap();
        pubs.insert(obj! { "t" => "x" }).unwrap();
        db.create_collection(CollectionConfig::new("models")).unwrap();
        let stats = db.stats();
        assert_eq!(stats.collections.len(), 2);
        assert_eq!(stats.total_docs(), 1);
    }

    #[test]
    fn persistent_database_round_trip() {
        let dir = std::env::temp_dir().join(format!("covidkg-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            let pubs = db.create_collection(CollectionConfig::new("pubs")).unwrap();
            pubs.insert(obj! { "_id" => "a", "t" => "persisted" }).unwrap();
            pubs.sync().unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            let pubs = db.create_collection(CollectionConfig::new("pubs")).unwrap();
            assert_eq!(pubs.len(), 1);
            assert!(pubs.get("a").is_some());
            db.snapshot_all().unwrap();
            db.drop_collection("pubs").unwrap();
            assert!(!dir.join("pubs.snapshot").exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
