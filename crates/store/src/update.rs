//! MongoDB-style partial update documents.
//!
//! The COVIDKG back-end continuously *enriches* stored publications: the
//! classifiers run "non-stop, classifying new incoming publications" (§2)
//! and write their outputs back onto the documents. [`UpdateSpec`] parses
//! the `{"$set": …, "$inc": …}` wire form and applies it in place;
//! [`crate::Collection::update_spec`] runs one against a stored document,
//! re-indexing only the text and hash entries whose content it changed —
//! an enrichment `$set` leaves the publication's text postings alone.

use crate::error::StoreError;
use covidkg_json::Value;

/// One update operation.
#[derive(Debug, Clone, PartialEq)]
enum UpdateOp {
    /// `$set` — write a value at a path (creating objects on the way).
    Set(String, Value),
    /// `$unset` — remove a path.
    Unset(String),
    /// `$inc` — add a number to a numeric (or missing ⇒ 0) field.
    Inc(String, f64),
    /// `$push` — append to an array (created if missing).
    Push(String, Value),
    /// `$addToSet` — append if not already present.
    AddToSet(String, Value),
    /// `$pull` — remove all array elements equal to the value.
    Pull(String, Value),
}

/// A parsed update document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateSpec {
    ops: Vec<UpdateOp>,
}

impl UpdateSpec {
    /// Parse `{"$set": {...}, "$inc": {...}, …}`.
    pub fn parse(spec: &Value) -> Result<UpdateSpec, StoreError> {
        let members = spec
            .as_object()
            .ok_or_else(|| StoreError::BadQuery("update must be an object".into()))?;
        let mut ops = Vec::new();
        for (op, body) in members {
            let fields = body
                .as_object()
                .ok_or_else(|| StoreError::BadQuery(format!("{op} takes an object")))?;
            for (path, val) in fields {
                if path == "_id" {
                    return Err(StoreError::BadQuery("_id is immutable".into()));
                }
                let parsed = match op.as_str() {
                    "$set" => UpdateOp::Set(path.clone(), val.clone()),
                    "$unset" => UpdateOp::Unset(path.clone()),
                    "$inc" => UpdateOp::Inc(
                        path.clone(),
                        val.as_f64().ok_or_else(|| {
                            StoreError::BadQuery("$inc takes numbers".into())
                        })?,
                    ),
                    "$push" => UpdateOp::Push(path.clone(), val.clone()),
                    "$addToSet" => UpdateOp::AddToSet(path.clone(), val.clone()),
                    "$pull" => UpdateOp::Pull(path.clone(), val.clone()),
                    other => {
                        return Err(StoreError::BadQuery(format!(
                            "unknown update operator {other:?}"
                        )))
                    }
                };
                ops.push(parsed);
            }
        }
        if ops.is_empty() {
            return Err(StoreError::BadQuery("empty update".into()));
        }
        Ok(UpdateSpec { ops })
    }

    /// Apply to a document in place. Operator errors (e.g. `$inc` on a
    /// string) are reported without a partial-application guarantee —
    /// callers pass a clone (as [`crate::Collection::update_spec`] does).
    pub fn apply(&self, doc: &mut Value) -> Result<(), StoreError> {
        for op in &self.ops {
            match op {
                UpdateOp::Set(path, val) => {
                    if !doc.set_path(path, val.clone()) {
                        return Err(StoreError::BadQuery(format!(
                            "$set cannot reach path {path:?}"
                        )));
                    }
                }
                UpdateOp::Unset(path) => {
                    doc.remove_path(path);
                }
                UpdateOp::Inc(path, delta) => {
                    let current = match doc.path(path) {
                        None => 0.0,
                        Some(v) => v.as_f64().ok_or_else(|| {
                            StoreError::BadQuery(format!("$inc target {path:?} is not numeric"))
                        })?,
                    };
                    let next = current + delta;
                    let next = if next.fract() == 0.0 && next.abs() < 9.0e15 {
                        Value::int(next as i64)
                    } else {
                        Value::float(next)
                    };
                    if !doc.set_path(path, next) {
                        return Err(StoreError::BadQuery(format!(
                            "$inc cannot reach path {path:?}"
                        )));
                    }
                }
                UpdateOp::Push(path, val) | UpdateOp::AddToSet(path, val) => {
                    let dedupe = matches!(op, UpdateOp::AddToSet(_, _));
                    match doc.path_mut(path) {
                        Some(Value::Array(items)) => {
                            if !(dedupe && items.contains(val)) {
                                items.push(val.clone());
                            }
                        }
                        Some(_) => {
                            return Err(StoreError::BadQuery(format!(
                                "$push target {path:?} is not an array"
                            )))
                        }
                        None => {
                            if !doc.set_path(path, Value::Array(vec![val.clone()])) {
                                return Err(StoreError::BadQuery(format!(
                                    "$push cannot reach path {path:?}"
                                )));
                            }
                        }
                    }
                }
                UpdateOp::Pull(path, val) => {
                    if let Some(Value::Array(items)) = doc.path_mut(path) {
                        items.retain(|i| i != val);
                    }
                }
            }
        }
        Ok(())
    }
}

impl crate::Collection {
    /// Apply a MongoDB-style update document to one stored document,
    /// re-indexing what it changed (see [`crate::Collection::replace`]).
    /// The update is atomic per document: on an operator error the stored
    /// document is unchanged.
    pub fn update_spec(&self, id: &str, spec: &Value) -> Result<(), StoreError> {
        let update = UpdateSpec::parse(spec)?;
        let Some(mut doc) = self.get(id) else {
            return Err(StoreError::NotFound(id.to_string()));
        };
        update.apply(&mut doc)?;
        self.replace(id, doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collection, CollectionConfig, Filter};
    use covidkg_json::{arr, obj};

    #[test]
    fn set_unset_inc() {
        let spec = UpdateSpec::parse(&obj! {
            "$set" => obj!{ "meta.reviewed" => true, "score" => 0.5 },
            "$unset" => obj!{ "draft" => 1 },
            "$inc" => obj!{ "cites" => 2, "new_counter" => 1 },
        })
        .unwrap();
        let mut doc = obj! { "_id" => "a", "draft" => true, "cites" => 10 };
        spec.apply(&mut doc).unwrap();
        assert_eq!(doc.path("meta.reviewed").unwrap().as_bool(), Some(true));
        assert_eq!(doc.path("score").unwrap().as_f64(), Some(0.5));
        assert!(doc.path("draft").is_none());
        assert_eq!(doc.path("cites").unwrap().as_i64(), Some(12));
        assert_eq!(doc.path("new_counter").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn push_add_to_set_pull() {
        let mut doc = obj! { "_id" => "a", "tags" => arr!["x"] };
        UpdateSpec::parse(&obj! { "$push" => obj!{ "tags" => "y", "fresh" => 1 } })
            .unwrap()
            .apply(&mut doc)
            .unwrap();
        assert_eq!(doc.path("tags").unwrap(), &arr!["x", "y"]);
        assert_eq!(doc.path("fresh").unwrap(), &arr![1]);
        // addToSet dedupes; push does not.
        UpdateSpec::parse(&obj! { "$addToSet" => obj!{ "tags" => "y" } })
            .unwrap()
            .apply(&mut doc)
            .unwrap();
        assert_eq!(doc.path("tags").unwrap().as_array().unwrap().len(), 2);
        UpdateSpec::parse(&obj! { "$pull" => obj!{ "tags" => "x" } })
            .unwrap()
            .apply(&mut doc)
            .unwrap();
        assert_eq!(doc.path("tags").unwrap(), &arr!["y"]);
    }

    #[test]
    fn errors_are_rejected() {
        assert!(UpdateSpec::parse(&obj! {}).is_err());
        assert!(UpdateSpec::parse(&Value::int(1)).is_err());
        assert!(UpdateSpec::parse(&obj! { "$bogus" => obj!{ "a" => 1 } }).is_err());
        assert!(UpdateSpec::parse(&obj! { "$set" => obj!{ "_id" => "nope" } }).is_err());
        assert!(UpdateSpec::parse(&obj! { "$inc" => obj!{ "a" => "NaN" } }).is_err());
        // Type errors at apply time.
        let mut doc = obj! { "s" => "text" };
        let inc = UpdateSpec::parse(&obj! { "$inc" => obj!{ "s" => 1 } }).unwrap();
        assert!(inc.apply(&mut doc).is_err());
        let push = UpdateSpec::parse(&obj! { "$push" => obj!{ "s" => 1 } }).unwrap();
        assert!(push.apply(&mut doc).is_err());
    }

    #[test]
    fn collection_update_spec_reindexes() {
        let c = Collection::new(
            CollectionConfig::new("pubs").with_text_fields(["title"]),
        );
        c.insert(obj! { "_id" => "a", "title" => "masks", "cites" => 1 }).unwrap();
        c.update_spec(
            "a",
            &obj! {
                "$set" => obj!{ "title" => "ventilators" },
                "$inc" => obj!{ "cites" => 4 },
            },
        )
        .unwrap();
        let doc = c.get("a").unwrap();
        assert_eq!(doc.path("cites").unwrap().as_i64(), Some(5));
        // Text index follows the $set.
        assert!(c.find(&Filter::text("masks", vec!["title".into()])).is_empty());
        assert_eq!(c.find(&Filter::text("ventilator", vec!["title".into()])).len(), 1);
        // Failed op leaves the document unchanged.
        let err = c.update_spec("a", &obj! { "$inc" => obj!{ "title" => 1 } });
        assert!(err.is_err());
        assert_eq!(c.get("a").unwrap().path("cites").unwrap().as_i64(), Some(5));
        // Unknown id.
        assert!(matches!(
            c.update_spec("zz", &obj! { "$set" => obj!{ "a" => 1 } }),
            Err(StoreError::NotFound(_))
        ));
    }
}
