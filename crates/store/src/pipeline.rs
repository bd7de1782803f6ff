//! The aggregation pipeline (§2.1).
//!
//! "The Search Engine receives results from the database by using an
//! aggregation query that passes the data through a series of pipeline
//! stages. The first stage in the pipeline is a `$match` expression …
//! the data is passed through a `$project` stage, which streams only the
//! specified fields … The pipeline also uses a few custom `$function`
//! stages to derive calculations based on the individual documents and
//! the searched query for ranking results."
//!
//! Stages are applied in order to a stream of documents. `$function`
//! stages hold Rust closures ([`DocFn`]) where the Mongo original embeds
//! JavaScript. Pipelines are built in code, stage by stage; there is no
//! parser for the JSON wire form, because nothing receives one.

use crate::error::StoreError;
use crate::filter::Filter;
use covidkg_json::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A scoring/derivation function usable in `$function` stages: document in,
/// computed value out.
pub type DocFn = Arc<dyn Fn(&Value) -> Value + Send + Sync>;

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Smallest first.
    Asc,
    /// Largest first.
    Desc,
}

/// `$group` accumulator operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Accumulator {
    /// `$sum` of a numeric field (missing/non-numeric counts 0).
    Sum(String),
    /// `$avg` of a numeric field.
    Avg(String),
    /// `$min` by total order.
    Min(String),
    /// `$max` by total order.
    Max(String),
    /// `$push` every value of a field into an array.
    Push(String),
    /// `$first` value encountered.
    First(String),
    /// Count of documents in the group.
    Count,
}

/// One pipeline stage.
#[derive(Clone)]
pub enum Stage {
    /// `$match` — filter the stream.
    Match(Filter),
    /// `$project` — keep only the listed dot paths (plus `_id`).
    Project(Vec<String>),
    /// `$unset`-style exclusion — drop the listed dot paths.
    Exclude(Vec<String>),
    /// `$function` — store `f(doc)` under `output` in each document.
    Function {
        /// Display name (for plans and debugging).
        name: String,
        /// The computation.
        f: DocFn,
        /// Output dot path.
        output: String,
    },
    /// `$addFields` with constant values.
    AddFields(Vec<(String, Value)>),
    /// `$sort` by one or more paths.
    Sort(Vec<(String, Order)>),
    /// `$skip`.
    Skip(usize),
    /// `$limit`.
    Limit(usize),
    /// `$unwind` an array field into one document per element.
    Unwind(String),
    /// `$group` by a path (`None` groups everything into one bucket).
    Group {
        /// Grouping key path; output docs carry it as `_id`.
        by: Option<String>,
        /// `(output field, accumulator)` pairs.
        accs: Vec<(String, Accumulator)>,
    },
    /// `$count` — collapse the stream to `{<field>: N}`.
    Count(String),
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Match(_) => write!(f, "$match"),
            Stage::Project(p) => write!(f, "$project{p:?}"),
            Stage::Exclude(p) => write!(f, "$exclude{p:?}"),
            Stage::Function { name, output, .. } => write!(f, "$function({name} -> {output})"),
            Stage::AddFields(fs) => write!(f, "$addFields({} fields)", fs.len()),
            Stage::Sort(keys) => write!(f, "$sort{keys:?}"),
            Stage::Skip(n) => write!(f, "$skip({n})"),
            Stage::Limit(n) => write!(f, "$limit({n})"),
            Stage::Unwind(p) => write!(f, "$unwind({p})"),
            Stage::Group { by, accs } => write!(f, "$group(by {by:?}, {} accs)", accs.len()),
            Stage::Count(field) => write!(f, "$count({field})"),
        }
    }
}

/// An ordered list of stages with a fluent builder.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// Empty pipeline (identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// The stages, in order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Append a raw stage.
    pub fn stage(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// `$match` from a parsed filter.
    pub fn match_filter(self, filter: Filter) -> Self {
        self.stage(Stage::Match(filter))
    }

    /// `$match` from a JSON query document.
    pub fn match_spec(self, spec: &Value, text_fields: &[String]) -> Result<Self, StoreError> {
        Ok(self.stage(Stage::Match(Filter::parse(spec, text_fields)?)))
    }

    /// `$project` to the listed paths.
    pub fn project<S: Into<String>>(self, fields: impl IntoIterator<Item = S>) -> Self {
        self.stage(Stage::Project(fields.into_iter().map(Into::into).collect()))
    }

    /// Drop the listed paths.
    pub fn exclude<S: Into<String>>(self, fields: impl IntoIterator<Item = S>) -> Self {
        self.stage(Stage::Exclude(fields.into_iter().map(Into::into).collect()))
    }

    /// `$function` computing `output` per document.
    pub fn function(self, name: impl Into<String>, output: impl Into<String>, f: DocFn) -> Self {
        self.stage(Stage::Function {
            name: name.into(),
            f,
            output: output.into(),
        })
    }

    /// `$sort` descending by one path (the common ranking case).
    pub fn sort_desc(self, path: impl Into<String>) -> Self {
        self.stage(Stage::Sort(vec![(path.into(), Order::Desc)]))
    }

    /// `$sort` ascending by one path.
    pub fn sort_asc(self, path: impl Into<String>) -> Self {
        self.stage(Stage::Sort(vec![(path.into(), Order::Asc)]))
    }

    /// `$skip`.
    pub fn skip(self, n: usize) -> Self {
        self.stage(Stage::Skip(n))
    }

    /// `$limit`.
    pub fn limit(self, n: usize) -> Self {
        self.stage(Stage::Limit(n))
    }

    /// `$unwind`.
    pub fn unwind(self, path: impl Into<String>) -> Self {
        self.stage(Stage::Unwind(path.into()))
    }

    /// `$group`.
    pub fn group(self, by: Option<String>, accs: Vec<(String, Accumulator)>) -> Self {
        self.stage(Stage::Group { by, accs })
    }

    /// `$count`.
    pub fn count(self, field: impl Into<String>) -> Self {
        self.stage(Stage::Count(field.into()))
    }

    /// If the pipeline starts with `$match`, return that filter — the
    /// collection pushes it down into the shard scan so non-matching
    /// documents are never materialized (the paper's "mindful to use the
    /// $match stage first" optimization).
    pub fn leading_match(&self) -> Option<&Filter> {
        match self.stages.first() {
            Some(Stage::Match(f)) => Some(f),
            _ => None,
        }
    }

    /// Execute against an in-memory document stream.
    pub fn run(&self, docs: Vec<Value>) -> Vec<Value> {
        self.run_stages(docs, 0)
    }

    /// Execute skipping the first `from` stages (used when a leading
    /// `$match` was already pushed down into the scan).
    pub fn run_from(&self, docs: Vec<Value>, from: usize) -> Vec<Value> {
        self.run_stages(docs, from)
    }

    fn run_stages(&self, mut docs: Vec<Value>, from: usize) -> Vec<Value> {
        let stages = &self.stages[from.min(self.stages.len())..];
        let mut i = 0;
        while i < stages.len() {
            // Peephole optimization: `$sort` immediately followed by
            // `$limit n` runs as a heap-based top-k — O(N log n) and only
            // n documents retained, instead of sorting everything. The
            // paper's result pages are exactly this pattern (rank, then
            // keep the page).
            if let (Stage::Sort(keys), Some(Stage::Limit(n))) = (&stages[i], stages.get(i + 1)) {
                docs = top_k(docs, keys, *n);
                i += 2;
                continue;
            }
            docs = apply_stage(&stages[i], docs);
            i += 1;
        }
        docs
    }
}

/// Heap-based top-k under the `$sort` ordering.
fn top_k(docs: Vec<Value>, keys: &[(String, Order)], k: usize) -> Vec<Value> {
    use std::cmp::Ordering as O;
    if k == 0 {
        return Vec::new();
    }
    let cmp = |a: &Value, b: &Value| -> O {
        for (path, order) in keys {
            let va = a.path(path).unwrap_or(&Value::Null);
            let vb = b.path(path).unwrap_or(&Value::Null);
            let ord = va.cmp_total(vb);
            let ord = match order {
                Order::Asc => ord,
                Order::Desc => ord.reverse(),
            };
            if ord != O::Equal {
                return ord;
            }
        }
        O::Equal
    };
    if docs.len() <= k {
        let mut docs = docs;
        docs.sort_by(cmp);
        return docs;
    }
    // Keep the k best in a sorted buffer. Insertion goes *after* equal
    // keys (partition_point), so ties resolve by input order — identical
    // to the unfused stable sort + truncate semantics. For page-sized k
    // (tens) the insertion cost is trivial next to the comparisons.
    let mut best: Vec<Value> = Vec::with_capacity(k + 1);
    for doc in docs {
        let pos = best.partition_point(|probe| cmp(probe, &doc) != O::Greater);
        if pos < k {
            best.insert(pos, doc);
            if best.len() > k {
                best.pop();
            }
        }
    }
    best
}

fn apply_stage(stage: &Stage, docs: Vec<Value>) -> Vec<Value> {
    match stage {
        Stage::Match(filter) => docs.into_iter().filter(|d| filter.matches(d)).collect(),
        Stage::Project(fields) => docs.into_iter().map(|d| project(&d, fields)).collect(),
        Stage::Exclude(fields) => docs
            .into_iter()
            .map(|mut d| {
                for f in fields {
                    d.remove_path(f);
                }
                d
            })
            .collect(),
        Stage::Function { f, output, .. } => docs
            .into_iter()
            .map(|mut d| {
                let v = f(&d);
                d.set_path(output, v);
                d
            })
            .collect(),
        Stage::AddFields(fields) => docs
            .into_iter()
            .map(|mut d| {
                for (path, v) in fields {
                    d.set_path(path, v.clone());
                }
                d
            })
            .collect(),
        Stage::Sort(keys) => {
            let mut docs = docs;
            docs.sort_by(|a, b| {
                for (path, order) in keys {
                    let va = a.path(path).unwrap_or(&Value::Null);
                    let vb = b.path(path).unwrap_or(&Value::Null);
                    let ord = va.cmp_total(vb);
                    let ord = match order {
                        Order::Asc => ord,
                        Order::Desc => ord.reverse(),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            docs
        }
        Stage::Skip(n) => docs.into_iter().skip(*n).collect(),
        Stage::Limit(n) => docs.into_iter().take(*n).collect(),
        Stage::Unwind(path) => {
            let mut out = Vec::with_capacity(docs.len());
            for doc in docs {
                match doc.path(path) {
                    Some(Value::Array(items)) => {
                        let items = items.clone();
                        for item in items {
                            let mut clone = doc.clone();
                            clone.set_path(path, item);
                            out.push(clone);
                        }
                    }
                    // Mongo drops docs whose unwind path is missing;
                    // scalars pass through unchanged.
                    Some(_) => out.push(doc),
                    None => {}
                }
            }
            out
        }
        Stage::Group { by, accs } => group_stage(by.as_deref(), accs, docs),
        Stage::Count(field) => {
            let mut out = Value::Object(Vec::new());
            out.insert(field.clone(), Value::int(docs.len() as i64));
            vec![out]
        }
    }
}

/// Build a projected document keeping `_id` plus the listed paths — the
/// `$project` stage applied to one document (public so the search engine's
/// top-k fast path can project just the page's documents).
pub fn project(doc: &Value, fields: &[String]) -> Value {
    let mut out = Value::Object(Vec::new());
    if let Some(id) = doc.get("_id") {
        out.insert("_id", id.clone());
    }
    for path in fields {
        if let Some(v) = doc.path(path) {
            out.set_path(path, v.clone());
        }
    }
    out
}

fn group_stage(by: Option<&str>, accs: &[(String, Accumulator)], docs: Vec<Value>) -> Vec<Value> {
    // Keyed by serialized group value for hashability; first-seen order.
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, (Value, Vec<Value>)> = HashMap::new();
    for doc in docs {
        let key_val = match by {
            Some(path) => doc.path(path).cloned().unwrap_or(Value::Null),
            None => Value::Null,
        };
        let key = key_val.to_json();
        groups
            .entry(key.clone())
            .or_insert_with(|| {
                order.push(key.clone());
                (key_val, Vec::new())
            })
            .1
            .push(doc);
    }
    order
        .into_iter()
        .map(|key| {
            let (key_val, members) = groups.remove(&key).unwrap();
            let mut out = Value::Object(Vec::new());
            out.insert("_id", key_val);
            for (field, acc) in accs {
                out.insert(field.clone(), run_accumulator(acc, &members));
            }
            out
        })
        .collect()
}

fn run_accumulator(acc: &Accumulator, docs: &[Value]) -> Value {
    let nums = |path: &str| -> Vec<f64> {
        docs.iter()
            .filter_map(|d| d.path(path).and_then(Value::as_f64))
            .collect()
    };
    match acc {
        Accumulator::Count => Value::int(docs.len() as i64),
        Accumulator::Sum(path) => {
            let xs = nums(path);
            let total: f64 = xs.iter().sum();
            if total.fract() == 0.0 && total.abs() < 9.0e15 {
                Value::int(total as i64)
            } else {
                Value::float(total)
            }
        }
        Accumulator::Avg(path) => {
            let xs = nums(path);
            if xs.is_empty() {
                Value::Null
            } else {
                Value::float(xs.iter().sum::<f64>() / xs.len() as f64)
            }
        }
        Accumulator::Min(path) => docs
            .iter()
            .filter_map(|d| d.path(path))
            .min_by(|a, b| a.cmp_total(b))
            .cloned()
            .unwrap_or(Value::Null),
        Accumulator::Max(path) => docs
            .iter()
            .filter_map(|d| d.path(path))
            .max_by(|a, b| a.cmp_total(b))
            .cloned()
            .unwrap_or(Value::Null),
        Accumulator::Push(path) => Value::Array(
            docs.iter()
                .filter_map(|d| d.path(path).cloned())
                .collect(),
        ),
        Accumulator::First(path) => docs
            .iter()
            .find_map(|d| d.path(path).cloned())
            .unwrap_or(Value::Null),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_json::{arr, obj};

    fn corpus() -> Vec<Value> {
        vec![
            obj! { "_id" => "a", "topic" => "masks", "year" => 2020, "cites" => 10 },
            obj! { "_id" => "b", "topic" => "masks", "year" => 2021, "cites" => 5 },
            obj! { "_id" => "c", "topic" => "vaccines", "year" => 2021, "cites" => 30 },
            obj! { "_id" => "d", "topic" => "vaccines", "year" => 2022, "cites" => 7 },
        ]
    }

    #[test]
    fn match_project_sort_limit_flow() {
        let out = Pipeline::new()
            .match_spec(&obj! { "year" => obj!{ "$gte" => 2021 } }, &[])
            .unwrap()
            .project(["topic"])
            .sort_asc("_id")
            .limit(2)
            .run(corpus());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("_id").unwrap().as_str(), Some("b"));
        // Projection keeps _id + topic only.
        assert!(out[0].get("year").is_none());
        assert!(out[0].get("topic").is_some());
    }

    #[test]
    fn function_stage_computes_scores() {
        let score: DocFn = Arc::new(|d: &Value| {
            Value::float(d.path("cites").and_then(Value::as_f64).unwrap_or(0.0) * 2.0)
        });
        let out = Pipeline::new()
            .function("double_cites", "score", score)
            .sort_desc("score")
            .run(corpus());
        assert_eq!(out[0].get("_id").unwrap().as_str(), Some("c"));
        assert_eq!(out[0].path("score").and_then(Value::as_f64), Some(60.0));
    }

    #[test]
    fn group_accumulators() {
        let out = Pipeline::new()
            .group(
                Some("topic".into()),
                vec![
                    ("n".into(), Accumulator::Count),
                    ("total".into(), Accumulator::Sum("cites".into())),
                    ("avg".into(), Accumulator::Avg("cites".into())),
                    ("top".into(), Accumulator::Max("cites".into())),
                    ("years".into(), Accumulator::Push("year".into())),
                    ("first".into(), Accumulator::First("_id".into())),
                ],
            )
            .sort_asc("_id")
            .run(corpus());
        assert_eq!(out.len(), 2);
        let masks = &out[0];
        assert_eq!(masks.get("_id").unwrap().as_str(), Some("masks"));
        assert_eq!(masks.get("n").unwrap().as_i64(), Some(2));
        assert_eq!(masks.get("total").unwrap().as_i64(), Some(15));
        assert_eq!(masks.get("avg").unwrap().as_f64(), Some(7.5));
        assert_eq!(masks.get("top").unwrap().as_i64(), Some(10));
        assert_eq!(masks.get("years").unwrap(), &arr![2020, 2021]);
        assert_eq!(masks.get("first").unwrap().as_str(), Some("a"));
    }

    #[test]
    fn group_all_into_one_bucket() {
        let out = Pipeline::new()
            .group(None, vec![("n".into(), Accumulator::Count)])
            .run(corpus());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("n").unwrap().as_i64(), Some(4));
        assert!(out[0].get("_id").unwrap().is_null());
    }

    #[test]
    fn unwind_expands_arrays() {
        let docs = vec![obj! { "_id" => "x", "tags" => arr!["a", "b"] }];
        let out = Pipeline::new().unwind("tags").run(docs);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].path("tags").unwrap().as_str(), Some("a"));
        assert_eq!(out[1].path("tags").unwrap().as_str(), Some("b"));
    }

    #[test]
    fn unwind_drops_missing_and_keeps_scalars() {
        let docs = vec![
            obj! { "_id" => "x", "tags" => "solo" },
            obj! { "_id" => "y" },
        ];
        let out = Pipeline::new().unwind("tags").run(docs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("_id").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn count_stage() {
        let out = Pipeline::new()
            .match_spec(&obj! { "topic" => "masks" }, &[])
            .unwrap()
            .count("total")
            .run(corpus());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("total").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn skip_and_limit_paginate() {
        let page2 = Pipeline::new().sort_asc("_id").skip(2).limit(2).run(corpus());
        assert_eq!(page2.len(), 2);
        assert_eq!(page2[0].get("_id").unwrap().as_str(), Some("c"));
    }

    #[test]
    fn exclude_drops_fields() {
        let out = Pipeline::new().exclude(["cites"]).run(corpus());
        assert!(out.iter().all(|d| d.get("cites").is_none()));
        assert!(out.iter().all(|d| d.get("topic").is_some()));
    }

    #[test]
    fn add_fields_constant() {
        let out = Pipeline::new()
            .stage(Stage::AddFields(vec![("source".into(), Value::str("cord19"))]))
            .run(corpus());
        assert!(out
            .iter()
            .all(|d| d.get("source").unwrap().as_str() == Some("cord19")));
    }

    #[test]
    fn sort_with_secondary_key() {
        let out = Pipeline::new()
            .stage(Stage::Sort(vec![
                ("year".into(), Order::Desc),
                ("cites".into(), Order::Asc),
            ]))
            .run(corpus());
        let ids: Vec<&str> = out.iter().map(|d| d.get("_id").unwrap().as_str().unwrap()).collect();
        assert_eq!(ids, ["d", "b", "c", "a"]);
    }

    #[test]
    fn leading_match_is_exposed_for_pushdown() {
        let p = Pipeline::new()
            .match_spec(&obj! { "topic" => "masks" }, &[])
            .unwrap()
            .limit(1);
        assert!(p.leading_match().is_some());
        let p2 = Pipeline::new().limit(1);
        assert!(p2.leading_match().is_none());
    }

    #[test]
    fn nested_projection_paths() {
        let docs = vec![obj! { "_id" => "x", "a" => obj!{ "b" => 1, "c" => 2 } }];
        let out = Pipeline::new().project(["a.b"]).run(docs);
        assert_eq!(out[0].path("a.b").and_then(Value::as_i64), Some(1));
        assert!(out[0].path("a.c").is_none());
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let docs = corpus();
        assert_eq!(Pipeline::new().run(docs.clone()), docs);
    }

    /// The fused sort+limit must be indistinguishable from sort-then-limit,
    /// including stable tie ordering.
    #[test]
    fn top_k_fusion_matches_full_sort() {
        let docs: Vec<Value> = (0..200)
            .map(|i| obj! { "_id" => format!("d{i:03}"), "k" => i % 9, "seq" => i })
            .collect();
        for k in [0usize, 1, 5, 9, 50, 199, 200, 500] {
            // Fused path.
            let fused = Pipeline::new().sort_asc("k").limit(k).run(docs.clone());
            // Reference: separate sort, then separate limit (the Limit
            // stage alone is not fused because Sort is split off).
            let mut reference = Pipeline::new().sort_asc("k").run(docs.clone());
            reference.truncate(k);
            assert_eq!(fused, reference, "k = {k}");
        }
        // Descending with secondary key.
        let fused = Pipeline::new()
            .stage(Stage::Sort(vec![
                ("k".into(), Order::Desc),
                ("seq".into(), Order::Asc),
            ]))
            .limit(7)
            .run(docs.clone());
        let mut reference = Pipeline::new()
            .stage(Stage::Sort(vec![
                ("k".into(), Order::Desc),
                ("seq".into(), Order::Asc),
            ]))
            .run(docs);
        reference.truncate(7);
        assert_eq!(fused, reference);
    }
}
