//! MongoDB-style query filters.
//!
//! A filter is parsed from a JSON query document (the same shape a MongoDB
//! driver sends) into a [`Filter`] tree evaluated against documents. The
//! `$match` stage of the aggregation pipeline (§2.1) is a thin wrapper
//! over this module.
//!
//! Supported operators: implicit equality, `$eq`, `$ne`, `$gt`, `$gte`,
//! `$lt`, `$lte`, `$in`, `$nin`, `$exists`, `$regex` (with `$options: "i"`),
//! `$and`, `$or`, `$not`, `$text: {$search}` (stemmed token match over a
//! configurable field list — MongoDB resolves `$text` against its text
//! index; here the fields are captured in the filter so evaluation stays
//! self-contained, and the collection layer still uses the inverted index
//! to prune candidates).

use covidkg_json::Value;
use covidkg_regex::Regex;
use covidkg_text::{stem, tokenize_lower};

use crate::error::StoreError;
use crate::index::IndexReader;
use std::cmp::Ordering;
use std::sync::Arc;

/// A compiled query filter.
#[derive(Debug, Clone)]
pub enum Filter {
    /// Matches every document.
    True,
    /// `field == value` (with MongoDB array semantics: an array field
    /// matches if any element equals the probe).
    Eq(String, Value),
    /// `field != value`.
    Ne(String, Value),
    /// `field > value` etc. (BSON total order, same-type comparisons only).
    Gt(String, Value),
    /// `field >= value`.
    Gte(String, Value),
    /// `field < value`.
    Lt(String, Value),
    /// `field <= value`.
    Lte(String, Value),
    /// Field value is one of the listed values.
    In(String, Vec<Value>),
    /// Field value is none of the listed values.
    Nin(String, Vec<Value>),
    /// Field presence check.
    Exists(String, bool),
    /// Regex over a string field.
    Regex(String, Arc<Regex>),
    /// Stemmed token match over the listed fields.
    Text {
        /// Stemmed query tokens.
        stems: Vec<String>,
        /// Dot paths of the fields to search.
        fields: Vec<String>,
    },
    /// Conjunction.
    And(Vec<Filter>),
    /// Disjunction.
    Or(Vec<Filter>),
    /// Negation.
    Not(Box<Filter>),
}

impl Filter {
    /// Parse a MongoDB-style query document. `text_fields` supplies the
    /// field list `$text` searches over (a collection's text index spec).
    pub fn parse(spec: &Value, text_fields: &[String]) -> Result<Filter, StoreError> {
        let members = spec
            .as_object()
            .ok_or_else(|| StoreError::BadQuery("filter must be an object".into()))?;
        let mut clauses = Vec::with_capacity(members.len());
        for (key, val) in members {
            match key.as_str() {
                "$and" => clauses.push(Filter::And(Self::parse_list(val, text_fields)?)),
                "$or" => clauses.push(Filter::Or(Self::parse_list(val, text_fields)?)),
                "$not" => clauses.push(Filter::Not(Box::new(Self::parse(val, text_fields)?))),
                "$text" => {
                    let search = val
                        .get("$search")
                        .and_then(Value::as_str)
                        .ok_or_else(|| {
                            StoreError::BadQuery("$text requires {$search: <string>}".into())
                        })?;
                    clauses.push(Filter::text(search, text_fields.to_vec()));
                }
                field if field.starts_with('$') => {
                    return Err(StoreError::BadQuery(format!("unknown operator {field}")))
                }
                field => clauses.push(Self::parse_field(field, val)?),
            }
        }
        Ok(match clauses.len() {
            0 => Filter::True,
            1 => clauses.pop().unwrap(),
            _ => Filter::And(clauses),
        })
    }

    fn parse_list(val: &Value, text_fields: &[String]) -> Result<Vec<Filter>, StoreError> {
        val.as_array()
            .ok_or_else(|| StoreError::BadQuery("$and/$or take an array".into()))?
            .iter()
            .map(|v| Self::parse(v, text_fields))
            .collect()
    }

    fn parse_field(field: &str, val: &Value) -> Result<Filter, StoreError> {
        // An object whose keys are all operators is an operator spec;
        // anything else is implicit equality.
        let is_op_spec = val
            .as_object()
            .is_some_and(|o| !o.is_empty() && o.iter().all(|(k, _)| k.starts_with('$')));
        if !is_op_spec {
            return Ok(Filter::Eq(field.to_string(), val.clone()));
        }
        let ops = val.as_object().unwrap();
        // Extract $options first so $regex can see it regardless of order.
        let ci = ops
            .iter()
            .find(|(k, _)| k == "$options")
            .and_then(|(_, v)| v.as_str())
            .is_some_and(|o| o.contains('i'));
        let mut clauses = Vec::new();
        for (op, operand) in ops {
            let f = field.to_string();
            let filter = match op.as_str() {
                "$eq" => Filter::Eq(f, operand.clone()),
                "$ne" => Filter::Ne(f, operand.clone()),
                "$gt" => Filter::Gt(f, operand.clone()),
                "$gte" => Filter::Gte(f, operand.clone()),
                "$lt" => Filter::Lt(f, operand.clone()),
                "$lte" => Filter::Lte(f, operand.clone()),
                "$in" => Filter::In(f, operand_list(op, operand)?),
                "$nin" => Filter::Nin(f, operand_list(op, operand)?),
                "$exists" => Filter::Exists(
                    f,
                    operand.as_bool().ok_or_else(|| {
                        StoreError::BadQuery("$exists takes a boolean".into())
                    })?,
                ),
                "$regex" => {
                    let pat = operand.as_str().ok_or_else(|| {
                        StoreError::BadQuery("$regex takes a string".into())
                    })?;
                    let re = if ci { Regex::new_ci(pat) } else { Regex::new(pat) }
                        .map_err(|e| StoreError::BadQuery(format!("bad $regex: {e}")))?;
                    Filter::Regex(f, Arc::new(re))
                }
                "$options" => continue,
                other => {
                    return Err(StoreError::BadQuery(format!("unknown operator {other}")))
                }
            };
            clauses.push(filter);
        }
        Ok(match clauses.len() {
            0 => Filter::True,
            1 => clauses.pop().unwrap(),
            _ => Filter::And(clauses),
        })
    }

    /// Build a `$text` filter directly from a query string.
    pub fn text(search: &str, fields: Vec<String>) -> Filter {
        let stems = tokenize_lower(search)
            .into_iter()
            .map(|t| stem(&t))
            .collect();
        Filter::Text { stems, fields }
    }

    /// Evaluate against a document.
    pub fn matches(&self, doc: &Value) -> bool {
        match self {
            Filter::True => true,
            Filter::Eq(path, v) => cmp_path(doc, path, v, |o| o == Ordering::Equal, true),
            Filter::Ne(path, v) => !cmp_path(doc, path, v, |o| o == Ordering::Equal, true),
            Filter::Gt(path, v) => cmp_path(doc, path, v, |o| o == Ordering::Greater, false),
            Filter::Gte(path, v) => cmp_path(doc, path, v, |o| o != Ordering::Less, false),
            Filter::Lt(path, v) => cmp_path(doc, path, v, |o| o == Ordering::Less, false),
            Filter::Lte(path, v) => cmp_path(doc, path, v, |o| o != Ordering::Greater, false),
            Filter::In(path, vs) => vs
                .iter()
                .any(|v| cmp_path(doc, path, v, |o| o == Ordering::Equal, true)),
            Filter::Nin(path, vs) => !vs
                .iter()
                .any(|v| cmp_path(doc, path, v, |o| o == Ordering::Equal, true)),
            Filter::Exists(path, want) => doc.path(path).is_some() == *want,
            // Both text-ish filters match any string leaf under the path
            // (fields like `tables` hold arrays of objects whose captions
            // and cells are the searchable text).
            Filter::Regex(path, re) => {
                any_string_leaf(doc.path(path), &mut |s| re.is_match(s))
            }
            Filter::Text { stems, fields } => {
                if stems.is_empty() {
                    return false;
                }
                fields
                    .iter()
                    .any(|f| any_string_leaf(doc.path(f), &mut |s| text_contains_any(s, stems)))
            }
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
        }
    }

    /// If this filter pins `_id` to an exact value (possibly inside a
    /// top-level `$and`), return it — the collection uses this to route a
    /// query to a single shard.
    pub fn exact_id(&self) -> Option<&str> {
        match self {
            Filter::Eq(path, Value::Str(id)) if path == "_id" => Some(id),
            Filter::And(fs) => fs.iter().find_map(Filter::exact_id),
            _ => None,
        }
    }

    /// Resolve this filter against the inverted index into candidate ids,
    /// ascending and without duplicates, that are a **superset** of the
    /// matching documents (callers still check [`Filter::residual`] on
    /// each). Returns `None` when the index cannot bound the result:
    ///
    /// * `$text` resolves exactly — the merged postings over the queried
    ///   fields — but only when every queried field is indexed (a match in
    ///   an unindexed field would otherwise be missed);
    /// * `$and` intersects the branches the index can bound, ignoring the
    ///   rest (dropping a conjunct only widens the superset);
    /// * `$or` unions the branches, but every branch must be boundable —
    ///   one unboundable branch means any document could match;
    /// * everything else (`$regex`, comparisons, `$not`, …) is unbounded.
    ///
    /// Every list is sorted, so `$and` and `$or` are sorted merges.
    pub fn index_candidates<'r>(&self, index: &'r IndexReader<'_>) -> Option<Vec<&'r str>> {
        match self {
            Filter::Text { stems, fields } => {
                Some(index.candidates_in_fields(stems, &indexed_fields(fields, index)?))
            }
            Filter::And(fs) => {
                let mut acc: Option<Vec<&str>> = None;
                for f in fs {
                    if let Some(ids) = f.index_candidates(index) {
                        acc = Some(match acc {
                            None => ids,
                            Some(prev) => intersect_sorted(&prev, &ids),
                        });
                    }
                }
                acc
            }
            Filter::Or(fs) => {
                let mut out = Vec::new();
                for f in fs {
                    out = union_sorted(&out, &f.index_candidates(index)?);
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// The conjuncts [`Filter::index_candidates`] does not already decide,
    /// appended to `out`: a document of the candidate set matches the
    /// whole filter iff it matches every one of them. A `$text` conjunct
    /// over indexed fields resolves exactly, so nothing of it is left —
    /// no candidate is re-tokenized to confirm what its postings say.
    /// Without a candidate set (nothing boundable) this is every
    /// conjunct, i.e. the filter itself.
    pub fn residual<'f>(&'f self, index: &IndexReader<'_>, out: &mut Vec<&'f Filter>) {
        match self {
            Filter::And(fs) => fs.iter().for_each(|f| f.residual(index, out)),
            Filter::Text { fields, .. } if indexed_fields(fields, index).is_some() => {}
            other => out.push(other),
        }
    }
}

/// The index ordinals of `fields`, when every one of them is indexed.
fn indexed_fields(fields: &[String], index: &IndexReader<'_>) -> Option<Vec<u16>> {
    fields.iter().map(|f| index.field_id(f)).collect()
}

/// The ids in both ascending lists, ascending.
fn intersect_sorted<'r>(a: &[&'r str], b: &[&'r str]) -> Vec<&'r str> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(*x);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The ids in either ascending, duplicate-free list, ascending and
/// without duplicates.
fn union_sorted<'r>(a: &[&'r str], b: &[&'r str]) -> Vec<&'r str> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            Ordering::Less => {
                out.push(*x);
                i += 1;
            }
            Ordering::Greater => {
                out.push(*y);
                j += 1;
            }
            Ordering::Equal => {
                out.push(*x);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn operand_list(op: &str, operand: &Value) -> Result<Vec<Value>, StoreError> {
    operand
        .as_array()
        .map(<[Value]>::to_vec)
        .ok_or_else(|| StoreError::BadQuery(format!("{op} takes an array")))
}

/// Compare the value at `path` against `probe`. With `array_any`, an array
/// field matches when any element satisfies the predicate (MongoDB
/// equality semantics). Ordering comparisons require same-type operands.
fn cmp_path(
    doc: &Value,
    path: &str,
    probe: &Value,
    pred: impl Fn(Ordering) -> bool,
    array_any: bool,
) -> bool {
    let Some(actual) = doc.path(path) else {
        // Missing field equals null in MongoDB semantics.
        return matches!(probe, Value::Null) && pred(Ordering::Equal);
    };
    let same_type = |a: &Value, b: &Value| {
        matches!(
            (a, b),
            (Value::Num(_), Value::Num(_))
                | (Value::Str(_), Value::Str(_))
                | (Value::Bool(_), Value::Bool(_))
                | (Value::Null, Value::Null)
                | (Value::Array(_), Value::Array(_))
                | (Value::Object(_), Value::Object(_))
        )
    };
    if same_type(actual, probe) && pred(actual.cmp_total(probe)) {
        return true;
    }
    if array_any {
        if let Value::Array(items) = actual {
            return items
                .iter()
                .any(|i| same_type(i, probe) && pred(i.cmp_total(probe)));
        }
    }
    false
}

/// Does any string leaf under `value` satisfy `pred`? Recurses through
/// arrays and objects.
fn any_string_leaf(value: Option<&Value>, pred: &mut impl FnMut(&str) -> bool) -> bool {
    match value {
        Some(Value::Str(s)) => pred(s),
        Some(Value::Array(items)) => items.iter().any(|i| any_string_leaf(Some(i), pred)),
        Some(Value::Object(members)) => {
            members.iter().any(|(_, v)| any_string_leaf(Some(v), pred))
        }
        _ => false,
    }
}

fn text_contains_any(text: &str, stems: &[String]) -> bool {
    tokenize_lower(text)
        .iter()
        .any(|tok| stems.iter().any(|s| s == &stem(tok)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_json::{arr, obj};

    fn doc() -> Value {
        obj! {
            "_id" => "p1",
            "title" => "Mask mandates and transmission",
            "year" => 2021,
            "score" => 0.75,
            "tags" => arr!["masks", "policy"],
            "meta" => obj! { "reviewed" => true },
        }
    }

    fn f(spec: Value) -> Filter {
        Filter::parse(&spec, &["title".to_string()]).unwrap()
    }

    #[test]
    fn implicit_equality() {
        assert!(f(obj! { "year" => 2021 }).matches(&doc()));
        assert!(!f(obj! { "year" => 2020 }).matches(&doc()));
        assert!(f(obj! { "meta.reviewed" => true }).matches(&doc()));
    }

    #[test]
    fn comparison_operators() {
        assert!(f(obj! { "year" => obj!{ "$gt" => 2020 } }).matches(&doc()));
        assert!(f(obj! { "year" => obj!{ "$gte" => 2021 } }).matches(&doc()));
        assert!(!f(obj! { "year" => obj!{ "$lt" => 2021 } }).matches(&doc()));
        assert!(f(obj! { "score" => obj!{ "$lte" => 0.75 } }).matches(&doc()));
        assert!(f(obj! { "year" => obj!{ "$ne" => 1999 } }).matches(&doc()));
    }

    #[test]
    fn range_combines_with_and_semantics() {
        let filter = f(obj! { "year" => obj!{ "$gte" => 2020, "$lt" => 2022 } });
        assert!(filter.matches(&doc()));
        let filter = f(obj! { "year" => obj!{ "$gte" => 2022, "$lt" => 2030 } });
        assert!(!filter.matches(&doc()));
    }

    #[test]
    fn in_and_nin() {
        assert!(f(obj! { "year" => obj!{ "$in" => arr![2020, 2021] } }).matches(&doc()));
        assert!(!f(obj! { "year" => obj!{ "$nin" => arr![2020, 2021] } }).matches(&doc()));
        // Array field: $in matches on any element.
        assert!(f(obj! { "tags" => obj!{ "$in" => arr!["policy"] } }).matches(&doc()));
    }

    #[test]
    fn array_equality_matches_elements() {
        assert!(f(obj! { "tags" => "masks" }).matches(&doc()));
        assert!(!f(obj! { "tags" => "vaccines" }).matches(&doc()));
    }

    #[test]
    fn exists() {
        assert!(f(obj! { "meta" => obj!{ "$exists" => true } }).matches(&doc()));
        assert!(f(obj! { "nope" => obj!{ "$exists" => false } }).matches(&doc()));
        assert!(!f(obj! { "nope" => obj!{ "$exists" => true } }).matches(&doc()));
    }

    #[test]
    fn missing_field_equals_null() {
        assert!(f(obj! { "nope" => Value::Null }).matches(&doc()));
        assert!(!f(obj! { "year" => Value::Null }).matches(&doc()));
    }

    #[test]
    fn regex_with_options() {
        let filter = f(obj! { "title" => obj!{ "$regex" => "mask", "$options" => "i" } });
        assert!(filter.matches(&doc()));
        let filter = f(obj! { "title" => obj!{ "$options" => "i", "$regex" => "MANDATES" } });
        assert!(filter.matches(&doc()), "$options order must not matter");
        let filter = f(obj! { "title" => obj!{ "$regex" => "vaccine" } });
        assert!(!filter.matches(&doc()));
    }

    #[test]
    fn regex_over_array_field() {
        let filter = f(obj! { "tags" => obj!{ "$regex" => "^pol" } });
        assert!(filter.matches(&doc()));
    }

    #[test]
    fn logical_operators() {
        let filter = f(obj! {
            "$or" => arr![ obj!{ "year" => 1999 }, obj!{ "tags" => "masks" } ]
        });
        assert!(filter.matches(&doc()));
        let filter = f(obj! {
            "$and" => arr![ obj!{ "year" => 2021 }, obj!{ "tags" => "masks" } ]
        });
        assert!(filter.matches(&doc()));
        let filter = f(obj! { "$not" => obj!{ "year" => 2021 } });
        assert!(!filter.matches(&doc()));
    }

    #[test]
    fn text_search_stems() {
        // "mandate" must match "mandates" in the title via stemming.
        let filter = f(obj! { "$text" => obj!{ "$search" => "mandate" } });
        assert!(filter.matches(&doc()));
        let filter = f(obj! { "$text" => obj!{ "$search" => "vaccine" } });
        assert!(!filter.matches(&doc()));
    }

    #[test]
    fn exact_id_extraction() {
        assert_eq!(f(obj! { "_id" => "p1" }).exact_id(), Some("p1"));
        let combo = f(obj! { "_id" => "p1", "year" => 2021 });
        assert_eq!(combo.exact_id(), Some("p1"));
        assert_eq!(f(obj! { "year" => 2021 }).exact_id(), None);
    }

    #[test]
    fn bad_specs_error() {
        let tf: Vec<String> = vec![];
        assert!(Filter::parse(&Value::int(3), &tf).is_err());
        assert!(Filter::parse(&obj! { "$bogus" => 1 }, &tf).is_err());
        assert!(Filter::parse(&obj! { "f" => obj!{ "$in" => 3 } }, &tf).is_err());
        assert!(Filter::parse(&obj! { "f" => obj!{ "$exists" => "yes" } }, &tf).is_err());
        assert!(Filter::parse(&obj! { "f" => obj!{ "$regex" => "(" } }, &tf).is_err());
        assert!(Filter::parse(&obj! { "$text" => obj!{} }, &tf).is_err());
    }

    #[test]
    fn empty_filter_matches_everything() {
        assert!(f(obj! {}).matches(&doc()));
        assert!(matches!(f(obj! {}), Filter::True));
    }

    #[test]
    fn type_mismatch_never_orders() {
        // year > "abc" must be false, not a cross-type comparison.
        assert!(!f(obj! { "year" => obj!{ "$gt" => "abc" } }).matches(&doc()));
    }

    #[test]
    fn index_candidates_algebra() {
        use crate::index::TextIndex;
        let idx = TextIndex::new(vec!["title".into(), "abstract".into()]);
        idx.add("a", &obj! { "title" => "mask mandates", "abstract" => "efficacy" });
        idx.add("b", &obj! { "title" => "vaccine trial", "abstract" => "mask use" });
        idx.add("c", &obj! { "title" => "ventilators" });
        let idx = idx.read();

        let title_mask = Filter::text("mask", vec!["title".into()]);
        let any_mask = Filter::text("mask", vec!["title".into(), "abstract".into()]);
        let title_vaccine = Filter::text("vaccine", vec!["title".into()]);
        let residual = |f: &Filter| {
            let mut out = Vec::new();
            f.residual(&idx, &mut out);
            out.len()
        };

        // $text scoped to indexed fields resolves exactly.
        assert_eq!(title_mask.index_candidates(&idx).unwrap(), ["a"]);
        assert_eq!(any_mask.index_candidates(&idx).unwrap(), ["a", "b"]);
        assert_eq!(residual(&any_mask), 0, "nothing left to verify");

        // A queried field outside the index makes the filter unboundable.
        let unindexed = Filter::text("mask", vec!["body".into()]);
        assert!(unindexed.index_candidates(&idx).is_none());
        assert_eq!(residual(&unindexed), 1);

        // $and intersects boundable branches and ignores the rest, which
        // are what is left to check on each candidate (nested $and too).
        let and = Filter::And(vec![
            any_mask.clone(),
            Filter::And(vec![
                title_vaccine.clone(),
                Filter::Gte("year".into(), Value::int(2020)),
            ]),
            unindexed,
        ]);
        assert_eq!(and.index_candidates(&idx).unwrap(), ["b"]);
        let mut left = Vec::new();
        and.residual(&idx, &mut left);
        assert!(matches!(left[..], [Filter::Gte(..), Filter::Text { .. }]), "{left:?}");

        // $or unions only when every branch is boundable; it is never
        // split, so it stays as its own residual.
        let or = Filter::Or(vec![title_mask.clone(), title_vaccine]);
        assert_eq!(or.index_candidates(&idx).unwrap(), ["a", "b"]);
        assert_eq!(residual(&or), 1);
        let or_open = Filter::Or(vec![title_mask, Filter::Gte("year".into(), Value::int(0))]);
        assert!(or_open.index_candidates(&idx).is_none());

        // Filters with no text component can't be bounded at all.
        assert!(Filter::True.index_candidates(&idx).is_none());
    }
}
