//! Dot-path addressing into documents, mirroring MongoDB field paths.
//!
//! A path like `"body.sections.0.text"` descends through objects by key and
//! through arrays by decimal index. The store's `$match`, `$project`,
//! `$sort` and `$unwind` stages all address fields this way.

use crate::Value;

impl Value {
    /// Resolve a dot path. Returns `None` if any segment is missing or the
    /// intermediate value has the wrong shape.
    ///
    /// ```
    /// use covidkg_json::{obj, arr, Value};
    /// let d = obj! { "a" => arr![obj!{ "b" => 7 }] };
    /// assert_eq!(d.path("a.0.b").and_then(Value::as_i64), Some(7));
    /// assert!(d.path("a.1.b").is_none());
    /// ```
    pub fn path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in split_path(path) {
            cur = step(cur, seg)?;
        }
        Some(cur)
    }

    /// Set the value at a dot path, creating intermediate objects as needed
    /// (array segments must already exist — we never implicitly grow
    /// arrays, matching the store's `$addFields` semantics).
    ///
    /// Returns `false` without modifying anything if an existing
    /// intermediate value is a non-container or an out-of-range index.
    pub fn set_path(&mut self, path: &str, value: Value) -> bool {
        let segs: Vec<&str> = split_path(path).collect();
        if segs.is_empty() {
            return false;
        }
        let mut cur = self;
        for seg in &segs[..segs.len() - 1] {
            // Create missing object members on the way down.
            let needs_create = match cur {
                Value::Object(o) => !o.iter().any(|(k, _)| k == seg),
                _ => false,
            };
            if needs_create {
                cur.as_object_mut()
                    .unwrap()
                    .push((seg.to_string(), Value::Object(Vec::new())));
            }
            match step_mut(cur, seg) {
                Some(next) => cur = next,
                None => return false,
            }
        }
        let last = segs[segs.len() - 1];
        match cur {
            Value::Object(_) => {
                cur.insert(last, value);
                true
            }
            Value::Array(items) => match last.parse::<usize>() {
                Ok(i) if i < items.len() => {
                    items[i] = value;
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Remove the value at a dot path; returns it if something was removed.
    pub fn remove_path(&mut self, path: &str) -> Option<Value> {
        let segs: Vec<&str> = split_path(path).collect();
        let (last, prefix) = segs.split_last()?;
        let mut cur = self;
        for seg in prefix {
            cur = step_mut(cur, seg)?;
        }
        match cur {
            Value::Object(_) => cur.remove(last),
            Value::Array(items) => {
                let i = last.parse::<usize>().ok()?;
                (i < items.len()).then(|| items.remove(i))
            }
            _ => None,
        }
    }

    /// Enumerate every `(dot_path, leaf_value)` pair in the document.
    /// Leaves are non-container values and empty containers. Used by the
    /// all-fields search engine (§2.1.2) to match over every field.
    pub fn flatten(&self) -> Vec<(String, &Value)> {
        let mut out = Vec::new();
        fn walk<'v>(v: &'v Value, prefix: &mut String, out: &mut Vec<(String, &'v Value)>) {
            match v {
                Value::Object(members) if !members.is_empty() => {
                    for (k, val) in members {
                        let len = prefix.len();
                        if !prefix.is_empty() {
                            prefix.push('.');
                        }
                        prefix.push_str(k);
                        walk(val, prefix, out);
                        prefix.truncate(len);
                    }
                }
                Value::Array(items) if !items.is_empty() => {
                    for (i, val) in items.iter().enumerate() {
                        let len = prefix.len();
                        if !prefix.is_empty() {
                            prefix.push('.');
                        }
                        let mut buf = [0u8; 20];
                        prefix.push_str(fmt_usize(i, &mut buf));
                        walk(val, prefix, out);
                        prefix.truncate(len);
                    }
                }
                leaf => out.push((prefix.clone(), leaf)),
            }
        }
        let mut prefix = String::new();
        walk(self, &mut prefix, &mut out);
        out
    }
}

/// Format a usize into a stack buffer without allocating.
fn fmt_usize(mut n: usize, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).unwrap()
}

fn split_path(path: &str) -> impl Iterator<Item = &str> {
    path.split('.').filter(|s| !s.is_empty())
}

fn step<'v>(v: &'v Value, seg: &str) -> Option<&'v Value> {
    match v {
        Value::Object(_) => v.get(seg),
        Value::Array(items) => items.get(seg.parse::<usize>().ok()?),
        _ => None,
    }
}

fn step_mut<'v>(v: &'v mut Value, seg: &str) -> Option<&'v mut Value> {
    match v {
        Value::Object(_) => v.get_mut(seg),
        Value::Array(items) => {
            let i = seg.parse::<usize>().ok()?;
            items.get_mut(i)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use crate::{arr, obj, Value};

    fn doc() -> Value {
        obj! {
            "title" => "Ventilator outcomes",
            "tables" => arr![
                obj! { "caption" => "Table 1", "rows" => arr![arr!["a", "b"]] },
                obj! { "caption" => "Table 2" },
            ],
            "meta" => obj! { "year" => 2021, "venue" => "EDBT" },
        }
    }

    #[test]
    fn path_descends_objects_and_arrays() {
        let d = doc();
        assert_eq!(
            d.path("tables.1.caption").and_then(Value::as_str),
            Some("Table 2")
        );
        assert_eq!(
            d.path("tables.0.rows.0.1").and_then(Value::as_str),
            Some("b")
        );
        assert_eq!(d.path("meta.year").and_then(Value::as_i64), Some(2021));
    }

    #[test]
    fn path_misses_return_none() {
        let d = doc();
        assert!(d.path("missing").is_none());
        assert!(d.path("tables.9").is_none());
        assert!(d.path("title.x").is_none());
        assert!(d.path("tables.x").is_none());
    }

    #[test]
    fn empty_path_returns_self() {
        let d = doc();
        assert_eq!(d.path(""), Some(&d));
    }

    #[test]
    fn set_path_creates_objects() {
        let mut d = obj! {};
        assert!(d.set_path("a.b.c", Value::int(1)));
        assert_eq!(d.path("a.b.c").and_then(Value::as_i64), Some(1));
        // Overwrite in place.
        assert!(d.set_path("a.b.c", Value::int(2)));
        assert_eq!(d.path("a.b.c").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn set_path_respects_array_bounds() {
        let mut d = obj! { "xs" => arr![1, 2] };
        assert!(d.set_path("xs.1", Value::int(9)));
        assert_eq!(d.path("xs.1").and_then(Value::as_i64), Some(9));
        assert!(!d.set_path("xs.5", Value::int(9)));
    }

    #[test]
    fn set_path_refuses_to_tunnel_through_scalars() {
        let mut d = obj! { "a" => 1 };
        assert!(!d.set_path("a.b", Value::int(2)));
        assert_eq!(d.path("a").and_then(Value::as_i64), Some(1));
    }

    #[test]
    fn remove_path_works_on_objects_and_arrays() {
        let mut d = doc();
        assert_eq!(
            d.remove_path("meta.venue"),
            Some(Value::str("EDBT"))
        );
        assert!(d.path("meta.venue").is_none());
        let removed = d.remove_path("tables.0").unwrap();
        assert_eq!(
            removed.path("caption").and_then(Value::as_str),
            Some("Table 1")
        );
        assert_eq!(d.path("tables").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(d.remove_path("nope.nope"), None);
    }

    #[test]
    fn flatten_enumerates_all_leaves() {
        let d = obj! {
            "a" => 1,
            "b" => arr![obj!{ "c" => "x" }, 2],
            "empty" => obj!{},
        };
        let flat = d.flatten();
        let paths: Vec<&str> = flat.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["a", "b.0.c", "b.1", "empty"]);
    }

    #[test]
    fn flatten_of_scalar_is_itself() {
        let v = Value::int(3);
        let flat = v.flatten();
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].0, "");
    }
}
