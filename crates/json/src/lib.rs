#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-json
//!
//! A small, dependency-free JSON implementation used as the document model
//! throughout the COVIDKG reproduction. The original system stores every
//! publication, table and knowledge-graph fragment as JSON inside a sharded
//! MongoDB cluster; this crate provides the equivalent value model for the
//! in-process store in `covidkg-store`.
//!
//! Components:
//!
//! * [`Value`] — the JSON value enum (with a distinct integer/float split so
//!   document ordering behaves like BSON's numeric comparisons).
//! * [`parse`] / [`Value::parse`] — a recursive-descent parser with precise
//!   error positions.
//! * [`Value::to_json`] / [`Value::to_json_pretty`] — writers.
//! * Dot-path access ([`Value::path`], [`Value::remove_path`],
//!   [`Value::set_path`]) matching MongoDB's `a.b.0.c` addressing, used by
//!   `$match` / `$project` stages.
//! * A total ordering over values ([`Value::cmp_total`]) used by `$sort`.

mod parse;
mod path;
mod value;
mod write;

pub use parse::{parse, ParseError};
pub use value::{Number, Value};
pub use write::{write_number, write_string};

/// Build a [`Value::Object`] from `key => value` pairs.
///
/// ```
/// use covidkg_json::{obj, Value};
/// let v = obj! { "title" => "CORD-19", "year" => 2020 };
/// assert_eq!(v.path("year").and_then(Value::as_i64), Some(2020));
/// ```
#[macro_export]
macro_rules! obj {
    () => { $crate::Value::Object(Vec::new()) };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {
        $crate::Value::Object(vec![ $( ($k.to_string(), $crate::Value::from($v)) ),+ ])
    };
}

/// Build a [`Value::Array`] from elements convertible into [`Value`].
///
/// ```
/// use covidkg_json::{arr, Value};
/// let v = arr![1, "two", 3.0];
/// assert_eq!(v.as_array().unwrap().len(), 3);
/// ```
#[macro_export]
macro_rules! arr {
    () => { $crate::Value::Array(Vec::new()) };
    ( $( $v:expr ),+ $(,)? ) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($v) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_build_nested_documents() {
        let doc = obj! {
            "title" => "Vaccine side-effects",
            "tags" => arr!["vaccine", "safety"],
            "meta" => obj! { "year" => 2021 },
        };
        assert_eq!(doc.path("meta.year").and_then(Value::as_i64), Some(2021));
        assert_eq!(doc.path("tags.1").and_then(Value::as_str), Some("safety"));
    }

    #[test]
    fn empty_macros() {
        assert_eq!(obj! {}, Value::Object(vec![]));
        assert_eq!(arr![], Value::Array(vec![]));
    }
}
