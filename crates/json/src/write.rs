//! JSON serialization: compact (WAL/wire) and pretty (reports, exports).

use crate::value::{Number, Value};
use std::fmt::Write as _;

impl Value {
    /// Serialize to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        write_value(self, &mut out);
        out
    }

    /// Serialize to human-readable, 2-space-indented JSON.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::with_capacity(128);
        write_pretty(self, &mut out, 0);
        out
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, out: &mut String, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(val, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(n: Number, out: &mut String) {
    match n {
        Number::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Number::Float(f) => {
            if f.is_finite() {
                // Ensure floats stay floats on round-trip.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                // JSON has no NaN/Infinity; null is the conventional mapping.
                out.push_str("null");
            }
        }
    }
}

/// Append `s` as a JSON string literal, quotes included — the writer's
/// own escaping, for callers that splice one string into a serialized
/// document.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{arr, obj, parse, Value};

    #[test]
    fn compact_round_trip() {
        let doc = obj! {
            "title" => "Masks & \"aerosols\"",
            "n" => 42,
            "score" => 0.5,
            "tags" => arr!["covid", "ppe"],
            "nested" => obj! { "deep" => arr![obj!{ "x" => Value::Null }] },
        };
        let text = doc.to_json();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn pretty_round_trip() {
        let doc = obj! { "a" => arr![1, 2], "b" => obj!{ "c" => true } };
        assert_eq!(parse(&doc.to_json_pretty()).unwrap(), doc);
    }

    #[test]
    fn floats_keep_floatness() {
        let v = Value::float(5.0);
        assert_eq!(v.to_json(), "5.0");
        assert!(matches!(
            parse("5.0").unwrap(),
            Value::Num(crate::Number::Float(_))
        ));
    }

    #[test]
    fn control_characters_escape() {
        let v = Value::str("a\u{1}b\nc");
        assert_eq!(v.to_json(), "\"a\\u0001b\\nc\"");
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Value::float(f64::NAN).to_json(), "null");
        assert_eq!(Value::float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn empty_containers_stay_compact_in_pretty_mode() {
        let doc = obj! { "a" => arr![], "b" => obj!{} };
        let pretty = doc.to_json_pretty();
        assert!(pretty.contains("[]"));
        assert!(pretty.contains("{}"));
    }

    #[test]
    fn unicode_survives_round_trip() {
        let v = Value::str("naïve 漢字 😀");
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }
}
